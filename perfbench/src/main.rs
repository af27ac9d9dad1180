//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --wcet <path>`: runs one workload and prints its metrics as the last
//! line of stdout (see `README.md`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::analysis::{self, FULLSTACK_CTX, SCALE_FLAT};
use perfbench::serve;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    wcet: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut wcet) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            // Absolute, because the serve workload runs it from its
            // input directory.
            "--wcet" => {
                wcet = Some(std::path::absolute(&value).map_err(|e| format!("--wcet: {e}"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        wcet: wcet.ok_or("--wcet is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !["scale_flat", "fullstack_ctx", "serve_stream"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    }
    // One directory per workload, emptied before anything is timed, so
    // a run leaves at most one run's inputs and store behind.
    let work = Path::new(".bench_work").join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "scale_flat" => analysis::run(SCALE_FLAT, args.seed, args.seconds, args.trace, &work),
        "fullstack_ctx" => analysis::run(FULLSTACK_CTX, args.seed, args.seconds, args.trace, &work),
        _ => serve::run(args.seed, args.seconds, args.trace, &work, &args.wcet),
    };
    for failure in &result.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    eprintln!(
        "perfbench: {}: attempted {}, failed {}, failed_frac {}",
        args.workload,
        result.attempted,
        result.failed,
        result.failed_frac()
    );
    for m in &result.metrics {
        eprintln!("perfbench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.json());
    ExitCode::SUCCESS
}
