//! The layer-share self-check, so a generator change cannot quietly
//! change what a workload measures: in `scale_flat` the value phase is
//! the largest, in `fullstack_ctx` the cache/pipeline phase is, and in
//! `serve_stream` artifact hits, misses and dedup hits all occur.
//!
//! Run with `cargo test --release`: the traced runs analyze the full-size
//! programs.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::analysis::{self, FULLSTACK_CTX, SCALE_FLAT};
use perfbench::metrics::RunResult;
use perfbench::serve;

/// Builds the `wcet` binary the serve workload runs as a daemon, into
/// this test's own target directory.
fn wcet_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // <target>/<profile>/deps/<test>
    let target = exe.ancestors().nth(3).expect("target directory");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--locked",
            "--bin",
            "wcet",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building wcet failed");
    target.join("release").join("wcet")
}

fn work(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".bench_work")
        .join(format!("test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory");
    dir
}

/// The metric names `BENCHMARK.json` declares in one of its lists.
fn declared(list: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let section = &text[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
        .collect()
}

fn assert_clean(name: &str, result: &RunResult, list: &str) {
    assert!(result.failures.is_empty(), "{name}: {:#?}", result.failures);
    assert!(result.attempted > 0);
    let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    let declared = declared(list);
    assert_eq!(emitted.len(), declared.len(), "{name}: {emitted:?}");
    for metric in &declared {
        assert!(
            emitted.contains(&metric.as_str()),
            "{name}: {metric} missing"
        );
    }
}

// One test runs the three workloads in turn: parallel tests would burn
// CPU inside each other's reference-kernel windows.
#[test]
fn traced_runs_keep_their_layer_shares() {
    for w in [SCALE_FLAT, FULLSTACK_CTX] {
        let result = analysis::run(w, 11, 1, true, &work(w.name));
        assert_clean(w.name, &result, "per_layer");
        analysis::layer_share_check(w.name, &result).expect("layer share");
    }
    // The untraced run emits the end-to-end list instead.
    let result = analysis::run(SCALE_FLAT, 11, 1, false, &work("untraced"));
    assert_clean("scale_flat untraced", &result, "end_to_end");
    let wcet = wcet_binary();
    let dir = work("serve_stream");
    let result = serve::run(11, 1, true, &dir, &wcet);
    assert_clean("serve_stream", &result, "per_layer");
    analysis::layer_share_check("serve_stream", &result).expect("layer share");
}
