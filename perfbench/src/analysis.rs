//! The two in-process analysis workloads, `scale_flat` and
//! `fullstack_ctx`, plus the helpers the serve workload shares with
//! them: the configurations, the interpreter check and the layer probe.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wcet_predictability::analysis::valueanalysis::{
    analyze_cfg, compute_summaries, entry_state_from_image, AnalysisConfig,
};
use wcet_predictability::cfg::graph::reconstruct;
use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzeError};
use wcet_predictability::core::phases::PhaseTrace;
use wcet_predictability::core::{AnalyzerConfig, ArtifactCache, IncrStats, WcetAnalyzer};
use wcet_predictability::guidelines::rules::check_program;
use wcet_predictability::isa::asm::assemble;
use wcet_predictability::isa::decode::decode_region;
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::Image;
use wcet_predictability::render::{render_analysis, render_report};

use crate::clock::{peak_rss_mb, scaled_all, Clock, FileOps, Unit};
use crate::gen::EditPlan;
use crate::metrics::RunResult;
use crate::stats::{geomean, median, percentile, rel_iqr};
use crate::trace::Tracer;

/// Set-up is repeated this often per run and reported as the median.
pub const SETUP_REPS: usize = 9;

/// Files per store directory the file-creation probe writes around each
/// set-up repetition: few units, so each probe must be precise.
pub const SETUP_PROBE_FILES: usize = 32;

/// Files per store directory and writer the probe writes around each
/// measured unit: many units, whose probes' errors average out.
pub const UNIT_PROBE_FILES: usize = 6;

/// Interpreter fuel: far above any generated program's instruction count.
const FUEL: u64 = 50_000_000;

/// One of the in-process analysis workloads.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisWorkload {
    pub name: &'static str,
    pub groups: usize,
    pub per_group: usize,
    /// Caches, context depth 1, persistence and pipeline.
    pub full_stack: bool,
}

/// ~1k functions at depth 0 without caches: the value phase dominates.
pub const SCALE_FLAT: AnalysisWorkload = AnalysisWorkload {
    name: "scale_flat",
    groups: 32,
    per_group: 32,
    full_stack: false,
};

/// 529 functions under the whole cache/context/persistence/pipeline
/// stack: the cache/pipeline phase dominates.
pub const FULLSTACK_CTX: AnalysisWorkload = AnalysisWorkload {
    name: "fullstack_ctx",
    groups: 16,
    per_group: 32,
    full_stack: true,
};

/// The analyzer configuration and the matching concrete machine.
#[must_use]
pub fn config(full_stack: bool) -> (AnalyzerConfig, MachineConfig) {
    let mut machine = if full_stack {
        MachineConfig::with_caches()
    } else {
        MachineConfig::simple()
    };
    machine.pipeline = full_stack;
    let config = AnalyzerConfig {
        machine: machine.clone(),
        parallelism: Some(1),
        context_depth: usize::from(full_stack),
        persistence: full_stack,
        pipeline: full_stack,
        ..AnalyzerConfig::new()
    };
    (config, machine)
}

/// Runs the program on the concrete machine the analysis modelled.
///
/// # Errors
///
/// Returns the interpreter's error text.
pub fn observe(image: &Image, machine: &MachineConfig) -> Result<u64, String> {
    Interpreter::with_config(image, machine.clone())
        .run(FUEL)
        .map(|o| o.cycles)
        .map_err(|e| format!("interpreter: {e}"))
}

/// The soundness check: `observed ∈ [BCET, WCET]`. Returns the
/// `(WCET / observed, observed / BCET)` tightness pair.
///
/// # Errors
///
/// Describes the violated bound.
pub fn check_bounds(what: &str, bcet: u64, wcet: u64, observed: u64) -> Result<(f64, f64), String> {
    if bcet <= observed && observed <= wcet && bcet > 0 {
        Ok((wcet as f64 / observed as f64, observed as f64 / bcet as f64))
    } else {
        Err(format!(
            "{what}: observed {observed} cycles outside [BCET {bcet}, WCET {wcet}]"
        ))
    }
}

/// Runs one analyzer call, turning a panic into an error so it counts as
/// a failed operation instead of ending the run.
///
/// # Errors
///
/// The analyzer's error, or a note that it panicked.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, AnalyzeError>) -> Result<T, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(_) => Err("analyzer panicked".to_owned()),
    }
}

/// The report with wall clocks zeroed, rendered: the text warm and cold
/// runs must agree on byte for byte.
fn timeless(image: &Image, report: &mut AnalysisReport) -> String {
    report.trace.phase_times = [Duration::ZERO; 5];
    report.trace.phase_work_times = [Duration::ZERO; 5];
    render_report(image, report)
}

/// Per-layer timings from calling each module's public entry points
/// directly on one program, outside the analyzer's orchestration.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerProbe {
    pub decode_s: f64,
    pub reconstruct_s: f64,
    pub summaries_s: f64,
    /// Σ `analyze_cfg` over every function with summaries computed once.
    pub fixpoint_s: f64,
    pub check_s: f64,
    pub render_s: f64,
}

/// Runs of the layer probe per traced run; each layer keeps its median.
const PROBE_REPS: usize = 3;

/// Runs the layer probe [`PROBE_REPS`] times and keeps each layer's median.
///
/// # Errors
///
/// Returns decode or reconstruction errors.
pub fn layer_probe(image: &Image, report: &AnalysisReport) -> Result<LayerProbe, String> {
    let mut samples: Vec<LayerProbe> = Vec::new();
    for _ in 0..PROBE_REPS {
        let mut p = LayerProbe::default();
        let words: Vec<u32> = image
            .code
            .data
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let t = Instant::now();
        std::hint::black_box(decode_region(&words, image.code.base).map_err(|e| e.to_string())?);
        p.decode_s = t.elapsed().as_secs_f64();

        let resolver = AnalyzerConfig::new().annotations.to_resolver();
        let t = Instant::now();
        let program = reconstruct(image, &resolver).map_err(|e| e.to_string())?;
        p.reconstruct_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let summaries = Arc::new(compute_summaries(&program));
        p.summaries_s = t.elapsed().as_secs_f64();

        let entry_state = entry_state_from_image(image);
        let t = Instant::now();
        let analyses: Vec<_> = program
            .functions
            .iter()
            .map(|(&f, cfg)| {
                analyze_cfg(
                    cfg.clone(),
                    f,
                    entry_state.clone(),
                    AnalysisConfig::default(),
                    Arc::clone(&summaries),
                )
            })
            .collect();
        p.fixpoint_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::hint::black_box(check_program(image, &program, &analyses));
        p.check_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::hint::black_box(render_analysis(image, report));
        p.render_s = t.elapsed().as_secs_f64();
        samples.push(p);
    }
    let m = |f: fn(&LayerProbe) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Ok(LayerProbe {
        decode_s: m(|p| p.decode_s),
        reconstruct_s: m(|p| p.reconstruct_s),
        summaries_s: m(|p| p.summaries_s),
        fixpoint_s: m(|p| p.fixpoint_s),
        check_s: m(|p| p.check_s),
        render_s: m(|p| p.render_s),
    })
}

/// Pushes the per-layer metrics a set of cold reports and a layer probe
/// give. Shared with the serve workload.
pub fn push_layer_metrics(
    out: &mut RunResult,
    cold: &[PhaseTrace],
    analyze_s: &[f64],
    probe: &LayerProbe,
) {
    let med = |f: &dyn Fn(&PhaseTrace) -> f64| median(&cold.iter().map(f).collect::<Vec<_>>());
    let phase = |i: usize| move |t: &PhaseTrace| t.phase_times[i].as_secs_f64();
    out.push("isa.decode_s", probe.decode_s, "s");
    out.count("isa.decoded_insts", med(&|r| r.decoded_insts as f64));
    out.push("cfg.reconstruct_s", probe.reconstruct_s, "s");
    out.count("cfg.blocks", med(&|r| r.blocks as f64));
    out.count("cfg.edges", med(&|r| r.edges as f64));
    out.push("analysis.value_s", med(&phase(2)), "s");
    out.push("analysis.fixpoint_s", probe.fixpoint_s, "s");
    out.push("analysis.summaries_s", probe.summaries_s, "s");
    out.count(
        "analysis.loops_bounded",
        med(&|r| (r.loops_bounded_auto + r.loops_bounded_annot) as f64),
    );
    out.push("micro.cache_pipeline_s", med(&phase(3)), "s");
    out.count("micro.always_hit", med(&|r| r.cache_always_hit as f64));
    out.count("micro.always_miss", med(&|r| r.cache_always_miss as f64));
    out.count("micro.first_miss", med(&|r| r.cache_first_miss as f64));
    out.count(
        "micro.not_classified",
        med(&|r| r.cache_not_classified as f64),
    );
    out.count("micro.pipeline_edges", med(&|r| r.pipeline_edges as f64));
    out.push("path.ipet_s", med(&phase(4)), "s");
    out.count("path.ilp_vars", med(&|r| r.ilp_vars as f64));
    out.count("path.ilp_constraints", med(&|r| r.ilp_constraints as f64));
    out.count("ilp.pivots", med(&|r| r.lp_pivots as f64));
    out.count(
        "ilp.refactorizations",
        med(&|r| r.lp_refactorizations as f64),
    );
    out.count(
        "ilp.presolve_removed",
        med(&|r| r.lp_presolve_removed as f64),
    );
    out.push("guidelines.check_s", probe.check_s, "s");
    out.push("core.analyze_s", median(analyze_s), "s");
    let orchestration: Vec<f64> = cold
        .iter()
        .zip(analyze_s)
        .map(|(t, a)| a - t.total_time().as_secs_f64())
        .collect();
    out.push("core.orchestration_s", median(&orchestration), "s");
    let work: f64 = cold.iter().map(|t| t.total_work_time().as_secs_f64()).sum();
    let wall: f64 = cold.iter().map(|t| t.total_time().as_secs_f64()).sum();
    out.push("parallel.work_wall_ratio", work / wall, "ratio");
    out.push("render.report_s", probe.render_s, "s");
}

/// Pushes `incr.*` counters from a set of run statistics, each
/// aggregated with `agg` (the median per warm unit, or the stream total).
pub fn push_incr_metrics(
    out: &mut RunResult,
    stats: &[IncrStats],
    open_s: &[f64],
    store: &Path,
    agg: fn(&[f64]) -> f64,
) {
    let med =
        |f: fn(&IncrStats) -> usize| agg(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    out.push("incr.open_s", median(open_s), "s");
    out.count("incr.fn_hits", med(|s| s.fn_hits));
    out.count("incr.fn_misses", med(|s| s.fn_misses));
    out.count("incr.dirty", med(|s| s.dirty));
    out.count("incr.ipet_hits", med(|s| s.ipet_hits));
    out.count("incr.ipet_solves", med(|s| s.ipet_solves));
    let hits: usize = stats.iter().map(|s| s.fn_hits).sum();
    let functions: usize = stats.iter().map(|s| s.functions).sum();
    out.push(
        "incr.hit_ratio",
        hits as f64 / functions.max(1) as f64,
        "ratio",
    );
    let bytes = ArtifactCache::open(store)
        .and_then(|c| c.disk_bytes())
        .unwrap_or(0);
    out.push("incr.store_bytes", bytes as f64, "bytes");
}

/// Pushes the drift diagnostics every traced run reports.
pub fn push_bench_metrics(out: &mut RunResult, clock: &Clock, trace_overhead_s: f64) {
    let scales = clock.scales();
    out.push("bench.ref_scale", median(&scales), "ratio");
    out.push("bench.ref_scale_spread", rel_iqr(&scales), "ratio");
    out.count("bench.noisy_windows", clock.noisy_windows as f64);
    out.push("bench.trace_overhead", trace_overhead_s, "s");
}

/// Pushes the end-to-end metrics every workload reports.
#[allow(clippy::too_many_arguments)]
pub fn push_end_to_end(
    out: &mut RunResult,
    setup: &[f64],
    cold: &[f64],
    warm: &[f64],
    latencies: &[f64],
    stream_s: f64,
    rss_mb: f64,
    tightness: &[(f64, f64)],
) {
    let reps: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!(
        "perfbench: set-up repetitions, normalised s: {}",
        reps.join(" ")
    );
    out.push("setup_s", median(setup), "s");
    out.push("cold_s", median(cold), "s");
    out.push("warm_s", median(warm), "s");
    out.push("peak_rss_mb", rss_mb, "MiB");
    out.push("p50_ms", 1e3 * median(latencies), "ms");
    let p95 = percentile(latencies, 95.0);
    eprintln!(
        "perfbench: {} cold and {} warm sample(s); p95 over {} request(s), {} beyond it",
        cold.len(),
        warm.len(),
        latencies.len(),
        latencies.iter().filter(|&&l| l > p95).count()
    );
    out.push("p95_ms", 1e3 * p95, "ms");
    out.push("req_per_s", latencies.len() as f64 / stream_s, "1/s");
    let w: Vec<f64> = tightness.iter().map(|t| t.0).collect();
    let b: Vec<f64> = tightness.iter().map(|t| t.1).collect();
    out.push("wcet_tightness", geomean(&w), "ratio");
    out.push("bcet_tightness", geomean(&b), "ratio");
}

/// The layer-share self-check: the phase a workload exists to stress
/// must stay its largest.
///
/// # Errors
///
/// Names the phase that overtook it.
pub fn layer_share_check(workload: &str, out: &RunResult) -> Result<(), String> {
    let get = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let (expected, counters): (&str, &[&str]) = match workload {
        "scale_flat" => ("analysis.value_s", &[]),
        "fullstack_ctx" => ("micro.cache_pipeline_s", &[]),
        _ => ("", &["incr.fn_hits", "incr.fn_misses", "serve.dedup_hits"]),
    };
    for c in counters {
        if get(c).is_nan() || get(c) <= 0.0 {
            return Err(format!("{workload}: {c} is not > 0"));
        }
    }
    if expected.is_empty() {
        return Ok(());
    }
    let phases = [
        "isa.decode_s",
        "cfg.reconstruct_s",
        "analysis.value_s",
        "micro.cache_pipeline_s",
        "path.ipet_s",
    ];
    let largest = phases
        .iter()
        .copied()
        .max_by(|a, b| get(a).total_cmp(&get(b)))
        .expect("phases");
    if largest == expected {
        Ok(())
    } else {
        Err(format!(
            "{workload}: {largest} ({:.4}s) exceeds {expected} ({:.4}s)",
            get(largest),
            get(expected)
        ))
    }
}

/// What the edit loop and the module requests run on: the analyzer and
/// machine of the workload, the primed store and the tracer.
pub struct EditBench<'a> {
    pub analyzer: &'a WcetAnalyzer,
    pub machine: &'a MachineConfig,
    pub store: &'a Path,
    pub tracer: &'a Tracer,
}

/// Samples of the cold/warm edit loop: one cold and one warm unit per
/// edit.
#[derive(Debug, Default)]
pub struct EditSamples {
    cold: Vec<Unit>,
    /// Normalised seconds of each warm unit (it writes store entries).
    warm: Vec<f64>,
    traced_cold: Vec<Unit>,
    untraced_cold: Vec<Unit>,
    pub cold_traces: Vec<PhaseTrace>,
    pub analyze_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub warm_stats: Vec<IncrStats>,
}

impl EditSamples {
    /// Drift-normalised seconds of every cold edit.
    #[must_use]
    pub fn cold_s(&self) -> Vec<f64> {
        scaled_all(&self.cold)
    }

    /// Drift-normalised seconds of every warm edit.
    #[must_use]
    pub fn warm_s(&self) -> Vec<f64> {
        self.warm.clone()
    }

    /// Median traced minus median untraced cold edit, in seconds.
    #[must_use]
    pub fn trace_overhead(&self) -> f64 {
        median(&scaled_all(&self.traced_cold)) - median(&scaled_all(&self.untraced_cold))
    }
}

/// Per seeded one-leaf edit, times one cold unit (`analyze` + `render`)
/// and one warm unit (open the primed store, `analyze_incremental` +
/// `render`), while `more(edits so far)` holds. Then checks the edit
/// outside the timed units: the warm report equals the cold one, and
/// interpreter cycles lie within the bounds.
pub fn measure_edits(
    bench: &EditBench,
    plan: &mut EditPlan,
    more: impl Fn(usize) -> bool,
    clock: &mut Clock,
    out: &mut RunResult,
    tightness: &mut Vec<(f64, f64)>,
) -> EditSamples {
    let EditBench {
        analyzer,
        machine,
        store,
        tracer,
    } = *bench;
    let traced = tracer.enabled();
    let mut samples = EditSamples::default();
    let mut unit = 0u64;
    while more(samples.cold.len()) {
        unit += 1;
        let (leaf, variant) = plan.next_edit();
        let image = match assemble(&variant.source()) {
            Ok(image) => image,
            Err(e) => {
                out.check(Some(format!("unit {unit}: edit of leaf {leaf}: {e}")));
                continue;
            }
        };
        // Odd units of a traced run run untraced, so it can report what
        // tracing itself costs.
        tracer.set_enabled(traced && unit.is_multiple_of(2));
        let stored = store_files(store);
        let ((cold, analyze), timed) = clock.time("cold", || {
            let start = Instant::now();
            let report = tracer.span("core.analyze", unit, || {
                guarded(|| analyzer.analyze(&image))
            });
            let analyze = start.elapsed().as_secs_f64();
            if let Ok(r) = &report {
                tracer.span("render.report", unit, || {
                    std::hint::black_box(render_report(&image, r));
                });
            }
            (report, analyze)
        });
        out.check(unit_failure("cold", &timed, None));
        if tracer.enabled() {
            samples.traced_cold.push(timed);
        } else {
            samples.untraced_cold.push(timed);
        }
        samples.cold.push(timed);
        let ((warm, open), timed) = clock.time("warm", || {
            let start = Instant::now();
            let opened = tracer.span("incr.open", unit, || ArtifactCache::open(store));
            let open = start.elapsed().as_secs_f64();
            let warm = opened.map_err(|e| e.to_string()).and_then(|mut opened| {
                let report = tracer.span("core.analyze", unit, || {
                    guarded(|| analyzer.analyze_incremental(&image, &mut opened))
                })?;
                tracer.span("render.report", unit, || {
                    std::hint::black_box(render_report(&image, &report));
                });
                Ok(report)
            });
            (warm, open)
        });
        out.check(unit_failure("warm", &timed, None));
        let mut ops = warm
            .as_ref()
            .map_or(FileOps::default(), |r| store_ops(r.incr.as_ref()));
        ops.created = ops.created.max(store_files(store).saturating_sub(stored));
        samples.warm.push(timed.normalised(timed.raw_s, ops));
        tracer.set_enabled(traced);

        let (mut cold, mut warm) = match (cold, warm) {
            (Ok(c), Ok(w)) => (c, w),
            (Err(e), _) => {
                out.check(Some(format!("unit {unit}: cold: {e}")));
                continue;
            }
            (_, Err(e)) => {
                out.check(Some(format!("unit {unit}: warm: {e}")));
                continue;
            }
        };
        samples.open_s.push(open);
        samples.warm_stats.extend(warm.incr.clone());
        samples.analyze_s.push(analyze);
        samples.cold_traces.push(cold.trace.clone());
        let identical = timeless(&image, &mut cold) == timeless(&image, &mut warm);
        out.check((!identical).then(|| format!("unit {unit}: warm report differs from cold")));
        let checked = observe(&image, machine).and_then(|obs| {
            check_bounds(
                &format!("unit {unit}"),
                cold.bcet_cycles,
                cold.wcet_cycles,
                obs,
            )
        });
        match checked {
            Ok(t) => tightness.push(t),
            Err(e) => out.check(Some(e)),
        }
    }
    samples
}

/// Module requests per run at least: enough that ten latency samples
/// lie beyond the 95th percentile.
pub const MIN_MODULE_REQUESTS: usize = 240;

/// The module requests' share of the measured time. Their latencies are
/// scaled per timed unit, so the steadiness of `p50_ms` and `p95_ms`
/// grows with the number of units (~25 in 20 s) more than of requests.
const MODULE_SHARE: f64 = 0.25;

/// A timed unit of module requests takes requests until it has lasted
/// this long, so units stay long against the reference kernel.
const MODULE_UNIT_S: f64 = 0.06;

/// Requests assembled ahead of a timed unit.
const MODULE_BATCH: usize = 64;

/// The request stream of an analysis workload: module requests of the
/// plan until `until` and at least [`MIN_MODULE_REQUESTS`] of them, each
/// a cold `analyze` + `render` on one connection with zero think time.
/// Returns each request's drift-normalised latency and the stream's
/// drift-normalised wall time. Every answer's bounds are checked outside
/// the timed units.
pub fn measure_modules(
    bench: &EditBench,
    plan: &mut EditPlan,
    until: Instant,
    clock: &mut Clock,
    out: &mut RunResult,
    tightness: &mut Vec<(f64, f64)>,
) -> (Vec<f64>, f64) {
    let mut latencies = Vec::new();
    let mut stream_s = 0.0;
    let mut pending = std::collections::VecDeque::new();
    while Instant::now() < until || latencies.len() < MIN_MODULE_REQUESTS {
        while pending.len() < MODULE_BATCH {
            let (group, module) = plan.next_module();
            match assemble(&module.source()) {
                Ok(image) => pending.push_back((group, image)),
                Err(e) => out.check(Some(format!("module of group {group}: {e}"))),
            }
        }
        let (answers, timed) = clock.time("module", || {
            let start = Instant::now();
            let mut answers = Vec::new();
            while answers.is_empty() || start.elapsed().as_secs_f64() < MODULE_UNIT_S {
                let Some((group, image)) = pending.pop_front() else {
                    break;
                };
                let t = Instant::now();
                let report = guarded(|| bench.analyzer.analyze(&image));
                if let Ok(r) = &report {
                    std::hint::black_box(render_report(&image, r));
                }
                answers.push((group, image, report, t.elapsed().as_secs_f64()));
            }
            answers
        });
        out.check(unit_failure("module", &timed, None));
        stream_s += timed.scaled();
        for (group, image, report, latency) in answers {
            latencies.push(latency * timed.scale);
            let checked = report.and_then(|r| {
                let what = format!("module of group {group}");
                observe(&image, bench.machine)
                    .and_then(|obs| check_bounds(&what, r.bcet_cycles, r.wcet_cycles, obs))
            });
            match checked {
                Ok(t) => {
                    tightness.push(t);
                    out.check(None);
                }
                Err(e) => out.check(Some(e)),
            }
        }
    }
    (latencies, stream_s)
}

/// Runs one analysis workload for `seconds` and returns its metrics:
/// end-to-end ones untraced, per-layer ones when `traced`.
#[must_use]
pub fn run(w: AnalysisWorkload, seed: u64, seconds: u64, traced: bool, work: &Path) -> RunResult {
    let mut out = RunResult::default();
    let tracer = Tracer::new(traced);
    let mut clock = Clock::new(None);
    let (config, machine) = config(w.full_stack);
    let analyzer = WcetAnalyzer::with_config(config);
    let mut tightness: Vec<(f64, f64)> = Vec::new();

    // --- Set-up: generate, assemble, open the store, prime it --------
    let mut setup = Vec::new();
    let mut primed = None;
    let store_dir = work.join("store");
    for _ in 0..SETUP_REPS {
        fresh_store(&store_dir);
        clock.probe_files_in(store_dirs(&store_dir), 1, SETUP_PROBE_FILES);
        let (outcome, timed) = clock.time("setup", || {
            let plan = EditPlan::new(seed, w.name, w.groups, w.per_group);
            let image = tracer.span("isa.asm", 0, || assemble(&plan.base.source()));
            let image = image.map_err(|e| format!("assemble: {e}"))?;
            let mut store = tracer
                .span("incr.open", 0, || ArtifactCache::open(&store_dir))
                .map_err(|e| format!("open store: {e}"))?;
            let report = guarded(|| analyzer.analyze_incremental(&image, &mut store))
                .map_err(|e| format!("prime: {e}"))?;
            std::hint::black_box(render_report(&image, &report));
            Ok::<_, String>((plan, image, report))
        });
        out.check(unit_failure("setup", &timed, outcome.as_ref().err()));
        // The store was empty before.
        let mut ops = outcome
            .as_ref()
            .map_or(FileOps::default(), |(_, _, r)| store_ops(r.incr.as_ref()));
        ops.created = ops.created.max(store_files(&store_dir));
        setup.push(timed.normalised(timed.raw_s, ops));
        eprintln!(
            "perfbench: set-up repetition: raw {:.4} s, scale {:.4}, {} file(s) created at {:.1} us",
            timed.raw_s,
            timed.scale,
            ops.created,
            1e6 * timed.files.create_s
        );
        match outcome {
            Ok(ok) => primed = Some(ok),
            Err(_) => return out,
        }
    }
    let Some((mut plan, base_image, base_report)) = primed else {
        return out;
    };
    match observe(&base_image, &machine).and_then(|obs| {
        check_bounds(
            "base",
            base_report.bcet_cycles,
            base_report.wcet_cycles,
            obs,
        )
    }) {
        Ok(t) => tightness.push(t),
        Err(e) => out.check(Some(e)),
    }

    // --- Measurement: module requests, then cold and warm edits -------
    clock.probe_files_in(store_dirs(&store_dir), 1, UNIT_PROBE_FILES);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let bench = EditBench {
        analyzer: &analyzer,
        machine: &machine,
        store: &store_dir,
        tracer: &tracer,
    };
    let modules_end = start + Duration::from_secs_f64(MODULE_SHARE * seconds as f64);
    let (requests, stream_s) = measure_modules(
        &bench,
        &mut plan,
        modules_end,
        &mut clock,
        &mut out,
        &mut tightness,
    );
    let samples = measure_edits(
        &bench,
        &mut plan,
        |done| Instant::now() < deadline || done < 3,
        &mut clock,
        &mut out,
        &mut tightness,
    );

    if traced {
        let probe = match layer_probe(&base_image, &base_report) {
            Ok(p) => p,
            Err(e) => {
                out.check(Some(e));
                LayerProbe::default()
            }
        };
        let asm_s = tracer.durations("isa.asm");
        out.push("isa.asm_s", median(&asm_s), "s");
        push_layer_metrics(&mut out, &samples.cold_traces, &samples.analyze_s, &probe);
        push_incr_metrics(
            &mut out,
            &samples.warm_stats,
            &samples.open_s,
            &store_dir,
            median,
        );
        // No serve layer runs here: it spends no time and answers nothing.
        out.push("serve.process_s", 0.0, "s");
        out.push("serve.wait_s", 0.0, "s");
        out.count("serve.dedup_hits", 0.0);
        out.count("serve.failures", 0.0);
        push_bench_metrics(&mut out, &clock, samples.trace_overhead());
        let share = layer_share_check(w.name, &out);
        out.check(share.err());
        let _ = std::fs::write(work.join("spans.tsv"), tracer.dump());
    } else {
        let rss = peak_rss_mb(None).unwrap_or(f64::NAN);
        push_end_to_end(
            &mut out,
            &setup,
            &samples.cold_s(),
            &samples.warm_s(),
            &requests,
            stream_s,
            rss,
            &tightness,
        );
        out.push("ok_frac", 1.0 - out.failed_frac(), "ratio");
    }
    log_units(&clock);
    out
}

/// Empties the store directory before a set-up repetition and makes its
/// subdirectories again, outside the timed window, so every repetition
/// primes a fresh store, a run leaves one store behind, not one per
/// repetition, and the file-creation probe can run where the priming
/// writes.
pub fn fresh_store(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    for kind in ["fn", "fp", "ipet"] {
        let _ = std::fs::create_dir_all(dir.join(kind));
    }
}

/// The store subdirectories that take most entries, where the
/// file-creation probe runs for units that write the store.
#[must_use]
pub fn store_dirs(store: &Path) -> Vec<PathBuf> {
    vec![store.join("fn"), store.join("ipet")]
}

/// Store files an incremental analysis created and read: each function
/// artifact it computed and each IPET system it solved is written as a
/// new temp file renamed into place, and each hit reads a file and its
/// metadata. Footprint artifacts have no counter; [`store_files`] counts
/// the new ones.
#[must_use]
pub fn store_ops(stats: Option<&IncrStats>) -> FileOps {
    stats.map_or(FileOps::default(), |s| FileOps {
        created: s.fn_misses + s.ipet_solves,
        read: s.fn_hits + s.ipet_hits,
    })
}

/// Entries in the store's artifact directories. The growth over a unit
/// counts every new artifact, footprints included, but not rewrites of
/// existing ones, which [`store_ops`] counts.
#[must_use]
pub fn store_files(store: &Path) -> usize {
    ["fn", "fp", "ipet"]
        .iter()
        .map(|kind| std::fs::read_dir(store.join(kind)).map_or(0, Iterator::count))
        .sum()
}

/// A timed unit fails when its work failed or its kernel windows saw
/// foreign CPU.
pub fn unit_failure(what: &str, unit: &Unit, error: Option<&String>) -> Option<String> {
    match error {
        Some(e) => Some(format!("{what}: {e}")),
        None if !unit.quiet => Some(format!(
            "{what}: foreign CPU during a reference-kernel window ({:.3}s unit)",
            unit.raw_s
        )),
        None => None,
    }
}

/// Logs every unit's scale factor and the run's spread to stderr.
pub fn log_units(clock: &Clock) {
    for line in clock.log() {
        eprintln!("perfbench: unit {line}");
    }
    let scales = clock.scales();
    eprintln!(
        "perfbench: {} unit(s), ref scale median {:.4}, IQR/median {:.4}, noisy windows {}",
        scales.len(),
        median(&scales),
        rel_iqr(&scales),
        clock.noisy_windows
    );
}
