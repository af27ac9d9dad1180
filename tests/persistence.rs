//! Acceptance tests for the per-context cache persistence analysis
//! (`AnalyzerConfig::persistence` / `wcet --persistence`): with caches at
//! context depth 1, footprint-summarized calls plus first-miss
//! classification must *strictly* tighten the WCET bound on the
//! persistence workloads over the clobbering (PR-4) analysis, the
//! soundness oracle must hold across the whole corpus with the feature
//! on and off at depths 0 and 1, warm incremental replays must stay
//! byte-identical to cold at any thread count, and call-free contexts
//! must replay their unit records after a one-leaf edit at depth 1.

use std::path::PathBuf;

use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::incr::ArtifactCache;
use wcet_predictability::core::workload::{self, Workload};
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};

struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "wcet-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache { dir }
    }

    fn open(&self) -> ArtifactCache {
        ArtifactCache::open(&self.dir).expect("cache directory opens")
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn config(w: &Workload, persistence: bool, parallelism: Option<usize>) -> AnalyzerConfig {
    AnalyzerConfig {
        machine: MachineConfig::with_caches(),
        annotations: w.annotations.clone(),
        context_depth: 1,
        persistence,
        parallelism,
        ..AnalyzerConfig::new()
    }
}

fn canonical(mut report: AnalysisReport) -> String {
    report.trace.phase_times = Default::default();
    report.trace.phase_work_times = Default::default();
    report.incr = None;
    format!("{report:#?}")
}

/// The headline acceptance claim: `--persistence` at depth 1 strictly
/// tightens the WCET bound on `persistence_killer` and
/// `call_tree_heavy`, and the observed cached execution stays inside
/// both envelopes.
#[test]
fn persistence_strictly_tightens_the_persistence_workloads() {
    for w in [
        workload::persistence_killer(),
        workload::call_tree_heavy(2, 3, &[]),
    ] {
        let clobbered = WcetAnalyzer::with_config(config(&w, false, None))
            .analyze(&w.image)
            .unwrap();
        let persistent = WcetAnalyzer::with_config(config(&w, true, None))
            .analyze(&w.image)
            .unwrap();
        assert!(
            persistent.wcet_cycles < clobbered.wcet_cycles,
            "{}: persistence bound {} must be strictly below the clobbering bound {}",
            w.name,
            persistent.wcet_cycles,
            clobbered.wcet_cycles
        );
        let mut interp = Interpreter::with_config(&w.image, MachineConfig::with_caches());
        let observed = interp.run(100_000_000).unwrap().cycles;
        for (label, r) in [("clobbered", &clobbered), ("persistent", &persistent)] {
            assert!(
                r.wcet_cycles >= observed,
                "{} {label}: observed {observed} > WCET {}",
                w.name,
                r.wcet_cycles
            );
            assert!(
                r.bcet_cycles <= observed,
                "{} {label}: observed {observed} < BCET {}",
                w.name,
                r.bcet_cycles
            );
        }
        assert!(
            persistent.trace.cache_first_miss > 0,
            "{}: the tightening must come from first-miss classifications",
            w.name
        );
    }
}

/// The soundness oracle across the whole corpus, persistence on and off,
/// on the cached machine at depth 1: observed ∈ [BCET, WCET], and the
/// persistence bound never exceeds the clobbering bound (footprints and
/// first-miss only ever refine).
#[test]
fn workload_soundness_oracle_persistence() {
    for w in workload::corpus() {
        let machine = MachineConfig::with_caches();
        let mut interp = Interpreter::with_config(&w.image, machine);
        let observed = interp
            .run(100_000_000)
            .unwrap_or_else(|e| panic!("workload {} halts: {e}", w.name))
            .cycles;
        let mut bounds = Vec::new();
        for persistence in [false, true] {
            let report = WcetAnalyzer::with_config(config(&w, persistence, None))
                .analyze(&w.image)
                .unwrap_or_else(|e| panic!("workload {} (persistence {persistence}): {e}", w.name));
            assert!(
                report.wcet_cycles >= observed,
                "{} (persistence {persistence}): observed {observed} > WCET {}",
                w.name,
                report.wcet_cycles
            );
            assert!(
                report.bcet_cycles <= observed,
                "{} (persistence {persistence}): observed {observed} < BCET {}",
                w.name,
                report.bcet_cycles
            );
            bounds.push(report.wcet_cycles);
        }
        assert!(
            bounds[1] <= bounds[0],
            "{}: persistence must only refine ({} vs {})",
            w.name,
            bounds[1],
            bounds[0]
        );
    }
}

/// Persistence-enabled reports are byte-identical at every thread count.
#[test]
fn persistence_reports_are_thread_invariant() {
    let w = workload::persistence_killer();
    let reference = canonical(
        WcetAnalyzer::with_config(config(&w, true, Some(1)))
            .analyze(&w.image)
            .unwrap(),
    );
    for threads in [Some(4), None] {
        let report = WcetAnalyzer::with_config(config(&w, true, threads))
            .analyze(&w.image)
            .unwrap();
        assert_eq!(
            canonical(report),
            reference,
            "threads {threads:?} changed the persistence report"
        );
    }
}

/// Warm incremental replays with persistence on: byte-identical to cold
/// at any thread count, every function artifact (and footprint) hit,
/// zero IPET re-solves.
#[test]
fn persistence_warm_replay_is_byte_identical_at_any_thread_count() {
    for w in [
        workload::persistence_killer(),
        workload::call_tree_heavy(2, 3, &[]),
    ] {
        let tmp = TempCache::new(w.name);
        let mut cache = tmp.open();
        let analyzer = WcetAnalyzer::with_config(config(&w, true, None));
        let plain = canonical(analyzer.analyze(&w.image).unwrap());
        let cold = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
        assert_eq!(canonical(cold), plain, "{}: cold cached run", w.name);

        for threads in [Some(1), Some(4), None] {
            let analyzer = WcetAnalyzer::with_config(config(&w, true, threads));
            let warm = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
            let stats = warm.incr.clone().expect("stats present");
            assert_eq!(
                stats.fn_hits, stats.functions,
                "{} threads {threads:?}: all artifacts replay: {stats:?}",
                w.name
            );
            assert_eq!(
                stats.ipet_solves, 0,
                "{} threads {threads:?}: no IPET re-solves: {stats:?}",
                w.name
            );
            assert_eq!(
                canonical(warm),
                plain,
                "{} threads {threads:?}: warm replay diverged",
                w.name
            );
        }
    }
}

/// Turning persistence on and off against one shared cache directory
/// must never cross-contaminate: the fingerprints fork the key space.
#[test]
fn persistence_flag_forks_the_cache_space() {
    let w = workload::persistence_killer();
    let tmp = TempCache::new("fork");
    let mut cache = tmp.open();
    let on = WcetAnalyzer::with_config(config(&w, true, None));
    let off = WcetAnalyzer::with_config(config(&w, false, None));
    let plain_on = canonical(on.analyze(&w.image).unwrap());
    let plain_off = canonical(off.analyze(&w.image).unwrap());
    assert_ne!(plain_on, plain_off, "the feature must change the report");

    let cold_on = canonical(on.analyze_incremental(&w.image, &mut cache).unwrap());
    let cold_off = canonical(off.analyze_incremental(&w.image, &mut cache).unwrap());
    let warm_on = canonical(on.analyze_incremental(&w.image, &mut cache).unwrap());
    let warm_off = canonical(off.analyze_incremental(&w.image, &mut cache).unwrap());
    assert_eq!(cold_on, plain_on);
    assert_eq!(cold_off, plain_off);
    assert_eq!(warm_on, plain_on, "warm persistence-on run contaminated");
    assert_eq!(warm_off, plain_off, "warm persistence-off run contaminated");
}

/// The cached machine with persistence at context depth 0: one merged
/// unit per function, callees entered from the unknown ACS pair.
fn depth_zero_config(
    w: &Workload,
    persistence: bool,
    parallelism: Option<usize>,
) -> AnalyzerConfig {
    AnalyzerConfig {
        context_depth: 0,
        ..config(w, persistence, parallelism)
    }
}

/// The soundness oracle across the whole corpus at depth 0, persistence
/// on and off: observed ∈ [BCET, WCET], and footprint-summarized calls
/// plus first-miss classification never loosen the clobbering bound.
#[test]
fn workload_soundness_oracle_persistence_at_depth_zero() {
    for w in workload::corpus() {
        let mut interp = Interpreter::with_config(&w.image, MachineConfig::with_caches());
        let observed = interp
            .run(100_000_000)
            .unwrap_or_else(|e| panic!("workload {} halts: {e}", w.name))
            .cycles;
        let mut bounds = Vec::new();
        for persistence in [false, true] {
            let report = WcetAnalyzer::with_config(depth_zero_config(&w, persistence, None))
                .analyze(&w.image)
                .unwrap_or_else(|e| panic!("workload {} (persistence {persistence}): {e}", w.name));
            assert!(
                report.bcet_cycles <= observed && observed <= report.wcet_cycles,
                "{} (persistence {persistence}): observed {observed} outside [{}, {}]",
                w.name,
                report.bcet_cycles,
                report.wcet_cycles
            );
            bounds.push(report.wcet_cycles);
        }
        assert!(
            bounds[1] <= bounds[0],
            "{}: persistence must only refine ({} vs {})",
            w.name,
            bounds[1],
            bounds[0]
        );
    }
}

/// Warm incremental replays with persistence at depth 0: byte-identical
/// to cold at any thread count, every function artifact hit, every unit
/// replayed from its record, zero IPET re-solves.
#[test]
fn persistence_warm_replay_is_byte_identical_at_depth_zero() {
    for w in [
        workload::persistence_killer(),
        workload::call_tree_heavy(2, 3, &[]),
    ] {
        let tmp = TempCache::new(&format!("d0-{}", w.name));
        let mut cache = tmp.open();
        let analyzer = WcetAnalyzer::with_config(depth_zero_config(&w, true, None));
        let plain = canonical(analyzer.analyze(&w.image).unwrap());
        let cold = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
        assert_eq!(canonical(cold), plain, "{}: cold cached run", w.name);

        for threads in [Some(1), Some(2), None] {
            let analyzer = WcetAnalyzer::with_config(depth_zero_config(&w, true, threads));
            let warm = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
            let stats = warm.incr.clone().expect("stats present");
            assert_eq!(
                (stats.fn_hits, stats.unit_hits, stats.ipet_solves),
                (stats.functions, stats.functions, 0),
                "{} threads {threads:?}: everything replays: {stats:?}",
                w.name
            );
            assert_eq!(
                canonical(warm),
                plain,
                "{} threads {threads:?}: warm replay diverged",
                w.name
            );
        }
    }
}

/// `main` → `groups` dispatchers → `per_group` call-free leaves, each a
/// counted loop with a `mul`, a load and a data-dependent diamond.
/// `edit` overrides one leaf's trip count.
fn dispatcher_leaf_program(groups: u32, per_group: u32, edit: Option<(u32, u32)>) -> Workload {
    let mut src = String::from(".org 0x1000\nmain:\n");
    for g in 0..groups {
        src.push_str(&format!(" call g{g}\n"));
    }
    src.push_str(" halt\n");
    for g in 0..groups {
        src.push_str(&format!("g{g}:\n subi sp, sp, 4\n sw lr, 0(sp)\n"));
        for l in 0..per_group {
            src.push_str(&format!(" call f{}\n", g * per_group + l));
        }
        src.push_str(" lw lr, 0(sp)\n addi sp, sp, 4\n ret\n");
    }
    for i in 0..groups * per_group {
        let iters = match edit {
            Some((leaf, n)) if leaf == i => n,
            _ => 3 + i % 4,
        };
        src.push_str(&format!(
            "f{i}:\n li r1, {iters}\n li r7, {:#x}\n\
             f{i}_loop:\n mul r3, r1, r1\n lw r5, 0(r7)\n beq r5, r3, f{i}_skip\n addi r4, r4, 1\n\
             f{i}_skip:\n subi r1, r1, 1\n bne r1, r0, f{i}_loop\n ret\n",
            0x8000 + 4 * i
        ));
    }
    let image = wcet_predictability::isa::asm::assemble(&src).expect("program assembles");
    Workload {
        name: "dispatcher_leaf",
        description: "dispatchers over call-free leaves",
        image,
        annotations: Default::default(),
        source: src,
    }
}

/// Call-free contexts replay at depth 1: after a one-leaf edit under the
/// full stack (caches, depth 1, persistence, pipeline), every leaf under
/// an untouched dispatcher is served from its unit record — only units
/// whose call-site hooks a callee joins (`main`, the dispatchers) and the
/// edited leaf are re-analyzed — and the warm report matches a fresh one
/// byte for byte.
#[test]
fn call_free_contexts_replay_at_depth_one() {
    let (groups, per_group) = (3, 4);
    let base = dispatcher_leaf_program(groups, per_group, None);
    let edited = dispatcher_leaf_program(groups, per_group, Some((1, 9)));
    let full_stack = |w: &Workload| {
        let mut c = config(w, true, None);
        c.machine.pipeline = true;
        c.pipeline = true;
        c
    };
    let tmp = TempCache::new("leaf-replay");
    let mut cache = tmp.open();
    let analyzer = WcetAnalyzer::with_config(full_stack(&base));
    analyzer
        .analyze_incremental(&base.image, &mut cache)
        .unwrap();
    let warm = analyzer
        .analyze_incremental(&edited.image, &mut cache)
        .unwrap();
    let stats = warm.incr.clone().expect("stats present");
    let fresh = analyzer.analyze(&edited.image).unwrap();
    assert_eq!(
        canonical(warm),
        canonical(fresh),
        "warm diverged from fresh"
    );

    let leaves = (groups * per_group) as usize;
    let untouched = ((groups - 1) * per_group) as usize;
    assert!(
        stats.unit_hits >= untouched,
        "every leaf under an untouched dispatcher replays: {stats:?}"
    );
    assert_eq!(
        stats.unit_hits,
        leaves - 1,
        "every leaf but the edited one replays: {stats:?}"
    );
    assert_eq!(
        stats.fn_misses, 1,
        "only the edited leaf is rewritten: {stats:?}"
    );
}
