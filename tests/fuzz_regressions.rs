//! Minimized reproducers from the differential fuzzing campaign
//! (`wcet fuzz`), pinned so fixed bugs stay fixed without re-running the
//! fuzzer, plus generator self-tests and the shrinker's own acceptance
//! test against a deliberately planted unsoundness.

use wcet_predictability::core::fuzz::{
    check_program, generate, input_vectors, lower, program_seed, run_campaign, CheckKind, FuncSpec,
    FuzzOptions, OracleOptions, ProgSpec, Sabotage, Stmt,
};
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::{AluOp, Cond, IsaKind};

fn assert_sound(spec: &ProgSpec, seed: u64) {
    let gp = lower(spec).expect("reproducer lowers");
    let inputs = input_vectors(seed);
    if let Some(v) = check_program(&gp, &inputs, &OracleOptions::default()) {
        panic!(
            "oracle violation on pinned reproducer ({:?}): {v}",
            spec.isa
        );
    }
}

/// Found by `wcet fuzz --seed 1` (program #38, rv32i, shrunk to 19
/// instructions): with caches at context depth 0, a callee's cache
/// fixpoint started from the *cold* ACS, whose empty may-cache proves
/// every line absent and classifies the callee's entry fetches
/// always-miss. The real machine hits those fetches whenever the caller
/// warmed the line — here the `call` fetch itself pulls the callee's
/// first two instructions into the shared icache line — so the analysis
/// BCET (108) exceeded the observed cycles (99). Callees now start from
/// the *unknown* ACS (may poisoned, absence never proven); only the task
/// entry is genuinely cold.
#[test]
fn cold_callee_entry_must_not_inflate_bcet() {
    for isa in [IsaKind::Rv32i, IsaKind::House] {
        let spec = ProgSpec {
            isa,
            // Flash: 10-cycle reads make the 9-cycle hit/miss gap visible.
            code_base: 0x0010_0000,
            funcs: vec![
                FuncSpec {
                    level: 0,
                    body: vec![
                        Stmt::Store { rs: 0, slot: 13 },
                        Stmt::Alu {
                            op: AluOp::Slt,
                            rd: 2,
                            rs1: 7,
                            rs2: 2,
                        },
                        Stmt::Alu {
                            op: AluOp::Slt,
                            rd: 2,
                            rs1: 9,
                            rs2: 8,
                        },
                        Stmt::Call { callee: 1 },
                    ],
                },
                // The callee body is empty: its prologue/epilogue alone
                // shares an icache line with the caller's call site.
                FuncSpec {
                    level: 1,
                    body: vec![],
                },
            ],
        };
        assert_sound(&spec, 10452641423838070007);
    }
}

/// The same shape with the roles reversed: a callee that *does* work in
/// SRAM code, exercising the unknown-entry ACS for the data cache too.
#[test]
fn sram_callee_with_data_traffic_stays_sound() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        let spec = ProgSpec {
            isa,
            code_base: 0x1000,
            funcs: vec![
                FuncSpec {
                    level: 0,
                    body: vec![
                        Stmt::Store { rs: 1, slot: 3 },
                        Stmt::Call { callee: 1 },
                        Stmt::Load { rd: 2, slot: 3 },
                    ],
                },
                FuncSpec {
                    level: 1,
                    body: vec![
                        Stmt::Load { rd: 4, slot: 3 },
                        Stmt::Store { rs: 4, slot: 5 },
                    ],
                },
            ],
        };
        assert_sound(&spec, 7);
    }
}

/// `Interval::mul` reduces fully-wrapping products modulo 2³² (PR 7 left
/// it "top on possible wrap"): programs whose values ride on `mul`/`mulhu`
/// wraps must stay inside the analyzer's bounds on both ISAs — on RV32I
/// these lower to the M-extension register forms.
#[test]
fn wrapping_mul_and_mulhu_programs_stay_sound() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        let spec = ProgSpec {
            isa,
            code_base: 0x1000,
            funcs: vec![FuncSpec {
                level: 0,
                body: vec![
                    Stmt::Li {
                        rd: 0,
                        value: 1 << 20,
                    },
                    // r2 = 2²⁰ · 2²⁰ mod 2³² = 0 (a full wrap the domain
                    // now tracks exactly).
                    Stmt::Alu {
                        op: AluOp::Mul,
                        rd: 1,
                        rs1: 0,
                        rs2: 0,
                    },
                    Stmt::Li {
                        rd: 2,
                        value: 0xffff_ffff,
                    },
                    // MAX · MAX wraps to 1; mulhu keeps the high half.
                    Stmt::Alu {
                        op: AluOp::Mul,
                        rd: 3,
                        rs1: 2,
                        rs2: 2,
                    },
                    Stmt::Alu {
                        op: AluOp::Mulhu,
                        rd: 4,
                        rs1: 2,
                        rs2: 2,
                    },
                    // Fold the products into memory and a branch so the
                    // value analysis result is load-bearing.
                    Stmt::Store { rs: 3, slot: 1 },
                    Stmt::Diamond {
                        cond: wcet_predictability::isa::Cond::Eq,
                        rs1: 1,
                        rs2: 9, // index past the register files = r0
                        then_body: vec![Stmt::Store { rs: 4, slot: 2 }],
                        else_body: vec![Stmt::Load { rd: 5, slot: 2 }],
                    },
                ],
            }],
        };
        assert_sound(&spec, 99);
    }
}

/// Found by `wcet fuzz --seed 1` (program #30, house) once the grammar
/// grew same-target branches, shrunk to `blt r2, r12, next; next: halt`:
/// the abstract pipeline carried only the predicted transfer on the one
/// merged edge of a branch whose target is its own fall-through, so
/// whichever outcome mispredicted escaped both bounds. Pinned on both
/// ISAs, with and without a long-latency `fdiv` (house only) in front.
#[test]
fn same_target_branches_stay_sound_under_pipeline_timing() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        let branch = Stmt::SameTargetBranch {
            cond: Cond::Lt,
            rs1: 1,
            rs2: 8,
        };
        let mut bodies = vec![vec![branch.clone()]];
        if isa == IsaKind::House {
            bodies.push(vec![
                Stmt::FDiv {
                    fd: 1,
                    fs1: 1,
                    fs2: 1,
                },
                Stmt::SameTargetBranch {
                    cond: Cond::Eq,
                    rs1: 9,
                    rs2: 9,
                },
                Stmt::FDiv {
                    fd: 2,
                    fs1: 2,
                    fs2: 2,
                },
            ]);
        }
        for body in bodies {
            let spec = ProgSpec {
                isa,
                code_base: 0x1000,
                funcs: vec![FuncSpec { level: 0, body }],
            };
            assert_sound(&spec, 7);
        }
    }
}

/// Generator self-test at the integration level: a slice of the seeded
/// corpus lowers, terminates, respects its annotations, and stays inside
/// the analyzer's bounds across the whole oracle matrix on both ISAs.
#[test]
fn seeded_corpus_slice_is_sound_on_both_isas() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        for index in 0..8u64 {
            let seed = program_seed(1, index, isa);
            let spec = generate(seed, isa);
            let gp = lower(&spec)
                .unwrap_or_else(|e| panic!("seed {seed} ({}) failed to lower: {e}", isa.name()));
            let inputs = input_vectors(seed);
            if let Some(v) = check_program(&gp, &inputs, &OracleOptions::default()) {
                panic!("seed {seed} ({}): {v}", isa.name());
            }
        }
    }
}

/// Generated annotations match real trip counts: the interpreter executes
/// an annotated call-bearing loop exactly `bound` times (measured at the
/// callee's entry, which runs once per iteration).
#[test]
fn emitted_annotations_match_observed_trip_counts() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        let bound = 6u16;
        let spec = ProgSpec {
            isa,
            code_base: 0x1000,
            funcs: vec![
                FuncSpec {
                    level: 0,
                    body: vec![Stmt::Loop {
                        bound,
                        annotate: true,
                        body: vec![Stmt::Call { callee: 1 }],
                    }],
                },
                FuncSpec {
                    level: 1,
                    body: vec![Stmt::Load { rd: 1, slot: 0 }],
                },
            ],
        };
        let gp = lower(&spec).expect("lowers");
        assert!(
            gp.annotations.contains("bound 6"),
            "call-bearing loop must be annotated: {:?}",
            gp.annotations
        );
        let mut interp = Interpreter::with_config(&gp.image, MachineConfig::simple_for(isa));
        let outcome = interp.run(1_000_000).expect("terminates");
        let callee_entry = gp.image.symbol("f1").expect("f1 exists");
        assert_eq!(
            outcome.profile.get(&callee_entry).copied(),
            Some(u64::from(bound)),
            "callee must run once per annotated iteration ({})",
            isa.name()
        );
        assert_sound(&spec, 11);
    }
}

/// Pipeline-timing stress pinned from the matrix extension (PR 10): a
/// branch ladder inside an annotated loop around a call. Every shape the
/// abstract pipeline has to get right at once — forward/backward BTFNT
/// edges, the drained state after a mispredict, call-site residual
/// snapshots feeding the callee's entry, and the loop fixpoint over
/// residual-latency vectors. `check_program` runs the full oracle matrix,
/// so this pins the `pipeline` cases (with and without caches) against
/// the cycle-exact pipelined interpreter on both ISAs.
#[test]
fn branch_ladders_stay_sound_under_pipeline_timing() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        let spec = ProgSpec {
            isa,
            code_base: 0x0010_0000,
            funcs: vec![
                FuncSpec {
                    level: 0,
                    body: vec![
                        Stmt::Li { rd: 1, value: 3 },
                        Stmt::Loop {
                            bound: 7,
                            annotate: true,
                            body: vec![
                                Stmt::Diamond {
                                    cond: Cond::Lt,
                                    rs1: 0,
                                    rs2: 1,
                                    then_body: vec![Stmt::Load { rd: 2, slot: 1 }],
                                    else_body: vec![Stmt::Store { rs: 2, slot: 2 }],
                                },
                                Stmt::Call { callee: 1 },
                                Stmt::Diamond {
                                    cond: Cond::Ne,
                                    rs1: 2,
                                    rs2: 0,
                                    then_body: vec![Stmt::Alu {
                                        op: AluOp::Add,
                                        rd: 3,
                                        rs1: 3,
                                        rs2: 1,
                                    }],
                                    else_body: vec![],
                                },
                            ],
                        },
                    ],
                },
                FuncSpec {
                    level: 1,
                    body: vec![
                        Stmt::Diamond {
                            cond: Cond::Geu,
                            rs1: 1,
                            rs2: 0,
                            then_body: vec![Stmt::Load { rd: 4, slot: 3 }],
                            else_body: vec![Stmt::Li { rd: 4, value: 9 }],
                        },
                        Stmt::Store { rs: 4, slot: 4 },
                    ],
                },
            ],
        };
        assert_sound(&spec, 0x9_1010);
    }
}

/// The shrinker's own acceptance test: a deliberately planted unsoundness
/// (the analyzer silently modeling a cache-less machine while the real one
/// has caches) is caught by the oracle and shrunk to a reproducer of at
/// most 10 instructions.
#[test]
fn planted_cache_unsoundness_is_caught_and_shrunk() {
    let report = run_campaign(&FuzzOptions {
        programs: 5,
        seed: 1,
        sabotage: Sabotage::AnalyzeWithoutCaches,
        thread_check_every: 0,
        cache_check_every: 0,
        progress_every: 0,
        ..FuzzOptions::default()
    });
    let failure = report
        .failure
        .expect("dropping every cache penalty must violate the bounds oracle");
    assert!(
        matches!(failure.violation.kind, CheckKind::Bounds { .. }),
        "expected a bounds violation, got {:?}",
        failure.violation.kind
    );
    let insts = failure.minimized.image.code_len();
    assert!(
        insts <= 10,
        "shrinker left {insts} instructions (> 10):\n{failure}"
    );
}
