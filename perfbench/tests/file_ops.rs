//! File-operation normalisation: store files are priced at a nominal
//! cost instead of what the host charges for them at the moment.
//!
//! A test file of its own: the drift-guard test in `clock.rs` must not
//! share its process with the probe's writer threads.

use std::hint::black_box;

use perfbench::clock::{Clock, FileCost, FileOps, Unit, CREATE_NOMINAL_S, READ_NOMINAL_S};

#[test]
fn normalising_costs_store_files_at_their_nominal_price() {
    let unit = Unit {
        raw_s: 0.010,
        scale: 0.5,
        quiet: true,
        files: FileCost {
            create_s: 400e-6,
            read_s: 20e-6,
        },
    };
    // 10 creates and 100 reads cost 6 ms here: the 4 ms left are
    // scaled, the operations priced at their nominal cost.
    let ops = FileOps {
        created: 10,
        read: 100,
    };
    let expected = 0.004 * 0.5 + 10.0 * CREATE_NOMINAL_S + 100.0 * READ_NOMINAL_S;
    assert!((unit.normalised(unit.raw_s, ops) - expected).abs() < 1e-12);
    // Without file operations it is plain CPU scaling.
    assert!((unit.scaled() - 0.005).abs() < 1e-12);
    // An overestimated file cost cannot take the time below a quarter
    // of the raw time.
    let many = FileOps {
        created: 1000,
        read: 0,
    };
    let floor = 0.25 * 0.010 * 0.5 + 1000.0 * CREATE_NOMINAL_S;
    assert!((unit.normalised(unit.raw_s, many) - floor).abs() < 1e-12);
}

#[test]
fn the_file_probe_measures_where_it_is_pointed_and_cleans_up() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-probe-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut clock = Clock::new(None);
    clock.probe_files_in(vec![dir.clone()], 2, 4);
    let (_, unit) = clock.time("probe", || black_box(1));
    assert!(unit.files.create_s > 0.0 && unit.files.read_s > 0.0);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "probe files left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
