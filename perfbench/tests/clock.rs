//! The drift guard: a unit whose kernel windows overlap CPU burned by
//! another thread must be marked, or a spinning worker pool could slow
//! the reference kernel and make a regression look like a gain.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use perfbench::clock::Clock;

// One test, not two: the test harness runs tests on parallel threads,
// and a spinner in one would (rightly) fail the other's windows.
#[test]
fn the_guard_passes_quiet_units_and_fails_a_spinning_thread() {
    let mut clock = Clock::new(None);
    let (_, unit) = clock.time("idle", || black_box(1 + 1));
    assert!(unit.quiet);
    assert!(unit.scale > 0.0);

    let stop = AtomicBool::new(false);
    let noisy = std::thread::scope(|s| {
        s.spawn(|| {
            let mut x = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = black_box(x.wrapping_add(1));
            }
        });
        // Several units, so a window the spinner missed on a
        // descheduled core cannot hide it.
        let noisy = (0..6)
            .filter(|_| !clock.time("spin", || black_box(0)).1.quiet)
            .count();
        stop.store(true, Ordering::Relaxed);
        noisy
    });
    assert!(noisy > 0, "no kernel window saw the spinning thread");
    assert!(clock.noisy_windows > 0);
}
