//! Drift-normalised timing.
//!
//! Host speed on a small shared VM drifts by ±15% over tens of seconds,
//! which swamps the changes the benchmark must resolve. Every timed unit
//! is therefore bracketed by a fixed single-threaded reference kernel,
//! and its time is reported scaled by `KERNEL_NOMINAL_S / kernel_local`
//! (the mean of the two bracketing kernel windows), so a slower host
//! slows the kernel and the unit alike and the factor cancels. Raw
//! seconds and the per-unit factor are logged beside it.
//!
//! The kernel only measures the host if nothing else in the process (or
//! the watched daemon) runs while it does: a spinning worker pool would
//! slow the kernel and make a regression look like a gain. Each kernel
//! window therefore samples CPU time from `/proc` and runs the kernel
//! again when other threads burned CPU during it; a unit whose window
//! stays noisy through every try is marked failed.
//!
//! Creating a file costs this host's kernel anywhere from ~20 µs to
//! ~1 ms of CPU time, and reading one back 4–10 µs, moving within
//! minutes while the CPU kernel's speed stays put. Units whose work
//! touches the artifact store therefore also get a file probe in each
//! window, in the directories the store uses, and their
//! [`Unit::normalised`] time prices each created and read file at a fixed
//! nominal cost instead of the measured local one.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (2-core x86-64 VM), in
/// seconds. Only the ratio to it matters, so any fixed value works; this
/// one keeps scaled times close to raw ones on that host.
pub const KERNEL_NOMINAL_S: f64 = 0.03;

/// Kernel samples older than this no longer bracket the next unit.
const BRACKET_GAP: Duration = Duration::from_millis(5);

/// Linux reports per-task CPU time in clock ticks of 1/100 s.
const TICK_S: f64 = 0.01;

/// Entries the reference kernel inserts into each of its two maps.
const KERNEL_ENTRIES: usize = 60_000;

/// Kernel runs per window while foreign CPU keeps showing up in them.
/// A blip (a daemon thread finishing a frame, a vCPU stolen from an idle
/// thread) passes on the next try; a spinning pool fails every try.
const KERNEL_TRIES: usize = 3;

/// Times the file probe reads back each file it wrote: reads are cheap,
/// so one pass would time too few of them to average their noise.
const READ_PASSES: usize = 8;

/// Bytes per probe file: about an artifact-store entry (223 B function
/// artifacts, 535 B IPET entries on average).
const PROBE_BYTES: usize = 512;

/// What creating, writing and renaming one small file is costed at in
/// [`Unit::normalised`]: about its cost on the reference host on a
/// quiet afternoon (20–90 µs measured).
pub const CREATE_NOMINAL_S: f64 = 50e-6;

/// What reading one small file and its metadata, as a store hit does, is
/// costed at in [`Unit::normalised`]: about its cost on the reference
/// host (4–7 µs measured; twice that in a slow minute).
pub const READ_NOMINAL_S: f64 = 5e-6;

/// Store files a piece of timed work created and read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileOps {
    pub created: usize,
    pub read: usize,
}

/// Seconds per file operation, as the file probe measured them.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileCost {
    pub create_s: f64,
    pub read_s: f64,
}

/// The reference kernel: fill a hash map whose values are small vectors
/// and an ordered map from a fixed pseudo-random key stream, then walk
/// the first and run range lookups on the second. Like the analyzer, it
/// allocates and frees many small blocks and chases pointers through a
/// few MiB, so host contention slows it about as much as it slows the
/// analyzer. Measured on the reference host over 240 s, in 10-s windows
/// whose raw analysis times spread 24% (IQR / median), dividing by this
/// kernel left 5-8%; a cache-resident table walk left 16-18%, because
/// contention slowed the analyzer 1.4-1.7x as much as the walk.
#[must_use]
pub fn reference_kernel() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    let mut hashed = HashMap::with_hasher(BuildHasherDefault::<DefaultHasher>::default());
    for i in 0..KERNEL_ENTRIES {
        hashed.insert(next(), vec![i; 3]);
    }
    for (k, v) in &hashed {
        acc ^= k ^ v.len() as u64;
    }
    drop(hashed);
    let mut ordered = BTreeMap::new();
    for _ in 0..KERNEL_ENTRIES {
        let k = next();
        ordered.insert(k, k >> 3);
    }
    for _ in 0..KERNEL_ENTRIES {
        if let Some((k, v)) = ordered.range(next()..).next() {
            acc ^= k ^ v;
        }
    }
    black_box(acc)
}

/// CPU ticks (user + system) from a `/proc/.../stat` file, or `None`
/// when it cannot be read.
fn cpu_ticks(path: &Path) -> Option<u64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Summed CPU ticks of every thread of process `proc_dir` except those
/// in `exclude`. Per-thread counters are compared with themselves only:
/// the process-wide counter rounds differently and drifts from the sum of
/// its threads by a tick or two even when a single thread runs.
fn thread_ticks(proc_dir: &str, exclude: &[OsString]) -> Option<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(format!("{proc_dir}/task")).ok()? {
        let task = entry.ok()?.path();
        if task
            .file_name()
            .is_some_and(|t| exclude.iter().any(|e| e == t))
        {
            continue;
        }
        // A thread that exits between listing and reading counts zero.
        total += cpu_ticks(&task.join("stat")).unwrap_or(0);
    }
    Some(total)
}

/// The calling thread's id as named under `/proc/self/task`, which
/// `/proc/thread-self` links to.
fn own_tid() -> Option<OsString> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name().map(std::ffi::OsStr::to_os_string)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One writer's share of the file probe: creates, writes and renames
/// `files` small files in each of `dirs` the way the artifact store
/// writes an entry (temp file, then rename), then reads each back with
/// its metadata the way a store hit does. Returns the seconds both steps
/// took and the files made.
fn probe_writer(dirs: &[PathBuf], writer: usize, files: usize) -> (f64, f64, Vec<PathBuf>) {
    let payload = [0x5a_u8; PROBE_BYTES];
    let mut made = Vec::new();
    let start = Instant::now();
    for dir in dirs {
        for i in 0..files {
            let tmp = dir.join(format!("perfbench-probe-{writer}-{i}.part"));
            let path = dir.join(format!("perfbench-probe-{writer}-{i}.probe"));
            if std::fs::write(&tmp, payload)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .is_ok()
            {
                made.push(path);
            }
        }
    }
    let create_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..READ_PASSES {
        for path in &made {
            let _ = black_box(std::fs::read(path));
            let _ = black_box(std::fs::metadata(path));
        }
    }
    let read_s = start.elapsed().as_secs_f64() / READ_PASSES as f64;
    (create_s, read_s, made)
}

/// Seconds per file of [`probe_writer`] from `threads` writers at once.
/// One writer runs on the calling thread, the one that times the units:
/// the two cores of the reference host are not always equally fast, and
/// a probe on a spawned thread priced files at ~250 µs for whole runs
/// while the calling thread's set-up wrote them for under 100 µs each.
/// The files are removed again, untimed. 0 when none could be written.
fn file_cost(dirs: &[PathBuf], threads: usize, files: usize) -> FileCost {
    let per_thread: Vec<(f64, f64, Vec<PathBuf>)> = if threads <= 1 {
        vec![probe_writer(dirs, 0, files)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|writer| scope.spawn(move || probe_writer(dirs, writer, files)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the file probe does not panic"))
                .collect()
        })
    };
    let (mut create_s, mut read_s, mut files) = (0.0, 0.0, 0);
    for (c, r, made) in &per_thread {
        create_s += c;
        read_s += r;
        files += made.len();
        for path in made {
            let _ = std::fs::remove_file(path);
        }
    }
    if files == 0 {
        return FileCost::default();
    }
    FileCost {
        create_s: create_s / files as f64,
        read_s: read_s / files as f64,
    }
}

/// One kernel window: the reference kernel and, when the clock has probe
/// directories, the file-creation probe.
#[derive(Debug, Clone, Copy)]
struct KernelSample {
    secs: f64,
    /// No other thread of this process, and not the watched process,
    /// burned CPU during the kernel run that was kept.
    quiet: bool,
    /// Seconds per file operation, from [`file_cost`].
    files: FileCost,
    ended: Instant,
}

/// One timed unit, as returned by [`Clock::time`].
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub raw_s: f64,
    /// `KERNEL_NOMINAL_S / kernel_local`, where `kernel_local` is the
    /// mean of the two kernel windows that bracket the unit. Re-scoring
    /// 20 runs per workload, the median of the nine windows around a unit
    /// instead left up to 60% more spread between runs in six of seven
    /// unit kinds: host speed moves within seconds.
    pub scale: f64,
    /// Both bracketing kernel windows were quiet.
    pub quiet: bool,
    /// Seconds per file operation: the mean of the two bracketing
    /// windows' file probes (0 when the clock has none).
    pub files: FileCost,
}

impl Unit {
    /// The unit's drift-normalised time in seconds, for work that
    /// touches no store files.
    #[must_use]
    pub fn scaled(self) -> f64 {
        self.normalised(self.raw_s, FileOps::default())
    }

    /// Drift-normalised seconds of `raw_s` of work inside this unit (the
    /// whole unit or one request of it) that did `ops`: the time left
    /// after the file operations' locally measured cost is scaled like
    /// CPU time, and each operation is costed at [`CREATE_NOMINAL_S`] or
    /// [`READ_NOMINAL_S`]. So doing fewer or more of them still shows,
    /// while the host's swings in what they cost do not. The time left is
    /// kept at a quarter of `raw_s` or more, so a probe that overestimates
    /// cannot zero it.
    #[must_use]
    pub fn normalised(self, raw_s: f64, ops: FileOps) -> f64 {
        let (created, read) = (ops.created as f64, ops.read as f64);
        let local = created * self.files.create_s + read * self.files.read_s;
        let rest = (raw_s - local).max(0.25 * raw_s);
        rest * self.scale + created * CREATE_NOMINAL_S + read * READ_NOMINAL_S
    }
}

/// [`Unit::scaled`] of each unit.
#[must_use]
pub fn scaled_all(units: &[Unit]) -> Vec<f64> {
    units.iter().map(|u| u.scaled()).collect()
}

#[derive(Debug, Clone)]
struct UnitRecord {
    label: String,
    unit: Unit,
    kernel_after_s: f64,
}

/// Brackets timed units with the reference kernel.
#[derive(Debug, Default)]
pub struct Clock {
    last: Option<KernelSample>,
    /// A second process whose CPU counts as foreign during kernel
    /// windows (the serve daemon).
    watch: Option<u32>,
    units: Vec<UnitRecord>,
    /// Where the file-creation probe writes (see [`Clock::probe_files_in`]).
    probe_dirs: Vec<PathBuf>,
    /// Threads the reference kernel runs on at once (see
    /// [`Clock::kernel_threads`]); 0 counts as 1.
    kernel_threads: usize,
    /// How many writers the timed work has and how many files per
    /// directory and writer the probe creates (see
    /// [`Clock::probe_files_in`]).
    probe_writers: usize,
    probe_files: usize,
    /// Kernel runs that saw foreign CPU, retried ones included.
    pub noisy_windows: usize,
}

impl Clock {
    #[must_use]
    pub fn new(watch: Option<u32>) -> Clock {
        Clock {
            watch,
            ..Clock::default()
        }
    }

    /// Makes every following kernel window probe the cost of creating
    /// and reading `files` files in each of `dirs` (none: no probe).
    /// Timed work that touches store files should probe the directories
    /// it uses; a clock with few units needs more files per probe,
    /// because one probe's estimate wanders by ±40% from one window to
    /// the next.
    ///
    /// With one writer the probe writes from one thread. With two (the
    /// serve daemon's connections, whose requests overlap part of the
    /// time) it also writes from two threads at once, where each file
    /// cost 1.4–1.9x as much on the reference host, and takes the mean of
    /// both passes' create costs: in serve runs, the one-thread cost left
    /// first-sight latencies 1.9x higher when files were slow, the
    /// two-thread cost 1.9x lower.
    pub fn probe_files_in(&mut self, dirs: Vec<PathBuf>, writers: usize, files: usize) {
        if dirs != self.probe_dirs || writers != self.probe_writers || files != self.probe_files {
            self.probe_dirs = dirs;
            self.probe_writers = writers;
            self.probe_files = files;
            // The last window probed something else.
            self.last = None;
        }
    }

    /// Seconds per file operation for the clock's probe settings.
    fn probe_file_cost(&self) -> FileCost {
        if self.probe_dirs.is_empty() {
            return FileCost::default();
        }
        let one = file_cost(&self.probe_dirs, 1, self.probe_files);
        if self.probe_writers > 1 {
            let two = file_cost(&self.probe_dirs, 2, self.probe_files);
            FileCost {
                create_s: 0.5 * (one.create_s + two.create_s),
                read_s: one.read_s,
            }
        } else {
            one
        }
    }

    fn kernel_window(&mut self) -> KernelSample {
        let mut sample = self.kernel_run();
        for _ in 1..KERNEL_TRIES {
            if sample.quiet {
                break;
            }
            sample = self.kernel_run();
        }
        sample.files = self.probe_file_cost();
        sample.ended = Instant::now();
        sample
    }

    /// Makes every following kernel window run the reference kernel on
    /// `threads` threads at once and keep the slowest one's time, for
    /// timed work that keeps that many cores busy. The serve stream's
    /// lanes, the daemon's connections and its pool use both cores; in a
    /// minute when the one-thread kernel ran at 0.55x of its nominal
    /// speed, serve latencies net of file work ran at about 0.35x, and
    /// its spreads went past their bounds.
    pub fn kernel_threads(&mut self, threads: usize) {
        if threads != self.kernel_threads {
            self.kernel_threads = threads;
            // The last window measured something else.
            self.last = None;
        }
    }

    /// One reference-kernel run with the drift guard's CPU sampling.
    fn kernel_run(&mut self) -> KernelSample {
        let helpers = self.kernel_threads.max(1) - 1;
        let watched = self.watch.map(|p| format!("/proc/{p}"));
        let start_line = Barrier::new(helpers + 1);
        let (tid_tx, tid_rx) = mpsc::channel();
        let (secs, before, after) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    let (tid_tx, start_line) = (tid_tx.clone(), &start_line);
                    scope.spawn(move || {
                        let _ = tid_tx.send(own_tid());
                        start_line.wait();
                        let start = Instant::now();
                        black_box(reference_kernel());
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            // The kernel's own threads are not foreign CPU.
            let own = own_tid();
            let mut kernel_tids: Vec<OsString> = own.iter().cloned().collect();
            kernel_tids.extend(tid_rx.iter().take(helpers).flatten());
            let read = || {
                own.as_ref()?;
                let others = thread_ticks("/proc/self", &kernel_tids)?;
                let daemon = match &watched {
                    Some(dir) => thread_ticks(dir, &[])?,
                    None => 0,
                };
                Some(others + daemon)
            };
            let before = read();
            start_line.wait();
            let start = Instant::now();
            black_box(reference_kernel());
            let mut secs = start.elapsed().as_secs_f64();
            for handle in handles {
                let helper_s = handle.join().expect("the reference kernel does not panic");
                secs = secs.max(helper_s);
            }
            (secs, before, read())
        });
        let quiet = match (before, after) {
            (Some(t0), Some(t1)) => {
                // A tick can land in any window after a few microseconds
                // of work; two or more that also cover half the window
                // mean another core was busy.
                let foreign = t1.saturating_sub(t0) as f64 * TICK_S;
                foreign < 2.0 * TICK_S || foreign < 0.5 * secs
            }
            // Without /proc there is nothing to compare; do not fail.
            _ => true,
        };
        if !quiet {
            self.noisy_windows += 1;
        }
        KernelSample {
            secs,
            quiet,
            files: FileCost::default(),
            ended: Instant::now(),
        }
    }

    /// Runs `f` between two kernel windows and returns its result with
    /// the timed unit. A kernel window that ended just before is reused
    /// as the leading bracket.
    pub fn time<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> (T, Unit) {
        let before = match self.last {
            Some(k) if k.ended.elapsed() < BRACKET_GAP => k,
            _ => self.kernel_window(),
        };
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel_window();
        self.last = Some(after);
        let unit = Unit {
            raw_s,
            scale: KERNEL_NOMINAL_S / (0.5 * (before.secs + after.secs)),
            quiet: before.quiet && after.quiet,
            files: FileCost {
                create_s: 0.5 * (before.files.create_s + after.files.create_s),
                read_s: 0.5 * (before.files.read_s + after.files.read_s),
            },
        };
        self.units.push(UnitRecord {
            label: label.to_owned(),
            unit,
            kernel_after_s: after.secs,
        });
        (out, unit)
    }

    /// Every unit's scale factor, in order.
    #[must_use]
    pub fn scales(&self) -> Vec<f64> {
        self.units.iter().map(|r| r.unit.scale).collect()
    }

    /// One line per unit: label, raw seconds and scale factor.
    #[must_use]
    pub fn log(&self) -> Vec<String> {
        self.units
            .iter()
            .map(|r| {
                format!(
                    "{}\traw_s={:.6}\tscale={:.4}\tscaled_s={:.6}\tkernel_after_s={:.6}\tcreate_us={:.1}\tread_us={:.1}",
                    r.label,
                    r.unit.raw_s,
                    r.unit.scale,
                    r.unit.scaled(),
                    r.kernel_after_s,
                    1e6 * r.unit.files.create_s,
                    1e6 * r.unit.files.read_s
                )
            })
            .collect()
    }
}
