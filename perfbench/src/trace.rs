//! Spans recorded by the driver around its calls into the analyzer's
//! public functions. Kept in memory and written out once at the end; the
//! program itself carries no tracing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or timed unit) the span belongs to.
    pub request: u64,
}

impl Span {
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log. Disabled tracers record nothing, so the same
/// code runs traced and untraced; a traced run switches its tracer off
/// for some units to measure what tracing costs.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Spans open on this thread, innermost last, as (tracer address,
    /// span index): a new span's parent is the innermost one of its own
    /// tracer.
    static OPEN: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name`, a child of the span this
    /// tracer has open on the calling thread.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let me = std::ptr::from_ref(self) as usize;
        let parent = OPEN.with(|open| {
            open.borrow()
                .iter()
                .rev()
                .find(|(tracer, _)| *tracer == me)
                .map(|&(_, idx)| idx)
        });
        let idx = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                request,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push((me, idx)));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span log poisoned")[idx].end = end;
        out
    }

    /// Durations of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// `(request, duration)` of every span named `name`.
    #[must_use]
    pub fn by_request(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.secs()))
            .collect()
    }

    /// The span log as tab-separated lines: index, name, start, end,
    /// parent, request.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::from("idx\tname\tstart_s\tend_s\tparent\trequest\n");
        for (i, s) in self
            .spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .enumerate()
        {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{:.9}\t{:.9}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}
