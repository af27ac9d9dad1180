//! The `serve_stream` workload: a `wcet serve` daemon driven in a closed
//! loop over two connections with zero think time.
//!
//! The untraced run talks to a real daemon child process over its Unix
//! socket. The traced run replays the same stream through an in-process
//! [`AnalysisService`] whose handler is the driver's own code, so spans
//! can wrap `AnalysisService::process` and the analyzer calls behind it
//! without any tracing inside the program.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use wcet_predictability::core::parallel::WorkerPool;
use wcet_predictability::core::phases::PhaseTrace;
use wcet_predictability::core::serve::AnalysisService;
use wcet_predictability::core::{workload, AnalyzerConfig, ArtifactCache, IncrStats, WcetAnalyzer};
use wcet_predictability::guidelines::annot::AnnotationSet;
use wcet_predictability::isa::asm::assemble_for;
use wcet_predictability::isa::interp::MachineConfig;
use wcet_predictability::isa::IsaKind;
use wcet_predictability::render::render_report;

use crate::analysis::{
    check_bounds, fresh_store, guarded, layer_probe, layer_share_check, log_units, observe,
    push_bench_metrics, push_end_to_end, push_incr_metrics, push_layer_metrics, store_dirs,
    store_files, unit_failure, SETUP_PROBE_FILES, SETUP_REPS, UNIT_PROBE_FILES,
};
use crate::clock::{peak_rss_mb, Clock, FileOps, Unit};
use crate::gen::{Request, ServePlan};
use crate::metrics::RunResult;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// The stream must reach this many requests even on a slow host, so the
/// 95th percentile has at least ten samples beyond it.
const MIN_REQUESTS: usize = 200;

/// Worker pool size and connection count: the host's two cores.
const WORKERS: usize = 2;

const DAEMON_TIMEOUT: Duration = Duration::from_secs(60);

/// One corpus program the stream can request.
#[derive(Debug, Clone)]
pub struct CorpusItem {
    pub name: String,
    pub isa: IsaKind,
    pub source: String,
    pub annotations: Option<String>,
}

/// The house and RV32I corpus workloads whose source reassembles to
/// their image and whose annotations can be written as text.
#[must_use]
pub fn serve_corpus() -> Vec<CorpusItem> {
    let mut items = Vec::new();
    let sets = [
        (IsaKind::House, workload::corpus()),
        (IsaKind::Rv32i, workload::rv32i_corpus()),
    ];
    for (isa, corpus) in sets {
        for w in corpus {
            if assemble_for(isa, &w.source).ok().as_ref() != Some(&w.image) {
                continue;
            }
            let annotations = if w.annotations == AnnotationSet::new() {
                None
            } else {
                // The one annotated corpus workload documents its loop
                // bound in a form the annotation grammar round-trips.
                let Some(header) = w.image.symbol("loop") else {
                    continue;
                };
                let text = format!("loop {header} bound 48;\n");
                if AnnotationSet::parse(&text).ok().as_ref() != Some(&w.annotations) {
                    continue;
                }
                Some(text)
            };
            items.push(CorpusItem {
                name: format!("{}.{}", w.name, isa.name()),
                isa,
                source: w.source,
                annotations,
            });
        }
    }
    items
}

/// A request as sent: file names relative to the work directory.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Line {
    program: String,
    annotations: Option<String>,
    isa: IsaKind,
    /// Which latency class it belongs to: `c`orpus, `f`irst sight,
    /// `r`epeat or `e`dit.
    kind: u8,
}

impl Line {
    fn text(&self) -> String {
        let mut s = self.program.clone();
        if let Some(a) = &self.annotations {
            s.push(' ');
            s.push_str(a);
        }
        if self.isa != IsaKind::House {
            s.push_str(" --isa ");
            s.push_str(self.isa.name());
        }
        s
    }
}

/// Writes the files a segment's requests need and returns their lines.
/// `lines` holds every line issued so far, indexed like the plan's
/// issued requests, so repeats resolve to the original files.
fn materialise(
    dir: &Path,
    corpus: &[CorpusItem],
    plan: &ServePlan,
    lines: &mut Vec<Line>,
) -> std::io::Result<()> {
    for idx in lines.len()..plan.issued().len() {
        let line = match &plan.issued()[idx] {
            Request::Corpus(i) => corpus_line(&corpus[*i]),
            Request::FirstSight(p) | Request::Edit(p) => {
                let kind = if matches!(plan.issued()[idx], Request::Edit(_)) {
                    b'e'
                } else {
                    b'f'
                };
                let program = format!("req-{idx}.s");
                fs::write(dir.join(&program), p.source())?;
                Line {
                    program,
                    annotations: None,
                    isa: IsaKind::House,
                    kind,
                }
            }
            Request::Repeat(j) => Line {
                kind: b'r',
                ..lines[*j].clone()
            },
        };
        lines.push(line);
    }
    Ok(())
}

/// The set-up's priming pass: the large program, then every corpus item.
fn prime_lines(corpus: &[CorpusItem]) -> Vec<Line> {
    let base = Line {
        program: "base.s".to_owned(),
        annotations: None,
        isa: IsaKind::House,
        kind: b'e',
    };
    std::iter::once(base)
        .chain(corpus.iter().map(corpus_line))
        .collect()
}

fn corpus_line(item: &CorpusItem) -> Line {
    Line {
        program: format!("{}.s", item.name),
        annotations: item
            .annotations
            .as_ref()
            .map(|_| format!("{}.annot", item.name)),
        isa: item.isa,
        kind: b'c',
    }
}

fn write_inputs(dir: &Path, corpus: &[CorpusItem], plan: &ServePlan) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for item in corpus {
        fs::write(dir.join(format!("{}.s", item.name)), &item.source)?;
        if let Some(text) = &item.annotations {
            fs::write(dir.join(format!("{}.annot", item.name)), text)?;
        }
    }
    fs::write(dir.join("base.s"), plan.base.source())
}

/// The store files the daemon created and read per analysis, by request
/// path in log order, from its `wcet: <program>: cache: H/F function
/// artifact(s) hit, D dirty, IH IPET hit(s), IS IPET solve(s), …` lines:
/// `F − H` function artifacts plus `IS` IPET entries created, `H + IH`
/// read (see [`crate::analysis::store_ops`]).
fn logged_ops(log: &str) -> BTreeMap<String, Vec<FileOps>> {
    let mut by_path: BTreeMap<String, Vec<FileOps>> = BTreeMap::new();
    for line in log.lines() {
        let Some((path, stats)) = line
            .strip_prefix("wcet: ")
            .and_then(|rest| rest.split_once(": cache: "))
        else {
            continue;
        };
        let nums: Vec<usize> = stats
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect();
        if let [hits, functions, _dirty, ipet_hits, solves, ..] = nums[..] {
            by_path.entry(path.to_owned()).or_default().push(FileOps {
                created: functions.saturating_sub(hits) + solves,
                read: hits + ipet_hits,
            });
        }
    }
    by_path
}

/// One answered request of the stream, with where and how it was timed.
struct Answered {
    answer: Answer,
    /// The segment's timed unit.
    unit: Unit,
    segment: usize,
    lane: usize,
    /// Spans were recorded during the segment.
    traced: bool,
}

/// The store files the daemon created and read for each answer: the log
/// entries of its path, matched in send order. A deduped follower, which
/// has no entry, shares its leader's.
fn answer_ops(answered: &[Answered], logged: &BTreeMap<String, Vec<FileOps>>) -> Vec<FileOps> {
    let mut order: Vec<usize> = (0..answered.len()).collect();
    order.sort_by_key(|&i| answered[i].answer.sent);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let mut ops = vec![FileOps::default(); answered.len()];
    for i in order {
        let path = answered[i].answer.line.program.as_str();
        let k = seen.entry(path).or_default();
        ops[i] = logged
            .get(path)
            .and_then(|entries| entries.get(*k).or(entries.last()))
            .copied()
            .unwrap_or_default();
        *k += 1;
    }
    ops
}

/// A daemon child that is killed and reaped if still running on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
}

impl Daemon {
    fn start(wcet: &Path, dir: &Path, store: &str) -> Result<Daemon, String> {
        let log = dir.join("daemon.log");
        let log_file = fs::File::create(&log).map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(wcet)
            .current_dir(dir)
            .args([
                "serve",
                "d.sock",
                "--workers",
                "2",
                "--caches",
                "--cache-dir",
                store,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", wcet.display()))?;
        let mut daemon = Daemon {
            child,
            socket: dir.join("d.sock"),
            log,
        };
        let start = Instant::now();
        loop {
            if fs::read_to_string(&daemon.log).is_ok_and(|l| l.contains("listening")) {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if start.elapsed() > DAEMON_TIMEOUT {
                daemon.kill();
                return Err("daemon did not print `listening`".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `@shutdown`, waits for exit and returns the daemon's log.
    fn shutdown(mut self) -> Result<String, String> {
        let bye = Conn::connect(&self.socket).and_then(|mut c| {
            c.stream
                .write_all(b"@shutdown\n")
                .map_err(|e| e.to_string())?;
            c.bye()
        });
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if start.elapsed() < DAEMON_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => break Err("daemon did not exit after @shutdown".to_owned()),
                Err(e) => break Err(e.to_string()),
            }
        };
        let log = fs::read_to_string(&self.log).unwrap_or_default();
        self.kill();
        bye?;
        match status? {
            s if s.success() => Ok(log),
            s => Err(format!("daemon exited with {s}")),
        }
    }

    fn kill(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One client connection to the daemon.
struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn connect(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request line and reads its frame: `(ok, payload)`.
    fn request(&mut self, line: &str) -> Result<(bool, String), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut header = String::new();
        self.reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        let (ok, len) = match fields.as_slice() {
            [kind @ ("ok" | "err"), _seq, len] => (
                *kind == "ok",
                len.parse::<usize>()
                    .map_err(|_| format!("bad frame header `{header}`"))?,
            ),
            _ => return Err(format!("bad frame header `{}`", header.trim_end())),
        };
        let mut payload = vec![0; len];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| format!("read payload: {e}"))?;
        Ok((ok, String::from_utf8_lossy(&payload).into_owned()))
    }

    /// Closes the request side and reads the `bye <requests> <failures>`
    /// trailer.
    fn bye(&mut self) -> Result<(u64, u64), String> {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["bye", r, f] => Ok((
                r.parse().map_err(|_| format!("bad bye `{line}`"))?,
                f.parse().map_err(|_| format!("bad bye `{line}`"))?,
            )),
            _ => Err(format!("expected bye, got `{}`", line.trim_end())),
        }
    }
}

thread_local! {
    /// The request the current thread is serving, for span attribution.
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// What the in-process handler saw per analysis.
#[derive(Debug, Default)]
struct HandlerLog {
    traces: Vec<PhaseTrace>,
    stats: Vec<IncrStats>,
    analyze_s: Vec<f64>,
}

/// The analyzer configuration `wcet serve --caches` builds for a request.
fn serve_config(isa: IsaKind, annotations: AnnotationSet) -> AnalyzerConfig {
    AnalyzerConfig {
        machine: MachineConfig::with_caches_for(isa),
        annotations,
        isa,
        ..AnalyzerConfig::new()
    }
}

/// The in-process service of the traced run: load → analyze → render,
/// exactly the composition the daemon's handler performs.
fn in_process_service(
    store: &Path,
    tracer: &Arc<Tracer>,
    log: &Arc<Mutex<HandlerLog>>,
) -> AnalysisService {
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let fingerprint = wcet_predictability::core::incr::config_fingerprint(&serve_config(
        IsaKind::House,
        AnnotationSet::new(),
    ));
    let store = store.to_path_buf();
    let (tracer, log) = (Arc::clone(tracer), Arc::clone(log));
    let handler = move |program: &Path, annotations: Option<&Path>, isa: Option<IsaKind>| {
        let id = REQUEST.with(Cell::get);
        let isa = isa.unwrap_or(IsaKind::House);
        let source = fs::read_to_string(program).map_err(|e| e.to_string())?;
        let image = tracer
            .span("isa.asm", id, || assemble_for(isa, &source))
            .map_err(|e| e.to_string())?;
        let annotations = match annotations {
            Some(a) => {
                let text = fs::read_to_string(a).map_err(|e| e.to_string())?;
                AnnotationSet::parse(&text).map_err(|e| e.to_string())?
            }
            None => AnnotationSet::new(),
        };
        let mut cache = tracer
            .span("incr.open", id, || ArtifactCache::open(&store))
            .map_err(|e| e.to_string())?;
        let analyzer =
            WcetAnalyzer::with_config(serve_config(isa, annotations)).with_pool(Arc::clone(&pool));
        let start = Instant::now();
        let report = tracer.span("core.analyze", id, || {
            guarded(|| analyzer.analyze_incremental(&image, &mut cache))
        })?;
        let analyze_s = start.elapsed().as_secs_f64();
        let text = tracer.span("render.report", id, || render_report(&image, &report));
        let mut log = log.lock().expect("handler log poisoned");
        log.traces.push(report.trace.clone());
        log.stats.extend(report.incr.clone());
        log.analyze_s.push(analyze_s);
        Ok(text)
    };
    AnalysisService::new(fingerprint, Box::new(handler))
}

/// How a lane reaches the service.
enum Transport {
    Socket(Conn),
    InProcess(Arc<AnalysisService>, Arc<Tracer>, PathBuf),
}

impl Transport {
    fn request(&mut self, line: &Line, id: u64) -> Result<(bool, String), String> {
        match self {
            Transport::Socket(conn) => conn.request(&line.text()),
            Transport::InProcess(service, tracer, dir) => {
                REQUEST.with(|r| r.set(id));
                // Full paths: the service hashes file contents for its
                // dedup key from the path it is given.
                let annotations = line.annotations.as_ref().map(|a| dir.join(a));
                let isa = (line.isa != IsaKind::House).then_some(line.isa);
                let outcome = tracer.span("serve.process", id, || {
                    service.process(&dir.join(&line.program), annotations.as_deref(), isa)
                });
                Ok(match outcome {
                    Ok(text) => (true, text.to_string()),
                    Err(text) => (false, text.to_string()),
                })
            }
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Answer {
    line: Line,
    /// When the request was sent, to match it with the daemon's log.
    sent: Instant,
    latency_s: f64,
    ok: bool,
    payload: String,
}

/// Work for one lane in one segment: the shared line, then its own, each
/// with a stream-unique request id.
type Job = Vec<(u64, Line)>;

/// One lane: a closed loop over its connection. Returns the answers of
/// each job, or the transport error that ended it.
fn lane(
    mut transport: Transport,
    jobs: &mpsc::Receiver<Option<Job>>,
    done: &mpsc::Sender<Result<Vec<Answer>, String>>,
    barrier: &Barrier,
) -> Transport {
    while let Ok(Some(job)) = jobs.recv() {
        // Both lanes send their first (shared) request at the same moment.
        barrier.wait();
        let mut answers = Vec::new();
        let mut result = Ok(());
        for (id, line) in &job {
            let start = Instant::now();
            match transport.request(line, *id) {
                Ok((ok, payload)) => answers.push(Answer {
                    line: line.clone(),
                    sent: start,
                    latency_s: start.elapsed().as_secs_f64(),
                    ok,
                    payload,
                }),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if done.send(result.map(|()| answers)).is_err() {
            break;
        }
    }
    transport
}

/// Drops the phase lines that carry wall clocks, as the serve
/// integration tests do; everything else must match byte for byte.
#[must_use]
pub fn strip_timings(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("Phase") && !l.contains("Graph") && !l.contains("Analysis:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn bound_in(payload: &str, prefix: &str) -> Option<u64> {
    let line = payload.lines().find(|l| l.starts_with(prefix))?;
    line[prefix.len()..].split_whitespace().next()?.parse().ok()
}

/// Checks every distinct answered request: its frame must equal the
/// single-shot `wcet` stdout and its bounds must contain the
/// interpreter's cycles. Runs at most two `wcet` processes at a time.
fn verify(out: &mut RunResult, wcet: &Path, dir: &Path, answers: &[Answer]) -> Vec<(f64, f64)> {
    let mut distinct: BTreeMap<String, &Answer> = BTreeMap::new();
    for a in answers {
        distinct.entry(a.line.text()).or_insert(a);
    }
    for a in answers {
        let first = distinct[&a.line.text()];
        let same = a.ok && first.ok && strip_timings(&a.payload) == strip_timings(&first.payload);
        out.check(
            (!same).then(|| format!("`{}`: answers differ across the stream", a.line.text())),
        );
    }
    let mut tightness = Vec::new();
    let entries: Vec<&Answer> = distinct.values().copied().collect();
    for pair in entries.chunks(WORKERS) {
        let children: Vec<_> = pair
            .iter()
            .map(|a| {
                let mut cmd = Command::new(wcet);
                cmd.current_dir(dir).arg(&a.line.program).arg("--caches");
                if let Some(annot) = &a.line.annotations {
                    cmd.args(["--annotations", annot]);
                }
                if a.line.isa != IsaKind::House {
                    cmd.args(["--isa", a.line.isa.name()]);
                }
                cmd.stdin(Stdio::null())
                    .stderr(Stdio::null())
                    .stdout(Stdio::piped());
                // A host short of processes for a moment fails the spawn,
                // not the program; try once more before counting it.
                cmd.spawn().or_else(|_| {
                    std::thread::sleep(Duration::from_millis(100));
                    cmd.spawn()
                })
            })
            .collect();
        for (a, child) in pair.iter().zip(children) {
            let single = child
                .and_then(std::process::Child::wait_with_output)
                .map_err(|e| e.to_string())
                .and_then(|o| {
                    if o.status.success() {
                        Ok(String::from_utf8_lossy(&o.stdout).into_owned())
                    } else {
                        Err(format!("single-shot wcet exited with {}", o.status))
                    }
                });
            let what = a.line.text();
            let failure = match single {
                Err(e) => Some(format!("`{what}`: {e}")),
                Ok(_) if !a.ok => Some(format!("`{what}`: err frame: {}", a.payload.trim_end())),
                Ok(s) if strip_timings(&s) != strip_timings(&a.payload) => {
                    Some(format!("`{what}`: frame differs from single-shot stdout"))
                }
                Ok(_) => None,
            };
            let failed = failure.is_some();
            out.check(failure);
            if failed {
                continue;
            }
            let source = fs::read_to_string(dir.join(&a.line.program)).unwrap_or_default();
            let bounds = (
                bound_in(&a.payload, "task BCET bound: "),
                bound_in(&a.payload, "task WCET bound: "),
            );
            let checked = match (assemble_for(a.line.isa, &source), bounds) {
                (Ok(image), (Some(bcet), Some(wcet_b))) => {
                    observe(&image, &MachineConfig::with_caches_for(a.line.isa))
                        .and_then(|obs| check_bounds(&what, bcet, wcet_b, obs))
                }
                (Err(e), _) => Err(format!("`{what}`: {e}")),
                _ => Err(format!("`{what}`: no task bounds in the frame")),
            };
            match checked {
                Ok(t) => tightness.push(t),
                Err(e) => out.check(Some(e)),
            }
        }
    }
    tightness
}

/// Runs the serve workload for `seconds`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: u64, traced: bool, work: &Path, wcet: &Path) -> RunResult {
    let mut out = RunResult::default();
    let tracer = Arc::new(Tracer::new(traced));
    let corpus = serve_corpus();
    let dir = work.join("inputs");

    // --- Set-up: inputs, one priming pass, daemon until `listening` --
    let mut setup = Vec::new();
    let mut setup_clock = Clock::new(None);
    let mut live: Option<(ServePlan, Option<Daemon>)> = None;
    let store = work.join("store");
    for _ in 0..SETUP_REPS {
        if let Some((_, Some(old))) = live.take() {
            if let Err(e) = old.shutdown() {
                out.check(Some(format!("setup daemon: {e}")));
            }
        }
        fresh_store(&store);
        setup_clock.probe_files_in(store_dirs(&store), 1, SETUP_PROBE_FILES);
        let (outcome, timed) = setup_clock.time("setup", || {
            let plan = ServePlan::new(seed, corpus.len());
            tracer
                .span("isa.asm", 0, || {
                    assemble_for(IsaKind::House, &plan.base.source())
                })
                .map_err(|e| format!("assemble: {e}"))?;
            write_inputs(&dir, &corpus, &plan).map_err(|e| format!("inputs: {e}"))?;
            // Prime the store with one cold pass over the large program
            // and the corpus, in this process and one function at a
            // time, so its files are created one after another like the
            // file-creation probe's: the daemon's pool would write
            // several at once.
            let mut cache = ArtifactCache::open(&store).map_err(|e| e.to_string())?;
            for line in &prime_lines(&corpus) {
                let source =
                    fs::read_to_string(dir.join(&line.program)).map_err(|e| e.to_string())?;
                let image = assemble_for(line.isa, &source).map_err(|e| e.to_string())?;
                let annotations = match &line.annotations {
                    Some(a) => AnnotationSet::parse(
                        &fs::read_to_string(dir.join(a)).map_err(|e| e.to_string())?,
                    )
                    .map_err(|e| e.to_string())?,
                    None => AnnotationSet::new(),
                };
                let analyzer = WcetAnalyzer::with_config(AnalyzerConfig {
                    parallelism: Some(1),
                    ..serve_config(line.isa, annotations)
                });
                guarded(|| analyzer.analyze_incremental(&image, &mut cache))?;
            }
            let daemon = if traced {
                None
            } else {
                Some(Daemon::start(wcet, &dir, "../store")?)
            };
            Ok::<_, String>((plan, daemon))
        });
        out.check(unit_failure("setup", &timed, outcome.as_ref().err()));
        // The store was empty before.
        let ops = FileOps {
            created: store_files(&store),
            read: 0,
        };
        setup.push(timed.normalised(timed.raw_s, ops));
        match outcome {
            Ok(ok) => live = Some(ok),
            Err(_) => return out,
        }
    }
    let Some((mut plan, daemon)) = live else {
        return out;
    };
    log_units(&setup_clock);
    let mut clock = Clock::new(daemon.as_ref().map(Daemon::pid));
    clock.kernel_threads(WORKERS);
    clock.probe_files_in(store_dirs(&store), WORKERS, UNIT_PROBE_FILES);

    // --- The stream: segments between reference-kernel windows --------
    let handler_log = Arc::new(Mutex::new(HandlerLog::default()));
    let service = traced.then(|| Arc::new(in_process_service(&store, &tracer, &handler_log)));
    let mut transports = Vec::new();
    for _ in 0..WORKERS {
        transports.push(match &daemon {
            Some(d) => match Conn::connect(&d.socket) {
                Ok(c) => Transport::Socket(c),
                Err(e) => {
                    out.check(Some(e));
                    return out;
                }
            },
            None => Transport::InProcess(
                Arc::clone(service.as_ref().expect("traced runs serve in process")),
                Arc::clone(&tracer),
                dir.clone(),
            ),
        });
    }
    let mut lines: Vec<Line> = Vec::new();
    let mut answers: Vec<Answered> = Vec::new();
    let mut segment_s = Vec::new();
    let mut sent = [0u64; WORKERS];
    let barrier = Barrier::new(WORKERS);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut transport_error = None;
    let mut request_id = 0u64;
    let transports = std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        let mut job_txs = Vec::new();
        let mut handles = Vec::new();
        for transport in transports {
            let (tx, rx) = mpsc::channel::<Option<Job>>();
            job_txs.push(tx);
            let done = done_tx.clone();
            let barrier = &barrier;
            handles.push(scope.spawn(move || lane(transport, &rx, &done, barrier)));
        }
        while Instant::now() < deadline || answers.len() < MIN_REQUESTS {
            let segment = plan.next_segment();
            let first = plan.issued().len() - 1 - segment.lanes.iter().map(Vec::len).sum::<usize>();
            if let Err(e) = materialise(&dir, &corpus, &plan, &mut lines) {
                transport_error = Some(format!("inputs: {e}"));
                break;
            }
            let mut next = first + 1;
            let jobs: Vec<Job> = segment
                .lanes
                .iter()
                .map(|own| {
                    let job = std::iter::once(first)
                        .chain(next..next + own.len())
                        .map(|i| {
                            // Ids start at 1; 0 is set-up.
                            request_id += 1;
                            (request_id, lines[i].clone())
                        })
                        .collect();
                    next += own.len();
                    job
                })
                .collect();
            // Odd segments of a traced run run untraced, so it can report
            // what tracing itself costs.
            let segment_traced = traced && segment_s.len().is_multiple_of(2);
            tracer.set_enabled(segment_traced);
            let (results, timed) = clock.time("segment", || {
                for (tx, job) in job_txs.iter().zip(jobs) {
                    let _ = tx.send(Some(job));
                }
                (0..WORKERS).map(|_| done_rx.recv()).collect::<Vec<_>>()
            });
            out.check(unit_failure("segment", &timed, None));
            let segment = segment_s.len();
            segment_s.push(timed);
            for (w, r) in results.into_iter().enumerate() {
                match r {
                    Ok(Ok(batch)) => {
                        sent[w] += batch.len() as u64;
                        answers.extend(batch.into_iter().map(|answer| Answered {
                            answer,
                            unit: timed,
                            segment,
                            lane: w,
                            traced: segment_traced,
                        }));
                    }
                    Ok(Err(e)) => transport_error = Some(e),
                    Err(e) => transport_error = Some(e.to_string()),
                }
            }
            if transport_error.is_some() {
                break;
            }
        }
        for tx in &job_txs {
            let _ = tx.send(None);
        }
        drop(job_txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect::<Vec<_>>()
    });
    tracer.set_enabled(traced);
    if let Some(e) = transport_error {
        out.check(Some(format!("stream: {e}")));
    }

    // --- Shutdown: bye counts, daemon RSS and totals ------------------
    let total: u64 = sent.iter().sum();
    let mut rss = f64::NAN;
    let mut ops = vec![FileOps::default(); answers.len()];
    let mut dedup_hits = service.as_ref().map_or(0.0, |s| s.dedup_hits() as f64);
    for (w, t) in transports.into_iter().enumerate() {
        if let Transport::Socket(mut conn) = t {
            let bye = conn.bye();
            out.check(match bye {
                Ok((r, 0)) if r == sent[w] => None,
                Ok((r, f)) => Some(format!("lane {w}: bye {r} {f}, sent {}", sent[w])),
                Err(e) => Some(format!("lane {w}: {e}")),
            });
        }
    }
    if let Some(d) = daemon {
        rss = peak_rss_mb(Some(d.pid())).unwrap_or(f64::NAN);
        match d.shutdown() {
            Ok(log) => {
                ops = answer_ops(&answers, &logged_ops(&log));
                // `… N request(s), F failure(s), D deduped`.
                let summary = log.lines().find(|l| l.contains("shutdown:")).unwrap_or("");
                let nums: Vec<u64> = summary
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .collect();
                out.check(match nums.as_slice() {
                    [_, r, 0, d] if *r == total => {
                        dedup_hits = *d as f64;
                        None
                    }
                    _ => Some(format!("daemon summary `{summary}` for {total} request(s)")),
                });
            }
            Err(e) => out.check(Some(format!("daemon: {e}"))),
        }
    }

    // --- Correctness of every answer ----------------------------------
    let plain: Vec<Answer> = answers.iter().map(|a| a.answer.clone()).collect();
    let tightness = verify(&mut out, wcet, &dir, &plain);

    // Drift-normalised latency of each answer: its segment's CPU scale,
    // and the store files the daemon created and read for it at their
    // nominal costs.
    let latency: Vec<f64> = answers
        .iter()
        .zip(&ops)
        .map(|(a, &o)| a.unit.normalised(a.answer.latency_s, o))
        .collect();
    // Normalised latencies of one request kind (all when `None`), from
    // traced segments, untraced ones or both.
    let scaled = |kind: Option<u8>, traced: Option<bool>| -> Vec<f64> {
        answers
            .iter()
            .zip(&latency)
            .filter(|(a, _)| {
                kind.is_none_or(|k| a.answer.line.kind == k)
                    && traced.is_none_or(|want| a.traced == want)
            })
            .map(|(_, &l)| l)
            .collect()
    };
    // Closed-loop lanes: a segment lasts as long as its slower lane.
    let mut lane_s = vec![[0.0f64; WORKERS]; segment_s.len()];
    for (a, &l) in answers.iter().zip(&latency) {
        lane_s[a.segment][a.lane] += l;
    }
    let stream_s: f64 = lane_s
        .iter()
        .map(|l| l.iter().copied().fold(0.0, f64::max))
        .sum();
    if traced {
        let log = handler_log.lock().expect("handler log poisoned");
        let base = assemble_for(IsaKind::House, &plan.base.source());
        let analyzer =
            WcetAnalyzer::with_config(serve_config(IsaKind::House, AnnotationSet::new()));
        match base.map_err(|e| e.to_string()).and_then(|image| {
            let report = analyzer.analyze(&image).map_err(|e| e.to_string())?;
            layer_probe(&image, &report)
        }) {
            Ok(probe) => {
                out.push("isa.asm_s", median(&tracer.durations("isa.asm")), "s");
                push_layer_metrics(&mut out, &log.traces, &log.analyze_s, &probe);
                push_incr_metrics(
                    &mut out,
                    &log.stats,
                    &tracer.durations("incr.open"),
                    &store,
                    |v| v.iter().sum(),
                );
                let process = tracer.durations("serve.process");
                out.push("serve.process_s", median(&process), "s");
                out.push("serve.wait_s", median(&serve_wait(&tracer)), "s");
                out.count("serve.dedup_hits", dedup_hits);
                out.count(
                    "serve.failures",
                    answers.iter().filter(|a| !a.answer.ok).count() as f64,
                );
                // First-sight requests are the stream's cold analyses.
                let overhead = median(&scaled(Some(b'f'), Some(true)))
                    - median(&scaled(Some(b'f'), Some(false)));
                push_bench_metrics(&mut out, &clock, overhead);
                let share = layer_share_check("serve_stream", &out);
                out.check(share.err());
            }
            Err(e) => out.check(Some(e)),
        }
        let _ = fs::write(work.join("spans.tsv"), tracer.dump());
    } else {
        eprintln!("perfbench: serve stream: {} deduped", dedup_hits);
        for (kind, name) in [
            (b'c', "corpus"),
            (b'f', "first-sight"),
            (b'r', "repeat"),
            (b'e', "edit"),
        ] {
            let v = scaled(Some(kind), None);
            let of_kind = |x: &[f64]| -> Vec<f64> {
                answers
                    .iter()
                    .zip(x)
                    .filter(|(a, _)| a.answer.line.kind == kind)
                    .map(|(_, &x)| x)
                    .collect()
            };
            let raw: Vec<f64> = answers.iter().map(|a| a.answer.latency_s).collect();
            let created: Vec<f64> = ops.iter().map(|o| o.created as f64).collect();
            let read: Vec<f64> = ops.iter().map(|o| o.read as f64).collect();
            eprintln!(
                "perfbench: serve {name:<11} n={:<5} p25 {:.3} ms, p50 {:.3} ms, p75 {:.3} ms \
                 (raw p50 {:.3} ms; median store files created {}, read {})",
                v.len(),
                1e3 * percentile(&v, 25.0),
                1e3 * median(&v),
                1e3 * percentile(&v, 75.0),
                1e3 * median(&of_kind(&raw)),
                median(&of_kind(&created)),
                median(&of_kind(&read))
            );
        }
        // A first-sight program is analyzed cold; its repeat is answered
        // from the artifact store.
        push_end_to_end(
            &mut out,
            &setup,
            &scaled(Some(b'f'), None),
            &scaled(Some(b'r'), None),
            &scaled(None, None),
            stream_s,
            rss,
            &tightness,
        );
        out.push("ok_frac", 1.0 - out.failed_frac(), "ratio");
    }
    log_units(&clock);
    // Per answer, what its normalised latency was made of.
    let mut tsv = String::from(
        "kind\tsegment\tlane\traw_s\tcreated\tread\tcreate_s\tread_s\tscale\tnormalised_s\n",
    );
    for ((a, o), &l) in answers.iter().zip(&ops).zip(&latency) {
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{:.6}\t{}\t{}\t{:.7}\t{:.7}\t{:.4}\t{l:.6}\n",
            char::from(a.answer.line.kind),
            a.segment,
            a.lane,
            a.answer.latency_s,
            o.created,
            o.read,
            a.unit.files.create_s,
            a.unit.files.read_s,
            a.unit.scale
        ));
    }
    let _ = fs::write(work.join("answers.tsv"), tsv);
    out
}

/// Per request: `serve.process` time not covered by the analysis and
/// rendering the handler did for it — dedup waits, key hashing, loading.
fn serve_wait(tracer: &Tracer) -> Vec<f64> {
    let mut per_request: BTreeMap<u64, f64> = BTreeMap::new();
    for (name, sign) in [
        ("serve.process", 1.0),
        ("core.analyze", -1.0),
        ("render.report", -1.0),
    ] {
        for (request, secs) in tracer.by_request(name) {
            *per_request.entry(request).or_default() += sign * secs;
        }
    }
    per_request.into_values().collect()
}
