//! The three workloads, driven over TCP against the real daemon from one
//! client process with closed loops.

use crate::check::{Checker, SCORE_CHECK_MAX_DEGREE};
use crate::daemon::{Conn, Daemon};
use crate::scrape::{self, Diff};
use crate::stats::{median, Latencies};
use crate::stream::{field, reply_fields, OpStream, Read, ReadMix, SeqLog, Zipf};
use crate::trace::Tracer;
use egobtw_graph::CsrGraph;
use egobtw_telemetry::prometheus::Exposition;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Catalog name of the benchmark's dataset.
pub const DATASET: &str = "g";

/// Daemon spawns (spawn → LOAD acked) per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Restarts after the SIGKILL; `recovery_s` is their median.
pub const RECOVERY_REPS: usize = 21;

/// Traffic before the measured window, untimed: the first second of a
/// fresh daemon runs at a fraction of the steady rate (cold caches and
/// allocator), which would otherwise weigh on every metric.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Reads the read-mostly connection keeps in flight: four closed-loop
/// readers multiplexed on one connection. With one request at a time the
/// daemon idles while each reply travels back and the next request comes,
/// and the run's throughput followed how fast the host woke the two sides
/// up; with four the daemon's core stays busy on the requests themselves.
pub const READ_DEPTH: usize = 4;

/// `UPDATE` batches the read-mostly workload sends after its read window
/// (its update tail).
pub const TAIL_BATCHES: usize = 200;

/// What a workload does to the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One reader connection, no writes in the window.
    ReadMostly,
    /// One connection alternating an 8-op UPDATE and a maintained TOPK,
    /// durable dataset.
    UpdateStream,
    /// One connection alternating a one-op UPDATE and an uncached TOPK.
    FreshTopk,
}

/// One workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Traffic shape.
    pub kind: Kind,
    /// `egobtw_bench::standins` dataset it loads.
    pub dataset: &'static str,
    /// LOAD mode token; `None` leaves the daemon's default mode.
    pub mode: Option<&'static str>,
    /// Whether the dataset is durable (`--data-dir`, `--fsync always`).
    pub durable: bool,
    /// Client threads, one connection each.
    pub client_threads: usize,
    /// `k` of its TOPK requests.
    pub topk_k: usize,
    /// Ops per UPDATE batch.
    pub batch_ops: usize,
}

/// Every workload.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read-mostly",
        kind: Kind::ReadMostly,
        dataset: "livejournal-like",
        mode: None,
        durable: false,
        client_threads: 1,
        topk_k: 8,
        batch_ops: 8,
    },
    Spec {
        name: "update-stream",
        kind: Kind::UpdateStream,
        dataset: "livejournal-like",
        mode: Some("delta:8"),
        durable: true,
        client_threads: 1,
        topk_k: 8,
        batch_ops: 8,
    },
    Spec {
        name: "fresh-topk",
        kind: Kind::FreshTopk,
        dataset: "pokec-like",
        mode: Some("delta:8"),
        durable: false,
        client_threads: 1,
        topk_k: 64,
        batch_ops: 1,
    },
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Stand-in name.
    pub dataset: &'static str,
    /// Size multiplier the stand-in was built at.
    pub scale: f64,
    /// The epoch-0 graph.
    pub g0: CsrGraph,
    /// The snapshot file the daemon LOADs.
    pub snap: PathBuf,
}

/// Builds the workload's stand-in at `scale` and writes its snapshot file
/// into `dir`.
pub fn make_inputs(spec: &Spec, scale: f64, dir: &Path) -> Result<Inputs, String> {
    let g0 = egobtw_bench::standins(scale)
        .into_iter()
        .find(|d| d.name == spec.dataset)
        .ok_or_else(|| format!("no stand-in named {}", spec.dataset))?
        .graph;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let snap = dir.join(format!("{}.snap", spec.dataset));
    egobtw_graph::io::write_snapshot_file(&g0, None, &snap)
        .map_err(|e| format!("write {}: {e}", snap.display()))?;
    Ok(Inputs {
        dataset: spec.dataset,
        scale,
        g0,
        snap,
    })
}

/// Knobs of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed; every request stream derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
}

/// Everything a run measured and checked.
pub struct Outcome {
    /// Each spawn → LOAD-acked time, seconds.
    pub setup_s: Vec<f64>,
    /// Read latencies (TOPK, SCORE, COMMON) of the window.
    pub reads: Latencies,
    /// UPDATE ack latencies (window, or the read-mostly update tail).
    pub updates: Latencies,
    /// Requests completed in the window.
    pub window_completed: u64,
    /// Window length actually measured, seconds.
    pub window_s: f64,
    /// CPU time the daemon spent in the window (user + system), seconds.
    pub daemon_cpu_s: f64,
    /// Requests attempted (window and update tail).
    pub attempted: u64,
    /// ERR replies plus transport errors.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Daemon VmHWM at the end of the window, MiB.
    pub peak_rss_mb: f64,
    /// The measured daemon, alive until [`finish`] kills it.
    pub daemon: Option<Daemon>,
    /// Sampled `(request, reply)` pairs for the untimed checks.
    samples: Vec<(Read, String)>,
    /// Each restart → first successful STATS time, seconds (filled by
    /// [`finish`]).
    pub recovery_s: Vec<f64>,
    /// Replies checked.
    pub checked: usize,
    /// Correctness violations.
    pub violations: Vec<String>,
    /// METRICS before the window and after the last request.
    pub diff: Diff,
    /// Acked UPDATE batches in epoch order.
    pub log: SeqLog,
    /// Daemon flags of the measured daemon (besides `--listen`).
    pub daemon_flags: Vec<String>,
    /// Client-side spans of the window (traced runs only).
    pub client_spans: Option<Tracer>,
}

impl Outcome {
    /// Median setup time.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Median recovery time.
    pub fn recovery_median(&self) -> f64 {
        median(&self.recovery_s)
    }
}

/// Traced runs keep a client span for every this-many-th request of a
/// connection, so a read-mostly window (≈2M requests) stays a few MB.
const CLIENT_SPAN_EVERY: u64 = 16;

/// What one client thread saw.
struct ThreadLog {
    /// Requests that start before this are sent and checked, not timed.
    timed_from: Instant,
    reads: Latencies,
    updates: Latencies,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Sampled `(request, reply)` pairs for the untimed checks.
    samples: Vec<(Read, String)>,
    /// The writer's acked batches.
    log: Option<SeqLog>,
    violations: Vec<String>,
    spans: Option<Tracer>,
}

impl ThreadLog {
    fn new(origin: Option<Instant>, timed_from: Instant) -> Self {
        ThreadLog {
            timed_from,
            reads: Latencies::default(),
            updates: Latencies::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            log: None,
            violations: Vec::new(),
            spans: origin.map(Tracer::new),
        }
    }

    /// One round trip. Returns the reply when it is `OK…`, with its
    /// latency when the request started in the measured window.
    fn call(
        &mut self,
        conn: &mut Conn,
        line: &str,
        span: &'static str,
        req: u64,
    ) -> Option<(String, Option<u64>)> {
        let t0 = Instant::now();
        let result = conn.call(line);
        self.book(line, span, req, t0, result)
    }

    /// Books one request sent at `t0` whose reply, or transport error, is
    /// `result`. Returns what [`ThreadLog::call`] returns.
    fn book(
        &mut self,
        line: &str,
        span: &'static str,
        req: u64,
        t0: Instant,
        result: std::io::Result<String>,
    ) -> Option<(String, Option<u64>)> {
        self.attempted += 1;
        let done = Instant::now();
        if let Some(t) = self
            .spans
            .as_mut()
            .filter(|_| req.is_multiple_of(CLIENT_SPAN_EVERY))
        {
            t.record(span, req, t0, done);
        }
        let timed = (t0 >= self.timed_from).then_some((done - t0).as_nanos() as u64);
        match result {
            Ok(reply) if reply.starts_with("OK") => Some((reply, timed)),
            Ok(reply) => {
                self.fail(format!("{line:?} → {reply}"));
                None
            }
            Err(e) => {
                self.fail(format!("{line:?} → transport error: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// The epoch a reply claims (0 when absent).
fn reply_epoch(reply: &str) -> u64 {
    field(&reply_fields(reply), "epoch")
        .and_then(|e| e.parse().ok())
        .unwrap_or(0)
}

/// The daemon flags a spec runs with, besides `--listen`.
///
/// One writer thread per shard: the benchmark's single dataset serializes
/// its batches on the dataset's writer lock anyway, and a second writer
/// thread only makes which thread's allocator arena holds each published
/// graph a coin flip, which shows up as run-to-run noise in memory and
/// publish time.
pub fn daemon_flags(spec: &Spec, data_dir: &Path) -> Vec<String> {
    let mut flags: Vec<String> = vec!["--shard-writers".into(), "1".into()];
    if spec.durable {
        flags.extend([
            "--data-dir".into(),
            data_dir.display().to_string(),
            "--fsync".into(),
            "always".into(),
        ]);
    }
    flags
}

fn load_line(spec: &Spec, snap: &Path) -> String {
    let mut line = format!("LOAD {DATASET} {}", snap.display());
    if let Some(mode) = spec.mode {
        line.push(' ');
        line.push_str(mode);
    }
    line
}

/// Spawns a daemon and LOADs the dataset; returns it with the elapsed
/// spawn → ack time.
fn setup_once(
    spec: &Spec,
    inputs: &Inputs,
    bin: &Path,
    flags: &[String],
    data_dir: &Path,
    log: &Path,
) -> Result<(Daemon, f64), String> {
    if spec.durable {
        let _ = std::fs::remove_dir_all(data_dir);
        std::fs::create_dir_all(data_dir).map_err(|e| format!("create data dir: {e}"))?;
    }
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, flags, log)?;
    let mut conn = Conn::open(&daemon.addr)?;
    let reply = conn.call_ok(&load_line(spec, &inputs.snap))?;
    let elapsed = t0.elapsed().as_secs_f64();
    let fields = reply_fields(&reply);
    let (n, m) = (inputs.g0.n().to_string(), inputs.g0.m().to_string());
    if field(&fields, "n") != Some(n.as_str()) || field(&fields, "m") != Some(m.as_str()) {
        return Err(format!("LOAD acked {reply:?}, expected n={n} m={m}"));
    }
    Ok((daemon, elapsed))
}

/// One METRICS scrape on a fresh connection (an idle one would outlive
/// the daemon's default 30 s `--io-timeout` across a window).
fn scrape_metrics(addr: &str) -> Result<Exposition, String> {
    scrape::parse(&Conn::open(addr)?.call_ok("METRICS")?)
}

/// Runs one workload up to the end of its measured traffic: setups, the
/// measured window, the read-mostly update tail, and the closing METRICS
/// scrape. The daemon stays up for [`finish`]. `rundir` holds the daemon
/// logs and data dir; `trace_origin` turns on client-side spans.
pub fn run(
    spec: &Spec,
    cfg: &RunConfig,
    inputs: &Inputs,
    bin: &Path,
    rundir: &Path,
    trace_origin: Option<Instant>,
) -> Result<Outcome, String> {
    let data_dir = rundir.join("data");
    let flags = daemon_flags(spec, &data_dir);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        drop(daemon.take());
        let log = rundir.join(format!("daemon-setup{rep}.log"));
        let (d, s) = setup_once(spec, inputs, bin, &flags, &data_dir, &log)?;
        setup_s.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let before = scrape_metrics(&daemon.addr)?;

    let from = Instant::now() + WARMUP;
    let end = from + Duration::from_secs_f64(cfg.seconds);
    let (logs, daemon_cpu_s) = window(spec, cfg, inputs, &daemon, from, end, trace_origin)?;
    let window_s = from.elapsed().as_secs_f64();

    let mut out = ThreadLog::new(trace_origin, Instant::now());
    let mut samples = Vec::new();
    let mut log = SeqLog::default();
    for t in logs {
        out.reads.merge(t.reads);
        out.updates.merge(t.updates);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.failures.extend(t.failures);
        out.violations.extend(t.violations);
        samples.extend(t.samples);
        if let Some(l) = t.log {
            log = l;
        }
        if let (Some(all), Some(mine)) = (out.spans.as_mut(), t.spans) {
            all.absorb(mine);
        }
    }
    let window_completed = (out.reads.len() + out.updates.len()) as u64;

    if spec.kind == Kind::ReadMostly {
        // The update tail after the read window: the default mode's update
        // path, in memory. The window's reads stay at epoch 0.
        let mut conn = Conn::open(&daemon.addr)?;
        let mut ops = OpStream::new(&inputs.g0, cfg.seed, "tail");
        for b in 0..TAIL_BATCHES {
            let batch = ops.next_batch(spec.batch_ops);
            let line = log.update_line(DATASET, &batch);
            let Some((reply, ns)) = out.call(&mut conn, &line, "client.update", b as u64) else {
                break;
            };
            out.updates.extend(ns);
            if let Err(e) = log.ack(&reply, batch) {
                out.violations.push(e);
                break;
            }
        }
    }

    let after = scrape_metrics(&daemon.addr)?;
    if let Err(e) = scrape::check_accounting(&after) {
        out.violations.push(e);
    }
    let peak_rss_mb = daemon.peak_rss_mb()?;
    Ok(Outcome {
        setup_s,
        reads: out.reads,
        updates: out.updates,
        window_completed,
        window_s,
        daemon_cpu_s,
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        peak_rss_mb,
        daemon: Some(daemon),
        samples,
        recovery_s: Vec::new(),
        checked: 0,
        violations: out.violations,
        diff: Diff::new(before, after),
        log,
        daemon_flags: flags,
        client_spans: out.spans,
    })
}

/// Ends a run: SIGKILLs the daemon, restarts it [`RECOVERY_REPS`] times
/// (durable datasets recover from the data dir; in-memory ones come back
/// by reloading their source file, at epoch 0), then runs the untimed
/// checks.
pub fn finish(
    spec: &Spec,
    inputs: &Inputs,
    bin: &Path,
    rundir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    if let Some(d) = outcome.daemon.take() {
        d.kill();
    }
    let log = &outcome.log;
    let mut restart_flags = outcome.daemon_flags.clone();
    let expect_epoch = if spec.durable {
        log.acked_epoch()
    } else {
        let mut load = format!("{DATASET}={}", inputs.snap.display());
        if let Some(mode) = spec.mode {
            load = format!("{load}:{mode}");
        }
        restart_flags.extend(["--load".to_string(), load]);
        0
    };
    let mut recovered_topk = None;
    for rep in 0..RECOVERY_REPS {
        let t0 = Instant::now();
        let d = Daemon::spawn(
            bin,
            &restart_flags,
            &rundir.join(format!("daemon-restart{rep}.log")),
        )?;
        let mut conn = Conn::open(&d.addr)?;
        let stats = conn.call_ok(&format!("STATS {DATASET}"))?;
        outcome.recovery_s.push(t0.elapsed().as_secs_f64());
        let epoch = reply_epoch(&stats);
        if epoch != expect_epoch {
            outcome.violations.push(format!(
                "restart {rep} came back at epoch {epoch}, expected the last acked epoch {expect_epoch}"
            ));
        }
        if rep == 0 {
            recovered_topk = Some(conn.call_ok(&format!("TOPK {DATASET} {}", spec.topk_k))?);
        }
        d.kill();
    }

    let mut checker = Checker::new(&inputs.g0);
    check_samples(spec, inputs, &outcome.samples, log, &mut checker);
    if let (true, Some(reply)) = (spec.durable, recovered_topk) {
        checker.topk(&reply, spec.topk_k, log);
    }
    outcome.checked = checker.checked;
    outcome.violations.extend(checker.violations);
    Ok(())
}

/// TOPK replies checked per run: a fresh `compute_all` per distinct epoch.
const TOPK_CHECKS: usize = 6;

fn check_samples(
    spec: &Spec,
    inputs: &Inputs,
    samples: &[(Read, String)],
    log: &SeqLog,
    checker: &mut Checker<'_>,
) {
    let topk: Vec<&String> = samples
        .iter()
        .filter(|(r, _)| matches!(r, Read::Topk(_)))
        .map(|(_, reply)| reply)
        .collect();
    // Evenly spaced over the run, so early and late epochs are covered.
    let step = topk.len().div_ceil(TOPK_CHECKS).max(1);
    for reply in topk.iter().step_by(step) {
        checker.topk(reply, spec.topk_k, log);
    }
    for (read, reply) in samples {
        match *read {
            Read::Common(u, v) => checker.common(reply, u, v),
            Read::Score(v) if inputs.g0.degree(v) <= SCORE_CHECK_MAX_DEGREE => {
                checker.score(reply, v)
            }
            _ => {}
        }
    }
}

/// Keeps every `stride`-th reply of a class, up to `cap`.
struct Sampler {
    seen: u64,
    kept: usize,
    stride: u64,
    cap: usize,
}

impl Sampler {
    fn new(stride: u64, cap: usize) -> Self {
        Sampler {
            seen: 0,
            kept: 0,
            stride,
            cap,
        }
    }

    fn keep(&mut self) -> bool {
        let keep = self.seen.is_multiple_of(self.stride) && self.kept < self.cap;
        self.seen += 1;
        self.kept += usize::from(keep);
        keep
    }
}

/// The warm-up and the measured window: client threads with closed loops
/// until `end`, timing the requests that start at or after `from`. Also
/// returns the daemon's CPU time from `from` to the last reply.
fn window(
    spec: &Spec,
    cfg: &RunConfig,
    inputs: &Inputs,
    daemon: &Daemon,
    from: Instant,
    end: Instant,
    origin: Option<Instant>,
) -> Result<(Vec<ThreadLog>, f64), String> {
    let zipf = Zipf::over_degree_rank(&inputs.g0);
    let mut conns = (0..spec.client_threads)
        .map(|_| Conn::open(&daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let g0 = &inputs.g0;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let zipf = zipf.clone();
                s.spawn(move || {
                    let mut t = ThreadLog::new(origin, from);
                    match spec.kind {
                        Kind::ReadMostly => reader_mix(&mut t, conn, spec, cfg, zipf, g0, i, end),
                        Kind::UpdateStream | Kind::FreshTopk => {
                            rounds(&mut t, conn, spec, cfg, g0, end)
                        }
                    }
                    t
                })
            })
            .collect();
        std::thread::sleep(from.saturating_duration_since(Instant::now()));
        let cpu_from = daemon.cpu_s();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>();
        Ok::<_, String>((logs, daemon.cpu_s()? - cpu_from?))
    })?;
    Ok(logs)
}

fn read_span(read: Read) -> &'static str {
    match read {
        Read::Topk(_) => "client.topk",
        Read::Score(_) => "client.score",
        Read::Common(..) => "client.common",
    }
}

/// The read mix, with [`READ_DEPTH`] requests in flight on the connection:
/// each reply releases the next request, and a read's latency runs from
/// when it was sent to when its reply arrived.
#[allow(clippy::too_many_arguments)]
fn reader_mix(
    t: &mut ThreadLog,
    conn: &mut Conn,
    spec: &Spec,
    cfg: &RunConfig,
    zipf: Zipf,
    g0: &CsrGraph,
    thread: usize,
    end: Instant,
) {
    let mut mix = ReadMix::new(zipf, spec.topk_k, cfg.seed, &format!("reader-{thread}"));
    let (mut topk, mut score, mut common) = (
        Sampler::new(500, 20),
        Sampler::new(10, 300),
        Sampler::new(40, 300),
    );
    let mut inflight = VecDeque::with_capacity(READ_DEPTH);
    let mut req = 0u64;
    loop {
        while inflight.len() < READ_DEPTH && Instant::now() < end {
            let read = mix.next_read();
            let line = read.line(DATASET);
            req += 1;
            let t0 = Instant::now();
            if let Err(e) = conn.send(&line) {
                t.book(&line, read_span(read), req, t0, Err(e));
                return;
            }
            inflight.push_back((read, line, req, t0));
        }
        let Some((read, line, req, t0)) = inflight.pop_front() else {
            break;
        };
        let result = conn.recv();
        if result.is_err() {
            // The connection is gone, and with it every reply in flight.
            t.book(&line, read_span(read), req, t0, result);
            for (read, line, req, t0) in inflight.drain(..) {
                let lost = std::io::Error::other("connection lost earlier");
                t.book(&line, read_span(read), req, t0, Err(lost));
            }
            return;
        }
        let Some((reply, ns)) = t.book(&line, read_span(read), req, t0, result) else {
            continue;
        };
        t.reads.extend(ns);
        let keep = match read {
            Read::Topk(_) => topk.keep(),
            Read::Score(v) => g0.degree(v) <= SCORE_CHECK_MAX_DEGREE && score.keep(),
            Read::Common(..) => common.keep(),
        };
        if keep {
            t.samples.push((read, reply));
        }
    }
}

/// Update/read rounds on one connection: an UPDATE batch, then the
/// workload's TOPK on the epoch it published. On fresh-topk the read must
/// be computed by an engine (k is above the maintained depth); on
/// update-stream it must come from the maintainer.
fn rounds(
    t: &mut ThreadLog,
    conn: &mut Conn,
    spec: &Spec,
    cfg: &RunConfig,
    g0: &CsrGraph,
    end: Instant,
) {
    let mut ops = OpStream::new(g0, cfg.seed, "writer");
    let mut log = SeqLog::default();
    let read = Read::Topk(spec.topk_k);
    let line = read.line(DATASET);
    let mut sampler = Sampler::new(10, 50);
    while Instant::now() < end {
        let batch = ops.next_batch(spec.batch_ops);
        let update = log.update_line(DATASET, &batch);
        let round = log.acked_epoch();
        let Some((reply, ns)) = t.call(conn, &update, "client.update", round) else {
            break;
        };
        t.updates.extend(ns);
        if let Err(e) = log.ack(&reply, batch) {
            t.violations.push(e);
            break;
        }
        let Some((reply, ns)) = t.call(conn, &line, "client.topk", round) else {
            continue;
        };
        t.reads.extend(ns);
        let (source, what) = match spec.kind {
            Kind::FreshTopk => (" source=engine(", "computed by an engine"),
            _ => (" source=maintained ", "served by the maintainer"),
        };
        if !reply.contains(source) {
            t.violations.push(format!(
                "TOPK {} on a fresh epoch was not {what}: {reply:.120}",
                spec.topk_k
            ));
        }
        let epoch = reply_epoch(&reply);
        if epoch != log.acked_epoch() {
            t.violations.push(format!(
                "TOPK answered at epoch {epoch} after epoch {} was acked",
                log.acked_epoch()
            ));
        }
        if sampler.keep() {
            t.samples.push((read, reply));
        }
    }
    t.log = Some(log);
}
