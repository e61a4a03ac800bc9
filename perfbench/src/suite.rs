//! The four workloads, their run shape, and the metrics they report.
//!
//! One run of one workload: set up from nothing (write the descriptor
//! library, build it, start the daemon, draw the request pool); warm up;
//! measure `seconds` in windows, setting up once more from nothing after
//! each window; check every output on the way. A traced run then adds the
//! per-layer passes: in-process server replay, reload stages, and a
//! separate XML parse pass.
//!
//! Every workload is a closed loop: its callers are runtime systems and
//! build scripts that block on each reply.

use crate::client::{Conn, Marks};
use crate::daemon::{self, Daemon};
use crate::pool::{Pool, Variant, MIX};
use crate::rng::{fnv1a, Rng};
use crate::stats::{median, min_samples, Samples};
use crate::toolchain::{self, Build, Library, STAGE_SPANS};
use crate::trace::{self, Recorder};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use xpdl_codegen::plan::CompiledGetters;
use xpdl_core::XpdlElement;
use xpdl_runtime::{format, RuntimeModel, XpdlHandle};
use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
use xpdl_serve::snapshot::fingerprint_model;
use xpdl_serve::{
    Encoding, Engine, EngineOptions, Method, ModelSource, Reply, Request, ServeSnapshot,
    SnapshotRegistry,
};

/// One seeded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build a library of synthetic fleets, one `xpdlc build` plus
    /// `xpdl_init` per operation.
    BuildFleet,
    /// Query the paper's GPU server over JSON lines.
    QueryJson,
    /// The same queries over the negotiated binary encoding.
    QueryBinary,
    /// Binary queries on one connection while the model file is
    /// republished and hot-reloaded every reload period.
    QueryReload,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::BuildFleet,
        Workload::QueryJson,
        Workload::QueryBinary,
        Workload::QueryReload,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildFleet => "build_fleet",
            Workload::QueryJson => "query_json",
            Workload::QueryBinary => "query_binary",
            Workload::QueryReload => "query_reload",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The encoding its queries use (for `build_fleet`, the serving check
    /// of the built model).
    fn encoding(self) -> Encoding {
        match self {
            Workload::BuildFleet | Workload::QueryJson => Encoding::Json,
            Workload::QueryBinary | Workload::QueryReload => Encoding::Binary,
        }
    }
}

/// The run shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Measured seconds, after warm-up.
    pub seconds: f64,
    /// Warm-up seconds before measuring.
    pub warmup: f64,
    /// `xpdl-fleetgen` shape of each fleet `build_fleet` builds.
    pub fleet_shape: String,
    /// Fleets in the `build_fleet` library, each from its own sub-seed.
    pub fleets: usize,
    /// How often `query_reload` republishes the model.
    pub reload_period: Duration,
    /// This benchmark's executable, started with `--serve` as the daemon.
    pub server_exe: PathBuf,
}

/// Client connections (one thread each) of `query_json` and
/// `query_binary`: the load is sized for two cores.
const CONNECTIONS: usize = 2;

/// The benchmark's own output directory, beside its sources: run files
/// (removed afterwards) and Chrome traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where a traced run of `workload` with `seed` writes its Chrome trace.
pub fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    out_dir().join(format!("trace-{}-seed{seed}.json", workload.name()))
}

impl Config {
    /// The committed run shape: 1 s of warm-up, then `seconds` measured.
    pub fn standard(seconds: f64, server_exe: PathBuf) -> Config {
        Config {
            seconds,
            warmup: 1.0,
            fleet_shape: "nodes=32,depth=8,chain=12,width=10,unknown=0.3".into(),
            fleets: 8,
            reload_period: Duration::from_millis(50),
            server_exe,
        }
    }

    /// A run of a few hundred milliseconds over small fleets, for tests.
    pub fn quick(server_exe: PathBuf) -> Config {
        Config {
            warmup: 0.05,
            fleet_shape: "nodes=6,depth=3,chain=3,width=3,unknown=0.3".into(),
            fleets: 2,
            reload_period: Duration::from_millis(10),
            ..Config::standard(0.3, server_exe)
        }
    }

    /// One-second measurement windows, at least five.
    fn windows(&self) -> usize {
        (self.seconds.round() as usize).max(5)
    }
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_us_p50", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Operations issued (builds, requests, reloads).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One `workload metric value unit n=<samples>` line per metric.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{} {} {} {} n={}",
                self.workload.name(),
                m.name,
                m.value,
                m.unit,
                m.n
            );
        }
        s
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Run `workload` once.
pub fn run(workload: Workload, seed: u64, trace: bool, cfg: &Config) -> Result<Outcome, String> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let scratch = out_dir().join(format!(
        "run-{}-{}-{}",
        workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let result = Run::new(workload, seed, trace, cfg, scratch.clone()).and_then(Run::execute);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

// ---- bookkeeping ----

/// Counts of attempted and failed operations, with the first failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(1, e);
        }
    }

    fn fail(&mut self, n: u64, e: String) {
        self.failed += n;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Per-stage samples of toolchain builds, in milliseconds.
#[derive(Debug, Default)]
struct ToolSamples {
    resolve: Samples,
    elaborate: Samples,
    from_element: Samples,
    encode: Samples,
    write: Samples,
    load: Samples,
    total: Samples,
    stage_sum: Samples,
    docs: Samples,
    elements: Samples,
    bytes: Samples,
}

impl ToolSamples {
    fn push(&mut self, b: &Build) {
        let s = &b.stages;
        self.resolve.push(s.resolve);
        self.elaborate.push(s.elaborate);
        self.from_element.push(s.from_element);
        self.encode.push(s.encode);
        self.write.push(s.write);
        self.load.push(s.load);
        self.total.push(s.total);
        self.stage_sum.push(s.sum());
        self.docs.push(b.doc_keys.len() as f64);
        self.elements
            .push(b.elaborated.root.descendants().count() as f64);
        self.bytes.push(b.bytes.len() as f64);
    }
}

/// One traced call's stage times (µs) and reply size.
#[derive(Debug, Clone, Copy)]
struct CallStages {
    idx: usize,
    encode: f64,
    wait: f64,
    decode: f64,
    total: f64,
    bytes: f64,
}

/// Client-observed samples of query calls.
#[derive(Debug, Default)]
struct ClientLog {
    /// Call latencies, µs.
    lat: Samples,
    /// Traced calls' stages.
    stages: Vec<CallStages>,
    tally: Tally,
    /// Span buffers of the threads that made the calls.
    recs: Vec<Recorder>,
}

/// Samples of the reload path.
#[derive(Debug, Default)]
struct ReloadSamples {
    /// Publish (write + rename) until the daemon's `reload` reply, ms.
    latency: Samples,
    calls: u64,
    swaps: u64,
    /// `Engine::reload` in-process, ms.
    engine: Samples,
    fingerprint: Samples,
    plan_compile: Samples,
    snapshot_build: Samples,
    install: Samples,
}

/// Server-side stage samples from replaying the pool in-process.
#[derive(Debug, Default)]
struct Replay {
    decode: Samples,
    handle: Samples,
    encode: Samples,
    per_method: Vec<(&'static str, Samples)>,
    /// Median server time (decode + handle + encode, µs) per pool index.
    server_us: Vec<f64>,
}

fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

// ---- the fixture: library, built model, daemon, pool ----

/// Everything one set-up produces.
struct Fixture {
    libs: Vec<Library>,
    /// The elaborated tree of the served model (for the reload variant).
    served_root: XpdlElement,
    model_path: PathBuf,
    /// The served model's encoding, and the reload variant's (built on
    /// first use outside `query_reload`).
    published: [Vec<u8>; 2],
    daemon: Daemon,
    pool: Pool,
}

/// The reload variant: the served model with one more root attribute, so
/// its fingerprint differs and every reload swaps.
fn variant(root: &XpdlElement) -> RuntimeModel {
    let mut root = root.clone();
    root.set_attr("bench_generation", "1");
    RuntimeModel::from_element(&root)
}

/// The `build_fleet` library for `seed`: `n` fleets of `shape`, each
/// generated from its own sub-seed.
pub fn fleets(seed: u64, shape: &str, n: usize) -> Result<Vec<xpdl_fleetgen::Fleet>, String> {
    let shape = xpdl_fleetgen::FleetShape::parse(shape)?;
    let mut rng = Rng::stream(seed, "fleets");
    Ok((0..n.max(1))
        .map(|_| xpdl_fleetgen::generate(rng.next_u64(), &shape))
        .collect())
}

/// Build the workload's fixture from nothing.
fn setup(
    workload: Workload,
    seed: u64,
    cfg: &Config,
    dir: &Path,
    tool: &mut ToolSamples,
    tally: &mut Tally,
    rec: &mut Option<Recorder>,
) -> Result<Fixture, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let libs = match workload {
        Workload::BuildFleet => fleets(seed, &cfg.fleet_shape, cfg.fleets)?
            .iter()
            .enumerate()
            .map(|(i, fleet)| Library::fleet(dir.join(format!("fleet{i}")), fleet).map_err(io))
            .collect::<Result<Vec<_>, _>>()?,
        _ => vec![Library::paper(dir.join("library"), "liu_gpu_server").map_err(io)?],
    };
    let model_path = dir.join("served.xpdlrt");
    let mut served = None;
    for (i, lib) in libs.iter().enumerate() {
        let out = if i == 0 {
            model_path.clone()
        } else {
            dir.join(format!("fleet{i}.xpdlrt"))
        };
        let b = toolchain::build(lib, &out)?;
        tally.record(toolchain::check(lib, &b));
        tool.push(&b);
        trace_build(rec, &b, tally.attempted);
        served.get_or_insert(b);
    }
    let Build {
        elaborated,
        model,
        bytes,
        ..
    } = served.expect("at least one library");
    let daemon = Daemon::spawn(&cfg.server_exe, &model_path)?;
    let source = format!("file:{}", model_path.display());
    let mut variants = vec![Variant {
        handle: XpdlHandle::from_model(model),
        source: source.clone(),
        fingerprint: fnv1a(&bytes),
    }];
    let mut published = [bytes, Vec::new()];
    if workload == Workload::QueryReload {
        let b = variant(&elaborated.root);
        published[1] = format::encode(&b).to_vec();
        variants.push(Variant {
            handle: XpdlHandle::from_model(b),
            source,
            fingerprint: fnv1a(&published[1]),
        });
    }
    let pool = Pool::generate(seed, &variants);
    Ok(Fixture {
        libs,
        served_root: elaborated.root,
        model_path,
        published,
        daemon,
        pool,
    })
}

fn trace_build(rec: &mut Option<Recorder>, b: &Build, seq: u64) {
    if rec.is_none() {
        return;
    }
    trace::span(rec, "build", seq, b.marks[0], b.marks[6]);
    for (i, name) in STAGE_SPANS.iter().enumerate() {
        trace::span(rec, name, seq, b.marks[i], b.marks[i + 1]);
    }
}

// ---- load generation ----

/// Shared state of one window of load.
struct Phase {
    stop: AtomicBool,
    calls: AtomicU64,
    reloads: AtomicU64,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            stop: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
        }
    }
}

/// The figures of one measured window.
#[derive(Debug, Default)]
struct Window {
    /// Operation latencies, µs.
    lat: Samples,
    /// Seconds from the window's start until it stopped.
    secs: f64,
}

/// Issue pool requests on one connection, starting at pool index `first`,
/// until `phase` stops or `max_calls` were made, checking every reply.
/// Calls begin once every thread of the window passed `start`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    encoding: Encoding,
    pool: &Pool,
    first: usize,
    id_base: u64,
    max_calls: u64,
    phase: &Phase,
    start: &Barrier,
    mut rec: Option<Recorder>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let conn = Conn::connect(addr, encoding);
    start.wait();
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            log.tally.record(Err(format!("connect {addr}: {e}")));
            return log;
        }
    };
    let mut calls = 0;
    while calls < max_calls && !phase.stop.load(Ordering::Relaxed) {
        let idx = (first + calls as usize) % pool.len();
        let id = id_base + calls;
        calls += 1;
        let req = Request::new(id, pool.methods[idx].clone());
        let (resp, m, bytes): (_, Marks, _) = match conn.call(&req) {
            Ok(r) => r,
            Err(e) => {
                log.tally.record(Err(format!("request {id}: {e}")));
                break;
            }
        };
        log.tally.record(pool.check(idx, id, &resp));
        log.lat.push(us(m[0], m[3]));
        phase.calls.fetch_add(1, Ordering::Relaxed);
        if rec.is_some() {
            log.stages.push(CallStages {
                idx,
                encode: us(m[0], m[1]),
                wait: us(m[1], m[2]),
                decode: us(m[2], m[3]),
                total: us(m[0], m[3]),
                bytes: bytes as f64,
            });
            trace::span(&mut rec, "client.call", id, m[0], m[3]);
            trace::span(&mut rec, "client.encode", id, m[0], m[1]);
            trace::span(&mut rec, "client.wait", id, m[1], m[2]);
            trace::span(&mut rec, "client.decode", id, m[2], m[3]);
        }
    }
    log.recs.extend(rec);
    log
}

/// Publish `bytes` as the served model file (write, then rename over it)
/// and ask the daemon to reload: `(publish-to-reply ms, swapped)`.
fn publish(
    fx: &Fixture,
    bytes: &[u8],
    ctl: &mut Conn,
    seq: u64,
    rec: &mut Option<Recorder>,
) -> Result<(f64, bool), String> {
    let t0 = Instant::now();
    let next = fx.model_path.with_extension("next");
    std::fs::write(&next, bytes)
        .and_then(|_| std::fs::rename(&next, &fx.model_path))
        .map_err(|e| format!("publish {}: {e}", fx.model_path.display()))?;
    let t1 = Instant::now();
    let (resp, _, _) = ctl
        .call(&Request::new(seq, Method::Reload))
        .map_err(|e| format!("reload: {e}"))?;
    let t2 = Instant::now();
    trace::span(rec, "reload.publish", seq, t0, t1);
    trace::span(rec, "reload.rpc", seq, t1, t2);
    match resp.result {
        Ok(Reply::Reloaded { changed, .. }) => Ok((ms(t0, t2), changed)),
        other => Err(format!("reload: unexpected reply {other:?}")),
    }
}

impl ReloadSamples {
    fn add(&mut self, (latency, swapped): (f64, bool)) {
        self.latency.push(latency);
        self.calls += 1;
        self.swaps += u64::from(swapped);
    }

    fn merge(&mut self, o: ReloadSamples) {
        self.latency.extend(&o.latency);
        self.calls += o.calls;
        self.swaps += o.swaps;
    }
}

/// `query_reload`'s publisher: alternate the two model variants every
/// `period` until the phase stops.
fn publish_loop(
    fx: &Fixture,
    period: Duration,
    phase: &Phase,
    start: &Barrier,
    mut rec: Option<Recorder>,
) -> (ReloadSamples, Tally, Option<Recorder>) {
    let mut samples = ReloadSamples::default();
    let mut tally = Tally::default();
    let ctl = Conn::connect(fx.daemon.addr(), Encoding::Json);
    start.wait();
    let mut ctl = match ctl {
        Ok(c) => c,
        Err(e) => {
            tally.record(Err(format!("reload connection: {e}")));
            return (samples, tally, rec);
        }
    };
    let mut i: u64 = 0;
    let mut next = Instant::now() + period;
    while !phase.stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(Duration::from_millis(10)));
            continue;
        }
        next += period;
        i += 1;
        let r = publish(fx, &fx.published[(i % 2) as usize], &mut ctl, i, &mut rec);
        if let Ok(s) = &r {
            samples.add(*s);
            phase.reloads.fetch_add(1, Ordering::Relaxed);
        }
        tally.record(r.map(|_| ()));
    }
    (samples, tally, rec)
}

// ---- one run ----

struct Run {
    workload: Workload,
    seed: u64,
    cfg: Config,
    scratch: PathBuf,
    origin: Instant,
    rec: Option<Recorder>,
    tally: Tally,
    setups: Vec<f64>,
    tool: ToolSamples,
    builds: usize,
    fx: Fixture,
}

impl Run {
    fn new(
        workload: Workload,
        seed: u64,
        trace: bool,
        cfg: &Config,
        scratch: PathBuf,
    ) -> Result<Run, String> {
        let origin = Instant::now();
        let mut rec = trace.then(|| Recorder::new(origin, 0));
        let mut tally = Tally::default();
        let mut tool = ToolSamples::default();
        let t = Instant::now();
        let dir = scratch.join("setup");
        let fx = setup(workload, seed, cfg, &dir, &mut tool, &mut tally, &mut rec)?;
        let setups = vec![t.elapsed().as_secs_f64()];
        Ok(Run {
            workload,
            seed,
            cfg: cfg.clone(),
            scratch,
            origin,
            rec,
            tally,
            setups,
            tool,
            builds: 0,
            fx,
        })
    }

    fn tracing(&self) -> bool {
        self.rec.is_some()
    }

    fn execute(mut self) -> Result<Outcome, String> {
        let mut client = ClientLog::default();
        if self.workload == Workload::BuildFleet {
            // The built model must answer queries exactly as the tree walk
            // does; a traced run takes its client-layer numbers from these
            // calls.
            let calls = if self.tracing() {
                min_samples(0.99).max(self.fx.pool.len())
            } else {
                self.fx.pool.len()
            };
            let rec = self.tracing().then(|| Recorder::new(self.origin, 1));
            let (encoding, addr) = (self.workload.encoding(), self.fx.daemon.addr());
            client = client_loop(
                addr,
                encoding,
                &self.fx.pool,
                0,
                1,
                calls as u64,
                &Phase::new(),
                &Barrier::new(1),
                rec,
            );
        }
        let (windows, reload) = self.measure(&mut client)?;
        self.tally.merge(std::mem::take(&mut client.tally));
        self.check_stats();
        let e2e = self.end_to_end(&windows, self.tracing())?;
        let mut report = Report::default();
        if self.tracing() {
            for m in e2e {
                report.put(&format!("traced.{}", m.name), m.value, m.unit, m.n);
            }
            let replay = self.replay()?;
            let reload = self.reload_layers(reload)?;
            let parse = self.parse_passes()?;
            self.layer_metrics(&mut report, &client, &replay, &reload, parse)?;
            let mut recorders: Vec<Recorder> = self.rec.take().into_iter().collect();
            recorders.append(&mut client.recs);
            let path = trace_path(self.workload, self.seed);
            trace::write_chrome(&path, &recorders)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        } else {
            report.metrics = e2e;
        }
        let Run {
            workload,
            tally,
            fx,
            ..
        } = self;
        fx.daemon.stop()?;
        Ok(Outcome {
            workload,
            attempted: tally.attempted,
            failed: tally.failed,
            errors: tally.errors,
            metrics: report.metrics,
        })
    }

    /// Warm up, then measure `windows` windows of `seconds / windows`
    /// each, every window running at least until each percentile it
    /// reports has its samples. `build_fleet` rebuilds its fleets in
    /// turn; the query workloads open fresh connections, on fresh
    /// threads, for every window, so no one thread placement decides a
    /// run. Traced calls land in `client`.
    fn measure(&mut self, client: &mut ClientLog) -> Result<(Vec<Window>, ReloadSamples), String> {
        let windows = self.cfg.windows();
        // Per window: samples for its p50, and in a traced run for its p90
        // and a share of the client-layer p99.
        let need = match (self.tracing(), self.workload) {
            (false, _) => min_samples(0.5),
            (true, Workload::BuildFleet) => min_samples(0.9),
            (true, _) => min_samples(0.9).max(min_samples(0.99).div_ceil(windows)),
        };
        let need_reloads = match self.workload {
            Workload::QueryReload => min_samples(0.5).div_ceil(windows),
            _ => 0,
        };
        let mut out = Vec::with_capacity(windows);
        let mut reload = ReloadSamples::default();
        let mut tool = ToolSamples::default();
        // One span buffer per client slot and one for the publisher, kept
        // across windows so the trace stays bounded.
        let mut recs: Vec<Option<Recorder>> = (1..=CONNECTIONS as u32 + 1)
            .map(|tid| self.tracing().then(|| Recorder::new(self.origin, tid)))
            .collect();
        for w in 0..=windows {
            // Window 0 is the warm-up: checked, not recorded.
            let record = w > 0;
            let secs = if record {
                self.cfg.seconds / windows as f64
            } else {
                self.cfg.warmup
            };
            let need = if record { need } else { 0 };
            let win = if self.workload == Workload::BuildFleet {
                self.build_window(secs, need, record.then_some(&mut tool))?
            } else {
                let mut idle: Vec<Option<Recorder>> = recs.iter().map(|_| None).collect();
                let slots = if record { &mut recs } else { &mut idle };
                let need_reloads = if record { need_reloads } else { 0 };
                let (win, log, r) = self.query_window(secs, need, need_reloads, slots);
                self.tally.merge(log.tally);
                if record {
                    client.stages.extend(log.stages);
                    reload.merge(r);
                }
                win
            };
            if record {
                out.push(win);
                self.probe_setup()?;
            }
        }
        if self.workload == Workload::BuildFleet {
            // The per-layer toolchain numbers explain the measured builds.
            self.tool = tool;
        }
        client.recs.extend(recs.into_iter().flatten());
        Ok((out, reload))
    }

    /// Set up once more from nothing, beside the live fixture, and tear it
    /// down: one more `setup_s` sample. Spreading these between the
    /// windows keeps a slow second on the host from deciding `setup_s`.
    /// Each probe rewrites the same files, so creating and unlinking
    /// thousands of files adds no file-system noise.
    fn probe_setup(&mut self) -> Result<(), String> {
        let dir = self.scratch.join("probe");
        let t = Instant::now();
        let fx = setup(
            self.workload,
            self.seed,
            &self.cfg,
            &dir,
            &mut self.tool,
            &mut self.tally,
            &mut self.rec,
        )?;
        self.setups.push(t.elapsed().as_secs_f64());
        fx.daemon.stop()
    }

    /// One window of `build_fleet`: rebuild the next fleet, over and over.
    fn build_window(
        &mut self,
        secs: f64,
        need: usize,
        mut tool: Option<&mut ToolSamples>,
    ) -> Result<Window, String> {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let out = self.scratch.join("op.xpdlrt");
        let mut win = Window::default();
        while Instant::now() < end || win.lat.len() < need {
            let lib = &self.fx.libs[self.builds % self.fx.libs.len()];
            self.builds += 1;
            let b = match toolchain::build(lib, &out) {
                Ok(b) => b,
                Err(e) => {
                    self.tally.record(Err(e));
                    if self.tally.failed > 10 {
                        return Err("too many failed builds".into());
                    }
                    continue;
                }
            };
            self.tally.record(toolchain::check(lib, &b));
            win.lat.push(b.stages.total * 1e3);
            if let Some(t) = tool.as_deref_mut() {
                t.push(&b);
                trace_build(&mut self.rec, &b, self.builds as u64);
            }
        }
        win.secs = start.elapsed().as_secs_f64();
        Ok(win)
    }

    /// One window of a query workload: fresh client connections (and, for
    /// `query_reload`, the publisher) for `secs`, then until `need` calls
    /// and `need_reloads` reloads completed. `recs` holds the span buffers
    /// of the client slots, then the publisher's; calls are traced when
    /// their slot has one.
    fn query_window(
        &self,
        secs: f64,
        need: usize,
        need_reloads: usize,
        recs: &mut [Option<Recorder>],
    ) -> (Window, ClientLog, ReloadSamples) {
        let reloading = self.workload == Workload::QueryReload;
        let conns = if reloading { 1 } else { CONNECTIONS };
        let (encoding, period, fx) = (self.workload.encoding(), self.cfg.reload_period, &self.fx);
        let phase = Phase::new();
        let start = Barrier::new(conns + usize::from(reloading) + 1);
        let (mut win, logs, reload) = std::thread::scope(|s| {
            let (phase, start) = (&phase, &start);
            let clients: Vec<_> = (0..conns)
                .map(|c| {
                    let rec = recs[c].take();
                    let first = c * fx.pool.len() / conns;
                    let id_base = 1 + (c as u64) * 1_000_000_000;
                    let addr = fx.daemon.addr();
                    s.spawn(move || {
                        client_loop(
                            addr,
                            encoding,
                            &fx.pool,
                            first,
                            id_base,
                            u64::MAX,
                            phase,
                            start,
                            rec,
                        )
                    })
                })
                .collect();
            let publisher = reloading.then(|| {
                let rec = recs[CONNECTIONS].take();
                s.spawn(move || publish_loop(fx, period, phase, start, rec))
            });
            start.wait();
            let t0 = Instant::now();
            let end = t0 + Duration::from_secs_f64(secs);
            let deadline = end + Duration::from_secs_f64(secs * 2.0 + 30.0);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            while Instant::now() < deadline
                && !clients.iter().all(|c| c.is_finished())
                && (phase.calls.load(Ordering::Relaxed) < need as u64
                    || phase.reloads.load(Ordering::Relaxed) < need_reloads as u64)
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            phase.stop.store(true, Ordering::Relaxed);
            let win = Window {
                lat: Samples::default(),
                secs: t0.elapsed().as_secs_f64(),
            };
            let logs: Vec<ClientLog> = clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect();
            (
                win,
                logs,
                publisher.map(|p| p.join().expect("publisher thread")),
            )
        });
        let mut merged = ClientLog::default();
        for (c, mut log) in logs.into_iter().enumerate() {
            win.lat.extend(&log.lat);
            merged.stages.append(&mut log.stages);
            merged.tally.merge(log.tally);
            recs[c] = log.recs.pop();
        }
        let mut samples = ReloadSamples::default();
        if let Some((s, tally, rec)) = reload {
            samples = s;
            merged.tally.merge(tally);
            recs[CONNECTIONS] = rec;
        }
        (win, merged, samples)
    }

    /// Ask the daemon for its counters: shed or deadline-expired requests
    /// are failures.
    fn check_stats(&mut self) {
        let r = Conn::connect(self.fx.daemon.addr(), Encoding::Json)
            .and_then(|mut c| c.call(&Request::new(1, Method::Stats)))
            .map_err(|e| format!("stats: {e}"));
        match r.map(|(resp, _, _)| resp.result) {
            Ok(Ok(Reply::Stats(s))) if s.shed + s.deadline_exceeded > 0 => self.tally.fail(
                s.shed + s.deadline_exceeded,
                format!(
                    "daemon shed {} and expired {} requests",
                    s.shed, s.deadline_exceeded
                ),
            ),
            Ok(Ok(Reply::Stats(_))) => {}
            Ok(other) => self
                .tally
                .fail(1, format!("stats: unexpected reply {other:?}")),
            Err(e) => self.tally.fail(1, e),
        }
    }

    /// The end-to-end metrics, each the median of its per-window values;
    /// with `tail`, also the per-window p90. The p90 stays out of the
    /// untraced set: build times are bimodal (a share of builds runs about
    /// half again as long), so which mode p90 lands in varies run to run.
    fn end_to_end(&self, windows: &[Window], tail: bool) -> Result<Vec<Metric>, String> {
        let n: usize = windows.iter().map(|w| w.lat.len()).sum();
        let per_window = |p: f64| -> Result<f64, String> {
            let v: Option<Vec<f64>> = windows.iter().map(|w| w.lat.percentile(p)).collect();
            v.map(|v| median(&v))
                .ok_or_else(|| format!("a window has too few samples for p{}", p * 100.0))
        };
        let rates: Vec<f64> = windows
            .iter()
            .map(|w| w.lat.len() as f64 / w.secs)
            .collect();
        // The daemon's memory, or the benchmark's own where the work runs
        // in-process (`build_fleet`).
        let rss = match self.workload {
            Workload::BuildFleet => daemon::peak_rss_mb("/proc/self/status")?,
            _ => self.fx.daemon.peak_rss_mb()?,
        };
        let mut r = Report::default();
        r.put("setup_s", median(&self.setups), "s", self.setups.len());
        r.put("latency_us_p50", per_window(0.5)?, "us", n);
        if tail {
            r.put("latency_us_p90", per_window(0.9)?, "us", n);
        }
        r.put("throughput_per_s", median(&rates), "1/s", n);
        r.put("peak_rss_mb", rss, "MB", 1);
        Ok(r.metrics)
    }

    /// Replay the pool through the daemon's own request decode, engine
    /// and response encode, in-process, checking every reply.
    fn replay(&mut self) -> Result<Replay, String> {
        // The served file is not republished before this point, so the
        // replay engine reports the same source the pool expects.
        let engine = engine_over(&self.fx.model_path)?;
        let pool = &self.fx.pool;
        let unit = (pool.len() / 20).max(1);
        let passes = min_samples(0.99)
            .div_ceil(pool.len())
            .max(min_samples(0.5).div_ceil(unit));
        let mut out = Replay {
            per_method: MIX
                .iter()
                .map(|&(_, name)| (name, Samples::default()))
                .collect(),
            ..Replay::default()
        };
        let mut per_index: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
        for pass in 0..passes {
            // Fresh intern tables per pass, as on a fresh connection.
            let (mut cenc, mut sdec, mut senc) =
                (StrEncoder::new(), StrDecoder::new(), StrEncoder::new());
            for (idx, method) in pool.methods.iter().enumerate() {
                let req = Request::new(idx as u64, method.clone());
                let (t0, t1, resp, t2, t3) = match self.workload.encoding() {
                    Encoding::Json => {
                        let line = req.to_json();
                        let t0 = Instant::now();
                        let parsed = xpdl_serve::parse_request(&line);
                        let t1 = Instant::now();
                        let parsed = parsed.map_err(|(_, e)| format!("replay parse: {e:?}"))?;
                        let resp = engine.handle(&parsed);
                        let t2 = Instant::now();
                        std::hint::black_box(resp.to_json());
                        (t0, t1, resp, t2, Instant::now())
                    }
                    Encoding::Binary => {
                        let frame = codec::encode_request(&req, &mut cenc);
                        let t0 = Instant::now();
                        let parsed = codec::decode_request(&frame[4..], &mut sdec);
                        let t1 = Instant::now();
                        let parsed = parsed.map_err(|(_, e)| format!("replay decode: {e:?}"))?;
                        let resp = engine.handle(&parsed);
                        let t2 = Instant::now();
                        std::hint::black_box(codec::encode_response(&resp, &mut senc));
                        (t0, t1, resp, t2, Instant::now())
                    }
                };
                self.tally.record(pool.check(idx, idx as u64, &resp));
                out.decode.push(us(t0, t1));
                out.handle.push(us(t1, t2));
                out.encode.push(us(t2, t3));
                per_index[idx].push(us(t0, t3));
                if let Some((_, s)) = out.per_method.iter_mut().find(|(n, _)| *n == method.name()) {
                    s.push(us(t1, t2));
                }
                let seq = (pass * pool.len() + idx) as u64;
                trace::span(&mut self.rec, "server.decode_request", seq, t0, t1);
                trace::span(&mut self.rec, "engine.handle", seq, t1, t2);
                trace::span(&mut self.rec, "server.encode_response", seq, t2, t3);
            }
        }
        out.server_us = per_index.iter().map(|v| median(v)).collect();
        Ok(out)
    }

    /// Reload-path layers. `query_reload` measured the daemon live; the
    /// other workloads republish their served model here. `Engine::reload`
    /// and its snapshot stages are timed in-process for every workload.
    fn reload_layers(&mut self, mut live: ReloadSamples) -> Result<ReloadSamples, String> {
        let reps = min_samples(0.5);
        if self.fx.published[1].is_empty() {
            self.fx.published[1] = format::encode(&variant(&self.fx.served_root)).to_vec();
        }
        if live.calls == 0 {
            let mut ctl = Conn::connect(self.fx.daemon.addr(), Encoding::Json)
                .map_err(|e| format!("reload connection: {e}"))?;
            for i in 1..=reps as u64 {
                let r = publish(
                    &self.fx,
                    &self.fx.published[(i % 2) as usize],
                    &mut ctl,
                    i,
                    &mut self.rec,
                );
                self.tally.record(r.map(|s| live.add(s)));
            }
        }
        let side = self.scratch.join("reload.xpdlrt");
        std::fs::write(&side, &self.fx.published[0])
            .map_err(|e| format!("{}: {e}", side.display()))?;
        let engine = engine_over(&side)?;
        let next = side.with_extension("next");
        for i in 1..=reps as u64 {
            std::fs::write(&next, &self.fx.published[(i % 2) as usize])
                .and_then(|_| std::fs::rename(&next, &side))
                .map_err(|e| format!("{}: {e}", side.display()))?;
            let t0 = Instant::now();
            let r = engine.reload();
            let t1 = Instant::now();
            self.tally.record(match r {
                Ok((_, true)) => Ok(()),
                other => Err(format!("in-process reload {i}: {other:?}")),
            });
            live.engine.push(ms(t0, t1));
            trace::span(&mut self.rec, "engine.reload", i, t0, t1);
        }
        let desc = format!("file:{}", side.display());
        let load = || format::load_file(&side).map_err(|e| format!("load: {e}"));
        let registry = SnapshotRegistry::new(ServeSnapshot::initial(load()?, desc.clone()));
        for i in 1..=reps as u64 {
            let m = load()?;
            let t0 = Instant::now();
            let fp = fingerprint_model(&m);
            let t1 = Instant::now();
            std::hint::black_box(CompiledGetters::compile(&m));
            let t2 = Instant::now();
            let snap = ServeSnapshot::with_fingerprint(m, fp, desc.clone());
            let t3 = Instant::now();
            registry.install(snap);
            let t4 = Instant::now();
            live.fingerprint.push(ms(t0, t1));
            live.plan_compile.push(ms(t1, t2));
            live.snapshot_build.push(ms(t2, t3));
            live.install.push(us(t3, t4));
            trace::span(&mut self.rec, "snapshot.fingerprint", i, t0, t1);
            trace::span(&mut self.rec, "codegen.plan_compile", i, t1, t2);
            trace::span(&mut self.rec, "snapshot.build", i, t2, t3);
            trace::span(&mut self.rec, "snapshot.install", i, t3, t4);
        }
        Ok(live)
    }

    /// Parse each library's resolved documents in passes of their own:
    /// milliseconds per pass, and bytes parsed over all passes.
    fn parse_passes(&mut self) -> Result<(Samples, f64), String> {
        let mut times = Samples::default();
        let mut bytes = 0.0;
        for lib in &self.fx.libs {
            let b = toolchain::build(lib, &self.scratch.join("parse.xpdlrt"))?;
            for _ in 0..3 {
                let (t, n) = toolchain::parse_pass(lib, &b)?;
                times.push(t);
                bytes += n as f64;
            }
        }
        Ok((times, bytes))
    }

    /// The per-layer metrics. Also checks that each stage set covers its
    /// whole: build stages against build time, client stages against call
    /// latency, within 5%.
    fn layer_metrics(
        &mut self,
        r: &mut Report,
        client: &ClientLog,
        replay: &Replay,
        reload: &ReloadSamples,
        (parse, parse_bytes): (Samples, f64),
    ) -> Result<(), String> {
        let t = &self.tool;
        let build_ratio = t.stage_sum.sum() / t.total.sum();
        r.med("build.total_ms", &t.total, "ms");
        r.med("repo.resolve_ms", &t.resolve, "ms");
        r.med("repo.docs", &t.docs, "count");
        r.med("xml.parse_ms", &parse, "ms");
        let parse_rate = parse_bytes / 1e6 / (parse.sum() / 1e3);
        r.put("xml.parse_mb_per_s", parse_rate, "MB/s", parse.len());
        r.med("elab.elaborate_ms", &t.elaborate, "ms");
        r.med("elab.elements", &t.elements, "count");
        r.med("runtime.from_element_ms", &t.from_element, "ms");
        r.med("runtime.encode_ms", &t.encode, "ms");
        r.med("runtime.write_ms", &t.write, "ms");
        r.med("runtime.load_ms", &t.load, "ms");
        r.med("runtime.bytes", &t.bytes, "bytes");

        r.pct("reload.latency_ms_p50", &reload.latency, 0.5, "ms")?;
        let swaps = reload.swaps as f64 / reload.calls.max(1) as f64;
        r.put("reload.swap_ratio", swaps, "ratio", reload.calls as usize);
        r.med("engine.reload_ms", &reload.engine, "ms");
        r.med("snapshot.fingerprint_ms", &reload.fingerprint, "ms");
        r.med("codegen.plan_compile_ms", &reload.plan_compile, "ms");
        r.med("snapshot.build_ms", &reload.snapshot_build, "ms");
        r.med("snapshot.install_us", &reload.install, "us");

        let mut s: [Samples; 5] = Default::default();
        let [enc, wait, dec, bytes, hop] = &mut s;
        let mut calls = 0.0;
        for c in &client.stages {
            enc.push(c.encode);
            wait.push(c.wait);
            dec.push(c.decode);
            bytes.push(c.bytes);
            hop.push(c.wait - replay.server_us[c.idx]);
            calls += c.total;
        }
        let staged = enc.sum() + wait.sum() + dec.sum();
        for (what, ratio) in [("build", build_ratio), ("client", staged / calls)] {
            let ok = (ratio - 1.0).abs() <= 0.05;
            self.tally.record(if ok {
                Ok(())
            } else {
                Err(format!("{what} stages sum to {ratio} of the whole"))
            });
        }
        r.pct("client.encode_us_p50", enc, 0.5, "us")?;
        r.pct("client.wait_us_p50", wait, 0.5, "us")?;
        r.pct("client.wait_us_p99", wait, 0.99, "us")?;
        r.pct("client.decode_us_p50", dec, 0.5, "us")?;
        r.pct("client.decode_us_p99", dec, 0.99, "us")?;
        r.put(
            "client.decode_share",
            dec.sum() / staged,
            "ratio",
            dec.len(),
        );
        r.pct("reply.bytes_p50", bytes, 0.5, "bytes")?;
        r.pct("reply.bytes_p99", bytes, 0.99, "bytes")?;

        r.pct("server.decode_request_us_p50", &replay.decode, 0.5, "us")?;
        r.pct("engine.handle_us_p50", &replay.handle, 0.5, "us")?;
        r.pct("engine.handle_us_p99", &replay.handle, 0.99, "us")?;
        r.pct("server.encode_response_us_p50", &replay.encode, 0.5, "us")?;
        r.pct("server.hop_us_p50", hop, 0.5, "us")?;
        r.pct("server.hop_us_p99", hop, 0.99, "us")?;
        for (name, s) in &replay.per_method {
            r.pct(&format!("engine.handle_us.{name}"), s, 0.5, "us")?;
        }
        Ok(())
    }
}

/// An in-process engine over a model file, for the per-layer replays.
fn engine_over(path: &Path) -> Result<Engine, String> {
    Engine::new(
        ModelSource::File(path.to_path_buf()),
        EngineOptions {
            allow_debug: false,
            allow_shutdown: false,
        },
    )
    .map_err(|e| format!("engine over {}: {e:?}", path.display()))
}

/// Metrics under construction.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// The median of repeated measurements (builds, reloads, passes).
    fn med(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.put(name, median(s.values()), unit, s.len());
    }

    /// A percentile metric; an error when too few samples lie beyond it.
    fn pct(&mut self, name: &str, s: &Samples, p: f64, unit: &'static str) -> Result<(), String> {
        let v = s
            .percentile(p)
            .ok_or_else(|| format!("{name}: {} samples cannot support p{}", s.len(), p * 100.0))?;
        self.put(name, v, unit, s.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fleets_other_seed_other_fleets() {
        let sums = |seed| -> Vec<u64> {
            fleets(seed, "nodes=8,depth=3,chain=3,width=3", 3)
                .unwrap()
                .iter()
                .map(|f| f.checksum())
                .collect()
        };
        assert_eq!(sums(42), sums(42));
        assert_ne!(sums(42), sums(43));
        // The fleets of one library differ from each other too.
        let s = sums(42);
        assert!(s[0] != s[1] && s[1] != s[2]);
    }

    #[test]
    fn every_workload_round_trips_its_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
