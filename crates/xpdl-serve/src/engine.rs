//! The serving engine: model source, hot reload, and request dispatch.
//!
//! [`Engine`] is the socket-free core of the daemon. It owns the
//! [`SnapshotRegistry`], the [`ServeStats`], and a [`ModelSource`] it can
//! recompile from; [`Engine::handle`] maps any protocol [`Request`] to a
//! [`Response`]. The TCP server wraps it in threads and admission
//! control; `xpdlc query` calls it directly — which is what makes every
//! protocol method exercisable without a socket.

use crate::protocol::{
    codes, AccelInfo, Method, NodeInfo, Reply, Request, Response, ServeError, TransferInfo,
};
use crate::shard::ShardManager;
use crate::snapshot::{fingerprint_model, ServeSnapshot, SnapshotRegistry};
use crate::stats::ServeStats;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use xpdl_obs::{trace, Histogram, MetricsRegistry};
use xpdl_repo::Repository;
use xpdl_runtime::{estimate, format, RuntimeModel};

/// Where the served model comes from — and therefore what a hot reload
/// re-reads.
pub enum ModelSource {
    /// A compiled `.xpdlrt` file (the toolchain's `build` output).
    File(PathBuf),
    /// A repository key, recompiled through resolve + elaborate on every
    /// reload. The repository keeps its own resilience stack (retries,
    /// disk cache, offline mode), so a reload during a store outage
    /// degrades exactly like `xpdlc compose` would — and on failure the
    /// old snapshot simply stays live.
    Repo {
        /// Key of the system model to compose.
        key: String,
        /// The configured store stack (boxed: `Repository` is large and
        /// this variant would otherwise dominate the enum's size).
        repo: Box<Repository>,
    },
    /// A fixed in-memory model (tests, `xpdlc query` over a fresh build).
    Fixed(Box<RuntimeModel>),
}

impl std::fmt::Debug for ModelSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelSource::File(p) => f.debug_tuple("File").field(p).finish(),
            ModelSource::Repo { key, .. } => f.debug_struct("Repo").field("key", key).finish(),
            ModelSource::Fixed(_) => f.write_str("Fixed"),
        }
    }
}

impl ModelSource {
    /// Compile the source into a fresh runtime model (never touches the
    /// registry — this is the off-to-the-side half of a hot reload).
    pub fn compile(&self) -> Result<(RuntimeModel, String), ServeError> {
        match self {
            ModelSource::File(path) => {
                let model = format::load_file(path)
                    .map_err(|e| ServeError::new(e.code(), e.to_string()))?;
                Ok((model, format!("file:{}", path.display())))
            }
            ModelSource::Repo { key, repo } => {
                // Drop the in-memory parse cache so a changed descriptor
                // in any store is actually re-fetched.
                repo.clear_cache();
                let set = repo.resolve_recursive(key).map_err(|e| {
                    ServeError::new(codes::COMPILE_FAILED, format!("resolve '{key}': {e}"))
                })?;
                let model = xpdl_elab::elaborate(&set).map_err(|e| {
                    ServeError::new(codes::COMPILE_FAILED, format!("elaborate '{key}': {e}"))
                })?;
                Ok((RuntimeModel::from_element(&model.root), format!("repo:{key}")))
            }
            ModelSource::Fixed(model) => Ok(((**model).clone(), "memory".to_string())),
        }
    }
}

/// Engine behavior switches.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Allow the debug-only `sleep` method (tests, bench backpressure).
    pub allow_debug: bool,
    /// Allow the `shutdown` method to request process exit.
    pub allow_shutdown: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { allow_debug: false, allow_shutdown: true }
    }
}

/// The socket-free serving core.
#[derive(Debug)]
pub struct Engine {
    registry: SnapshotRegistry,
    stats: ServeStats,
    source: parking_lot::Mutex<ModelSource>,
    options: EngineOptions,
    shutdown: AtomicBool,
    /// Drain mode: queries answer `S510` while control/introspection
    /// methods keep working. Set by the SIGTERM drain sequence *after*
    /// the node deregisters from the cluster registry, so a client that
    /// raced the deregistration gets a fail-over-able error instead of
    /// a hung or reset connection.
    draining: AtomicBool,
    /// Per-method handler-time histograms (`serve.method.<name>.time_us`),
    /// indexed by the method's wire code (one slot per possible `u8`)
    /// and registered lazily on a method's first request.
    method_hist: [OnceLock<Arc<Histogram>>; 256],
    /// Shard state for sharded fleets (`None` on single-model nodes).
    /// Requests carrying a shard key answer from the shard's snapshot
    /// instead of the primary [`SnapshotRegistry`].
    shards: parking_lot::Mutex<Option<Arc<ShardManager>>>,
}

impl Engine {
    /// Compile the source once and stand up an engine serving it.
    pub fn new(source: ModelSource, options: EngineOptions) -> Result<Engine, ServeError> {
        let (model, desc) = source.compile()?;
        Ok(Engine {
            registry: SnapshotRegistry::new(ServeSnapshot::initial(model, desc)),
            stats: ServeStats::new(),
            source: parking_lot::Mutex::new(source),
            options,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            method_hist: std::array::from_fn(|_| OnceLock::new()),
            shards: parking_lot::Mutex::new(None),
        })
    }

    /// Enable sharded serving: requests with a shard key now resolve
    /// through `mgr`, and the `shards` method reports its state.
    pub fn set_shard_manager(&self, mgr: Arc<ShardManager>) {
        *self.shards.lock() = Some(mgr);
    }

    /// The shard manager, if sharding is enabled.
    pub fn shard_manager(&self) -> Option<Arc<ShardManager>> {
        self.shards.lock().clone()
    }

    /// The snapshot registry (for tests and direct snapshot access).
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.registry
    }

    /// The live statistics counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Ask the engine (and any server wrapping it) to stop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether the engine is in drain mode (queries answer `S510`).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Enter (or leave) drain mode. While draining, query methods are
    /// refused with `S510` so cluster clients fail over; `ping`,
    /// `health`, `stats`, `metrics` and `shutdown` still answer.
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::Release);
    }

    /// Recompile from the source and swap if the content changed.
    /// Returns the now-current epoch and whether a swap happened. On
    /// failure the previous snapshot stays live and the error carries
    /// the underlying `S4xx` cause.
    pub fn reload(&self) -> Result<(u64, bool), ServeError> {
        // The source lock serializes concurrent reload requests; readers
        // are untouched (they only ever see the registry).
        let guard = self.source.lock();
        let compiled = guard.compile();
        let (model, desc) = match compiled {
            Ok(ok) => ok,
            Err(e) => {
                self.stats.reload_failures.inc();
                return Err(ServeError::new(
                    codes::RELOAD_FAILED,
                    format!("reload failed, serving previous snapshot: {e}"),
                ));
            }
        };
        let fingerprint = fingerprint_model(&model);
        let current = self.registry.load();
        if fingerprint == current.fingerprint {
            return Ok((current.epoch, false));
        }
        let epoch =
            self.registry.install(ServeSnapshot::with_fingerprint(model, fingerprint, desc));
        self.stats.reloads.inc();
        Ok((epoch, true))
    }

    /// Handle one request end to end, recording latency and outcome.
    pub fn handle(&self, req: &Request) -> Response {
        let name = req.method.name();
        let mut sp = trace::span("serve.request");
        sp.record_attr("method", name);
        sp.record_attr("id", req.id);
        let start = Instant::now();
        let result = self.dispatch(req);
        let latency_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.stats.record(latency_us, result.is_err());
        self.stats.handler_time_us.record(latency_us);
        self.method_histogram(&req.method).record(latency_us);
        Response { id: req.id, result }
    }

    /// The `serve.method.<name>.time_us` histogram, created on first use.
    fn method_histogram(&self, method: &Method) -> &Histogram {
        self.method_hist[usize::from(crate::codec::method_code(method))].get_or_init(|| {
            MetricsRegistry::global().histogram(&format!("serve.method.{}.time_us", method.name()))
        })
    }

    /// Convenience: parse one request line and handle it. Parse errors
    /// become addressed error responses (id 0 when unrecoverable), so a
    /// caller can feed raw wire lines straight through.
    pub fn handle_line(&self, line: &str) -> Response {
        match crate::protocol::parse_request(line) {
            Ok(req) => self.handle(&req),
            Err((id, e)) => {
                self.stats.record(0, true);
                Response::err(id.unwrap_or(0), e)
            }
        }
    }

    fn dispatch(&self, req: &Request) -> Result<Reply, ServeError> {
        let method = &req.method;
        // While draining, only liveness/control methods answer; anything
        // touching the model is bounced with a fail-over-able S5xx.
        // `shards` stays up too: a draining predecessor must keep
        // answering ownership probes so its successors can take over.
        let control = matches!(
            method,
            Method::Ping
                | Method::Health
                | Method::Stats
                | Method::Metrics
                | Method::Shutdown
                | Method::Shards
                | Method::Hello { .. }
        );
        if !control && self.is_draining() {
            return Err(ServeError::new(
                codes::DRAINING,
                "node is draining for shutdown; retry on another node",
            ));
        }
        // Every query runs against one snapshot taken here — a reload
        // mid-request cannot mix two models inside one answer. A shard
        // key selects that shard's snapshot on sharded nodes; unsharded
        // nodes treat the key as advisory and serve their primary model.
        let snap = match &req.shard_key {
            Some(key) if !control => match self.shard_manager() {
                Some(mgr) => mgr.snapshot_for(key)?,
                None => self.registry.load(),
            },
            _ => self.registry.load(),
        };
        let h = &snap.handle;
        // The query getters below serve from the snapshot's compiled
        // plans (index lookups); `h` remains for the estimators and for
        // introspection over the raw model.
        let p = &snap.plans;
        Ok(match method {
            Method::Ping => Reply::Pong,
            Method::Health => {
                self.stats.health_checks.inc();
                Reply::Health {
                    epoch: snap.epoch,
                    fingerprint: format!("{:016x}", snap.fingerprint),
                    inflight: self.stats.inflight.get(),
                    draining: self.is_draining(),
                }
            }
            Method::ModelInfo => {
                let root = h.root();
                Reply::ModelInfo {
                    epoch: snap.epoch,
                    nodes: h.model().len() as u64,
                    root_kind: root.kind().to_string(),
                    root_ident: root.ident().map(str::to_string),
                    source: snap.source.clone(),
                    fingerprint: format!("{:016x}", snap.fingerprint),
                }
            }
            Method::Find { ident } => Reply::Node(p.find(ident).map(|n| NodeInfo {
                kind: p.node_kind(n).to_string(),
                ident: p.node_ident(n).map(str::to_string),
                type_ref: p.node_type_ref(n).map(str::to_string),
                attrs: p.node_attrs(n).map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            })),
            Method::GetAttr { ident, attr } => {
                Reply::Attr(p.get_attr(ident, attr).map(str::to_string))
            }
            Method::GetNumber { ident, attr } => Reply::Number(p.get_number(ident, attr)),
            Method::ElementsOfKind { kind } => {
                let (idents, count) = p.elements_of_kind(kind);
                Reply::Idents {
                    idents: idents.into_iter().map(str::to_string).collect(),
                    count,
                }
            }
            Method::NumCores => Reply::Count(p.num_cores()),
            Method::NumCudaDevices => Reply::Count(p.num_cuda_devices()),
            Method::TotalStaticPower => Reply::Power(p.total_static_power_w()),
            Method::HasInstalled { prefix } => {
                Reply::Flag(p.has_installed(|t| t.starts_with(prefix.as_str())))
            }
            Method::EstimateTransfer { link, bytes } => Reply::Transfer(
                estimate::estimate_transfer(h.model(), link, *bytes).map(|e| TransferInfo {
                    time_s: e.time_s,
                    energy_j: e.energy_j,
                    bandwidth_bps: e.bandwidth_bps,
                }),
            ),
            Method::EstimateAcceleratorUse {
                link,
                upload_bytes,
                download_bytes,
                compute_s,
                dynamic_power_w,
            } => Reply::Accelerator(
                estimate::estimate_accelerator_use(
                    h.model(),
                    link,
                    *upload_bytes,
                    *download_bytes,
                    *compute_s,
                    *dynamic_power_w,
                )
                .map(|e| AccelInfo { time_s: e.time_s, energy_j: e.energy_j }),
            ),
            Method::EstimateStaticEnergy { duration_s } => {
                Reply::Energy(estimate::estimate_static_energy(h.model(), *duration_s))
            }
            Method::Stats => Reply::Stats(self.stats.snapshot(self.registry.current_epoch())),
            Method::Metrics => Reply::Metrics(MetricsRegistry::global().snapshot()),
            Method::Reload => {
                let (epoch, changed) = self.reload()?;
                Reply::Reloaded { epoch, changed }
            }
            Method::Shutdown => {
                if !self.options.allow_shutdown {
                    return Err(ServeError::new(
                        codes::SHUTDOWN_DISABLED,
                        "remote shutdown is disabled on this server",
                    ));
                }
                self.request_shutdown();
                Reply::ShuttingDown
            }
            Method::Sleep { ms } => {
                if !self.options.allow_debug {
                    return Err(ServeError::new(
                        codes::DEBUG_DISABLED,
                        "debug methods are disabled on this server",
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis((*ms).min(10_000)));
                Reply::Slept { ms: *ms }
            }
            Method::Shards => match self.shard_manager() {
                Some(mgr) => mgr.shard_info(),
                None => Reply::Shards {
                    enabled: false,
                    ring_epoch: None,
                    owned: Vec::new(),
                    handoff: Vec::new(),
                },
            },
            // Negotiation: pick the first offered encoding this build
            // speaks. The connection-level switch is the server loop's
            // job (it must happen between frames); through the direct
            // engine path (`xpdlc query`) the answer is advisory.
            Method::Hello { encodings } => match crate::codec::negotiate(encodings) {
                Some(enc) => Reply::Hello { encoding: enc.name().to_string() },
                None => {
                    return Err(ServeError::new(
                        codes::INVALID_PARAMS,
                        format!(
                            "no mutually supported encoding (server speaks {})",
                            crate::codec::SUPPORTED_ENCODINGS.join(", ")
                        ),
                    ))
                }
            },
        })
    }
}

// Engine is shared across worker threads behind an Arc.
const fn static_assert_sync<T: Send + Sync>() {}
const _: () = static_assert_sync::<Engine>();

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn fixed_engine() -> Engine {
        let doc = XpdlDocument::parse_str(
            r#"<system id="s">
                 <cpu id="h" static_power="15" static_power_unit="W">
                   <core id="c0"/><core id="c1"/>
                 </cpu>
                 <device id="g"><programming_model type="cuda6.0"/></device>
                 <software><installed type="CUBLAS_6.0" path="/opt"/></software>
               </system>"#,
        )
        .unwrap();
        let model = RuntimeModel::from_element(doc.root());
        Engine::new(
            ModelSource::Fixed(Box::new(model)),
            EngineOptions { allow_debug: true, allow_shutdown: true },
        )
        .unwrap()
    }

    fn ok(engine: &Engine, method: Method) -> Reply {
        engine.handle(&Request::new(1, method)).result.unwrap()
    }

    #[test]
    fn query_surface_matches_handle() {
        let e = fixed_engine();
        assert_eq!(ok(&e, Method::Ping), Reply::Pong);
        assert_eq!(ok(&e, Method::NumCores), Reply::Count(2));
        assert_eq!(ok(&e, Method::NumCudaDevices), Reply::Count(1));
        assert_eq!(ok(&e, Method::TotalStaticPower), Reply::Power(15.0));
        assert_eq!(
            ok(&e, Method::GetAttr { ident: "h".into(), attr: "static_power".into() }),
            Reply::Attr(Some("15".into()))
        );
        assert_eq!(
            ok(&e, Method::GetNumber { ident: "h".into(), attr: "static_power".into() }),
            Reply::Number(Some(15.0))
        );
        assert_eq!(
            ok(&e, Method::HasInstalled { prefix: "CUBLAS".into() }),
            Reply::Flag(true)
        );
        assert_eq!(
            ok(&e, Method::HasInstalled { prefix: "MKL".into() }),
            Reply::Flag(false)
        );
        match ok(&e, Method::Find { ident: "g".into() }) {
            Reply::Node(Some(n)) => assert_eq!(n.kind, "device"),
            other => panic!("{other:?}"),
        }
        assert_eq!(ok(&e, Method::Find { ident: "ghost".into() }), Reply::Node(None));
        match ok(&e, Method::ElementsOfKind { kind: "core".into() }) {
            Reply::Idents { idents, count } => {
                assert_eq!(idents, ["c0", "c1"]);
                assert_eq!(count, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_count_requests_and_errors() {
        let e = fixed_engine();
        let _ = ok(&e, Method::Ping);
        let resp = e.handle_line("garbage");
        assert!(resp.result.is_err());
        assert_eq!(resp.id, 0);
        match ok(&e, Method::Stats) {
            Reply::Stats(s) => {
                assert_eq!(s.requests, 2);
                assert_eq!(s.errors, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fixed_source_reload_is_a_clean_noop() {
        let e = fixed_engine();
        match ok(&e, Method::Reload) {
            Reply::Reloaded { epoch, changed } => {
                assert_eq!(epoch, 0);
                assert!(!changed);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(e.stats().reloads.get(), 0);
    }

    #[test]
    fn file_source_hot_reload_swaps_on_change() {
        let dir = std::env::temp_dir().join(format!("xpdl_serve_eng_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.xpdlrt");
        let build = |xml: &str| {
            RuntimeModel::from_element(XpdlDocument::parse_str(xml).unwrap().root())
        };
        let m1 = build(r#"<system id="s"><cpu id="c"><core id="k0"/></cpu></system>"#);
        format::save_file(&m1, &path).unwrap();
        let e = Engine::new(ModelSource::File(path.clone()), EngineOptions::default()).unwrap();
        assert_eq!(ok(&e, Method::NumCores), Reply::Count(1));
        // Unchanged file: no swap.
        assert_eq!(e.reload().unwrap(), (0, false));
        // Changed file: epoch advances, readers see the new core count.
        let m2 = build(r#"<system id="s"><cpu id="c"><core id="k0"/><core id="k1"/></cpu></system>"#);
        format::save_file(&m2, &path).unwrap();
        assert_eq!(e.reload().unwrap(), (1, true));
        assert_eq!(ok(&e, Method::NumCores), Reply::Count(2));
        // Corrupt file: reload fails with a coded error, old model serves on.
        std::fs::write(&path, b"junk").unwrap();
        let err = e.reload().unwrap_err();
        assert_eq!(err.code, codes::RELOAD_FAILED);
        assert!(err.message.contains("S401") || err.message.contains("decode"), "{err}");
        assert_eq!(ok(&e, Method::NumCores), Reply::Count(2));
        assert_eq!(e.stats().reload_failures.get(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn health_reports_epoch_fingerprint_inflight() {
        let e = fixed_engine();
        match ok(&e, Method::Health) {
            Reply::Health { epoch, fingerprint, inflight, draining } => {
                assert_eq!(epoch, 0);
                assert_eq!(fingerprint.len(), 16);
                assert_eq!(inflight, 0);
                assert!(!draining);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(e.stats().health_checks.get(), 1);
    }

    #[test]
    fn draining_bounces_queries_but_answers_control() {
        let e = fixed_engine();
        e.set_draining(true);
        let err =
            e.handle(&Request::new(1, Method::NumCores)).result.unwrap_err();
        assert_eq!(err.code, codes::DRAINING);
        let err = e
            .handle(&Request::new(2, Method::Find { ident: "g".into() }))
            .result
            .unwrap_err();
        assert_eq!(err.code, codes::DRAINING);
        let err = e.handle(&Request::new(3, Method::Reload)).result.unwrap_err();
        assert_eq!(err.code, codes::DRAINING);
        // Control surface stays up for monitoring and the drain itself.
        assert_eq!(ok(&e, Method::Ping), Reply::Pong);
        match ok(&e, Method::Health) {
            Reply::Health { draining, .. } => assert!(draining),
            other => panic!("{other:?}"),
        }
        assert!(matches!(ok(&e, Method::Stats), Reply::Stats(_)));
        // Leaving drain mode restores the query surface.
        e.set_draining(false);
        assert_eq!(ok(&e, Method::NumCores), Reply::Count(2));
    }

    #[test]
    fn debug_and_shutdown_gating() {
        let doc = XpdlDocument::parse_str(r#"<system id="s"><core id="k"/></system>"#).unwrap();
        let model = RuntimeModel::from_element(doc.root());
        let e = Engine::new(
            ModelSource::Fixed(Box::new(model)),
            EngineOptions { allow_debug: false, allow_shutdown: false },
        )
        .unwrap();
        let err = e.handle(&Request::new(1, Method::Sleep { ms: 1 })).result.unwrap_err();
        assert_eq!(err.code, codes::DEBUG_DISABLED);
        let err = e.handle(&Request::new(1, Method::Shutdown)).result.unwrap_err();
        assert_eq!(err.code, codes::SHUTDOWN_DISABLED);
        assert!(!e.shutdown_requested());
    }
}
