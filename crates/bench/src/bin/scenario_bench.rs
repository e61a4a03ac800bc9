//! Scenario-matrix benchmark harness over synthetic fleets — the perf
//! trajectory gate of DESIGN.md §15.
//!
//! One invocation generates a deterministic fleet (`xpdl-fleetgen`),
//! runs every scenario of the selected matrix against it, and appends a
//! run record to `BENCH_scenarios.json` — so the file accumulates a
//! *trajectory* across commits instead of overwriting a point sample.
//! Scenarios (each a named lifecycle stress, DESIGN.md §15):
//!
//! - `query_storm_parallel` read-heavy TCP query mix via `xpdl-serve`,
//!   all clients at once (older records named `query_storm` ran their
//!   clients one after another; the two series do not join)
//! - `reload_churn`       hot snapshot swaps under concurrent queries
//! - `cold_resolve_cold`  repo resolve + elaborate, disk cache cold
//! - `cold_resolve_warm`  same, disk cache warm (no store fetches)
//! - `offline_stale`      dead upstream, `Freshness::StaleOk` serving
//! - `poisoned_keep_going` keep-going elaboration over a poisoned fleet
//! - `cluster_failover`   3-node registry cluster; one node dies mid-run
//!   and the `ClusterClient` must retry with zero client-visible errors
//! - `shard_rebalance`    3-node *sharded* fleet (R=2); one node is
//!   hard-killed mid-storm — every key must stay answerable and every
//!   key's replica count must return to R after the ring heals
//! - `calibration_sweep`  the paper's closed loop: a pinned fleet with
//!   `?` energy entries is served by a 3-node cluster, calibrated on
//!   disk (`xpdl-calib`), announced through the registry — and every
//!   node must hot-swap to the calibrated model with zero `?` left
//!
//! ```text
//! cargo run --release -p bench --bin scenario_bench -- [flags]
//!   --seed N          fleet seed (default 42)
//!   --matrix NAME     smoke | full (default smoke)
//!   --shape SPEC      override the matrix fleet shape
//!   --out FILE        trajectory file (default BENCH_scenarios.json)
//!   --only NAME       run a single scenario from the matrix
//!   --expect-clean    exit 1 if any scenario reports errors > 0
//! ```

use bench::flag;
use bench::net::{fetch_stats, json_client, run_clients, CONNECT_TIMEOUT, IO_TIMEOUT};
use bench::record::{append_run, ExtraValue, RunRecord, ScenarioRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_fleetgen::{generate, Fleet, FleetShape};
use xpdl_obs::metrics::percentile;
use xpdl_registry::client::call_line;
use xpdl_registry::{NodeAgent, NodeConfig, RegistryClient, RegistryOptions, RegistryServer, RingFn};
use xpdl_repo::{
    CachingStore, DirStore, DiskCache, FaultConfig, FaultInjectingStore, Freshness, Repository,
    ResolveOptions,
};
use xpdl_serve::{
    compile_key, parse_response, ClusterClient, ClusterOptions, Engine, EngineOptions, Method,
    ModelSource, Rebalancer, Reply, Request, Route, Server, ServerOptions, ShardManager,
};

/// Per-matrix sizing. `smoke` is the CI gate (seconds, not minutes);
/// `full` is the local soak.
struct Matrix {
    name: &'static str,
    shape: &'static str,
    storm_threads: u64,
    storm_requests: u64,
    churn_swaps: u64,
    churn_query_threads: u64,
    reps: u64,
}

const SMOKE: Matrix = Matrix {
    name: "smoke",
    shape: "nodes=24,depth=6,chain=8,width=6,unknown=0.3",
    storm_threads: 4,
    storm_requests: 2400,
    churn_swaps: 60,
    churn_query_threads: 2,
    reps: 5,
};

const FULL: Matrix = Matrix {
    name: "full",
    shape: "nodes=96,depth=8,chain=12,width=10,unknown=0.3",
    storm_threads: 8,
    storm_requests: 20_000,
    churn_swaps: 200,
    churn_query_threads: 4,
    reps: 20,
};

/// The ident-free read mix: valid against *any* fleet shape, weighted
/// toward the cheap calls a runtime system issues in its inner loop.
const STORM_MIX: &[&str] = &[
    r#"{"v":1,"id":ID,"method":"num_cores"}"#,
    r#"{"v":1,"id":ID,"method":"ping"}"#,
    r#"{"v":1,"id":ID,"method":"model_info"}"#,
    r#"{"v":1,"id":ID,"method":"num_cores"}"#,
    r#"{"v":1,"id":ID,"method":"total_static_power"}"#,
    r#"{"v":1,"id":ID,"method":"elements_of_kind","params":{"kind":"system"}}"#,
    r#"{"v":1,"id":ID,"method":"num_cuda_devices"}"#,
];

/// `query_storm_parallel`: client threads hammer a real TCP server over
/// the fleet's compiled model at once; every response is validated for
/// id echo and protocol correctness. Records named `query_storm` come
/// from builds whose clients ran one after another.
fn query_storm_parallel(fleet: &Fleet, m: &Matrix) -> ScenarioRecord {
    let model = xpdl_fleetgen::elaborate_fleet(fleet).expect("elaborate fleet");
    let rt = xpdl_runtime::RuntimeModel::from_element(&model.root);
    let engine = Arc::new(
        Engine::new(
            ModelSource::Fixed(Box::new(rt)),
            EngineOptions { allow_debug: false, allow_shutdown: false },
        )
        .expect("engine"),
    );
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { max_inflight: 4096 },
    )
    .expect("server");
    let addr = server.local_addr().to_string();

    let per_thread = m.storm_requests / m.storm_threads.max(1);
    let wall = Instant::now();
    // Every client runs at once; timeouts on every socket op
    // (bench::net) fail this scenario loudly instead of wedging CI.
    let client_addr = addr.clone();
    let mut tally =
        run_clients(m.storm_threads, move |t| json_client(&client_addr, STORM_MIX, per_thread, t));
    let wall_s = wall.elapsed().as_secs_f64();

    // The server's own tally, over the wire like any client would get it.
    let server_stats = fetch_stats(&addr);
    server.shutdown();
    server.join();

    let (ok, errors) = (tally.ok, tally.errors);
    let shed = server_stats.as_ref().map(|s| s.shed).unwrap_or(0);
    let mut rec = ScenarioRecord::new("query_storm_parallel");
    rec.set_latencies(&mut tally.latencies_us);
    rec.qps = (ok + errors) as f64 / wall_s.max(1e-9);
    rec.errors = errors + shed;
    rec.put_extra("ok", ExtraValue::U64(ok));
    rec.put_extra("shed", ExtraValue::U64(shed));
    if let Some(s) = &server_stats {
        rec.put_extra("server", ExtraValue::Raw(s.to_json()));
    }
    rec
}

/// `reload_churn`: hot-swap the served snapshot `churn_swaps` times
/// while query threads run against the engine; epochs must be strictly
/// monotone and no query may fail mid-swap.
fn reload_churn(fleet: &Fleet, m: &Matrix, tmp: &std::path::Path) -> ScenarioRecord {
    let model = xpdl_fleetgen::elaborate_fleet(fleet).expect("elaborate fleet");
    let base_rt = xpdl_runtime::RuntimeModel::from_element(&model.root);
    let mut variant = model.clone();
    variant.root.set_attr("bench_generation", "1");
    let variant_rt = xpdl_runtime::RuntimeModel::from_element(&variant.root);

    let model_path = tmp.join("churn.xpdlrt");
    let swap_path = tmp.join("churn.xpdlrt.next");
    xpdl_runtime::format::save_file(&base_rt, &model_path).expect("write model");
    let engine = Arc::new(
        Engine::new(
            ModelSource::File(model_path.clone()),
            EngineOptions { allow_debug: false, allow_shutdown: false },
        )
        .expect("engine"),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..m.churn_query_threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut lat, mut errors) = (Vec::new(), 0u64);
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let id = t * 10_000_000 + n;
                    n += 1;
                    let req =
                        STORM_MIX[(n as usize) % STORM_MIX.len()].replace("ID", &id.to_string());
                    let start = Instant::now();
                    let resp = engine.handle_line(&req);
                    lat.push(start.elapsed().as_micros() as u64);
                    if resp.id != id || resp.result.is_err() {
                        errors += 1;
                    }
                }
                (lat, errors)
            })
        })
        .collect();

    // Churn: alternate two fingerprint-distinct models via write-then-
    // rename, reload, and demand a real swap with a strictly greater
    // epoch every time.
    let wall = Instant::now();
    let mut last_epoch = engine.registry().current_epoch();
    let mut churn_errors = 0u64;
    for i in 0..m.churn_swaps {
        let next = if i % 2 == 0 { &variant_rt } else { &base_rt };
        xpdl_runtime::format::save_file(next, &swap_path).expect("write swap");
        std::fs::rename(&swap_path, &model_path).expect("rename swap");
        match engine.reload() {
            Ok((epoch, swapped)) => {
                if !swapped || epoch <= last_epoch {
                    churn_errors += 1;
                } else {
                    last_epoch = epoch;
                }
            }
            Err(_) => churn_errors += 1,
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall_s = wall.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let (mut lat, mut query_errors) = (Vec::new(), 0u64);
    for w in workers {
        let (samples, errors) = w.join().expect("query thread");
        lat.extend(samples);
        query_errors += errors;
    }

    let total_queries = lat.len() as u64;
    let mut rec = ScenarioRecord::new("reload_churn");
    rec.set_latencies(&mut lat);
    rec.qps = total_queries as f64 / wall_s.max(1e-9);
    rec.errors = churn_errors + query_errors;
    rec.put_extra("swaps", ExtraValue::U64(m.churn_swaps));
    rec.put_extra("final_epoch", ExtraValue::U64(last_epoch));
    rec.put_extra("queries", ExtraValue::U64(total_queries));
    rec
}

/// Build a repository whose only store is the fleet behind a disk cache.
fn cached_repo(fleet: &Fleet, cache: &Arc<DiskCache>, freshness: Freshness) -> Repository {
    Repository::new()
        .with_store(CachingStore::new(fleet.store(), Arc::clone(cache), freshness).with_source_id("fleet"))
}

/// Time `reps` full resolve + elaborate passes, one fresh `Repository`
/// each (so the in-memory parse cache never short-circuits the path
/// under test), recording per-rep wall time.
fn timed_resolves(
    name: &str,
    reps: u64,
    mut make_repo: impl FnMut(u64) -> Repository,
    key: &str,
) -> ScenarioRecord {
    let mut lat = Vec::with_capacity(reps as usize);
    let mut errors = 0u64;
    let wall = Instant::now();
    for rep in 0..reps {
        let repo = make_repo(rep);
        let start = Instant::now();
        let ok = repo
            .resolve_recursive(key)
            .ok()
            .and_then(|set| xpdl_elab::elaborate(&set).ok())
            .is_some_and(|m| m.is_clean());
        lat.push(start.elapsed().as_micros() as u64);
        if !ok {
            errors += 1;
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let mut rec = ScenarioRecord::new(name);
    rec.set_latencies(&mut lat);
    rec.qps = reps as f64 / wall_s.max(1e-9);
    rec.errors = errors;
    rec.put_extra("reps", ExtraValue::U64(reps));
    rec
}

/// `cold_resolve_cold`: every rep starts from an empty disk cache.
fn cold_resolve_cold(fleet: &Fleet, m: &Matrix, tmp: &std::path::Path) -> ScenarioRecord {
    timed_resolves(
        "cold_resolve_cold",
        m.reps,
        |rep| {
            let cache = Arc::new(
                DiskCache::open(tmp.join(format!("cold{rep}"))).expect("open cold cache"),
            );
            cached_repo(fleet, &cache, Freshness::Strict)
        },
        fleet.system_key(),
    )
}

/// `cold_resolve_warm`: one shared warm disk cache; measured reps must
/// be pure disk-hit resolves (the warming pass runs outside the timer).
fn cold_resolve_warm(fleet: &Fleet, m: &Matrix, tmp: &std::path::Path) -> ScenarioRecord {
    let cache = Arc::new(DiskCache::open(tmp.join("warm")).expect("open warm cache"));
    cached_repo(fleet, &cache, Freshness::Strict)
        .resolve_recursive(fleet.system_key())
        .expect("warming resolve");
    let mut rec = timed_resolves(
        "cold_resolve_warm",
        m.reps,
        |_| cached_repo(fleet, &cache, Freshness::Strict),
        fleet.system_key(),
    );
    rec.put_extra("disk_hits", ExtraValue::U64(cache.disk_hits()));
    rec
}

/// `offline_stale`: warm the cache, kill the upstream (100% injected
/// failures), and keep serving from the last good cached copies under
/// `Freshness::StaleOk` — the degraded mode DESIGN.md §12 promises.
fn offline_stale(fleet: &Fleet, m: &Matrix, tmp: &std::path::Path, seed: u64) -> ScenarioRecord {
    let cache = Arc::new(DiskCache::open(tmp.join("offline")).expect("open offline cache"));
    cached_repo(fleet, &cache, Freshness::Strict)
        .resolve_recursive(fleet.system_key())
        .expect("warming resolve");
    let mut rec = timed_resolves(
        "offline_stale",
        m.reps,
        |_| {
            let dead = FaultInjectingStore::new(fleet.store(), FaultConfig::failures(1.0, seed));
            Repository::new().with_store(
                CachingStore::new(
                    dead,
                    Arc::clone(&cache),
                    Freshness::StaleOk { max_age: Duration::from_secs(3600) },
                )
                .with_source_id("fleet"),
            )
        },
        fleet.system_key(),
    );
    rec.put_extra("stale_served", ExtraValue::U64(cache.stale_served_session()));
    rec
}

/// `poisoned_keep_going`: elaboration over a fleet with two families
/// pointing at missing types must quarantine exactly the planned nodes
/// and keep every healthy family expanded.
fn poisoned_keep_going(fleet: &Fleet, m: &Matrix) -> ScenarioRecord {
    const VICTIMS: usize = 2;
    let poisoned = fleet.poisoned(VICTIMS);
    let expected = poisoned.expected_poisoned(VICTIMS);
    let reps = m.reps.min(5);
    let mut lat = Vec::with_capacity(reps as usize);
    let mut errors = 0u64;
    let wall = Instant::now();
    for _ in 0..reps {
        let repo = poisoned.repository();
        let start = Instant::now();
        let opts = ResolveOptions { allow_missing: true, ..Default::default() };
        let eopts = xpdl_elab::ElabOptions { keep_going: true, ..Default::default() };
        let quarantined = repo
            .resolve_with(poisoned.system_key(), &opts)
            .ok()
            .and_then(|set| xpdl_elab::elaborate_with(&set, &eopts).ok())
            .map(|model| model.poisoned.len());
        lat.push(start.elapsed().as_micros() as u64);
        if quarantined != Some(expected) {
            errors += 1;
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let mut rec = ScenarioRecord::new("poisoned_keep_going");
    rec.set_latencies(&mut lat);
    rec.qps = reps as f64 / wall_s.max(1e-9);
    rec.errors = errors;
    rec.put_extra("reps", ExtraValue::U64(reps));
    rec.put_extra("poisoned_nodes", ExtraValue::U64(expected as u64));
    rec
}

/// `cluster_failover`: a 3-node registry cluster under `ClusterClient`
/// traffic; one node is hard-killed mid-run (agent aborted, listener
/// closed — SIGKILL semantics). Every request must still be answered by
/// a surviving node: failed attempts are retried by the client, so any
/// client-visible error counts against the scenario. Records overall
/// latency plus the failover-path p99 (requests that needed >1 attempt).
fn cluster_failover(fleet: &Fleet, m: &Matrix) -> ScenarioRecord {
    let model = xpdl_fleetgen::elaborate_fleet(fleet).expect("elaborate fleet");
    let rt = xpdl_runtime::RuntimeModel::from_element(&model.root);

    let registry =
        RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).expect("registry");
    let reg_addr = registry.local_addr().to_string();

    let mut nodes = Vec::new();
    for i in 0..3 {
        let engine = Arc::new(
            Engine::new(
                ModelSource::Fixed(Box::new(rt.clone())),
                EngineOptions { allow_debug: false, allow_shutdown: false },
            )
            .expect("engine"),
        );
        let server = Server::start(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerOptions { max_inflight: 1024 },
        )
        .expect("server");
        let mut cfg =
            NodeConfig::new(&reg_addr, format!("bench-node-{i}"), server.local_addr().to_string());
        cfg.ttl = Duration::from_millis(250);
        let agent = NodeAgent::start(
            cfg,
            Arc::new(move || engine.node_report()),
            Arc::new(|_version: &str| {}),
        );
        nodes.push((server, agent));
    }

    let client = ClusterClient::new(
        reg_addr.clone(),
        ClusterOptions { table_max_age: Duration::from_millis(100), ..Default::default() },
    );
    // All three nodes must be routable before traffic starts.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.nodes().len() < 3 {
        assert!(Instant::now() < deadline, "nodes never registered");
        std::thread::sleep(Duration::from_millis(10));
    }

    let total = m.storm_requests.min(2_000);
    let kill_at = total / 2;
    let (mut lat, mut failover_lat) = (Vec::with_capacity(total as usize), Vec::new());
    let (mut errors, mut degraded) = (0u64, 0u64);
    let mut victim = None;
    let wall = Instant::now();
    for n in 0..total {
        if n == kill_at {
            // SIGKILL semantics: the lease stays; the registry must
            // discover the death by TTL expiry while the client fails
            // over on connection errors.
            let (server, agent) = nodes.remove(0);
            agent.abort();
            server.shutdown();
            server.join();
            victim = Some(n);
        }
        let start = Instant::now();
        match client.call(Method::NumCores) {
            Ok(routed) => {
                let us = start.elapsed().as_micros() as u64;
                lat.push(us);
                if routed.attempts > 1 {
                    failover_lat.push(us);
                }
                if routed.route == Route::Fallback {
                    degraded += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();

    for (server, agent) in nodes {
        agent.shutdown();
        server.shutdown();
        server.join();
    }
    registry.shutdown();
    registry.join();

    let mut rec = ScenarioRecord::new("cluster_failover");
    rec.set_latencies(&mut lat);
    rec.qps = total as f64 / wall_s.max(1e-9);
    rec.errors = errors + degraded; // in-process fallback never configured here
    rec.put_extra("requests", ExtraValue::U64(total));
    rec.put_extra("killed_at", ExtraValue::U64(victim.unwrap_or(0)));
    rec.put_extra("failovers", ExtraValue::U64(failover_lat.len() as u64));
    failover_lat.sort_unstable();
    rec.put_extra("failover_p50_us", ExtraValue::U64(percentile(&failover_lat, 0.50)));
    rec.put_extra("failover_p99_us", ExtraValue::U64(percentile(&failover_lat, 0.99)));
    rec
}

/// One sharded serving node for `shard_rebalance`: engine + shard
/// manager over the paper library, rebalancer, and registry agent whose
/// ring callback applies pushed partitions immediately.
struct ShardNode {
    server: Server,
    agent: NodeAgent,
    rebalancer: Arc<Rebalancer>,
    addr: String,
}

fn start_shard_node(i: usize, reg_addr: &str, universe: &[String], ttl: Duration) -> ShardNode {
    let node_id = format!("shard-node-{i}");
    let repo = xpdl_models::paper_repository();
    let compile: xpdl_serve::ShardCompileFn =
        Box::new(move |key: &str| Ok((compile_key(&repo, key)?, format!("repo:{key}"))));
    // The default (unsharded) snapshot never answers shard traffic; any
    // compilable model will do as the placeholder.
    let (placeholder, _, _) = ModelSource::Repo {
        key: universe[0].clone(),
        repo: Box::new(xpdl_models::paper_repository()),
    }
    .compile()
    .expect("placeholder model");
    let engine = Arc::new(
        Engine::new(
            ModelSource::Fixed(Box::new(placeholder)),
            EngineOptions { allow_debug: false, allow_shutdown: false },
        )
        .expect("engine"),
    );
    let mgr = Arc::new(ShardManager::new(node_id.clone(), universe.to_vec(), compile));
    engine.set_shard_manager(Arc::clone(&mgr));
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { max_inflight: 1024 },
    )
    .expect("server");
    let addr = server.local_addr().to_string();
    let mut cfg = NodeConfig::new(reg_addr, node_id, addr.clone());
    cfg.ttl = ttl;
    let rebalancer =
        Arc::new(Rebalancer::spawn(Arc::clone(&mgr), RegistryClient::new(reg_addr.to_string())));
    let ring_mgr = Arc::clone(&mgr);
    let ring_reb = Arc::clone(&rebalancer);
    let on_ring: RingFn = Arc::new(move |info| {
        if ring_mgr.apply_ring(info) {
            ring_reb.kick();
        }
    });
    let agent = NodeAgent::start_with_ring(
        cfg,
        Arc::new(move || engine.node_report()),
        Arc::new(|_version: &str| {}),
        Some(on_ring),
    );
    ShardNode { server, agent, rebalancer, addr }
}

/// The keys a node currently serves, per its over-the-wire `shards`
/// reply (what peers and the chaos suite count replicas with).
fn served_keys(addr: &str) -> Vec<String> {
    let req = Request::new(1, Method::Shards).to_json();
    let Ok(line) = call_line(addr, &req, CONNECT_TIMEOUT, IO_TIMEOUT) else {
        return Vec::new();
    };
    match parse_response(line.trim()).map(|r| r.result) {
        Ok(Ok(Reply::Shards { owned, .. })) => owned,
        _ => Vec::new(),
    }
}

/// `shard_rebalance`: the self-healing invariant of DESIGN.md §17. A
/// 3-node sharded fleet (replication 2) takes per-key `ClusterClient`
/// traffic over the whole shard universe; one node is hard-killed
/// mid-storm (agent aborted, listener closed — SIGKILL semantics). Every
/// request must still be answered (S511/connect failures are retried at
/// the other replicas, so any client-visible error counts against the
/// scenario), and after the ring heals every key must again be served by
/// exactly R live replicas with no handoff residue.
fn shard_rebalance(m: &Matrix) -> ScenarioRecord {
    const R: usize = 2;
    let ttl = Duration::from_millis(250);
    let universe: Vec<String> =
        xpdl_models::LIBRARY_KEYS.iter().map(|k| k.to_string()).collect();

    let registry = RegistryServer::start(
        "127.0.0.1:0",
        RegistryOptions { replication: R, ..Default::default() },
    )
    .expect("registry");
    let reg_addr = registry.local_addr().to_string();

    let mut nodes: Vec<ShardNode> =
        (0..3).map(|i| start_shard_node(i, &reg_addr, &universe, ttl)).collect();

    let client = ClusterClient::new(
        reg_addr.clone(),
        ClusterOptions { table_max_age: Duration::from_millis(100), ..Default::default() },
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.nodes().len() < 3 {
        assert!(Instant::now() < deadline, "shard nodes never registered");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Warm every key once outside the timer (first touch compiles).
    for key in &universe {
        client.call_for_key(key, Method::NumCores).expect("warming call");
    }

    let total = m.storm_requests.min(2_000);
    let kill_at = total / 2;
    let mut lat = Vec::with_capacity(total as usize);
    let (mut errors, mut failovers, mut degraded) = (0u64, 0u64, 0u64);
    let mut kill_time = None;
    let wall = Instant::now();
    for n in 0..total {
        if n == kill_at {
            // SIGKILL semantics: no deregistration, no drain — the
            // registry discovers the death by TTL expiry and republishes
            // the ring; the survivors pull the victim's keys.
            let victim = nodes.remove(0);
            victim.agent.abort();
            drop(victim.rebalancer);
            victim.server.shutdown();
            victim.server.join();
            kill_time = Some(Instant::now());
        }
        let key = &universe[(n as usize) % universe.len()];
        let start = Instant::now();
        match client.call_for_key(key, Method::NumCores) {
            Ok(routed) => {
                lat.push(start.elapsed().as_micros() as u64);
                if routed.attempts > 1 {
                    failovers += 1;
                }
                if routed.route == Route::Fallback {
                    degraded += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let kill_time = kill_time.expect("kill point inside the storm");

    // Self-healing gate: every key back to exactly R live replicas, no
    // handoff residue. The 2xTTL budget runs from the kill; the poll
    // window extends it only by whatever the storm tail already used.
    let heal_deadline =
        std::cmp::max(kill_time + 2 * ttl, Instant::now() + 2 * ttl);
    let mut converge_ms = None;
    while Instant::now() < heal_deadline {
        let served: Vec<Vec<String>> = nodes.iter().map(|n| served_keys(&n.addr)).collect();
        let healed = universe.iter().all(|key| {
            served.iter().filter(|owned| owned.iter().any(|k| k == key)).count() == R
        });
        if healed {
            converge_ms = Some(kill_time.elapsed().as_millis() as u64);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let unhealed = if converge_ms.is_some() { 0 } else { universe.len() as u64 };

    for node in nodes {
        node.agent.shutdown();
        drop(node.rebalancer);
        node.server.shutdown();
        node.server.join();
    }
    registry.shutdown();
    registry.join();

    let mut rec = ScenarioRecord::new("shard_rebalance");
    rec.set_latencies(&mut lat);
    rec.qps = total as f64 / wall_s.max(1e-9);
    // Degraded (in-process fallback) answers and a fleet that never
    // heals both count as scenario failures.
    rec.errors = errors + degraded + unhealed;
    rec.put_extra("requests", ExtraValue::U64(total));
    rec.put_extra("killed_at", ExtraValue::U64(kill_at));
    rec.put_extra("failovers", ExtraValue::U64(failovers));
    rec.put_extra("replication", ExtraValue::U64(R as u64));
    rec.put_extra("shard_keys", ExtraValue::U64(universe.len() as u64));
    rec.put_extra("converge_ms", ExtraValue::U64(converge_ms.unwrap_or(0)));
    rec.put_extra("healed", ExtraValue::U64(u64::from(converge_ms.is_some())));
    rec
}

/// `calibration_sweep`: the paper's §IV→§V loop end to end. A pinned
/// fleet (every family ISA carries known-count `?` entries) is published
/// to a library directory and served by a 3-node cluster whose
/// `on_invalidate` hook reloads from that directory. The sweep must:
/// calibrate every placeholder on disk, announce the new version through
/// the registry, and drive all three nodes to a strictly greater snapshot
/// epoch — with zero `energy="?"` left and a byte-deterministic
/// `optimize` report over the calibrated table.
fn calibration_sweep(tmp: &std::path::Path, seed: u64) -> ScenarioRecord {
    let shape = FleetShape::parse("nodes=6,depth=3,chain=3,width=2,pinned=3")
        .expect("pinned fleet shape");
    let fleet = generate(seed, &shape);
    let expected = fleet.expected_placeholders().unwrap_or(0) as u64;
    let dir = tmp.join("calib_fleet");
    fleet.write_dir(&dir).expect("write fleet library");
    let mut errors = 0u64;

    let registry =
        RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).expect("registry");
    let reg_addr = registry.local_addr().to_string();

    let mut nodes = Vec::new();
    for i in 0..3 {
        // No parse cache: a reload must see the patched descriptors on
        // disk, not the copies it resolved at startup.
        let repo = Repository::new().with_store(DirStore::new(&dir)).without_cache();
        let engine = Arc::new(
            Engine::new(
                ModelSource::Repo { key: fleet.system_key().to_string(), repo: Box::new(repo) },
                EngineOptions { allow_debug: false, allow_shutdown: false },
            )
            .expect("engine over uncalibrated fleet"),
        );
        let server = Server::start(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerOptions { max_inflight: 1024 },
        )
        .expect("server");
        let mut cfg =
            NodeConfig::new(&reg_addr, format!("calib-node-{i}"), server.local_addr().to_string());
        cfg.ttl = Duration::from_millis(250);
        let health_engine = Arc::clone(&engine);
        let reload_engine = Arc::clone(&engine);
        let agent = NodeAgent::start(
            cfg,
            Arc::new(move || health_engine.node_report()),
            // The push-invalidation path under test: an announced version
            // makes the node recompile from the (now patched) library.
            Arc::new(move |_version: &str| {
                let _ = reload_engine.reload();
            }),
        );
        nodes.push((engine, server, agent));
    }

    let client = ClusterClient::new(
        reg_addr.clone(),
        ClusterOptions { table_max_age: Duration::from_millis(100), ..Default::default() },
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.nodes().len() < 3 {
        assert!(Instant::now() < deadline, "calib nodes never registered");
        std::thread::sleep(Duration::from_millis(10));
    }
    let pre_epochs: Vec<u64> = nodes.iter().map(|(e, _, _)| e.registry().load().epoch).collect();

    // The sweep itself: plan, measure, write back atomically.
    let opts = xpdl_calib::CalibOptions { seed, ..Default::default() };
    let mut lat = Vec::new();
    let wall = Instant::now();
    let swept = xpdl_calib::calibrate_dir(
        &dir,
        &xpdl_calib::default_fsm(),
        xpdl_calib::DEFAULT_INITIAL_STATE,
        &opts,
    );
    let wall_s = wall.elapsed().as_secs_f64();
    let (filled, version, subscribers) = match &swept {
        Ok((outcome, summary)) => {
            lat.extend(outcome.units.iter().map(|u| u.elapsed.as_micros() as u64));
            if !outcome.complete() || outcome.filled as u64 != expected {
                errors += 1;
            }
            if summary.remaining_placeholders != 0 {
                errors += 1;
            }
            let subs = xpdl_calib::announce_version(&reg_addr, &summary.version).unwrap_or(0);
            (outcome.filled as u64, summary.version.clone(), subs)
        }
        Err(e) => {
            eprintln!("calibration_sweep: sweep failed: {e}");
            errors += 1;
            (0, String::new(), 0)
        }
    };
    // Nothing may survive as a placeholder in the published library.
    let leftover = xpdl_calib::placeholders_in_dir(&dir).unwrap_or(usize::MAX) as u64;
    errors += leftover.min(1);

    // Every node must hot-swap to a strictly greater epoch — the
    // invalidation push, not this loop, triggers the reloads.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut swapped = 0u64;
    while Instant::now() < deadline {
        swapped = nodes
            .iter()
            .zip(&pre_epochs)
            .filter(|((e, _, _), pre)| e.registry().load().epoch > **pre)
            .count() as u64;
        if swapped == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    errors += 3 - swapped;

    // The optimization stage the loop feeds (paper §V): identical inputs
    // must price identically — the CI golden check depends on it.
    let mut optimize_deterministic = 0u64;
    if let Ok((outcome, _)) = &swept {
        if let Some(unit) = outcome.units.first() {
            let fsm = xpdl_calib::default_fsm();
            let reports: Vec<String> = (0..2)
                .filter_map(|_| {
                    xpdl_calib::optimize_model(
                        &unit.table,
                        &fsm,
                        xpdl_calib::DEFAULT_INITIAL_STATE,
                    )
                    .ok()
                    .map(|r| r.to_json())
                })
                .collect();
            optimize_deterministic = u64::from(reports.len() == 2 && reports[0] == reports[1]);
        }
    }
    errors += 1 - optimize_deterministic;

    for (_, server, agent) in nodes {
        agent.shutdown();
        server.shutdown();
        server.join();
    }
    registry.shutdown();
    registry.join();

    let mut rec = ScenarioRecord::new("calibration_sweep");
    rec.set_latencies(&mut lat);
    rec.qps = filled as f64 / wall_s.max(1e-9);
    rec.errors = errors;
    rec.put_extra("placeholders_before", ExtraValue::U64(expected));
    rec.put_extra("filled", ExtraValue::U64(filled));
    rec.put_extra("placeholders_after", ExtraValue::U64(leftover));
    rec.put_extra("version", ExtraValue::Str(version));
    rec.put_extra("announced_subscribers", ExtraValue::U64(subscribers));
    rec.put_extra("swapped_nodes", ExtraValue::U64(swapped));
    rec.put_extra("optimize_deterministic", ExtraValue::U64(optimize_deterministic));
    rec
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let matrix_name = flag(&args, "--matrix").unwrap_or_else(|| "smoke".to_string());
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_scenarios.json".to_string());
    let expect_clean = args.iter().any(|a| a == "--expect-clean");
    let only = flag(&args, "--only");
    let matrix = match matrix_name.as_str() {
        "smoke" => &SMOKE,
        "full" => &FULL,
        other => {
            eprintln!("unknown matrix '{other}' (expected smoke|full)");
            std::process::exit(2);
        }
    };
    let shape_spec = flag(&args, "--shape").unwrap_or_else(|| matrix.shape.to_string());
    let shape = match FleetShape::parse(&shape_spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad --shape: {e}");
            std::process::exit(2);
        }
    };

    let fleet = generate(seed, &shape);
    let checksum = format!("{:016x}", fleet.checksum());
    println!(
        "scenario_bench: matrix={} seed={seed} shape={shape} fleet={} docs, checksum {checksum}",
        matrix.name,
        fleet.docs().len()
    );
    let diags = xpdl_fleetgen::validate_fleet(&fleet);
    assert!(diags.is_empty(), "generated fleet must validate clean: {diags:#?}");

    let tmp = std::env::temp_dir().join(format!("scenario_bench_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("tmp dir");

    // --only NAME restricts the run to one scenario (CI smoke jobs);
    // the trajectory record still appends, carrying just that scenario.
    let wanted = |name: &str| only.as_deref().is_none_or(|o| o == name);
    let mut scenarios = Vec::new();
    if wanted("query_storm_parallel") {
        scenarios.push(query_storm_parallel(&fleet, matrix));
    }
    if wanted("reload_churn") {
        scenarios.push(reload_churn(&fleet, matrix, &tmp));
    }
    if wanted("cold_resolve_cold") {
        scenarios.push(cold_resolve_cold(&fleet, matrix, &tmp));
    }
    if wanted("cold_resolve_warm") {
        scenarios.push(cold_resolve_warm(&fleet, matrix, &tmp));
    }
    if wanted("offline_stale") {
        scenarios.push(offline_stale(&fleet, matrix, &tmp, seed));
    }
    if wanted("poisoned_keep_going") {
        scenarios.push(poisoned_keep_going(&fleet, matrix));
    }
    if wanted("cluster_failover") {
        scenarios.push(cluster_failover(&fleet, matrix));
    }
    if wanted("shard_rebalance") {
        scenarios.push(shard_rebalance(matrix));
    }
    if wanted("calibration_sweep") {
        scenarios.push(calibration_sweep(&tmp, seed));
    }
    if scenarios.is_empty() {
        eprintln!("unknown scenario '{}' for --only", only.unwrap_or_default());
        std::process::exit(2);
    }
    let _ = std::fs::remove_dir_all(&tmp);

    for rec in &scenarios {
        println!(
            "  {:<20} p50={}us p90={}us p99={}us qps={:.0} errors={}",
            rec.name, rec.p50_us, rec.p90_us, rec.p99_us, rec.qps, rec.errors
        );
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let dirty: Vec<String> =
        scenarios.iter().filter(|r| r.errors > 0).map(|r| r.name.clone()).collect();
    let run = RunRecord {
        matrix: matrix.name.to_string(),
        seed,
        shape: shape.to_string(),
        fleet_checksum: checksum,
        unix_time,
        scenarios,
    };
    append_run(&out_path, &run).expect("append run record");
    println!("appended run to {out_path}");

    if expect_clean && !dirty.is_empty() {
        eprintln!("FAIL: expected a clean run, scenarios with errors: {}", dirty.join(", "));
        std::process::exit(1);
    }
}
