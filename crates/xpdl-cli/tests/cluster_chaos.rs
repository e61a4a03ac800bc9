//! Multi-process chaos test for the registry cluster (DESIGN.md §16).
//!
//! Spawns a real `xpdlc registry` daemon and three `xpdlc serve` nodes
//! as child processes, drives them with a `ClusterClient` under
//! continuous traffic, and then breaks things:
//!
//! * SIGKILL one node — its lease must expire within 2×TTL and the
//!   client must fail over with zero client-visible errors;
//! * SIGKILL the registry and restart it on the same port — survivors
//!   must re-register on their own (the registry is deliberately
//!   forgetful) while the client keeps routing on its cached table;
//! * rewrite the model file and `announce` — every survivor must hot
//!   swap to a strictly greater epoch, pushed, not polled;
//! * SIGTERM one node — it must deregister *before* closing its
//!   listener (the drain ordering fix) and exit cleanly.
//! * SIGKILL one node of a *sharded* fleet (N=3, R=2) mid-storm — every
//!   key must stay answerable during the handoff and, within 2×TTL,
//!   every key must again be served by exactly R live replicas
//!   (DESIGN.md §17 rebalance invariant).
//!
//! Throughout, queries may be *retried* (failovers are counted) but
//! never *dropped*: any `ClusterClient::call` error fails the test.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_registry::RegistryClient;
use xpdl_serve::{parse_response, ClusterClient, ClusterOptions, Method, Reply};

const NODE_TTL_MS: u64 = 600;

fn xpdlc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xpdlc"));
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Wait for a child to publish its bound address via `--addr-file`.
fn wait_addr(path: &Path, child: &mut Child, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.trim().is_empty() {
                return s.trim().to_string();
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("{what} exited early with {status}");
        }
        assert!(Instant::now() < deadline, "{what} never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(15));
    }
}

/// One `health` RPC straight at a node, with hard timeouts.
fn node_health(addr: &str) -> Option<(u64, String, bool)> {
    let sockaddr = addr.parse().ok()?;
    let stream = TcpStream::connect_timeout(&sockaddr, Duration::from_millis(500)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok()?;
    let mut w = stream.try_clone().ok()?;
    w.write_all(b"{\"v\":1,\"id\":1,\"method\":\"health\"}\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    match parse_response(line.trim()).ok()?.result {
        Ok(Reply::Health { epoch, fingerprint, draining, .. }) => {
            Some((epoch, fingerprint, draining))
        }
        _ => None,
    }
}

/// One `shards` RPC straight at a node: the owned-and-loaded keys it
/// currently serves (what replica counts are measured with).
fn node_owned(addr: &str) -> Vec<String> {
    let Ok(sockaddr) = addr.parse() else { return Vec::new() };
    let Ok(stream) = TcpStream::connect_timeout(&sockaddr, Duration::from_millis(500)) else {
        return Vec::new();
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Ok(mut w) = stream.try_clone() else { return Vec::new() };
    if w.write_all(b"{\"v\":1,\"id\":1,\"method\":\"shards\"}\n").is_err() {
        return Vec::new();
    }
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line).is_err() {
        return Vec::new();
    }
    match parse_response(line.trim()).map(|r| r.result) {
        Ok(Ok(Reply::Shards { owned, .. })) => owned,
        _ => Vec::new(),
    }
}

struct Cluster {
    tmp: PathBuf,
    registry: Option<Child>,
    registry_addr: String,
    nodes: Vec<(String, Child, String)>, // (node id, process, advertised addr)
    model_path: PathBuf,
    /// Spawn nodes with `--shards` (and the registry with a replicated
    /// ring) — the sharded-fleet chaos variant.
    sharded: bool,
}

impl Cluster {
    /// Compile a model file, start a registry and `n` serve nodes.
    fn launch(tag: &str, n: usize) -> Cluster {
        Cluster::launch_with(tag, n, false)
    }

    /// A sharded fleet: registry with replication 2, nodes in `--shards`
    /// mode over the built-in library universe.
    fn launch_sharded(tag: &str, n: usize) -> Cluster {
        Cluster::launch_with(tag, n, true)
    }

    fn launch_with(tag: &str, n: usize, sharded: bool) -> Cluster {
        let tmp = std::env::temp_dir().join(format!("xpdlc_chaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("tmp dir");

        let base = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose");
        let rt = xpdl_runtime::RuntimeModel::from_element(&base.root);
        let model_path = tmp.join("model.xpdlrt");
        xpdl_runtime::format::save_file(&rt, &model_path).expect("write model");

        let reg_file = tmp.join("registry.addr");
        let mut reg_args = vec![
            "registry".to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--addr-file".to_string(),
            reg_file.to_str().unwrap().to_string(),
        ];
        if sharded {
            reg_args.extend(["--replication".to_string(), "2".to_string()]);
        }
        let mut registry = xpdlc().args(&reg_args).spawn().expect("spawn registry");
        let registry_addr = wait_addr(&reg_file, &mut registry, "registry");

        let mut cluster = Cluster {
            tmp,
            registry: Some(registry),
            registry_addr,
            nodes: Vec::new(),
            model_path,
            sharded,
        };
        for i in 0..n {
            cluster.spawn_node(&format!("chaos-{tag}-{i}"));
        }
        cluster
    }

    fn spawn_node(&mut self, node_id: &str) {
        let addr_file = self.tmp.join(format!("{node_id}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let mut args = vec![
            "serve".to_string(),
            "--model".to_string(),
            self.model_path.to_str().unwrap().to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--addr-file".to_string(),
            addr_file.to_str().unwrap().to_string(),
            "--registry".to_string(),
            self.registry_addr.clone(),
            "--node-id".to_string(),
            node_id.to_string(),
            "--ttl-ms".to_string(),
            NODE_TTL_MS.to_string(),
            "--drain-grace-ms".to_string(),
            "150".to_string(),
        ];
        if self.sharded {
            args.push("--shards".to_string());
        }
        let mut child = xpdlc().args(&args).spawn().expect("spawn serve node");
        let addr = wait_addr(&addr_file, &mut child, node_id);
        self.nodes.push((node_id.to_string(), child, addr));
    }

    /// Kill everything that is still running. Idempotent; also the Drop
    /// path so a failed assertion never leaks daemons.
    fn teardown(&mut self) {
        for (_, child, _) in &mut self.nodes {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.nodes.clear();
        if let Some(mut reg) = self.registry.take() {
            let _ = reg.kill();
            let _ = reg.wait();
        }
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Background traffic: hammer the cluster until stopped, counting
/// successes, failovers, and (never-expected) dropped queries.
struct Traffic {
    stop: Arc<AtomicBool>,
    ok: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    failovers: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Traffic {
    fn start(client: Arc<ClusterClient>) -> Traffic {
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let failovers = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, ok, dropped, failovers) =
                (Arc::clone(&stop), Arc::clone(&ok), Arc::clone(&dropped), Arc::clone(&failovers));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match client.call(Method::NumCores) {
                        Ok(routed) => {
                            assert_eq!(routed.reply, Reply::Count(2500));
                            ok.fetch_add(1, Ordering::Relaxed);
                            if routed.attempts > 1 {
                                failovers.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        Traffic { stop, ok, dropped, failovers, handle: Some(handle) }
    }

    /// Per-key traffic for a sharded fleet: cycle the whole shard
    /// universe so every key is continuously probed for answerability.
    fn start_sharded(client: Arc<ClusterClient>, keys: Vec<String>) -> Traffic {
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let failovers = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, ok, dropped, failovers) =
                (Arc::clone(&stop), Arc::clone(&ok), Arc::clone(&dropped), Arc::clone(&failovers));
            std::thread::spawn(move || {
                let mut n = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let key = &keys[n % keys.len()];
                    n += 1;
                    match client.call_for_key(key, Method::NumCores) {
                        Ok(routed) => {
                            assert!(
                                matches!(routed.reply, Reply::Count(_)),
                                "unexpected reply for '{key}': {:?}",
                                routed.reply
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                            if routed.attempts > 1 {
                                failovers.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        Traffic { stop, ok, dropped, failovers, handle: Some(handle) }
    }

    fn finish(mut self) -> (u64, u64, u64) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().expect("traffic thread");
        }
        (
            self.ok.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
        )
    }
}

fn cluster_client(registry_addr: &str) -> Arc<ClusterClient> {
    Arc::new(ClusterClient::new(
        registry_addr.to_string(),
        ClusterOptions { table_max_age: Duration::from_millis(100), ..Default::default() },
    ))
}

/// Registry-side membership, bypassing the `ClusterClient` cache (which
/// deliberately serves stale tables while the registry is down).
fn registered_addrs(reg: &RegistryClient) -> Vec<String> {
    reg.nodes().map(|(nodes, _, _)| nodes.into_iter().map(|n| n.addr).collect()).unwrap_or_default()
}

#[test]
fn chaos_sigkill_node_registry_restart_and_push_reload() {
    let mut cluster = Cluster::launch("kill", 3);
    let reg_client = RegistryClient::new(cluster.registry_addr.clone());
    let client = cluster_client(&cluster.registry_addr);
    wait_until("3 nodes registered", Duration::from_secs(30), || {
        registered_addrs(&reg_client).len() == 3
    });

    // Baseline epochs for the monotonicity check.
    let survivors: Vec<(String, String)> = cluster.nodes[1..]
        .iter()
        .map(|(id, _, addr)| (id.clone(), addr.clone()))
        .collect();
    let mut last_epoch = std::collections::BTreeMap::new();
    for (id, addr) in &survivors {
        let (epoch, _, draining) = node_health(addr).expect("baseline health");
        assert!(!draining);
        last_epoch.insert(id.clone(), epoch);
    }

    let traffic = Traffic::start(Arc::clone(&client));
    wait_until("traffic flowing", Duration::from_secs(10), || {
        traffic.ok.load(Ordering::Relaxed) > 20
    });

    // --- SIGKILL one node: lease must expire within 2×TTL. ---
    let (_, mut victim, victim_addr) = cluster.nodes.remove(0);
    victim.kill().expect("sigkill node");
    victim.wait().expect("reap node");
    let killed_at = Instant::now();
    wait_until("killed node leaves the table", Duration::from_millis(2 * NODE_TTL_MS), || {
        !registered_addrs(&reg_client).contains(&victim_addr)
    });
    assert!(
        killed_at.elapsed() <= Duration::from_millis(2 * NODE_TTL_MS),
        "lease outlived 2x TTL: {:?}",
        killed_at.elapsed()
    );

    // --- SIGKILL the registry, restart it on the same port. ---
    let mut old_reg = cluster.registry.take().expect("registry handle");
    old_reg.kill().expect("sigkill registry");
    old_reg.wait().expect("reap registry");
    // Rebind the same concrete port; retry covers lingering sockets.
    let restart_deadline = Instant::now() + Duration::from_secs(30);
    let new_registry = loop {
        let reg_file = cluster.tmp.join("registry2.addr");
        let _ = std::fs::remove_file(&reg_file);
        let mut child = xpdlc()
            .args([
                "registry",
                "--addr",
                &cluster.registry_addr,
                "--addr-file",
                reg_file.to_str().unwrap(),
            ])
            .spawn()
            .expect("respawn registry");
        let up = Instant::now() + Duration::from_secs(2);
        let mut bound = false;
        while Instant::now() < up {
            if reg_file.exists() && !std::fs::read_to_string(&reg_file).unwrap_or_default().is_empty()
            {
                bound = true;
                break;
            }
            if matches!(child.try_wait(), Ok(Some(_))) {
                break; // bind failed; retry
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if bound {
            break child;
        }
        let _ = child.kill();
        let _ = child.wait();
        assert!(Instant::now() < restart_deadline, "registry never rebound its port");
    };
    cluster.registry = Some(new_registry);

    // Survivors re-register on their own (heartbeat -> S503 -> register).
    // The fresh registry starts empty, so a straight membership query
    // proves re-registration (the ClusterClient's cached table cannot).
    wait_until("survivors re-register", Duration::from_secs(30), || {
        registered_addrs(&reg_client).len() == 2
    });

    // --- Push invalidation: rewrite the model, announce, epochs bump. ---
    let mut variant = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose");
    variant.root.set_attr("chaos_generation", "2");
    let vt = xpdl_runtime::RuntimeModel::from_element(&variant.root);
    let swap = cluster.tmp.join("model.xpdlrt.next");
    xpdl_runtime::format::save_file(&vt, &swap).expect("write variant");
    std::fs::rename(&swap, &cluster.model_path).expect("swap model");
    // Subscribers may still be reconnecting after the restart; announce
    // until the push actually lands on both survivors.
    wait_until("pushed reload bumps both epochs", Duration::from_secs(30), || {
        let _ = reg_client.announce("chaos-generation-2");
        survivors.iter().all(|(id, addr)| match node_health(addr) {
            Some((epoch, _, _)) => epoch > *last_epoch.get(id).unwrap(),
            None => false,
        })
    });
    // Strictly monotone: the new epochs become the floor, and a second
    // health probe never reports an older epoch.
    for (id, addr) in &survivors {
        let (epoch, _, _) = node_health(addr).expect("post-reload health");
        assert!(epoch > *last_epoch.get(id).unwrap(), "{id} epoch went backwards");
        last_epoch.insert(id.clone(), epoch);
        let (again, _, _) = node_health(addr).expect("second probe");
        assert!(again >= epoch, "{id} epoch regressed between probes");
    }

    // Let traffic run against the recovered cluster: post-chaos
    // steady-state serving is part of the invariant.
    let settled = traffic.ok.load(Ordering::Relaxed) + 200;
    wait_until("steady-state traffic after recovery", Duration::from_secs(15), || {
        traffic.ok.load(Ordering::Relaxed) > settled
    });

    // --- Zero dropped queries end to end. ---
    let (ok, dropped, failovers) = traffic.finish();
    assert_eq!(dropped, 0, "queries were dropped (retries are allowed, drops are not)");
    assert!(ok > 100, "too little traffic to trust the run ({ok} ok)");
    // The SIGKILL mid-run must have forced at least one failover.
    assert!(failovers > 0, "expected failovers after SIGKILL, saw none");

    cluster.teardown();
}

#[test]
fn chaos_sigkill_in_sharded_fleet_heals_to_full_replication() {
    const R: usize = 2;
    let mut cluster = Cluster::launch_sharded("shard", 3);
    let reg_client = RegistryClient::new(cluster.registry_addr.clone());
    let client = cluster_client(&cluster.registry_addr);
    wait_until("3 sharded nodes registered", Duration::from_secs(30), || {
        registered_addrs(&reg_client).len() == 3
    });

    let keys: Vec<String> = xpdl_models::LIBRARY_KEYS.iter().map(|k| k.to_string()).collect();
    // Warm every key once (the first touch compiles on the owner) and
    // wait for the initial partition to settle: each key loaded on
    // exactly R of the three nodes.
    for key in &keys {
        client.call_for_key(key, Method::NumCores).expect("warming call");
    }
    wait_until("initial partition reaches R replicas", Duration::from_secs(30), || {
        let served: Vec<Vec<String>> =
            cluster.nodes.iter().map(|(_, _, addr)| node_owned(addr)).collect();
        keys.iter().all(|k| served.iter().filter(|o| o.contains(k)).count() == R)
    });

    let traffic = Traffic::start_sharded(Arc::clone(&client), keys.clone());
    wait_until("sharded traffic flowing", Duration::from_secs(10), || {
        traffic.ok.load(Ordering::Relaxed) > 20
    });

    // --- SIGKILL one node mid-storm. Its keys lose one replica; the
    // ring must heal them back to R on the survivors within 2×TTL of
    // the lease expiring, with zero dropped queries throughout. ---
    let (_, mut victim, victim_addr) = cluster.nodes.remove(0);
    victim.kill().expect("sigkill shard node");
    victim.wait().expect("reap shard node");
    let killed_at = Instant::now();
    wait_until("killed node leaves the table", Duration::from_millis(2 * NODE_TTL_MS), || {
        !registered_addrs(&reg_client).contains(&victim_addr)
    });
    let expired_at = Instant::now();
    wait_until("every key back to R replicas", Duration::from_millis(2 * NODE_TTL_MS), || {
        let served: Vec<Vec<String>> =
            cluster.nodes.iter().map(|(_, _, addr)| node_owned(addr)).collect();
        keys.iter().all(|k| served.iter().filter(|o| o.contains(k)).count() == R)
    });
    assert!(
        expired_at.elapsed() <= Duration::from_millis(2 * NODE_TTL_MS),
        "re-replication outlived 2x TTL after lease expiry: {:?}",
        expired_at.elapsed()
    );
    println!(
        "healed to R={R} replicas {}ms after SIGKILL",
        killed_at.elapsed().as_millis()
    );

    // --- `registry status` agrees: two live nodes, each owning the
    // whole universe on the R=2 ring (the operator's view of §17). ---
    let status = Command::new(env!("CARGO_BIN_EXE_xpdlc"))
        .args(["registry", "status", "--addr", &cluster.registry_addr, "--diag-format", "json"])
        .output()
        .expect("registry status");
    assert!(status.status.success(), "registry status failed");
    let parsed = xpdl_core::diag::json::parse(
        std::str::from_utf8(&status.stdout).expect("utf8 status").trim(),
    )
    .expect("status json");
    let obj = parsed.as_object().expect("status object");
    let status_nodes = xpdl_core::diag::json::get(obj, "nodes")
        .and_then(|v| v.as_array())
        .expect("status nodes");
    assert_eq!(status_nodes.len(), 2, "status must list exactly the survivors");
    for n in status_nodes {
        let n = n.as_object().expect("node object");
        let shards = xpdl_core::diag::json::get(n, "shards")
            .and_then(|v| v.as_number())
            .expect("shard count");
        assert_eq!(shards as usize, keys.len(), "with 2 nodes and R=2, each owns every key");
    }

    // Steady state on the healed fleet, then the zero-drop gate.
    let settled = traffic.ok.load(Ordering::Relaxed) + 200;
    wait_until("steady-state traffic after resharding", Duration::from_secs(15), || {
        traffic.ok.load(Ordering::Relaxed) > settled
    });
    let (ok, dropped, failovers) = traffic.finish();
    assert_eq!(dropped, 0, "sharded queries were dropped during rebalance");
    assert!(ok > 100, "too little traffic to trust the run ({ok} ok)");
    assert!(failovers > 0, "expected failovers after SIGKILL, saw none");

    cluster.teardown();
}

#[test]
fn chaos_sigterm_drains_before_closing() {
    let mut cluster = Cluster::launch("drain", 2);
    let reg_client = RegistryClient::new(cluster.registry_addr.clone());
    let client = cluster_client(&cluster.registry_addr);
    wait_until("2 nodes registered", Duration::from_secs(30), || {
        registered_addrs(&reg_client).len() == 2
    });

    let traffic = Traffic::start(Arc::clone(&client));
    wait_until("traffic flowing", Duration::from_secs(10), || {
        traffic.ok.load(Ordering::Relaxed) > 20
    });

    // SIGTERM the first node: it must deregister (table shrinks well
    // before the TTL could expire), answer S510 during the grace
    // period, then exit 0.
    let (_, mut victim, victim_addr) = cluster.nodes.remove(0);
    let pid = victim.id().to_string();
    let terminated_at = Instant::now();
    let status = Command::new("kill").args(["-TERM", &pid]).status().expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    // Deregistration is an explicit RPC in the drain path, so the lease
    // disappears well before its TTL could run out.
    let drain_deadline = Duration::from_millis(3 * NODE_TTL_MS / 4);
    wait_until("drained node leaves the table", drain_deadline, || {
        !registered_addrs(&reg_client).contains(&victim_addr)
    });
    assert!(
        terminated_at.elapsed() < drain_deadline,
        "deregistration took {:?} — was it waiting for lease expiry?",
        terminated_at.elapsed()
    );
    let exit = victim.wait().expect("reap drained node");
    assert!(exit.success(), "drained node exited {exit}");

    // Traffic must keep landing on the surviving node after the drain.
    let settled = traffic.ok.load(Ordering::Relaxed) + 100;
    wait_until("steady-state traffic after drain", Duration::from_secs(15), || {
        traffic.ok.load(Ordering::Relaxed) > settled
    });

    let (ok, dropped, _) = traffic.finish();
    assert_eq!(dropped, 0, "drain caused client-visible failures");
    assert!(ok > 50, "too little traffic to trust the run ({ok} ok)");

    cluster.teardown();
}
