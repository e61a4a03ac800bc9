//! `xpdlc serve` and `xpdlc query`: the serving daemon and its offline twin.
//!
//! Both subcommands drive the same [`xpdl_serve::Engine`] — `serve` wraps
//! it in the TCP server, `query` calls [`Engine::handle`] in-process. A
//! behavior observed through `query` is therefore exactly what a network
//! client of `serve` would see, which is what makes `query --rpc` a
//! faithful offline harness for the protocol.

use crate::ExitCode;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xpdl_registry::{NodeAgent, NodeConfig, RegistryClient, RingFn};
use xpdl_serve::{
    compile_key, install_termination_handler, spawn_reload_thread, Engine, EngineOptions, Method,
    ModelSource, Rebalancer, Reply, Request, Response, ServeError, Server, ServerOptions,
    ShardManager,
};

/// Set by SIGTERM/SIGINT; polled by the `serve` main loop.
static TERM: AtomicBool = AtomicBool::new(false);

/// Build the model source from `--model FILE` / `--repo KEY` (serve) or
/// from a positional target that may be either (query).
fn model_source(rest: &[String], target: Option<&str>) -> Result<ModelSource, String> {
    let model_flag = crate::flag_value(rest, "--model");
    let repo_flag = crate::flag_value(rest, "--repo");
    match (model_flag, repo_flag, target) {
        (Some(_), Some(_), _) => Err("--model and --repo are mutually exclusive".to_string()),
        (Some(path), None, _) => Ok(ModelSource::File(PathBuf::from(path))),
        (None, Some(key), _) => Ok(ModelSource::Repo {
            key,
            repo: Box::new(crate::repository_with(rest, None)?),
        }),
        (None, None, Some(t)) => {
            // A query target is a compiled file when it looks like one,
            // else a repository key composed on the fly.
            if t.ends_with(".xpdlrt") || std::path::Path::new(t).is_file() {
                Ok(ModelSource::File(PathBuf::from(t)))
            } else {
                Ok(ModelSource::Repo {
                    key: t.to_string(),
                    repo: Box::new(crate::repository_with(rest, None)?),
                })
            }
        }
        (None, None, None) => {
            Err("serve requires --model FILE.xpdlrt or --repo KEY".to_string())
        }
    }
}

/// `xpdlc serve`: run the daemon until SIGTERM or a remote `shutdown`.
pub(crate) fn serve_command(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let addr = crate::flag_value(rest, "--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let source = model_source(rest, None)?;
    let engine = Arc::new(Engine::new(
        source,
        EngineOptions {
            allow_debug: crate::has_flag(rest, "--allow-debug"),
            allow_shutdown: crate::has_flag(rest, "--allow-remote-shutdown"),
        },
    )?);
    let options = ServerOptions {
        max_inflight: crate::parse_flag::<usize>(rest, "--max-inflight")?
            .unwrap_or(ServerOptions::default().max_inflight)
            .max(1),
    };
    let server = Server::start(Arc::clone(&engine), &addr, options)?;
    let bound = server.local_addr();
    // `--addr-file` publishes the resolved address, so callers binding
    // `:0` (tests, CI) can discover the real port.
    if let Some(path) = crate::flag_value(rest, "--addr-file") {
        std::fs::write(&path, bound.to_string())?;
    }
    let snap = engine.registry().load();
    writeln!(out, "serving {} on {bound} (epoch {})", snap.source, snap.epoch)?;

    let reload_secs = crate::parse_flag::<u64>(rest, "--reload-interval")?.unwrap_or(0);
    let reload_thread = (reload_secs > 0)
        .then(|| spawn_reload_thread(Arc::clone(&engine), Duration::from_secs(reload_secs)));

    // Sharded serving (DESIGN.md §17): the node compiles only the keys
    // the consistent-hash ring assigns it, answers S511 with a routing
    // hint for the rest, and self-heals on membership changes. Without
    // `--registry` there is no ring, so a standalone `--shards` node is
    // simply a multi-model server over the whole universe.
    let node = crate::flag_value(rest, "--node-id")
        .unwrap_or_else(|| format!("node-{}", std::process::id()));
    let shard_mgr = if crate::has_flag(rest, "--shards") {
        let repo = crate::repository_with(rest, None)?;
        let compile =
            Box::new(move |key: &str| Ok((compile_key(&repo, key)?, format!("repo:{key}"))));
        let universe = crate::registry::shard_universe(rest);
        let mgr = Arc::new(ShardManager::new(node.clone(), universe, compile));
        engine.set_shard_manager(Arc::clone(&mgr));
        writeln!(out, "sharding enabled: {} key(s) in universe", mgr.universe().len())?;
        Some(mgr)
    } else {
        None
    };

    // Cluster membership: register with the registry, heartbeat at
    // ttl/3, reload on pushed model-version announcements. A sharded
    // node additionally watches ring pushes and runs the rebalancer.
    let (agent, rebalancer) = match crate::flag_value(rest, "--registry") {
        Some(registry_addr) => {
            let advertise =
                crate::flag_value(rest, "--advertise").unwrap_or_else(|| bound.to_string());
            let ttl = Duration::from_millis(crate::parse_flag::<u64>(rest, "--ttl-ms")?.unwrap_or(1500));
            let mut cfg = NodeConfig::new(registry_addr.clone(), node.clone(), advertise);
            cfg.ttl = ttl;
            let health_engine = Arc::clone(&engine);
            let health = Arc::new(move || health_engine.node_report());
            let reload_engine = Arc::clone(&engine);
            let on_invalidate = Arc::new(move |_version: &str| {
                // A fingerprint-unchanged reload is a no-op swap, so a
                // redundant announcement costs one recompile, not an epoch.
                let _ = reload_engine.reload();
            });
            let (on_ring, rebalancer) = match &shard_mgr {
                Some(mgr) => {
                    let reb = Arc::new(Rebalancer::spawn(
                        Arc::clone(mgr),
                        RegistryClient::new(registry_addr.clone()),
                    ));
                    let ring_mgr = Arc::clone(mgr);
                    let ring_reb = Arc::clone(&reb);
                    // A pushed ring epoch re-partitions immediately: apply
                    // the new ownership, then wake the rebalancer so pulls
                    // and handoff acks happen now.
                    let on_ring: RingFn = Arc::new(move |info| {
                        if ring_mgr.apply_ring(info) {
                            ring_reb.kick();
                        }
                    });
                    (Some(on_ring), Some(reb))
                }
                None => (None, None),
            };
            writeln!(out, "joined registry {} as '{node}'", cfg.registry_addr)?;
            (Some(NodeAgent::start_with_ring(cfg, health, on_invalidate, on_ring)), rebalancer)
        }
        None => (None, None),
    };
    let drain_grace =
        Duration::from_millis(crate::parse_flag::<u64>(rest, "--drain-grace-ms")?.unwrap_or(200));

    install_termination_handler(&TERM);
    while !TERM.load(Ordering::Acquire) && !engine.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    // Drain sequence (ordering matters — DESIGN.md §16): leave the
    // cluster first, so no new work is routed here; then answer S510
    // ("draining") for the grace period so clients that already hold
    // this address fail over instead of hitting a closed listener; only
    // then stop accepting.
    if let Some(agent) = agent {
        agent.shutdown();
        // Stop pulling shards before draining: the rebalancer must not
        // adopt new keys on a node that is leaving. Shards probes still
        // answer through the grace period so successors can ack handoff.
        drop(rebalancer);
        engine.set_draining(true);
        std::thread::sleep(drain_grace);
    }
    server.shutdown();
    server.join();
    if let Some(t) = reload_thread {
        t.thread().unpark();
        let _ = t.join();
    }
    let stats = engine.stats().snapshot(engine.registry().current_epoch());
    writeln!(
        out,
        "shutdown: {} requests, {} errors, {} shed, {} reloads ({} failed)",
        stats.requests, stats.errors, stats.shed, stats.reloads, stats.reload_failures
    )?;
    Ok(0)
}

/// `xpdlc query`: the daemon's request handler, in-process.
///
/// The positional arguments (`positional`) are a compiled `.xpdlrt` file
/// or a library key, then optionally an identifier and an attribute.
/// `--rpc '<json>'` bypasses the friendly output and feeds one raw
/// protocol line through the engine, printing the raw response — the
/// same bytes a TCP client would receive. `--encoding binary` routes the
/// request and the response through the binary codec (`docs/WIRE.md`)
/// instead — the frames a negotiated binary connection would carry —
/// and prints the frame sizes plus the decoded response as JSON.
pub(crate) fn query_command(
    rest: &[String],
    positional: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let usage = "query <file.xpdlrt|key> [ident [attr]] [--rpc JSON [--encoding json|binary]]";
    let Some(target) = positional.first() else {
        return Err(format!("usage: xpdlc {usage}").into());
    };
    let source = model_source(rest, Some(target))?;
    let engine = Engine::new(
        source,
        EngineOptions { allow_debug: false, allow_shutdown: false },
    )?;

    if let Some(raw) = crate::flag_value(rest, "--rpc") {
        let encoding =
            crate::flag_value(rest, "--encoding").unwrap_or_else(|| "json".to_string());
        let resp = match encoding.as_str() {
            "json" => engine.handle_line(&raw),
            "binary" => rpc_via_binary_codec(&engine, &raw, out)?,
            other => {
                return Err(
                    format!("unknown --encoding {other:?}; expected json or binary").into()
                )
            }
        };
        writeln!(out, "{}", resp.to_json())?;
        return Ok(if resp.result.is_ok() { 0 } else { 1 });
    }

    let ask = |method: Method| engine.handle(&Request::new(0, method)).result;
    run_friendly_query(&engine, positional, out, &ask)
}

/// Serve one `--rpc` line through the binary codec: parse the JSON
/// request, encode it to a frame, decode it back, handle, and round-trip
/// the response the same way. Any divergence between the two encodings
/// would surface right here as a decode error or a changed reply.
fn rpc_via_binary_codec(
    engine: &Engine,
    raw: &str,
    out: &mut dyn std::io::Write,
) -> Result<Response, Box<dyn std::error::Error>> {
    use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
    let req = match xpdl_serve::parse_request(raw) {
        Ok(r) => r,
        Err((id, e)) => return Ok(Response::err(id.unwrap_or(0), e)),
    };
    let frame = codec::encode_request(&req, &mut StrEncoder::new());
    let decoded = match codec::decode_request(&frame[4..], &mut StrDecoder::new()) {
        Ok(r) => r,
        Err((id, e)) => return Ok(Response::err(id.unwrap_or(0), e)),
    };
    let resp = engine.handle(&decoded);
    let resp_frame = codec::encode_response(&resp, &mut StrEncoder::new());
    writeln!(
        out,
        "binary: request frame {} bytes, response frame {} bytes",
        frame.len(),
        resp_frame.len()
    )?;
    codec::decode_response(&resp_frame[4..], &mut StrDecoder::new())
        .map_err(|e| format!("response frame failed to decode: {e}").into())
}

/// The human-readable (non `--rpc`) query output.
fn run_friendly_query(
    _engine: &Engine,
    positional: &[String],
    out: &mut dyn std::io::Write,
    ask: &dyn Fn(Method) -> Result<Reply, ServeError>,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match (positional.get(1), positional.get(2)) {
        (None, _) => {
            if let Ok(Reply::ModelInfo { root_kind, .. }) = ask(Method::ModelInfo) {
                writeln!(out, "root: {root_kind}")?;
            }
            if let Ok(Reply::Count(n)) = ask(Method::NumCores) {
                writeln!(out, "num_cores: {n}")?;
            }
            if let Ok(Reply::Count(n)) = ask(Method::NumCudaDevices) {
                writeln!(out, "num_cuda_devices: {n}")?;
            }
            if let Ok(Reply::Power(w)) = ask(Method::TotalStaticPower) {
                writeln!(out, "total_static_power_w: {w}")?;
            }
        }
        (Some(ident), None) => {
            match ask(Method::Find { ident: ident.to_string() }) {
                Ok(Reply::Node(Some(node))) => {
                    writeln!(out, "{}[{}]", node.kind, ident)?;
                    for (k, v) in &node.attrs {
                        writeln!(out, "  {k} = {v}")?;
                    }
                }
                _ => {
                    writeln!(out, "'{ident}' not found")?;
                    return Ok(1);
                }
            }
        }
        (Some(ident), Some(attr)) => {
            match ask(Method::GetAttr { ident: ident.to_string(), attr: attr.to_string() }) {
                Ok(Reply::Attr(Some(v))) => writeln!(out, "{v}")?,
                _ => {
                    writeln!(out, "(none)")?;
                    return Ok(1);
                }
            }
        }
    }
    Ok(0)
}
