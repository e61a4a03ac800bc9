//! `xpdlc registry`: the cluster-membership daemon and its operator tools.
//!
//! Runs an [`xpdl_registry::RegistryServer`] until SIGTERM/SIGINT. Serve
//! nodes join with `xpdlc serve --registry HOST:PORT`; anything that
//! publishes a new model version announces it here (see
//! [`xpdl_registry::RegistryMethod::Announce`]) and every subscribed
//! node reloads immediately — no polling interval.
//!
//! Operator subcommands:
//!
//! * `registry announce` — push a model version to all subscribed nodes.
//! * `registry status` — dump the live routing table, lease deadlines,
//!   ring epoch, and per-node shard counts (text or `--diag-format=json`).
//! * `registry ring` — print the deterministic ring for a given
//!   membership, for offline inspection and the CI determinism check
//!   (same lease table → byte-identical output on any two processes).

use crate::ExitCode;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use xpdl_core::diag::json::escape_into;
use xpdl_registry::{
    HashRing, RegistryClient, RegistryMethod, RegistryOptions, RegistryReply, RegistryServer,
    DEFAULT_REPLICATION, DEFAULT_VNODES,
};
use xpdl_serve::install_termination_handler;

/// Set by SIGTERM/SIGINT; polled by the registry main loop.
static TERM: AtomicBool = AtomicBool::new(false);

/// `xpdlc registry [announce|status|ring]`: run the daemon, or poke one.
pub(crate) fn registry_command(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    // `xpdlc registry announce --addr X --version V` is the publisher's
    // side of push invalidation: one RPC, every subscribed node reloads.
    match rest.first().map(String::as_str) {
        Some("announce") => return announce(&rest[1..], out),
        Some("status") => return status(&rest[1..], out),
        Some("ring") => return ring(&rest[1..], out),
        _ => {}
    }
    let addr = crate::flag_value(rest, "--addr").unwrap_or_else(|| "127.0.0.1:7434".to_string());
    let options = RegistryOptions {
        replication: crate::parse_flag::<usize>(rest, "--replication")?
            .unwrap_or(DEFAULT_REPLICATION)
            .max(1),
        vnodes: crate::parse_flag::<usize>(rest, "--vnodes")?.unwrap_or(DEFAULT_VNODES).max(1),
    };
    let server = RegistryServer::start(&addr, options)?;
    let bound = server.local_addr();
    if let Some(path) = crate::flag_value(rest, "--addr-file") {
        std::fs::write(&path, bound.to_string())?;
    }
    writeln!(out, "registry on {bound}")?;
    install_termination_handler(&TERM);
    while !TERM.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let live = server.live_nodes();
    server.shutdown();
    server.join();
    writeln!(out, "registry shutdown: {live} live node(s)")?;
    Ok(0)
}

fn announce(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let usage = "registry announce --addr HOST:PORT --version V";
    let Some(addr) = crate::flag_value(rest, "--addr") else {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    };
    let Some(version) = crate::flag_value(rest, "--version") else {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    };
    let client = RegistryClient::new(addr);
    match client.call(RegistryMethod::Announce { version: version.clone() })? {
        RegistryReply::Announced { subscribers } => {
            writeln!(out, "announced '{version}' to {subscribers} subscriber(s)")?;
            Ok(0)
        }
        other => Err(format!("unexpected registry reply: {other:?}").into()),
    }
}

/// The shard-key universe (a sharded `serve`'s keys, `status`'s per-node
/// counts): `--shard-keys` CSV when given, the built-in model-library
/// systems otherwise.
pub(crate) fn shard_universe(rest: &[String]) -> Vec<String> {
    match crate::flag_value(rest, "--shard-keys") {
        Some(csv) => {
            csv.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
        }
        None => xpdl_models::LIBRARY_KEYS.iter().map(|k| k.to_string()).collect(),
    }
}

fn status(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let usage = "registry status --addr HOST:PORT [--diag-format text|json] [--shard-keys K1,K2]";
    let Some(addr) = crate::flag_value(rest, "--addr") else {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    };
    let format = crate::flag_value(rest, "--diag-format").unwrap_or_else(|| "text".to_string());
    if format != "text" && format != "json" {
        writeln!(out, "unknown --diag-format '{format}' (text|json)")?;
        return Ok(2);
    }
    let st = RegistryClient::new(addr).status()?;
    let universe = shard_universe(rest);
    // Per-node shard counts, computed client-side from the same ring the
    // fleet routes on — the registry stays a pure membership service.
    let ring = st.ring.as_ref().map(xpdl_registry::RingInfo::ring);
    let shard_count = |node: &str| -> u64 {
        match &ring {
            None => 0,
            Some(r) => universe.iter().filter(|k| r.owns(node, k)).count() as u64,
        }
    };
    if format == "json" {
        // Node ids, addresses and versions are operator-chosen: escaped.
        let mut s = String::from("{\"nodes\":[");
        for (i, n) in st.nodes.iter().enumerate() {
            s.push_str(if i == 0 { "{\"node\":" } else { ",{\"node\":" });
            escape_into(&mut s, &n.node);
            s.push_str(",\"addr\":");
            escape_into(&mut s, &n.addr);
            write!(s, ",\"epoch\":{},\"fingerprint\":", n.epoch)?;
            escape_into(&mut s, &n.fingerprint);
            write!(
                s,
                ",\"inflight\":{},\"generation\":{},\"age_ms\":{},\"ttl_ms\":{},\
                 \"lease_remaining_ms\":{},\"shards\":{}}}",
                n.inflight,
                n.generation,
                n.age_ms,
                n.ttl_ms,
                n.ttl_ms.saturating_sub(n.age_ms),
                shard_count(&n.node),
            )?;
        }
        s.push_str("],\"ring\":");
        match &st.ring {
            None => s.push_str("null"),
            Some(r) => {
                s.push_str("{\"epoch\":");
                escape_into(&mut s, &r.epoch_hex());
                write!(
                    s,
                    ",\"replication\":{},\"vnodes\":{},\"members\":{}}}",
                    r.replication,
                    r.vnodes,
                    r.nodes.len(),
                )?;
            }
        }
        s.push_str(",\"version\":");
        match &st.version {
            None => s.push_str("null"),
            Some(v) => escape_into(&mut s, v),
        }
        write!(
            s,
            ",\"uptime_ms\":{},\"shard_universe\":{}}}",
            st.uptime_ms,
            universe.len()
        )?;
        writeln!(out, "{s}")?;
        return Ok(0);
    }
    writeln!(out, "registry uptime: {} ms", st.uptime_ms)?;
    writeln!(out, "announced version: {}", st.version.as_deref().unwrap_or("(none)"))?;
    match &st.ring {
        None => writeln!(out, "ring: (empty — no live nodes)")?,
        Some(r) => writeln!(
            out,
            "ring: epoch={} replication={} vnodes={} members={}",
            r.epoch_hex(),
            r.replication,
            r.vnodes,
            r.nodes.len()
        )?,
    }
    writeln!(out, "nodes: {}", st.nodes.len())?;
    for n in &st.nodes {
        writeln!(
            out,
            "  {} {} epoch={} inflight={} gen={} lease={}ms/{}ms shards={}/{}",
            n.node,
            n.addr,
            n.epoch,
            n.inflight,
            n.generation,
            n.ttl_ms.saturating_sub(n.age_ms),
            n.ttl_ms,
            shard_count(&n.node),
            universe.len(),
        )?;
    }
    Ok(0)
}

fn ring(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let usage = "registry ring --nodes A,B,C [--replication N] [--vnodes N] [--shard-keys K1,K2]";
    let Some(nodes_csv) = crate::flag_value(rest, "--nodes") else {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    };
    let nodes: Vec<String> =
        nodes_csv.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if nodes.is_empty() {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    }
    let replication =
        crate::parse_flag::<usize>(rest, "--replication")?.unwrap_or(DEFAULT_REPLICATION).max(1);
    let vnodes = crate::parse_flag::<usize>(rest, "--vnodes")?.unwrap_or(DEFAULT_VNODES).max(1);
    let ring = HashRing::build(&nodes, replication, vnodes);
    // `describe()` is the canonical byte-stable dump: CI runs this twice
    // (separate processes) and diffs — any nondeterminism in ring
    // construction fails the build.
    write!(out, "{}", ring.describe())?;
    for key in shard_universe(rest) {
        let owners: Vec<&str> = ring.replicas(&key);
        writeln!(out, "key {key} -> {}", owners.join(","))?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::diag::json;

    #[test]
    fn status_json_escapes_operator_strings() {
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let client = RegistryClient::new(addr.clone());
        let node = "n\"1\\\t\u{1}é";
        client
            .call(RegistryMethod::Register {
                node: node.into(),
                addr: "127.0.0.1:9".into(),
                epoch: 3,
                fingerprint: "f\n".into(),
                inflight: 0,
                ttl_ms: 60_000,
            })
            .unwrap();
        client.announce("v\"2").unwrap();
        let args = ["status", "--addr", &addr, "--diag-format=json", "--shard-keys", "k1,k2"]
            .map(String::from);
        let mut buf = Vec::new();
        assert_eq!(registry_command(&args, &mut buf).unwrap(), 0);
        let out = String::from_utf8(buf).unwrap();
        // The exact bytes every earlier release printed for these fields.
        let head = r#"{"nodes":[{"node":"n\"1\\\t\u0001é","addr":"127.0.0.1:9","epoch":3,"fingerprint":"f\n","inflight":0,"generation":1,"age_ms":"#;
        assert!(out.starts_with(head), "{out}");
        assert!(out.contains(r#","version":"v\"2","uptime_ms":"#), "{out}");
        assert!(out.trim_end().ends_with(r#","shard_universe":2}"#), "{out}");
        let doc = json::parse(out.trim()).expect("status output is JSON");
        let nodes = json::get(doc.as_object().unwrap(), "nodes").unwrap().as_array().unwrap();
        let first = nodes[0].as_object().unwrap();
        assert_eq!(json::get(first, "node").and_then(|v| v.as_str()), Some(node));
        assert_eq!(json::get(first, "shards").and_then(|v| v.as_number()), Some(2.0));
        server.shutdown();
        server.join();
    }
}
