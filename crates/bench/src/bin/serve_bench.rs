//! Load generator for the xpdl-serve daemon — the acceptance harness for
//! DESIGN.md §13's serving guarantees.
//!
//! Default run: spawn an in-process server over a temporary compiled
//! `liu_gpu_server` model, fire `--threads` client threads at it over
//! real TCP until `--requests` total requests complete, and rewrite the
//! model file mid-run so hot reloads happen *while* the clients hammer
//! the socket. Every response is checked for protocol correctness; the
//! run fails if any request errors, times out, or is shed at this
//! (low) load. Results land in `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p bench --bin serve_bench -- [flags]
//!   --addr HOST:PORT   benchmark an external daemon instead of spawning
//!   --threads N        client threads (default 8)
//!   --requests M       total requests across all threads (default 10000)
//!   --reload-ms MS     in-process mode: rewrite the model every MS (default 50)
//!   --encoding E       wire encoding: json (default) or binary (docs/WIRE.md)
//!   --expect-clean     exit 1 unless zero errors and zero shed
//!   --out FILE         result file (default BENCH_serve.json; appended
//!                      as an array when it already holds a record)
//! ```

use bench::flag;
use bench::net::{
    fetch_stats, json_client, run_clients, BinConn, Tally, CONNECT_TIMEOUT, IO_TIMEOUT,
};
use bench::record::{ExtraValue, ScenarioRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_registry::client::call_line;
use xpdl_serve::{
    parse_response, Engine, EngineOptions, Method, ModelSource, Request, Server, ServerOptions,
};

/// The request mix one client thread cycles through: the full read-side
/// query surface, weighted toward the cheap calls a runtime system makes
/// in its inner loop.
const MIX: &[&str] = &[
    r#"{"v":1,"id":ID,"method":"num_cores"}"#,
    r#"{"v":1,"id":ID,"method":"find","params":{"ident":"gpu1"}}"#,
    r#"{"v":1,"id":ID,"method":"get_attr","params":{"ident":"gpu1","attr":"id"}}"#,
    r#"{"v":1,"id":ID,"method":"num_cores"}"#,
    r#"{"v":1,"id":ID,"method":"get_number","params":{"ident":"connection1","attr":"max_bandwidth"}}"#,
    r#"{"v":1,"id":ID,"method":"elements_of_kind","params":{"kind":"core"}}"#,
    r#"{"v":1,"id":ID,"method":"estimate_transfer","params":{"link":"connection1","bytes":1048576}}"#,
    r#"{"v":1,"id":ID,"method":"model_info"}"#,
    r#"{"v":1,"id":ID,"method":"num_cuda_devices"}"#,
    r#"{"v":1,"id":ID,"method":"total_static_power"}"#,
];

/// The same mix as [`MIX`] as typed methods, for the binary encoding.
/// Index-aligned with the JSON templates so the two runs are comparable
/// request for request.
fn mix_method(n: usize) -> Method {
    match n % MIX.len() {
        0 => Method::NumCores,
        1 => Method::Find { ident: "gpu1".into() },
        2 => Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
        3 => Method::NumCores,
        4 => Method::GetNumber { ident: "connection1".into(), attr: "max_bandwidth".into() },
        5 => Method::ElementsOfKind { kind: "core".into() },
        6 => Method::EstimateTransfer { link: "connection1".into(), bytes: 1_048_576 },
        7 => Method::ModelInfo,
        8 => Method::NumCudaDevices,
        _ => Method::TotalStaticPower,
    }
}

/// The binary-encoding twin of [`json_client`]: same mix, same
/// validation, typed frames over a negotiated [`BinConn`].
fn binary_client(addr: &str, requests: u64, thread_id: u64) -> Tally {
    let mut tally = Tally::with_capacity(requests);
    let mut conn = BinConn::connect(addr).expect("bench client connect (binary)");
    for n in 0..requests {
        let id = thread_id * 10_000_000 + n;
        let req = Request::new(id, mix_method(n as usize));
        let start = Instant::now();
        let resp = conn.call(&req).expect("bench client call (binary)");
        tally.add(start.elapsed(), resp.id == id && resp.result.is_ok());
    }
    tally
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: u64 = flag(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(8);
    let total: u64 = flag(&args, "--requests").and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let reload_ms: u64 = flag(&args, "--reload-ms").and_then(|v| v.parse().ok()).unwrap_or(50);
    let expect_clean = args.iter().any(|a| a == "--expect-clean");
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let external = flag(&args, "--addr");
    let encoding = flag(&args, "--encoding").unwrap_or_else(|| "json".to_string());
    let binary = match encoding.as_str() {
        "binary" => true,
        "json" => false,
        other => {
            eprintln!("unknown --encoding {other:?}; expected json or binary");
            std::process::exit(2);
        }
    };

    // In-process mode: compile the paper's GPU server model to a temp
    // file and serve it, so the bench exercises the same file-reload
    // path `xpdlc serve --model` uses.
    let tmp = std::env::temp_dir().join(format!("serve_bench_{}", std::process::id()));
    let (addr, server, rewriter, rewriter_stop, reload_interval) = match &external {
        Some(addr) => (addr.clone(), None, None, None, None),
        None => {
            std::fs::create_dir_all(&tmp).expect("tmp dir");
            let model_path = tmp.join("m.xpdlrt");
            let base = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose");
            let rt = xpdl_runtime::RuntimeModel::from_element(&base.root);
            xpdl_runtime::format::save_file(&rt, &model_path).expect("write model");
            let engine = Arc::new(
                Engine::new(
                    ModelSource::File(model_path.clone()),
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
            // Rewrite the model file on a timer: alternate between the
            // base model and a variant with an extra annotation, so the
            // fingerprint flips and every reload really swaps snapshots.
            let stop = Arc::new(AtomicBool::new(false));
            let rewriter = {
                let stop = Arc::clone(&stop);
                let mut variant = base.clone();
                variant.root.set_attr("bench_generation", "1");
                let vt = xpdl_runtime::RuntimeModel::from_element(&variant.root);
                let swap_path = tmp.join("m.xpdlrt.next");
                std::thread::spawn(move || {
                    let mut flip = false;
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(reload_ms));
                        let m = if flip { &rt } else { &vt };
                        flip = !flip;
                        // Write-then-rename so the reload thread never
                        // observes a half-written model file.
                        if xpdl_runtime::format::save_file(m, &swap_path).is_ok() {
                            let _ = std::fs::rename(&swap_path, &model_path);
                        }
                    }
                })
            };
            let reload =
                xpdl_serve::spawn_reload_thread(Arc::clone(&engine), Duration::from_millis(reload_ms));
            (addr, Some(server), Some(rewriter), Some(stop), Some(reload))
        }
    };

    let per_thread = total / threads.max(1);
    println!("serve_bench: {threads} threads x {per_thread} requests ({encoding}) -> {addr}");
    let wall = Instant::now();
    let client_addr = addr.clone();
    let tally = run_clients(threads, move |t| {
        if binary {
            binary_client(&client_addr, per_thread, t)
        } else {
            json_client(&client_addr, MIX, per_thread, t)
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // Pull the server's own view before shutdown.
    let server_stats = fetch_stats(&addr);

    // And the unified metrics registry over the wire: the serving layer
    // registers all its counters there, so a loaded server must report a
    // non-zero serve.requests total.
    let metrics_requests = {
        let metrics = r#"{"v":1,"id":2,"method":"metrics"}"#;
        let line =
            call_line(&addr, metrics, CONNECT_TIMEOUT, IO_TIMEOUT).expect("metrics round trip");
        match parse_response(line.trim()) {
            Ok(resp) => match resp.result {
                Ok(xpdl_serve::Reply::Metrics(m)) => m.counters.get("serve.requests").copied(),
                _ => None,
            },
            Err(_) => None,
        }
    };

    if let Some(stop) = rewriter_stop {
        stop.store(true, Ordering::Release);
    }
    if let Some(r) = rewriter {
        let _ = r.join();
    }
    if let Some(s) = &server {
        s.shutdown();
    }
    if let Some(s) = server {
        s.join();
    }
    if let Some(r) = reload_interval {
        r.thread().unpark();
        let _ = r.join();
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let Tally { ok, errors, latencies_us: mut lat } = tally;
    let sent = ok + errors;
    let qps = sent as f64 / wall_s.max(1e-9);
    // The shared scenario record schema (DESIGN.md §15); every pre-§15
    // top-level key stays as an extra so existing consumers keep parsing
    // this file unchanged, and its `client_*` percentiles are the record's.
    let mut rec = ScenarioRecord::new("serve_burst");
    rec.set_latencies(&mut lat);
    let (p50, p90, p99) = (rec.p50_us, rec.p90_us, rec.p99_us);
    let max = lat.last().copied().unwrap_or(0);
    let (shed, reloads, epoch) = server_stats
        .as_ref()
        .map(|s| (s.shed, s.reloads, s.epoch))
        .unwrap_or((0, 0, 0));

    println!(
        "{sent} sent, {ok} ok, {errors} errors, {shed} shed in {wall_s:.2}s ({qps:.0} req/s)"
    );
    println!("client latency us: p50={p50} p90={p90} p99={p99} max={max}");
    println!("server: {reloads} hot reloads, final epoch {epoch}");
    println!("metrics rpc: serve.requests={}", metrics_requests.unwrap_or(0));

    rec.qps = qps;
    rec.errors = errors;
    rec.put_extra("encoding", ExtraValue::Str(encoding.clone()));
    rec.put_extra("threads", ExtraValue::U64(threads));
    rec.put_extra("requests", ExtraValue::U64(sent));
    rec.put_extra("ok", ExtraValue::U64(ok));
    rec.put_extra("wall_s", ExtraValue::F64(wall_s));
    rec.put_extra("client_p50_us", ExtraValue::U64(p50));
    rec.put_extra("client_p90_us", ExtraValue::U64(p90));
    rec.put_extra("client_p99_us", ExtraValue::U64(p99));
    rec.put_extra("client_max_us", ExtraValue::U64(max));
    if let Some(s) = &server_stats {
        rec.put_extra("server", ExtraValue::Raw(s.to_json()));
    }
    if let Some(n) = metrics_requests {
        rec.put_extra("metrics_serve_requests", ExtraValue::U64(n));
    }
    // Append-as-array: a second run (e.g. the other encoding) joins the
    // first record in a JSON array instead of overwriting it, so one CI
    // job can record the json/binary pair side by side in one file.
    let new_json = rec.to_json();
    let combined = match std::fs::read_to_string(&out_path) {
        Ok(prev) => {
            let prev = prev.trim();
            if prev.is_empty() {
                new_json
            } else if let Some(list) = prev.strip_suffix(']') {
                format!("{list},{new_json}]")
            } else {
                format!("[{prev},{new_json}]")
            }
        }
        Err(_) => new_json,
    };
    std::fs::write(&out_path, combined).expect("write results");
    println!("wrote {out_path}");

    if expect_clean && (errors > 0 || shed > 0) {
        eprintln!("FAIL: expected a clean run, saw {errors} errors and {shed} shed");
        std::process::exit(1);
    }
    // In-process servers always speak protocol v1 with the metrics
    // method; an external --addr target may predate it, so only gate
    // the registry check when we own the server.
    if expect_clean && external.is_none() && metrics_requests.unwrap_or(0) == 0 {
        eprintln!("FAIL: metrics rpc reported zero serve.requests after a loaded run");
        std::process::exit(1);
    }
}
