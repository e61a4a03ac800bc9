//! Measures the cost of the observability layer — the acceptance harness
//! for DESIGN.md §14's overhead contract: with tracing disabled, the
//! instrumentation must cost under 2% on `resolve_batch` and on the
//! serving hot path.
//!
//! Two numbers are produced per workload:
//!
//! - an **analytic bound** — per-disabled-span cost (measured in a tight
//!   loop) × spans the workload would emit, as a fraction of the
//!   workload's wall time. This is the gated number: it is deterministic
//!   up to the span-cost microbenchmark and cannot go negative.
//! - a **measured A/B** — disabled vs enabled wall time, recorded for
//!   context only (enabled mode is *expected* to cost more; machine
//!   noise makes small A/B deltas swing either way).
//!
//! ```text
//! cargo run --release -p bench --bin obs_overhead -- [--iters N] [--out FILE]
//! ```
//!
//! Results land in `BENCH_obs.json`; exits 1 if the bound is violated.

use bench::flag;
use std::time::Instant;
use xpdl_obs::trace;
use xpdl_repo::ResolveOptions;
use xpdl_serve::{Engine, EngineOptions, Method, ModelSource, Request};

fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// Per-call cost of a *disabled* span in nanoseconds: one relaxed atomic
/// load plus an inert guard. Measured over enough calls to defeat timer
/// granularity; attrs are included since call sites pass them.
fn disabled_span_ns() -> f64 {
    assert!(!trace::is_enabled(), "must measure with tracing off");
    const CALLS: u64 = 4_000_000;
    let start = Instant::now();
    for i in 0..CALLS {
        let mut sp = trace::span("obs_bench.noop");
        sp.record_attr("i", i);
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

/// Run `op` `iters` times and return the median wall time in ns.
fn time_median_ns(iters: u64, mut op: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        op();
        samples.push(start.elapsed().as_nanos() as u64);
    }
    median(samples)
}

/// How many trace records one run of `op` emits (spans + events).
fn spans_per_op(op: impl FnOnce()) -> u64 {
    trace::set_enabled(true);
    let _ = trace::global_collector().drain();
    op();
    let n = trace::global_collector().drain().len() as u64;
    trace::set_enabled(false);
    n
}

struct Workload {
    name: &'static str,
    spans_per_op: u64,
    disabled_ns: u64,
    enabled_ns: u64,
    analytic_pct: f64,
}

fn measure(
    name: &'static str,
    iters: u64,
    span_ns: f64,
    mut op: impl FnMut(),
) -> Workload {
    op(); // warm caches before timing
    let disabled_ns = time_median_ns(iters, &mut op);
    let spans = spans_per_op(&mut op);
    trace::set_enabled(true);
    let enabled_ns = time_median_ns(iters, &mut op);
    trace::set_enabled(false);
    let _ = trace::global_collector().drain();
    let analytic_pct = spans as f64 * span_ns / disabled_ns.max(1) as f64 * 100.0;
    Workload { name, spans_per_op: spans, disabled_ns, enabled_ns, analytic_pct }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: u64 = flag(&args, "--iters").and_then(|v| v.parse().ok()).unwrap_or(300);
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_obs.json".to_string());

    let span_ns = disabled_span_ns();
    println!("disabled span cost: {span_ns:.2} ns/call");

    // Workload 1: resolve_batch over the paper library (memory-cached
    // after the first pass, so each op is *fast* relative to its span
    // count — the hard case for the overhead bound).
    let repo = xpdl_models::loader::paper_repository();
    let keys = ["liu_gpu_server", "x86_base_isa", "power_model_E5_2630L", "Nvidia_K20c"];
    let opts = ResolveOptions::with_jobs(2);
    let resolve = measure("resolve_batch", iters, span_ns, || {
        for r in repo.resolve_batch(&keys, &opts) {
            r.expect("resolve");
        }
    });

    // Workload 2: the serving hot path — one request through
    // Engine::handle (admission, dispatch, stats, span) with no socket,
    // so the measurement is pure handler cost. p50 via median.
    let base = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose");
    let rt = xpdl_runtime::RuntimeModel::from_element(&base.root);
    let engine = Engine::new(
        ModelSource::Fixed(Box::new(rt)),
        EngineOptions { allow_debug: false, allow_shutdown: false },
    )
    .expect("engine");
    // The same request mix serve_bench fires over TCP, so the p50 here
    // is the p50 of a realistic serving workload — not of the single
    // cheapest method.
    let mix: Vec<Method> = vec![
        Method::NumCores,
        Method::Find { ident: "gpu1".into() },
        Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
        Method::ElementsOfKind { kind: "core".into() },
        Method::EstimateTransfer { link: "connection1".into(), bytes: 1 << 20 },
        Method::ModelInfo,
    ];
    let mut id = 0u64;
    let serve = measure("serve_p50", iters.max(3000), span_ns, || {
        id += 1;
        let req = Request::new(id, mix[(id as usize) % mix.len()].clone());
        match engine.handle(&req).result {
            Ok(_) => {}
            Err(e) => panic!("request failed: {e}"),
        }
    });

    let mut pass = true;
    let mut json = String::from("{");
    json.push_str(&format!("\"span_disabled_ns\":{span_ns:.3},\"workloads\":["));
    for (i, w) in [&resolve, &serve].into_iter().enumerate() {
        let ab_pct =
            (w.enabled_ns as f64 - w.disabled_ns as f64) / w.disabled_ns.max(1) as f64 * 100.0;
        println!(
            "{}: {} spans/op, disabled {} ns, enabled {} ns (A/B {ab_pct:+.2}%), \
             analytic disabled overhead {:.4}%",
            w.name, w.spans_per_op, w.disabled_ns, w.enabled_ns, w.analytic_pct
        );
        if w.analytic_pct >= 2.0 {
            eprintln!("FAIL: {} disabled overhead {:.3}% >= 2%", w.name, w.analytic_pct);
            pass = false;
        }
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"spans_per_op\":{},\"disabled_ns\":{},\"enabled_ns\":{},\
             \"analytic_disabled_overhead_pct\":{:.4},\"ab_enabled_delta_pct\":{ab_pct:.2}}}",
            w.name, w.spans_per_op, w.disabled_ns, w.enabled_ns, w.analytic_pct
        ));
    }
    json.push_str(&format!("],\"overhead_budget_pct\":2.0,\"pass\":{pass}}}"));
    std::fs::write(&out_path, &json).expect("write results");
    println!("wrote {out_path}");
    if !pass {
        std::process::exit(1);
    }
}
