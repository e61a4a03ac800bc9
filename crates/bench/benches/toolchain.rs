//! TC1 — toolchain stage costs across model sizes, plus the repository
//! cache ablation.

use bench::synth::synthetic_repository;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("parse_descriptor");
    for (label, src) in [
        ("xeon", xpdl_models::library::XEON_E5_2630L),
        ("kepler", xpdl_models::library::NVIDIA_KEPLER),
        ("cluster", xpdl_models::library::XSCLUSTER),
    ] {
        g.throughput(criterion::Throughput::Bytes(src.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(label), src, |b, src| {
            b.iter(|| xpdl_core::XpdlDocument::parse_str(black_box(src)).unwrap())
        });
    }
    g.finish();
}

fn bench_compose(c: &mut Criterion) {
    let mut g = c.benchmark_group("compose_synthetic");
    g.sample_size(20);
    for (nodes, cores) in [(1usize, 2usize), (4, 8), (16, 16)] {
        let repo = synthetic_repository(nodes, cores);
        let set = repo.resolve_recursive("synth").unwrap();
        let elements = xpdl_elab::elaborate(&set).unwrap().root.subtree_size();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{elements}el")),
            &set,
            |b, set| b.iter(|| xpdl_elab::elaborate(black_box(set)).unwrap()),
        );
    }
    g.finish();
}

fn bench_repository_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("repository_cache");
    g.bench_function("resolve_cached", |b| {
        let repo = xpdl_models::paper_repository();
        repo.resolve_recursive("liu_gpu_server").unwrap(); // warm
        b.iter(|| repo.resolve_recursive(black_box("liu_gpu_server")).unwrap())
    });
    g.bench_function("resolve_uncached", |b| {
        let mut store = xpdl_repo::MemoryStore::new();
        for (k, v) in xpdl_models::library::LIBRARY {
            store.insert(*k, *v);
        }
        let repo = xpdl_repo::Repository::new().with_store(store).without_cache();
        b.iter(|| repo.resolve_recursive(black_box("liu_gpu_server")).unwrap())
    });
    g.finish();
}

fn bench_flaky_remote(c: &mut Criterion) {
    // TC5 — resolution against a remote that fails 30% of fetches. The
    // retry delays are zeroed so the numbers measure the retry/negative-
    // cache machinery itself, not sleeps. Each iteration starts from a
    // fresh repository + injector so the per-key attempt counters (and
    // with them the deterministic fault script) are identical every time.
    let policy = xpdl_repo::RetryPolicy {
        base_delay: std::time::Duration::ZERO,
        max_delay: std::time::Duration::ZERO,
        ..xpdl_repo::RetryPolicy::default()
    };
    let flaky_repo = || {
        let mut store = xpdl_repo::MemoryStore::new();
        for (k, v) in xpdl_models::library::LIBRARY {
            store.insert(*k, *v);
        }
        let faulty = xpdl_repo::FaultInjectingStore::new(
            store,
            xpdl_repo::FaultConfig::failures(0.3, 42),
        );
        xpdl_repo::Repository::new().with_store(faulty).with_retry_policy(policy.clone())
    };
    let mut g = c.benchmark_group("flaky_remote");
    g.sample_size(20);
    g.bench_function("resolve_30pct_faults", |b| {
        b.iter_batched(
            flaky_repo,
            |repo| repo.resolve_recursive(black_box("XScluster")).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("resolve_clean_baseline", |b| {
        b.iter_batched(
            || {
                let mut store = xpdl_repo::MemoryStore::new();
                for (k, v) in xpdl_models::library::LIBRARY {
                    store.insert(*k, *v);
                }
                xpdl_repo::Repository::new().with_store(store)
            },
            |repo| repo.resolve_recursive(black_box("XScluster")).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("batch_jobs4_30pct_faults", |b| {
        let keys = ["liu_gpu_server", "myriad_server", "XScluster"];
        let opts = xpdl_repo::ResolveOptions::with_jobs(4);
        // Concurrent roots interleave the injector's per-key attempt
        // counters, so the fault script here is scheduling-dependent; a
        // wide attempt budget makes exhaustion vanishingly unlikely.
        let wide = xpdl_repo::RetryPolicy { max_attempts: 16, ..policy.clone() };
        b.iter_batched(
            move || flaky_repo().with_retry_policy(wide.clone()),
            |repo| {
                for r in repo.resolve_batch(black_box(&keys), &opts) {
                    r.unwrap();
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_query_api(c: &mut Criterion) {
    let model = xpdl_models::loader::elaborate_system("liu_gpu_server").unwrap();
    let rt = xpdl_runtime::RuntimeModel::from_element(&model.root);
    let mut g = c.benchmark_group("query_api");
    g.bench_function("find_by_ident", |b| {
        b.iter(|| rt.find(black_box("gpu1")).unwrap())
    });
    g.bench_function("num_cores", |b| b.iter(|| black_box(&rt).num_cores()));
    g.bench_function("attr_getter", |b| {
        let node = rt.find("gpu1").unwrap();
        b.iter(|| node.attr(black_box("compute_capability")))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_compose,
    bench_repository_cache,
    bench_flaky_remote,
    bench_query_api
);
criterion_main!(benches);
