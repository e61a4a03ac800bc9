//! Allocation counts per build stage and per request stage, pinned in
//! `tests/golden/allocs.txt`.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread while one stage runs: `XpdlDocument::parse_named` over
//! the resolved documents' texts (the parsing share of the next stage),
//! `resolve_recursive` over a `MemoryStore`, `elaborate`,
//! `RuntimeModel::from_element`, `ModelIndex::compile` (the query index a
//! model builds on its first query), `format::encode` and `format::decode`
//! (which builds the index too). On the served model, each method of the
//! benchmark's query mix is counted through the daemon's request path:
//! decoding the request (`parse_request`, `codec::decode_request`),
//! `Engine::handle`, and encoding the reply (`Response::to_json`,
//! `codec::encode_response`).
//! The inputs are fixed: the seed-42 fleet in the shape of CI's build
//! pin, the paper's `liu_gpu_server`, and one request per method with
//! fixed arguments. Each stage runs once untimed before it is counted,
//! so lazy set-up does not enter the count; on the binary wire, that
//! first run also interns the strings, so the counted one reads and
//! writes string references, as a connection's later requests do.
//!
//! The counter is per thread, so tests running in parallel do not add to
//! each other's counts. Counts on fixed inputs repeat exactly; they move
//! only when the code (or the toolchain, which the file's header names)
//! changes. A rise fails the test. A fall fails it too, and the change
//! that made it updates the golden file. A mismatch writes the rendered
//! text to `allocs.actual` under `CARGO_TARGET_TMPDIR` and names the
//! first differing stage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use xpdl::core::XpdlDocument;
use xpdl::elab::{elaborate, Elaborated};
use xpdl::fleetgen::FleetShape;
use xpdl::repo::{MemoryStore, ModelStore, Repository};
use xpdl::runtime::{format, ModelIndex, RuntimeModel};
use xpdl::serve::codec::{self, StrDecoder, StrEncoder};
use xpdl::serve::{parse_request, Engine, EngineOptions, Method, ModelSource, Request};

/// The fleet shape CI's `xpdlc build` sha256 pin uses.
const FLEET_SHAPE: &str = "nodes=32,depth=8,chain=12,width=10,unknown=0.3";

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// thread-local `Cell` with a const initialiser and no destructor, so
// bumping it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocations while `f` runs, with `f`'s result.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Run `f` once to warm it up, then count a second run.
fn warm_count<T>(mut f: impl FnMut() -> T) -> (T, u64) {
    drop(f());
    count(f)
}

/// Count each build stage for `key` resolved from `store`, append one
/// line per stage to `text`, and return the runtime model.
fn render_stages(text: &mut String, title: &str, store: &MemoryStore, key: &str) -> RuntimeModel {
    // A fresh repository per run: its parse cache would turn a second
    // resolution into cache hits. The warm-up run's set feeds the later
    // stages.
    let fresh = || Repository::new().with_store(store.clone());
    let set = fresh().resolve_recursive(key).expect("the input resolves");
    let texts: Vec<(&str, String)> = set
        .documents()
        .map(|(k, _)| (k, store.try_fetch(k).ok().flatten().expect("a resolved key is stored")))
        .collect();
    let (_, parse_allocs) = warm_count(|| {
        for (k, text) in &texts {
            drop(XpdlDocument::parse_named(text, k).expect("a resolved document parses"));
        }
    });
    let repo = fresh();
    let (_, resolve_allocs) = count(|| repo.resolve_recursive(key).expect("the input resolves"));
    let (model, elab_allocs) =
        warm_count(|| -> Elaborated { elaborate(&set).expect("the input elaborates") });
    assert!(model.is_clean(), "{title}: {:?}", model.diagnostics);
    let (rt, from_element_allocs) = warm_count(|| RuntimeModel::from_element(&model.root));
    let (_, index_allocs) = warm_count(|| ModelIndex::compile(&rt));
    let (bytes, encode_allocs) = warm_count(|| format::encode(&rt));
    let (back, decode_allocs) =
        warm_count(|| format::decode(&bytes).expect("the encoding decodes"));
    assert_eq!(back.len(), rt.len());
    writeln!(
        text,
        "{title}: {} documents, {} elements, {} runtime bytes",
        set.documents().count(),
        model.root.subtree_size(),
        bytes.len()
    )
    .expect("write to String");
    for (stage, n) in [
        ("parse", parse_allocs),
        ("resolve_recursive", resolve_allocs),
        ("elaborate", elab_allocs),
        ("from_element", from_element_allocs),
        ("index", index_allocs),
        ("encode", encode_allocs),
        ("decode", decode_allocs),
    ] {
        writeln!(text, "  {stage:<18} {n:>7}").expect("write to String");
    }
    rt
}

/// One request per method of the benchmark's query mix, with fixed
/// arguments on `liu_gpu_server`.
fn query_mix() -> Vec<Method> {
    let link = || "connection1".to_string();
    vec![
        Method::NumCores,
        Method::NumCudaDevices,
        Method::TotalStaticPower,
        Method::ModelInfo,
        Method::Find { ident: "gpu1".into() },
        Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
        Method::GetNumber { ident: link(), attr: "max_bandwidth".into() },
        Method::HasInstalled { prefix: "cuda".into() },
        Method::EstimateTransfer { link: link(), bytes: 1 << 20 },
        Method::EstimateAcceleratorUse {
            link: link(),
            upload_bytes: 1 << 20,
            download_bytes: 1 << 10,
            compute_s: 0.5,
            dynamic_power_w: 25.0,
        },
        Method::EstimateStaticEnergy { duration_s: 2.5 },
        Method::ElementsOfKind { kind: "interconnect".into() },
    ]
}

/// Count each request stage of every method in [`query_mix`] served
/// from `rt`, in both encodings, and append one line per stage to `text`.
fn render_requests(text: &mut String, rt: RuntimeModel) {
    let engine = Engine::new(ModelSource::Fixed(Box::new(rt)), EngineOptions::default())
        .expect("the engine boots");
    writeln!(text, "liu_gpu_server requests: decode, handle and encode per method")
        .expect("write to String");
    for method in query_mix() {
        let req = Request::new(7, method);
        let line = req.to_json();
        let (_, decode_json) = warm_count(|| parse_request(&line).expect("the request parses"));
        let mut client = StrEncoder::new();
        let (first, again) =
            (codec::encode_request(&req, &mut client), codec::encode_request(&req, &mut client));
        let mut strings = StrDecoder::new();
        codec::decode_request(&first[4..], &mut strings).expect("the request decodes");
        let (_, decode_binary) = warm_count(|| {
            codec::decode_request(&again[4..], &mut strings).expect("the request decodes")
        });
        let (resp, handle) = warm_count(|| engine.handle(&req));
        assert!(resp.result.is_ok(), "{resp:?}");
        let (_, encode_json) = warm_count(|| resp.to_json());
        let mut server = StrEncoder::new();
        let (_, encode_binary) = warm_count(|| codec::encode_response(&resp, &mut server));
        for (stage, n) in [
            ("decode_json", decode_json),
            ("decode_binary", decode_binary),
            ("handle", handle),
            ("encode_json", encode_json),
            ("encode_binary", encode_binary),
        ] {
            let row = format!("{}.{stage}", req.method.name());
            writeln!(text, "  {row:<38} {n:>7}").expect("write to String");
        }
    }
}

/// The compiler's version line, for the golden file's header.
fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "rustc (unknown)".into())
}

/// The rendered counts, without the header line.
fn render() -> String {
    let mut text = String::new();
    let shape = FleetShape::parse(FLEET_SHAPE).expect("the pinned shape parses");
    let fleet = xpdl::fleetgen::generate(42, &shape);
    render_stages(
        &mut text,
        &format!("fleet seed=42 {FLEET_SHAPE}"),
        &fleet.store(),
        fleet.system_key(),
    );
    let mut library = MemoryStore::new();
    for (key, src) in xpdl::models::library::LIBRARY {
        library.insert(*key, *src);
    }
    let rt = render_stages(&mut text, "liu_gpu_server", &library, "liu_gpu_server");
    render_requests(&mut text, rt);
    text
}

/// The stage a line of the rendered text belongs to (`title / stage`).
fn stage_of(lines: &[&str], at: usize) -> String {
    let title = lines[..=at]
        .iter()
        .rev()
        .find(|l| !l.starts_with(' '))
        .copied()
        .unwrap_or("");
    let title = title.split(':').next().unwrap_or(title);
    match lines[at].split_whitespace().next() {
        Some(stage) if lines[at].starts_with(' ') => format!("{title} / {stage}"),
        _ => title.to_string(),
    }
}

fn count_on(line: &str) -> Option<u64> {
    line.split_whitespace().nth(1).and_then(|n| n.parse().ok())
}

#[test]
fn build_stage_allocations_match_the_golden_file() {
    let version = rustc_version();
    let body = render();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/allocs.txt");
    let actual_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/allocs.actual");
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    let (golden_header, golden_body) = golden.split_once('\n').unwrap_or(("", ""));
    if body == golden_body {
        return;
    }
    let header =
        format!("# allocations per build and request stage (warm, one run each); {version}");
    std::fs::write(actual_path, format!("{header}\n{body}")).expect("write the rendered counts");
    let (actual_lines, golden_lines): (Vec<&str>, Vec<&str>) =
        (body.lines().collect(), golden_body.lines().collect());
    let diff = match (0..actual_lines.len().min(golden_lines.len()))
        .find(|&i| actual_lines[i] != golden_lines[i])
    {
        Some(i) => {
            let direction = match (count_on(golden_lines[i]), count_on(actual_lines[i])) {
                (Some(g), Some(a)) if a > g => format!("rose from {g} to {a}"),
                (Some(g), Some(a)) => format!("fell from {g} to {a}"),
                _ => "changed".to_string(),
            };
            format!(
                "{} {direction}\n  golden: {}\n  actual: {}",
                stage_of(&golden_lines, i),
                golden_lines[i],
                actual_lines[i]
            )
        }
        None => format!(
            "line counts differ: golden {}, actual {}",
            golden_lines.len(),
            actual_lines.len()
        ),
    };
    panic!(
        "allocation counts differ from {golden_path} (rendered text in {actual_path})\n{diff}\n\
         golden header: {golden_header}\nthis toolchain: {version}"
    );
}
