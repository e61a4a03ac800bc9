//! The distributed model repository (paper §III): local search path plus
//! simulated hardware-vendor web sites, parallel preloading, cache
//! accounting, and a vendor-update diff.
//!
//! Run with: `cargo run --example distributed_repository`

use xpdl::core::{diff_models, XpdlDocument};
use xpdl::models::{vendor_split_repository, LIBRARY_KEYS};
use xpdl::repo::{DirStore, MemoryStore, Repository};

fn main() {
    // 1. Descriptors split across simulated vendor sites + a local store.
    let repo = vendor_split_repository();
    println!("search path:");
    for store in repo.search_path() {
        println!("  - {store}");
    }

    // 2. Parallel preload of the working set (hides vendor-site latency).
    let keys: Vec<&str> = LIBRARY_KEYS.to_vec();
    let loaded = repo.preload_parallel(&keys);
    println!("\npreloaded {loaded}/{} keys in parallel; cache now holds {}", keys.len(), repo.cache_len());

    // 3. Resolution is transparent across stores; repeated resolutions are
    //    pure cache hits.
    let set = repo.resolve_recursive("liu_gpu_server").expect("resolve");
    println!("\nliu_gpu_server closure: {} documents", set.len());
    for (key, doc) in set.documents() {
        println!("  {key:<22} ({} elements) from {}", doc.root().subtree_size(), doc.origin);
    }
    let model = xpdl::elab::elaborate(&set).expect("elaborate");
    assert!(model.is_clean());
    println!("composed cleanly: {} cores", model.count_kind(xpdl::core::ElementKind::Core));

    // 4. The local model search path: export to a directory of .xpdl files
    //    and mount it *in front* of the vendor sites — local overrides win.
    let dir = std::env::temp_dir().join(format!("xpdl_local_models_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("Nvidia_K20c.xpdl"),
        r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler" compute_capability="3.5" min_driver="331.62">
  <param name="num_SM" value="13"/>
  <param name="coresperSM" value="192"/>
  <param name="cfrq" frequency="706" unit="MHz"/>
  <param name="gmsz" size="4.8" unit="GB"/>
</device>"#,
    )
    .unwrap();
    let mut local_first = Repository::new().with_store(DirStore::new(&dir));
    let mut lib = MemoryStore::new();
    for (k, v) in xpdl::models::library::LIBRARY {
        lib.insert(*k, *v);
    }
    local_first.push_store(Box::new(lib));
    let patched = local_first.load("Nvidia_K20c").expect("local override");
    let upstream = repo.load("Nvidia_K20c").expect("vendor version");

    // 5. What did the local patch change? (vendor-update diff)
    println!("\nlocal override vs vendor descriptor:");
    for entry in diff_models(upstream.root(), patched.root()) {
        println!("  {entry}");
    }

    // 6. Hyperlink-style keys resolve too (the paper's "provided for
    //    download e.g. at hardware manufacturer web sites").
    let mut nvidia = xpdl::repo::RemoteStore::new("https://nvidia.example/xpdl");
    nvidia.publish("Nvidia_K20c", upstream.to_xml_string());
    let by_url = nvidia_fetch(&nvidia, "https://nvidia.example/xpdl/Nvidia_K20c.xpdl");
    println!("\nfetched by hyperlink: {} ({} fetches served)", by_url, nvidia.fetch_count());

    std::fs::remove_dir_all(&dir).ok();
}

fn nvidia_fetch(store: &xpdl::repo::RemoteStore, url: &str) -> String {
    use xpdl::repo::ModelStore;
    let src = store.try_fetch(url).expect("a simulated site always answers").expect("hyperlink fetch");
    XpdlDocument::parse_str(&src).expect("parses").key().unwrap_or("?").to_string()
}
