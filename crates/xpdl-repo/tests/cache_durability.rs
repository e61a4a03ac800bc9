//! Concurrent durability: many threads and multiple *processes*
//! hammering one cache directory must never tear an entry or lose an
//! acknowledged one, and every handle sees every writer's entries
//! without reopening.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use xpdl_repo::DiskCache;

/// Environment gate for the child-process re-entry test. When set, the
/// `child_writer` "test" below becomes a real cache writer; otherwise it
/// is a no-op so a plain `cargo test` never runs it by accident.
const CHILD_ENV: &str = "XPDL_CACHE_CHILD_DIR";
const CHILD_ID_ENV: &str = "XPDL_CACHE_CHILD_ID";
const KEYS_PER_WRITER: usize = 12;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpdl_dur_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn doc(writer: &str, i: usize) -> (String, String) {
    (
        format!("Model_{writer}_{i}"),
        format!("<cpu name=\"Model_{writer}_{i}\" frequency=\"{}\" frequency_unit=\"MHz\"/>", i + 1),
    )
}

/// Write this writer's key set into the shared cache, interleaved with
/// reads of whatever the other writers have landed so far.
fn hammer(cache: &DiskCache, writer: &str) {
    for i in 0..KEYS_PER_WRITER {
        let (key, text) = doc(writer, i);
        cache.put(&key, &text, writer, None).expect("put must succeed");
        // Immediately read back through the checksum path.
        let (got, entry) = cache.get(&key, Some(writer)).expect("own write visible");
        assert_eq!(got, text);
        assert_eq!(entry.source, writer);
        // Touch foreign keys too: readers are lock-free and must never
        // observe a torn entry, only hit-or-miss.
        if let Some((text, _)) = cache.get(&format!("Model_t0_{i}"), None) {
            assert!(text.starts_with("<cpu name=\"Model_t0_"), "torn read: {text:?}");
        }
    }
}

#[test]
fn eight_threads_hammering_one_cache_lose_nothing() {
    let dir = scratch("threads");
    let cache = Arc::new(DiskCache::open(&dir).expect("open"));
    std::thread::scope(|s| {
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            s.spawn(move || hammer(&cache, &format!("t{t}")));
        }
    });
    // Every acknowledged write survives, in-process...
    for t in 0..8 {
        for i in 0..KEYS_PER_WRITER {
            let (key, text) = doc(&format!("t{t}"), i);
            let (got, _) = cache.get(&key, None).unwrap_or_else(|| panic!("lost {key}"));
            assert_eq!(got, text);
        }
    }
    assert_eq!(cache.len(), 8 * KEYS_PER_WRITER);
    drop(cache);
    // ...and across a reopen, which re-verifies every checksum. A torn
    // entry would surface here as an R305 diagnostic.
    let reopened = DiskCache::open(&dir).expect("reopen");
    assert_eq!(reopened.len(), 8 * KEYS_PER_WRITER, "no lost entries after reopen");
    assert_eq!(reopened.quarantined_session(), 0, "no torn entries");
    let diags = reopened.take_diagnostics();
    assert!(diags.is_empty(), "clean reopen, got {diags:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// Not a test of anything by itself: the child-process entry point. The
/// parent test re-invokes this binary with `--exact child_writer` and the
/// gate env vars set; without them this is an instant no-op pass.
#[test]
fn child_writer() {
    let Ok(dir) = std::env::var(CHILD_ENV) else { return };
    let id = std::env::var(CHILD_ID_ENV).expect("child id");
    let cache = DiskCache::open(&dir).expect("child open");
    hammer(&cache, &format!("p{id}"));
}

#[test]
fn two_child_processes_and_threads_share_one_cache_dir() {
    let dir = scratch("procs");
    let cache = Arc::new(DiskCache::open(&dir).expect("open"));
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    for id in 0..2 {
        children.push(
            Command::new(&exe)
                .args(["child_writer", "--exact", "--test-threads=1"])
                .env(CHILD_ENV, &dir)
                .env(CHILD_ID_ENV, id.to_string())
                .spawn()
                .expect("spawn child"),
        );
    }
    // The parent hammers concurrently from threads while the children run.
    std::thread::scope(|s| {
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            s.spawn(move || hammer(&cache, &format!("t{t}")));
        }
    });
    for mut child in children {
        let status = child.wait().expect("child exit");
        assert!(status.success(), "child writer failed: {status}");
    }
    // The parent's open handle sees every child's entry at once.
    let writers = ["t0", "t1", "t2", "t3", "p0", "p1"];
    let check = |cache: &DiskCache| {
        for writer in writers {
            for i in 0..KEYS_PER_WRITER {
                let (key, text) = doc(writer, i);
                let (got, _) = cache.get(&key, None).unwrap_or_else(|| panic!("lost {key}"));
                assert_eq!(got, text, "entry {key} torn");
            }
        }
        assert_eq!(cache.len(), writers.len() * KEYS_PER_WRITER);
        assert_eq!(cache.quarantined_session(), 0);
    };
    check(&cache);
    drop(cache);
    check(&DiskCache::open(&dir).expect("reopen"));
    let temp_files = fs::read_dir(dir.join("entries"))
        .expect("list entries")
        .filter(|e| e.as_ref().expect("entry").file_name().to_string_lossy().starts_with(".tmp."))
        .count();
    assert_eq!(temp_files, 0, "no writer left a temp file behind");
    let _ = fs::remove_dir_all(&dir);
}
