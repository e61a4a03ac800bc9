//! Crash consistency of the persistent model cache, end to end.
//!
//! Four claims, each load-bearing for warm starts (ROADMAP: serving at
//! scale) and offline operation (paper §III: distributed repositories):
//!
//! 1. A crash that tears entry files mid-write can never make the cache
//!    serve bytes that fail their header checksum — torn entries are
//!    quarantined (with an `R305` diagnostic) and self-heal on the next
//!    resolve. Verified across 100 seeded crash patterns.
//! 2. The same holds under randomized write/crash interleavings with
//!    torn *upstream* payloads in the mix (proptest).
//! 3. A warmed repository resolves the entire shipped model library with
//!    the backing store hard-down (`StaleOk`) or absent (`OfflineOnly`),
//!    and the stale serves are visible in `RepoMetrics`.
//! 4. The well-formedness check a payload must pass before it is
//!    persisted builds no tree, yet accepts exactly what the DOM parser
//!    accepts: torn, corrupted and mutated descriptors (differential).

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xpdl::models::library::LIBRARY;
use xpdl::repo::diskcache::{is_well_formed, DIAG_QUARANTINED};
use xpdl::repo::{
    CachingStore, DiskCache, FaultConfig, FaultInjectingStore, Freshness, MemoryStore,
    ModelStore, Repository, CORRUPTED_PAYLOAD,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpdl_crash_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn library_store() -> MemoryStore {
    let mut m = MemoryStore::new();
    for (key, src) in LIBRARY {
        m.insert(*key, *src);
    }
    m
}

/// Acceptance: 100 seeded torn-write crashes. After each, the reopened
/// cache serves zero checksum-invalid entries, quarantines the torn
/// ones with an `R3xx` diagnostic, and the next resolve self-heals.
#[test]
fn torn_write_crash_recovery_over_100_seeds() {
    let dir = scratch("seeds");
    for seed in 0..100u64 {
        let _ = fs::remove_dir_all(&dir);
        // Warm a rotating 6-key slice of the library.
        let keys: Vec<&str> = (0..6)
            .map(|i| LIBRARY[((seed as usize) * 7 + i * 3) % LIBRARY.len()].0)
            .collect();
        let cache = Arc::new(DiskCache::open(&dir).expect("open"));
        let warm = CachingStore::new(library_store(), Arc::clone(&cache), Freshness::Strict)
            .with_source_id("library");
        for key in &keys {
            warm.try_fetch(key).expect("warm fetch").expect("library has key");
        }
        // Crash: truncate a seed-dependent subset of entry files behind
        // the cache's back, exactly as a power cut would.
        let torn = cache.simulate_crash_truncation(seed, 0.5);
        drop(warm);
        drop(cache);
        // Reopen = recovery. Every torn entry must be quarantined...
        let cache = Arc::new(DiskCache::open(&dir).expect("reopen"));
        assert_eq!(cache.quarantined_session() as usize, torn.len(), "seed {seed}");
        for key in &torn {
            assert!(cache.get(key, None).is_none(), "seed {seed}: torn {key} served");
        }
        let diags = cache.take_diagnostics();
        assert_eq!(
            diags.iter().filter(|d| d.code == DIAG_QUARANTINED).count(),
            torn.len(),
            "seed {seed}: {diags:?}"
        );
        // ...every survivor must serve exactly the bytes it was fed...
        for key in keys.iter().filter(|k| !torn.contains(&k.to_string())) {
            let (text, _) = cache
                .get(key, Some("library"))
                .unwrap_or_else(|| panic!("seed {seed}: lost healthy entry {key}"));
            let (_, original) = LIBRARY.iter().find(|(k, _)| k == key).unwrap();
            assert_eq!(&text, original, "seed {seed}: {key} bytes drifted");
        }
        // ...and a resolve through the store self-heals the torn keys.
        let healed = CachingStore::new(library_store(), Arc::clone(&cache), Freshness::Strict)
            .with_source_id("library");
        for key in &keys {
            healed.try_fetch(key).expect("heal fetch").expect("healed");
            assert!(cache.get(key, Some("library")).is_some(), "seed {seed}: {key} not healed");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized interleavings: fetch through a 30%-torn upstream,
    /// crash (truncating files at a random rate), reopen — surviving
    /// entries always checksum clean, the rest are quarantined, and a
    /// torn upstream payload is never persisted as a "good" entry.
    #[test]
    fn crash_consistency_under_torn_writes(
        seed in 0u64..10_000,
        crash_rate in 0.0f64..1.0,
        rounds in 1usize..4,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "xpdl_crash_prop_{}_{seed}_{rounds}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut expected: Vec<&str> = Vec::new();
        for round in 0..rounds {
            let cache = Arc::new(DiskCache::open(&dir).expect("open"));
            // 30% torn-write fault mode on the upstream store: roughly a
            // third of the fetched payloads arrive truncated.
            let store = CachingStore::new(
                FaultInjectingStore::new(
                    library_store(),
                    FaultConfig::torn_writes(0.3, seed.wrapping_add(round as u64)),
                ),
                Arc::clone(&cache),
                Freshness::Strict,
            )
            .with_source_id("library");
            for i in 0..8 {
                let (key, text) = LIBRARY[(seed as usize + round * 11 + i * 5) % LIBRARY.len()];
                if let Ok(Some(payload)) = store.try_fetch(key) {
                    if payload == text {
                        if !expected.contains(&key) {
                            expected.push(key);
                        }
                    } else {
                        // Torn upstream payload: must never enter the cache.
                        prop_assert!(
                            cache.get(key, None).is_none_or(|(t, _)| t == text),
                            "torn payload persisted for {key}"
                        );
                    }
                }
            }
            let torn = cache.simulate_crash_truncation(seed ^ ((round as u64) << 32), crash_rate);
            drop(store);
            drop(cache);
            // Recovery: reopen and audit every expected key.
            let cache = DiskCache::open(&dir).expect("reopen");
            for key in &expected {
                match cache.get(key, Some("library")) {
                    Some((text, entry)) => {
                        let (_, original) = LIBRARY.iter().find(|(k, _)| k == key).unwrap();
                        prop_assert_eq!(&text, *original, "surviving entry corrupt");
                        prop_assert_eq!(
                            xpdl::repo::hash::fnv1a64(text.as_bytes()),
                            entry.checksum
                        );
                    }
                    None => prop_assert!(
                        torn.contains(&key.to_string()),
                        "{key} vanished without being torn"
                    ),
                }
            }
            expected.retain(|k| !torn.contains(&k.to_string()));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Acceptance: with the backing store hard-down and `StaleOk`, a warmed
/// repository resolves the full model library offline, and the stale
/// serves show up in the merged `RepoMetrics`.
#[test]
fn warmed_repository_resolves_full_library_with_store_down() {
    let dir = scratch("offline");
    // Phase 1: warm start — resolve everything through a healthy chain.
    let cache = Arc::new(DiskCache::open(&dir).expect("open"));
    let warm_repo = Repository::new().with_store(
        CachingStore::new(library_store(), Arc::clone(&cache), Freshness::Strict)
            .with_source_id("library"),
    );
    for (key, _) in LIBRARY {
        warm_repo.resolve_recursive(key).expect("warm resolve");
    }
    assert_eq!(cache.len(), LIBRARY.len(), "every descriptor persisted");
    drop(warm_repo);
    drop(cache);

    // Phase 2: new process, backing store fails every single attempt.
    let cache = Arc::new(DiskCache::open(&dir).expect("reopen"));
    let dead = FaultInjectingStore::new(library_store(), FaultConfig::failures(1.0, 7));
    let mut repo = Repository::new().with_store(
        CachingStore::new(
            dead,
            Arc::clone(&cache),
            Freshness::StaleOk { max_age: Duration::from_secs(3600) },
        )
        .with_source_id("library"),
    );
    repo.register_disk_cache(Arc::clone(&cache));
    for (key, _) in LIBRARY {
        let set = repo
            .resolve_recursive(key)
            .unwrap_or_else(|e| panic!("offline resolve of {key} failed: {e}"));
        assert!(set.get(key).is_some());
    }
    let metrics = repo.metrics();
    assert_eq!(
        metrics.disk_stale_served,
        LIBRARY.len() as u64,
        "each descriptor served stale exactly once: {metrics}"
    );
    assert_eq!(metrics.quarantined, 0);
    assert!(metrics.to_string().contains(&format!("stale_served={}", LIBRARY.len())));
    // The cache counts the stale serves of this run itself.
    assert_eq!(cache.stale_served_session(), LIBRARY.len() as u64);
    drop(repo);
    drop(cache);

    // Phase 3: fully offline (no backing store at all).
    let cache = Arc::new(DiskCache::open(&dir).expect("reopen offline"));
    let mut repo = Repository::new().with_store(
        CachingStore::new(MemoryStore::new(), Arc::clone(&cache), Freshness::OfflineOnly)
            .with_source_id("library"),
    );
    repo.register_disk_cache(Arc::clone(&cache));
    for (key, _) in LIBRARY {
        repo.resolve_recursive(key)
            .unwrap_or_else(|e| panic!("fully-offline resolve of {key} failed: {e}"));
    }
    assert_eq!(repo.metrics().disk_hits, LIBRARY.len() as u64);
    let _ = fs::remove_dir_all(&dir);
}

/// The payload check and the DOM parser must give one answer on `text`.
fn assert_checks_agree(text: &str) -> Result<(), String> {
    let dom = xpdl::xml::parse(text).is_ok();
    match is_well_formed(text) == dom {
        true => Ok(()),
        false => Err(format!("payload check says {}, DOM parser {dom}: {text:?}", !dom)),
    }
}

/// Acceptance: the payload check agrees with the DOM parser on every cut
/// of every library descriptor, on torn upstream payloads over 200
/// seeds, and on the injected corruption.
#[test]
fn payload_check_agrees_with_the_dom_parser() {
    let mut accepted = 0;
    for (_, src) in LIBRARY {
        for cut in (0..=src.len()).filter(|&i| src.is_char_boundary(i)) {
            assert_checks_agree(&src[..cut]).unwrap();
        }
        accepted += 1;
    }
    for seed in 0..200 {
        let torn = FaultInjectingStore::new(library_store(), FaultConfig::torn_writes(1.0, seed));
        for (key, _) in LIBRARY {
            let payload = torn.try_fetch(key).expect("torn, not failed").expect("library key");
            assert_checks_agree(&payload).unwrap_or_else(|e| panic!("seed {seed}, {key}: {e}"));
        }
    }
    assert_checks_agree(CORRUPTED_PAYLOAD).unwrap();
    assert!(!is_well_formed(CORRUPTED_PAYLOAD));
    assert_eq!(accepted, LIBRARY.iter().filter(|(_, src)| is_well_formed(src)).count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Byte-flipped and spliced library descriptors: the payload check
    /// and the DOM parser accept and reject the same ones.
    #[test]
    fn payload_check_agrees_with_the_dom_parser_on_mutations(
        doc in 0..LIBRARY.len(),
        donor in 0..LIBRARY.len(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..4),
        splice in (any::<usize>(), any::<usize>(), 0usize..48, 0usize..48),
    ) {
        let mut bytes = LIBRARY[doc].1.as_bytes().to_vec();
        for (at, bit) in flips {
            let i = at % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        let (at, from, cut, take) = splice;
        let donor = LIBRARY[donor].1.as_bytes();
        let at = at % (bytes.len() + 1);
        let from = from % (donor.len() + 1);
        let removed = cut.min(bytes.len() - at);
        let inserted = &donor[from..(from + take).min(donor.len())];
        bytes.splice(at..at + removed, inserted.iter().copied());
        assert_checks_agree(&String::from_utf8_lossy(&bytes))?;
    }
}
