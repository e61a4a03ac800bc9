//! Descriptor stores: where `.xpdl` sources live.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A transient store failure, distinct from an authoritative miss.
///
/// [`ModelStore::try_fetch`] returning `Ok(None)` means "this store does
/// not have the key" — a definitive answer that is never worth retrying.
/// A `StoreError` means "this store could not answer *right now*": the
/// repository's [`RetryPolicy`](crate::RetryPolicy) retries every class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store refused or failed to serve the request (e.g. an HTTP
    /// 5xx from a vendor site).
    Unavailable {
        /// Store-specific failure detail.
        detail: String,
    },
    /// The store did not answer within its deadline.
    Timeout {
        /// How long the caller waited before giving up.
        waited_ms: u64,
    },
    /// A local I/O fault: the backing file or directory exists but could
    /// not be read (permissions, a key that is a directory, a failing
    /// disk). Crucially distinct from an authoritative miss — an
    /// unreadable file is *not* evidence of absence, so this must never
    /// feed the negative cache.
    Io {
        /// Path and OS error detail.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Unavailable { detail } => write!(f, "store unavailable: {detail}"),
            StoreError::Timeout { waited_ms } => {
                write!(f, "store timed out after {waited_ms}ms")
            }
            StoreError::Io { detail } => write!(f, "store I/O failure: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A source of descriptor text, keyed by model name/id.
///
/// Keys are the paper's repository keys: the root element's `name`
/// (meta-model) or `id` (concrete model). File-backed stores map keys to
/// `<key>.xpdl` files.
pub trait ModelStore: Send + Sync {
    /// Fetch the descriptor source for a key, distinguishing transient
    /// failures ([`StoreError`]) from authoritative misses (`Ok(None)`).
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError>;

    /// Enumerate available keys (sorted).
    fn keys(&self) -> Vec<String>;

    /// Human-readable store description for diagnostics.
    fn describe(&self) -> String;
}

impl ModelStore for Box<dyn ModelStore> {
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError> {
        (**self).try_fetch(key)
    }

    fn keys(&self) -> Vec<String> {
        (**self).keys()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// In-memory store (model libraries shipped inside a crate, tests).
#[derive(Debug, Default, Clone)]
pub struct MemoryStore {
    entries: BTreeMap<String, String>,
}

impl MemoryStore {
    /// Empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// Insert a descriptor.
    pub fn insert(&mut self, key: impl Into<String>, source: impl Into<String>) -> &mut Self {
        self.entries.insert(key.into(), source.into());
        self
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl ModelStore for MemoryStore {
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError> {
        Ok(self.entries.get(key).cloned())
    }

    fn keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    fn describe(&self) -> String {
        format!("memory store ({} models)", self.entries.len())
    }
}

/// A directory of `<key>.xpdl` files — the paper's local model search path.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Store rooted at `dir`.
    pub fn new(dir: impl AsRef<Path>) -> DirStore {
        DirStore { dir: dir.as_ref().to_path_buf() }
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> Option<PathBuf> {
        // Reject path traversal in keys; repository keys are simple names.
        if key.contains("..") || key.contains('/') || key.contains('\\') {
            return None;
        }
        Some(self.dir.join(format!("{key}.xpdl")))
    }
}

impl ModelStore for DirStore {
    /// Fetch, reporting "file exists but cannot be read" as
    /// [`StoreError::Io`] instead of folding it into `Ok(None)`. Only a
    /// genuine `NotFound` is an authoritative miss — a transient
    /// filesystem error (permissions, I/O failure, a directory squatting
    /// on the key's path) must never poison the repository's negative
    /// cache.
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError> {
        let Some(path) = self.path_for(key) else { return Ok(None) };
        match std::fs::read_to_string(&path) {
            Ok(src) => Ok(Some(src)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io { detail: format!("{}: {e}", path.display()) }),
        }
    }

    fn keys(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut keys: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let p = e.path();
                (p.extension().and_then(|x| x.to_str()) == Some("xpdl"))
                    .then(|| p.file_stem()?.to_str().map(str::to_string))
                    .flatten()
            })
            .collect();
        keys.sort();
        keys
    }

    fn describe(&self) -> String {
        format!("directory store at {}", self.dir.display())
    }
}

/// A simulated remote (vendor) repository.
///
/// The paper envisions descriptors "provided for download e.g. at hardware
/// manufacturer web sites". We have no network in this reproduction, so a
/// remote store wraps an in-memory catalog behind a base URI and *accounts
/// every fetch* (the toolchain benchmarks use the counter to quantify what
/// the repository cache saves).
#[derive(Debug)]
pub struct RemoteStore {
    base_uri: String,
    catalog: MemoryStore,
    /// Requests that were actually served (key present).
    fetches: AtomicUsize,
    /// Every request issued, hit or miss — what a vendor's access log
    /// would show, and the number the concurrent resolver's benchmarks
    /// compare against.
    attempts: AtomicUsize,
}

impl RemoteStore {
    /// A remote store at `base_uri` (e.g. `https://vendor.example/xpdl`).
    pub fn new(base_uri: impl Into<String>) -> RemoteStore {
        RemoteStore {
            base_uri: base_uri.into(),
            catalog: MemoryStore::new(),
            fetches: AtomicUsize::new(0),
            attempts: AtomicUsize::new(0),
        }
    }

    /// Publish a descriptor on the simulated site.
    pub fn publish(&mut self, key: impl Into<String>, source: impl Into<String>) -> &mut Self {
        self.catalog.insert(key, source);
        self
    }

    /// The base URI.
    pub fn base_uri(&self) -> &str {
        &self.base_uri
    }

    /// How many fetches have been served (requests for present keys).
    pub fn fetch_count(&self) -> usize {
        self.fetches.load(Ordering::Relaxed)
    }

    /// How many requests were issued in total, hits and misses alike.
    pub fn attempt_count(&self) -> usize {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Whether this store serves a hyperlink key (`<base>/<name>.xpdl`).
    pub fn serves(&self, key: &str) -> bool {
        key.starts_with(&self.base_uri)
    }

    /// Strip the base URI and `.xpdl` suffix from a hyperlink key.
    pub fn local_key<'k>(&self, key: &'k str) -> &'k str {
        let stripped = key.strip_prefix(&self.base_uri).unwrap_or(key);
        let stripped = stripped.trim_start_matches('/');
        stripped.strip_suffix(".xpdl").unwrap_or(stripped)
    }
}

impl ModelStore for RemoteStore {
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError> {
        // Each counter is bumped by exactly one `fetch_add`, so counts
        // stay exact when the concurrent resolver hammers this store
        // from many threads. `Relaxed` suffices: the counters are
        // independent monotonic event counts that never gate other
        // memory accesses, and readers observe exact totals after the
        // resolver's scoped worker threads are joined (the join provides
        // the happens-before edge, not the counter ordering).
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let local = if self.serves(key) { self.local_key(key) } else { key };
        let result = self.catalog.entries.get(local).cloned();
        if result.is_some() {
            self.fetches.fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }

    fn keys(&self) -> Vec<String> {
        self.catalog.keys()
    }

    fn describe(&self) -> String {
        format!("remote store at {} ({} models)", self.base_uri, self.catalog.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_fetch_and_keys() {
        let mut s = MemoryStore::new();
        s.insert("b", "<cpu name=\"b\"/>").insert("a", "<cpu name=\"a\"/>");
        assert_eq!(s.len(), 2);
        assert_eq!(s.keys(), vec!["a", "b"]);
        assert!(s.try_fetch("a").unwrap().is_some());
        assert!(s.try_fetch("c").unwrap().is_none());
        assert!(!s.is_empty());
    }

    #[test]
    fn dir_store_reads_xpdl_files() {
        let dir = std::env::temp_dir().join(format!("xpdl_repo_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("Xeon1.xpdl"), "<cpu name=\"Xeon1\"/>").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let s = DirStore::new(&dir);
        assert_eq!(s.keys(), vec!["Xeon1"]);
        assert!(s.try_fetch("Xeon1").unwrap().unwrap().contains("Xeon1"));
        assert!(s.try_fetch("missing").unwrap().is_none());
        assert!(s.describe().contains("directory"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_rejects_traversal_keys() {
        let s = DirStore::new("/tmp");
        assert!(s.try_fetch("../etc/passwd").unwrap().is_none());
        assert!(s.try_fetch("a/b").unwrap().is_none());
    }

    #[test]
    fn remote_store_counts_fetches() {
        let mut r = RemoteStore::new("https://vendor.example/xpdl");
        r.publish("K20c", "<device name=\"K20c\"/>");
        assert_eq!(r.fetch_count(), 0);
        assert_eq!(r.attempt_count(), 0);
        assert!(r.try_fetch("K20c").unwrap().is_some());
        assert!(r.try_fetch("K20c").unwrap().is_some());
        assert_eq!(r.fetch_count(), 2);
        assert!(r.try_fetch("missing").unwrap().is_none());
        assert_eq!(r.fetch_count(), 2, "misses are not served");
        assert_eq!(r.attempt_count(), 3, "misses still count as attempts");
    }

    #[test]
    fn remote_store_counts_are_exact_under_concurrency() {
        let mut r = RemoteStore::new("https://vendor.example/xpdl");
        r.publish("K20c", "<device name=\"K20c\"/>");
        let threads = 8;
        let per_thread = 100;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per_thread {
                        if i % 4 == 0 {
                            assert!(r.try_fetch("missing").unwrap().is_none());
                        } else {
                            assert!(r.try_fetch("K20c").unwrap().is_some());
                        }
                    }
                });
            }
        });
        // Scoped-thread join gives the happens-before edge; the single
        // fetch_add per counter per call makes the totals exact.
        assert_eq!(r.attempt_count(), threads * per_thread);
        assert_eq!(r.fetch_count(), threads * per_thread * 3 / 4);
    }

    #[test]
    fn store_error_classes_and_display() {
        let u = StoreError::Unavailable { detail: "503 from vendor".into() };
        let t = StoreError::Timeout { waited_ms: 250 };
        let i = StoreError::Io { detail: "/models/X.xpdl: permission denied".into() };
        assert!(u.to_string().contains("503"));
        assert!(t.to_string().contains("250ms"));
        assert!(i.to_string().contains("permission denied"));
    }

    #[test]
    fn dir_store_unreadable_file_is_io_error_not_a_miss() {
        let dir = std::env::temp_dir().join(format!("xpdl_dirio_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A *directory* squatting on the key's file path: the path exists
        // but read_to_string must fail with a non-NotFound kind.
        std::fs::create_dir_all(dir.join("Squatter.xpdl")).unwrap();
        let s = DirStore::new(&dir);
        match s.try_fetch("Squatter") {
            Err(StoreError::Io { detail }) => assert!(detail.contains("Squatter"), "{detail}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        // A genuinely absent key stays an authoritative miss.
        assert!(s.try_fetch("Absent").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_io_error_does_not_poison_negative_cache() {
        use crate::Repository;
        let dir = std::env::temp_dir().join(format!("xpdl_dirneg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::create_dir_all(dir.join("Flaky.xpdl")).unwrap();
        let repo = Repository::new()
            .with_store(DirStore::new(&dir))
            .with_retry_policy(crate::RetryPolicy::none());
        // The unreadable key surfaces as Unavailable, not NotFound...
        match repo.load("Flaky").unwrap_err() {
            crate::ResolveError::Unavailable { key, .. } => assert_eq!(key, "Flaky"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // ...so absence is unproven and the negative cache stays clean.
        assert_eq!(repo.negative_cache_len(), 0);
        // Once the obstruction clears, the same key loads fine.
        std::fs::remove_dir_all(dir.join("Flaky.xpdl")).unwrap();
        std::fs::write(dir.join("Flaky.xpdl"), "<cpu name=\"Flaky\"/>").unwrap();
        assert!(repo.load("Flaky").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn boxed_store_delegates() {
        let mut s = MemoryStore::new();
        s.insert("a", "<cpu name=\"a\"/>");
        assert!(s.try_fetch("a").unwrap().is_some());
        assert!(s.try_fetch("zz").unwrap().is_none());
        // Boxed trait objects delegate, preserving overridden methods.
        let boxed: Box<dyn ModelStore> = Box::new(s);
        assert!(boxed.try_fetch("a").unwrap().is_some());
        assert_eq!(boxed.keys(), vec!["a"]);
    }

    #[test]
    fn remote_store_hyperlink_keys() {
        let mut r = RemoteStore::new("https://vendor.example/xpdl");
        r.publish("K20c", "<device name=\"K20c\"/>");
        assert!(r.serves("https://vendor.example/xpdl/K20c.xpdl"));
        assert!(!r.serves("https://other.example/K20c.xpdl"));
        assert_eq!(r.local_key("https://vendor.example/xpdl/K20c.xpdl"), "K20c");
        assert!(r.try_fetch("https://vendor.example/xpdl/K20c.xpdl").unwrap().is_some());
    }
}
