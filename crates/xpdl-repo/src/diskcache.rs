//! Crash-safe persistent model cache.
//!
//! The paper's repository is explicitly distributed — descriptors live in
//! local search paths *and* at vendor web sites — so losing a process
//! means losing every remote descriptor we already paid to fetch. This
//! module adds the durable layer: [`DiskCache`] is an on-disk,
//! integrity-checked replica of fetched descriptor text, and
//! [`CachingStore`] wraps any [`ModelStore`] with write-through caching
//! plus an explicit degradation policy ([`Freshness`]).
//!
//! # Durability mechanics
//!
//! * **Atomic writes.** Every entry and every manifest revision is
//!   written to a temp file, fsync'd, and atomically renamed into place
//!   (then the directory is fsync'd). A crash at any instant leaves
//!   either the old or the new content — never a torn file that the
//!   cache itself wrote.
//! * **Checksums.** `manifest.json` (versioned) records an FNV-1a
//!   content checksum, byte length, source-store identity, fetch
//!   timestamp, and optional TTL per entry. Checksums are verified on
//!   open *and* on every read.
//! * **Lockfile.** Writers across *processes* serialize on a
//!   create-exclusive `.lock` file carrying the owner PID; a lock whose
//!   owner is dead is taken over (emitting an `R307` diagnostic).
//!   Readers never take the lock.
//! * **Quarantine.** An entry whose bytes do not match its manifest
//!   checksum (a torn write that survived a power cut, bit rot, a
//!   concurrent partial copy) is *moved* to `quarantine/` — preserved
//!   for post-mortem, never served — and reported as an `R305`
//!   diagnostic rather than an error. The next fetch self-heals it from
//!   the backing store. A corrupt manifest itself is quarantined
//!   (`R306`) and rebuilt from whichever entry files still parse.
//!
//! # Degradation policy
//!
//! [`Freshness`] makes the offline story explicit:
//!
//! * [`Freshness::Strict`] — serve cached entries while they are fresh
//!   (within TTL; no TTL = fresh forever), otherwise require the backing
//!   store. Upstream failures propagate. This is the warm-start mode.
//! * [`Freshness::StaleOk`] — always revalidate against the backing
//!   store, but when it is unavailable serve the last good copy up to
//!   `max_age` old, counting each such serve (`stale_served`). This is
//!   the availability mode.
//! * [`Freshness::OfflineOnly`] — never touch the backing store. A
//!   cache miss is reported as [`StoreError::Unavailable`], *not* as an
//!   authoritative miss, so the repository's negative cache is never
//!   poisoned by offline operation.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use xpdl_repo::{CachingStore, DiskCache, Freshness, MemoryStore, ModelStore};
//!
//! let dir = std::env::temp_dir().join(format!("xpdl_doc_cache_{}", std::process::id()));
//! let cache = Arc::new(DiskCache::open(&dir).unwrap());
//! let mut store = MemoryStore::new();
//! store.insert("mini", r#"<system id="mini"></system>"#);
//! let caching = CachingStore::new(store, Arc::clone(&cache), Freshness::Strict)
//!     .with_source_id("doc-example");
//!
//! assert!(caching.try_fetch("mini").unwrap().is_some()); // fetched and written
//! assert_eq!(cache.len(), 1);                             // through to disk
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

use crate::hash::{fnv1a64, fnv1a64_seeded, fraction, mix64};
use crate::store::{ModelStore, StoreError};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use xpdl_core::diag::json::{self, JsonValue};
use xpdl_core::diag::Diagnostic;

/// Manifest format version; bumped on incompatible layout changes.
pub const MANIFEST_VERSION: u64 = 1;
const MANIFEST_FILE: &str = "manifest.json";
const LOCK_FILE: &str = ".lock";
const ENTRIES_DIR: &str = "entries";
const QUARANTINE_DIR: &str = "quarantine";
/// A lock this old whose owner cannot be probed is presumed stale.
const STALE_LOCK_AGE: Duration = Duration::from_secs(60);

/// Diagnostic code: a cache entry failed its checksum and was quarantined.
pub const DIAG_QUARANTINED: &str = "R305";
/// Diagnostic code: the manifest itself was corrupt and was rebuilt.
pub const DIAG_MANIFEST_RESET: &str = "R306";
/// Diagnostic code: a stale lock (dead owner) was taken over.
pub const DIAG_LOCK_TAKEOVER: &str = "R307";

/// When may a cached entry be served instead of (or as a fallback to)
/// the backing store? See the module docs for the full policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Serve fresh cache entries; expired entries require the backing
    /// store, and upstream failures propagate.
    Strict,
    /// Revalidate upstream, but serve the last good copy (up to
    /// `max_age` old) when the backing store is unavailable.
    StaleOk {
        /// Oldest acceptable entry age for a stale serve.
        max_age: Duration,
    },
    /// Serve only from disk; misses surface as
    /// [`StoreError::Unavailable`] (absence unproven).
    OfflineOnly,
}

impl fmt::Display for Freshness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Freshness::Strict => write!(f, "strict"),
            Freshness::StaleOk { max_age } => write!(f, "stale-ok<={}s", max_age.as_secs()),
            Freshness::OfflineOnly => write!(f, "offline-only"),
        }
    }
}

/// One manifest record: the integrity and provenance metadata for a
/// cached descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// FNV-1a checksum of the entry file's exact bytes.
    pub checksum: u64,
    /// Entry byte length (a cheap second torn-write tripwire).
    pub len: u64,
    /// Identity of the store the entry was fetched from.
    pub source: String,
    /// Fetch wall-clock time, milliseconds since the Unix epoch.
    pub fetched_at_ms: u64,
    /// Time-to-live; `None` = fresh forever.
    pub ttl_ms: Option<u64>,
}

impl ManifestEntry {
    /// Age of the entry relative to `now_ms` (zero if clocks regressed).
    pub fn age(&self, now_ms: u64) -> Duration {
        Duration::from_millis(now_ms.saturating_sub(self.fetched_at_ms))
    }

    /// Fresh = within TTL (or no TTL at all).
    pub fn is_fresh(&self, now_ms: u64) -> bool {
        match self.ttl_ms {
            None => true,
            Some(ttl) => self.age(now_ms) < Duration::from_millis(ttl),
        }
    }
}

/// Counters that survive across processes (persisted in the manifest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PersistentStats {
    stale_served: u64,
    quarantined_total: u64,
}

#[derive(Debug, Default)]
struct Manifest {
    entries: BTreeMap<String, ManifestEntry>,
    stats: PersistentStats,
}

impl Manifest {
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.entries.len() * 160);
        s.push_str(&format!("{{\"version\":{MANIFEST_VERSION},\"entries\":{{"));
        for (i, (key, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::escape_into(&mut s, key);
            // The checksum is a full u64: serialized as a hex string, not
            // a JSON number, so it survives the f64 reader losslessly.
            s.push_str(&format!(":{{\"checksum\":\"{:016x}\",\"len\":{},", e.checksum, e.len));
            s.push_str("\"source\":");
            json::escape_into(&mut s, &e.source);
            s.push_str(&format!(",\"fetched_at_ms\":{}", e.fetched_at_ms));
            match e.ttl_ms {
                Some(ttl) => s.push_str(&format!(",\"ttl_ms\":{ttl}}}")),
                None => s.push_str(",\"ttl_ms\":null}"),
            }
        }
        s.push_str(&format!(
            "}},\"stats\":{{\"stale_served\":{},\"quarantined_total\":{}}}}}",
            self.stats.stale_served, self.stats.quarantined_total
        ));
        s
    }

    fn parse(src: &str) -> Result<Manifest, String> {
        let value = json::parse(src)?;
        let obj = value.as_object().ok_or("manifest is not an object")?;
        let version = json::get(obj, "version")
            .and_then(JsonValue::as_number)
            .ok_or("manifest missing version")? as u64;
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let mut entries = BTreeMap::new();
        for (key, v) in
            json::get(obj, "entries").and_then(JsonValue::as_object).ok_or("missing entries")?
        {
            let e = v.as_object().ok_or_else(|| format!("entry {key:?} is not an object"))?;
            let checksum = json::get(e, "checksum")
                .and_then(JsonValue::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("entry {key:?}: bad checksum"))?;
            let num = |f: &str| json::get(e, f).and_then(JsonValue::as_number);
            let ttl_ms = match json::get(e, "ttl_ms") {
                None | Some(JsonValue::Null) => None,
                Some(v) => {
                    Some(v.as_number().ok_or_else(|| format!("entry {key:?}: bad ttl"))? as u64)
                }
            };
            entries.insert(
                key.clone(),
                ManifestEntry {
                    checksum,
                    len: num("len").ok_or_else(|| format!("entry {key:?}: bad len"))? as u64,
                    source: json::get(e, "source")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    fetched_at_ms: num("fetched_at_ms")
                        .ok_or_else(|| format!("entry {key:?}: bad fetched_at_ms"))?
                        as u64,
                    ttl_ms,
                },
            );
        }
        let stats = match json::get(obj, "stats").and_then(JsonValue::as_object) {
            None => PersistentStats::default(),
            Some(s) => PersistentStats {
                stale_served: json::get(s, "stale_served")
                    .and_then(JsonValue::as_number)
                    .unwrap_or(0.0) as u64,
                quarantined_total: json::get(s, "quarantined_total")
                    .and_then(JsonValue::as_number)
                    .unwrap_or(0.0) as u64,
            },
        };
        Ok(Manifest { entries, stats })
    }
}

/// A cache-layer failure. Cache faults are deliberately *not*
/// [`StoreError`]s: the [`CachingStore`] treats every cache-write
/// failure as best-effort (the fetched payload is still served), and
/// only the explicit cache-management surface (`xpdlc cache …`,
/// [`DiskCache::open`]) reports them.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem operation failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// OS error detail.
        detail: String,
    },
    /// The directory lock is held by a live writer and the wait budget
    /// ran out.
    Locked {
        /// Lockfile path.
        path: PathBuf,
        /// PID recorded in the lockfile, when readable.
        holder: Option<u32>,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, detail } => {
                write!(f, "cache I/O failure at {}: {detail}", path.display())
            }
            CacheError::Locked { path, holder } => {
                write!(f, "cache lock {} held", path.display())?;
                if let Some(pid) = holder {
                    write!(f, " by pid {pid}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CacheError {}

fn io_err(path: &Path, e: impl fmt::Display) -> CacheError {
    CacheError::Io { path: path.to_path_buf(), detail: e.to_string() }
}

/// Milliseconds since the Unix epoch (0 if the clock predates it).
fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Is the process with this PID alive? On Linux, `/proc/<pid>` is
/// authoritative. Elsewhere we cannot probe without libc, so the caller
/// falls back to lock-age heuristics (`None` = unknown).
fn pid_alive(pid: u32) -> Option<bool> {
    #[cfg(target_os = "linux")]
    {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        None
    }
}

/// Monotonic per-process counter so concurrent temp files never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `dest` atomically: temp file in the same directory,
/// fsync, rename, then fsync the directory so the rename itself is
/// durable. A crash at any point leaves either the old or the new file.
///
/// Public because the calibration write-back (`xpdl-calib`) publishes
/// patched descriptors with exactly this discipline — a reader (or a
/// serving node's reload) never sees a torn descriptor.
pub fn atomic_write(dest: &Path, bytes: &[u8]) -> Result<(), CacheError> {
    let dir = dest.parent().ok_or_else(|| io_err(dest, "no parent directory"))?;
    let tmp = dir.join(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&tmp);
        return Err(io_err(&tmp, e));
    }
    if let Err(e) = fs::rename(&tmp, dest) {
        let _ = fs::remove_file(&tmp);
        return Err(io_err(dest, e));
    }
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// An exclusive cross-process writer lock on the cache directory,
/// released (unlinked) on drop.
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Acquire the lock, taking over stale (dead-owner) locks. Returns
    /// the lock plus whether a takeover happened (for diagnostics).
    fn acquire(dir: &Path, timeout: Duration) -> Result<(DirLock, Option<u32>), CacheError> {
        let path = dir.join(LOCK_FILE);
        let deadline = Instant::now() + timeout;
        let mut took_over = None;
        loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok((DirLock { path }, took_over));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match holder.and_then(pid_alive) {
                        Some(alive) => !alive,
                        // Unreadable PID or unprobeable platform: presume
                        // stale only once the lock is old enough that any
                        // honest writer would long have finished.
                        None => fs::metadata(&path)
                            .and_then(|m| m.modified())
                            .ok()
                            .and_then(|t| t.elapsed().ok())
                            .is_some_and(|age| age > STALE_LOCK_AGE),
                    };
                    if stale {
                        // Re-read before unlinking: if the contents moved
                        // under us, a new (live) writer holds it now.
                        let still = fs::read_to_string(&path)
                            .ok()
                            .and_then(|s| s.trim().parse::<u32>().ok());
                        if still == holder {
                            let _ = fs::remove_file(&path);
                            took_over = holder;
                            continue;
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(CacheError::Locked { path, holder });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(io_err(&path, e)),
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Point-in-time view of the cache directory, for `xpdlc cache stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries in the manifest.
    pub entries: u64,
    /// Sum of live entry byte lengths.
    pub total_bytes: u64,
    /// Files currently sitting in `quarantine/`.
    pub quarantine_files: u64,
    /// Stale serves, cumulative across processes.
    pub stale_served: u64,
    /// Entries ever quarantined, cumulative across processes.
    pub quarantined_total: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entries={} bytes={} quarantine_files={} stale_served={} quarantined_total={}",
            self.entries,
            self.total_bytes,
            self.quarantine_files,
            self.stale_served,
            self.quarantined_total
        )
    }
}

/// What [`DiskCache::gc`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// TTL-expired (or over-age) entries removed.
    pub expired_removed: u64,
    /// Quarantined files purged.
    pub quarantine_removed: u64,
}

/// The crash-safe persistent cache directory. See the module docs for
/// the durability mechanics. Cheap to share: wrap in an [`Arc`] and hand
/// clones to any number of [`CachingStore`]s (and to
/// [`Repository::register_disk_cache`](crate::Repository::register_disk_cache)
/// for metrics).
pub struct DiskCache {
    dir: PathBuf,
    manifest: RwLock<Manifest>,
    /// In-process writer serialization; the `.lock` file extends the
    /// exclusion across processes.
    writer: Mutex<()>,
    lock_timeout: Duration,
    disk_hits: Arc<xpdl_obs::Counter>,
    stale_served_session: Arc<xpdl_obs::Counter>,
    quarantined_session: Arc<xpdl_obs::Counter>,
    diags: Mutex<Vec<Diagnostic>>,
}

impl fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskCache")
            .field("dir", &self.dir)
            .field("entries", &self.manifest.read().entries.len())
            .finish()
    }
}

impl DiskCache {
    /// Open (creating if necessary) the cache at `dir`, verify every
    /// entry's checksum, and quarantine whatever fails. Corruption is
    /// *not* an error — it produces `R3xx` diagnostics (see
    /// [`DiskCache::take_diagnostics`]) and the cache self-heals on the
    /// next fetch of the affected keys.
    pub fn open(dir: impl AsRef<Path>) -> Result<DiskCache, CacheError> {
        DiskCache::open_with_lock_timeout(dir, Duration::from_secs(5))
    }

    /// [`DiskCache::open`] with an explicit writer-lock wait budget.
    pub fn open_with_lock_timeout(
        dir: impl AsRef<Path>,
        lock_timeout: Duration,
    ) -> Result<DiskCache, CacheError> {
        let dir = dir.as_ref().to_path_buf();
        for sub in [ENTRIES_DIR, QUARANTINE_DIR] {
            let p = dir.join(sub);
            fs::create_dir_all(&p).map_err(|e| io_err(&p, e))?;
        }
        let mut diags = Vec::new();
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = match fs::read_to_string(&manifest_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::default(),
            Err(e) => return Err(io_err(&manifest_path, e)),
            Ok(src) => match Manifest::parse(&src) {
                Ok(m) => m,
                Err(why) => {
                    // The manifest itself is torn/corrupt: preserve it for
                    // post-mortem and rebuild from the entry files.
                    let dest = dir.join(QUARANTINE_DIR).join(format!("manifest.{}.json", now_ms()));
                    let _ = fs::rename(&manifest_path, &dest);
                    diags.push(
                        Diagnostic::warning(
                            dir.display().to_string(),
                            format!("cache manifest corrupt ({why}); rebuilding from entries"),
                        )
                        .with_code(DIAG_MANIFEST_RESET)
                        .with_note(format!("corrupt manifest preserved at {}", dest.display())),
                    );
                    Manifest::default()
                }
            },
        };
        let cache = DiskCache {
            dir,
            manifest: RwLock::new(manifest),
            writer: Mutex::new(()),
            lock_timeout,
            disk_hits: xpdl_obs::MetricsRegistry::global().counter("cache.disk.hits"),
            stale_served_session: xpdl_obs::MetricsRegistry::global()
                .counter("cache.disk.stale_served"),
            quarantined_session: xpdl_obs::MetricsRegistry::global()
                .counter("cache.disk.quarantined"),
            diags: Mutex::new(diags),
        };
        cache.recover_and_verify()?;
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.manifest.read().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.manifest.read().entries.is_empty()
    }

    /// Live keys, optionally restricted to one source identity (sorted).
    pub fn keys(&self, source: Option<&str>) -> Vec<String> {
        self.manifest
            .read()
            .entries
            .iter()
            .filter(|(_, e)| source.is_none_or(|s| e.source == s))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Diagnostics accumulated since the last take (open-time verification,
    /// runtime quarantines, lock takeovers).
    pub fn take_diagnostics(&self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.diags.lock())
    }

    /// Cache hits served from disk this session.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.get()
    }

    /// Stale entries served this session.
    pub fn stale_served_session(&self) -> u64 {
        self.stale_served_session.get()
    }

    /// Entries quarantined this session (open-time plus runtime).
    pub fn quarantined_session(&self) -> u64 {
        self.quarantined_session.get()
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(ENTRIES_DIR).join(format!("{key}.xpdl"))
    }

    /// Repository keys are simple names; anything path-like is uncacheable
    /// (but still fetchable straight from the backing store).
    fn key_is_cacheable(key: &str) -> bool {
        !key.is_empty()
            && !key.contains("..")
            && !key.contains('/')
            && !key.contains('\\')
            && !key.contains(':')
            && !key.starts_with('.')
    }

    /// Look up `key`: manifest record + verified content. A checksum or
    /// length mismatch at read time quarantines the entry and reports a
    /// miss (the caller then self-heals from the backing store). When
    /// `source` is given, entries fetched from a different store are
    /// ignored — search-path precedence survives the shared cache.
    pub fn get(&self, key: &str, source: Option<&str>) -> Option<(String, ManifestEntry)> {
        let entry = {
            let m = self.manifest.read();
            let e = m.entries.get(key)?.clone();
            if let Some(want) = source {
                if e.source != want {
                    return None;
                }
            }
            e
        };
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.quarantine(key, "entry file unreadable or missing");
                return None;
            }
        };
        if text.len() as u64 != entry.len || fnv1a64(text.as_bytes()) != entry.checksum {
            self.quarantine(key, "content does not match manifest checksum");
            return None;
        }
        Some((text, entry))
    }

    /// Record a disk hit (served without touching the backing store).
    pub(crate) fn note_disk_hit(&self) {
        self.disk_hits.inc();
    }

    /// Record a stale serve; the cumulative count is persisted so
    /// `xpdlc cache stats` sees it from a later process.
    pub(crate) fn note_stale_served(&self) {
        self.stale_served_session.inc();
        let _guard = self.writer.lock();
        if let Ok((_lock, takeover)) = DirLock::acquire(&self.dir, self.lock_timeout) {
            self.note_takeover(takeover);
            self.reload_locked();
            self.manifest.write().stats.stale_served += 1;
            let _ = self.flush_manifest();
        }
    }

    /// Refresh the in-memory manifest from disk. Mutations are
    /// read-modify-write transactions — reload under the cross-process
    /// lock, apply, flush — so concurrent processes never clobber each
    /// other's manifest revisions. Callers hold the writer mutex and the
    /// directory lock. A missing or unparseable on-disk manifest (only
    /// possible outside our own atomic-write discipline) keeps the
    /// in-memory state.
    fn reload_locked(&self) {
        if let Ok(src) = fs::read_to_string(self.dir.join(MANIFEST_FILE)) {
            if let Ok(m) = Manifest::parse(&src) {
                *self.manifest.write() = m;
            }
        }
    }

    fn note_takeover(&self, takeover: Option<u32>) {
        if let Some(pid) = takeover {
            self.diags.lock().push(
                Diagnostic::warning(
                    self.dir.display().to_string(),
                    format!("took over stale cache lock held by dead pid {pid}"),
                )
                .with_code(DIAG_LOCK_TAKEOVER),
            );
        }
    }

    /// Store `text` under `key`, durably. Writes the entry file
    /// atomically, then the manifest revision atomically, both under the
    /// cross-process lock. Uncacheable keys are a silent no-op.
    pub fn put(
        &self,
        key: &str,
        text: &str,
        source: &str,
        ttl: Option<Duration>,
    ) -> Result<(), CacheError> {
        if !Self::key_is_cacheable(key) {
            return Ok(());
        }
        let _guard = self.writer.lock();
        let (_lock, takeover) = DirLock::acquire(&self.dir, self.lock_timeout)?;
        self.note_takeover(takeover);
        self.reload_locked();
        atomic_write(&self.entry_path(key), text.as_bytes())?;
        self.manifest.write().entries.insert(
            key.to_string(),
            ManifestEntry {
                checksum: fnv1a64(text.as_bytes()),
                len: text.len() as u64,
                source: source.to_string(),
                fetched_at_ms: now_ms(),
                ttl_ms: ttl.map(|d| d.as_millis() as u64),
            },
        );
        self.flush_manifest()
    }

    /// Remove `key` (e.g. after the backing store authoritatively
    /// reported it gone). Only removes the record if it came from
    /// `source`, when given.
    pub fn remove(&self, key: &str, source: Option<&str>) -> Result<bool, CacheError> {
        let _guard = self.writer.lock();
        if !self.manifest.read().entries.contains_key(key) {
            return Ok(false);
        }
        let (_lock, takeover) = DirLock::acquire(&self.dir, self.lock_timeout)?;
        self.note_takeover(takeover);
        self.reload_locked();
        let present = {
            let m = self.manifest.read();
            match m.entries.get(key) {
                None => false,
                Some(e) => source.is_none_or(|s| e.source == s),
            }
        };
        if !present {
            return Ok(false);
        }
        self.manifest.write().entries.remove(key);
        let _ = fs::remove_file(self.entry_path(key));
        self.flush_manifest()?;
        Ok(true)
    }

    /// Move `key`'s entry file into `quarantine/`, drop its manifest
    /// record, bump the counters, and emit an `R305` diagnostic. Never
    /// fails: quarantine is a best-effort salvage path.
    fn quarantine(&self, key: &str, why: &str) {
        let _guard = self.writer.lock();
        // Two racing readers may both detect the same corruption; only
        // the first to get here does the work.
        if !self.manifest.read().entries.contains_key(key) {
            return;
        }
        let Ok((_lock, takeover)) = DirLock::acquire(&self.dir, self.lock_timeout) else {
            // Can't coordinate cross-process right now: at minimum stop
            // serving the suspect entry from this process.
            self.manifest.write().entries.remove(key);
            return;
        };
        self.note_takeover(takeover);
        self.reload_locked();
        // Re-check under the lock: another process may have quarantined
        // it already (key gone) or healed it (entry re-written and its
        // bytes verify again).
        let Some(entry) = self.manifest.read().entries.get(key).cloned() else { return };
        let src = self.entry_path(key);
        if let Ok(text) = fs::read_to_string(&src) {
            if text.len() as u64 == entry.len && fnv1a64(text.as_bytes()) == entry.checksum {
                return;
            }
        }
        let dest = self.dir.join(QUARANTINE_DIR).join(format!("{key}.{}.xpdl", now_ms()));
        let _ = fs::rename(&src, &dest);
        {
            let mut m = self.manifest.write();
            m.entries.remove(key);
            m.stats.quarantined_total += 1;
        }
        self.quarantined_session.inc();
        self.diags.lock().push(
            Diagnostic::warning(
                key,
                format!("cache entry quarantined: {why}; will re-fetch from the backing store"),
            )
            .with_code(DIAG_QUARANTINED)
            .with_note(format!("preserved at {}", dest.display())),
        );
        let _ = self.flush_manifest();
    }

    /// Write the current manifest revision atomically. Callers hold the
    /// writer mutex and the directory lock.
    fn flush_manifest(&self) -> Result<(), CacheError> {
        let body = self.manifest.read().to_json();
        atomic_write(&self.dir.join(MANIFEST_FILE), body.as_bytes())
    }

    /// Open-time integrity pass: verify every manifest entry against its
    /// file; adopt parseable orphan entry files (manifest-rebuild path);
    /// quarantine the rest.
    fn recover_and_verify(&self) -> Result<(), CacheError> {
        // Adopt orphans: entry files with no manifest record (a corrupt
        // manifest was reset, or a crash hit between entry write and
        // manifest flush). Only well-formed XML is adopted; anything
        // else is quarantined as a torn write. One locked transaction so
        // a concurrent process can neither clobber nor be clobbered.
        let _guard = self.writer.lock();
        let (_lock, takeover) = DirLock::acquire(&self.dir, self.lock_timeout)?;
        self.note_takeover(takeover);
        // Don't reload over a manifest we deliberately reset (R306): the
        // corrupt file is already gone, so reload is a no-op then.
        self.reload_locked();
        let entries_dir = self.dir.join(ENTRIES_DIR);
        let mut changed = false;
        if let Ok(listing) = fs::read_dir(&entries_dir) {
            for f in listing.filter_map(|e| e.ok()) {
                let path = f.path();
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()).map(str::to_string)
                else {
                    continue;
                };
                if path.extension().and_then(|x| x.to_str()) != Some("xpdl") {
                    // Leftover temp file from a crashed writer: discard.
                    let _ = fs::remove_file(&path);
                    continue;
                }
                if self.manifest.read().entries.contains_key(&stem) {
                    continue;
                }
                changed = true;
                let adoptable = fs::read_to_string(&path)
                    .ok()
                    .filter(|text| xpdl_xml::parse(text).is_ok());
                match adoptable {
                    Some(text) => {
                        self.manifest.write().entries.insert(
                            stem,
                            ManifestEntry {
                                checksum: fnv1a64(text.as_bytes()),
                                len: text.len() as u64,
                                source: "recovered".to_string(),
                                fetched_at_ms: now_ms(),
                                ttl_ms: None,
                            },
                        );
                    }
                    None => {
                        let dest = self
                            .dir
                            .join(QUARANTINE_DIR)
                            .join(format!("{stem}.{}.xpdl", now_ms()));
                        let _ = fs::rename(&path, &dest);
                        {
                            let mut m = self.manifest.write();
                            m.stats.quarantined_total += 1;
                        }
                        self.quarantined_session.inc();
                        self.diags.lock().push(
                            Diagnostic::warning(
                                stem,
                                "orphan cache entry is not well-formed XML; quarantined",
                            )
                            .with_code(DIAG_QUARANTINED)
                            .with_note(format!("preserved at {}", dest.display())),
                        );
                    }
                }
            }
        }
        if changed {
            self.flush_manifest()?;
        }
        // Release the lock before verification: `get` quarantines (which
        // locks) as a side effect, and readers must never need the lock.
        drop(_lock);
        drop(_guard);
        let keys: Vec<String> = self.manifest.read().entries.keys().cloned().collect();
        for key in keys {
            // `get` verifies checksum + length and quarantines on mismatch.
            let _ = self.get(&key, None);
        }
        Ok(())
    }

    /// Re-verify every entry now; returns the diagnostics produced (also
    /// retained for [`DiskCache::take_diagnostics`] — callers that print
    /// the return value should drain via take to avoid double-reporting).
    pub fn verify(&self) -> Vec<Diagnostic> {
        let before = self.diags.lock().len();
        let keys: Vec<String> = self.manifest.read().entries.keys().cloned().collect();
        for key in keys {
            let _ = self.get(&key, None);
        }
        self.diags.lock()[before..].to_vec()
    }

    /// Garbage-collect: drop TTL-expired entries (plus anything older
    /// than `max_age`, when given) and purge `quarantine/`.
    pub fn gc(&self, max_age: Option<Duration>) -> Result<GcReport, CacheError> {
        let now = now_ms();
        let mut report = GcReport::default();
        {
            let _guard = self.writer.lock();
            let (_lock, takeover) = DirLock::acquire(&self.dir, self.lock_timeout)?;
            self.note_takeover(takeover);
            self.reload_locked();
            let expired: Vec<String> = self
                .manifest
                .read()
                .entries
                .iter()
                .filter(|(_, e)| {
                    !e.is_fresh(now) || max_age.is_some_and(|cap| e.age(now) > cap)
                })
                .map(|(k, _)| k.clone())
                .collect();
            if !expired.is_empty() {
                for key in &expired {
                    self.manifest.write().entries.remove(key);
                    let _ = fs::remove_file(self.entry_path(key));
                    report.expired_removed += 1;
                }
                self.flush_manifest()?;
            }
        }
        if let Ok(listing) = fs::read_dir(self.dir.join(QUARANTINE_DIR)) {
            for f in listing.filter_map(|e| e.ok()) {
                if fs::remove_file(f.path()).is_ok() {
                    report.quarantine_removed += 1;
                }
            }
        }
        Ok(report)
    }

    /// Wipe the cache: entries, manifest, quarantine. The persistent
    /// stats reset with it.
    pub fn clear(&self) -> Result<(), CacheError> {
        let _guard = self.writer.lock();
        let (_lock, takeover) = DirLock::acquire(&self.dir, self.lock_timeout)?;
        self.note_takeover(takeover);
        {
            let mut m = self.manifest.write();
            m.entries.clear();
            m.stats = PersistentStats::default();
        }
        for sub in [ENTRIES_DIR, QUARANTINE_DIR] {
            if let Ok(listing) = fs::read_dir(self.dir.join(sub)) {
                for f in listing.filter_map(|e| e.ok()) {
                    let _ = fs::remove_file(f.path());
                }
            }
        }
        self.flush_manifest()
    }

    /// Current stats (manifest counts plus a quarantine directory scan).
    pub fn stats(&self) -> CacheStats {
        let m = self.manifest.read();
        let quarantine_files = fs::read_dir(self.dir.join(QUARANTINE_DIR))
            .map(|l| l.filter_map(|e| e.ok()).count() as u64)
            .unwrap_or(0);
        CacheStats {
            entries: m.entries.len() as u64,
            total_bytes: m.entries.values().map(|e| e.len).sum(),
            quarantine_files,
            stale_served: m.stats.stale_served,
            quarantined_total: m.stats.quarantined_total,
        }
    }

    /// Test instrumentation: simulate the torn writes a power cut can
    /// leave behind. Each entry file is truncated in place (bypassing
    /// the manifest — exactly what a crash does) with deterministic
    /// per-`(seed, key)` selection at `rate`. Returns the affected keys;
    /// a subsequent [`DiskCache::open`] must quarantine every one of
    /// them. Public for the same reason [`FaultInjectingStore`](crate::FaultInjectingStore)
    /// (crate::FaultInjectingStore) is: durability claims are only worth
    /// making if they are reproducible.
    pub fn simulate_crash_truncation(&self, seed: u64, rate: f64) -> Vec<String> {
        let mut torn = Vec::new();
        for key in self.manifest.read().entries.keys() {
            if fraction(mix64(fnv1a64_seeded(seed, &[key.as_bytes()]))) < rate {
                let path = self.entry_path(key);
                if let Ok(meta) = fs::metadata(&path) {
                    let cut = meta.len() / 2;
                    if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                        if f.set_len(cut).is_ok() {
                            torn.push(key.clone());
                        }
                    }
                }
            }
        }
        torn
    }
}

/// A write-through persistent caching layer over any [`ModelStore`].
///
/// Fetches consult the shared [`DiskCache`] per the configured
/// [`Freshness`] policy; successful upstream fetches are persisted
/// (best-effort — a cache-write failure never fails the fetch). Only
/// well-formed XML is persisted, so a torn or corrupted upstream payload
/// can never become a "valid" cache entry that would defeat the
/// repository's retry loop.
pub struct CachingStore<S: ModelStore> {
    inner: S,
    cache: Arc<DiskCache>,
    freshness: Freshness,
    ttl: Option<Duration>,
    source_id: String,
}

impl<S: ModelStore> CachingStore<S> {
    /// Wrap `inner`, recording entries under `inner.describe()` as the
    /// source identity (override with
    /// [`with_source_id`](CachingStore::with_source_id) when the
    /// description is not stable across runs).
    pub fn new(inner: S, cache: Arc<DiskCache>, freshness: Freshness) -> CachingStore<S> {
        let source_id = inner.describe();
        CachingStore { inner, cache, freshness, ttl: None, source_id }
    }

    /// Builder: a stable source identity for manifest records. Entries
    /// are only served back through a wrapper carrying the *same*
    /// identity, so a shared cache directory cannot violate search-path
    /// precedence.
    pub fn with_source_id(mut self, source_id: impl Into<String>) -> CachingStore<S> {
        self.source_id = source_id.into();
        self
    }

    /// Builder: TTL recorded on every entry this wrapper writes
    /// (`None` = fresh forever).
    pub fn with_ttl(mut self, ttl: Option<Duration>) -> CachingStore<S> {
        self.ttl = ttl;
        self
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<DiskCache> {
        &self.cache
    }

    /// The active freshness policy.
    pub fn freshness(&self) -> Freshness {
        self.freshness
    }
}

impl<S: ModelStore> ModelStore for CachingStore<S> {
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError> {
        let now = now_ms();
        let cached = self.cache.get(key, Some(&self.source_id));
        if let Freshness::OfflineOnly = self.freshness {
            return match cached {
                Some((text, _)) => {
                    self.cache.note_disk_hit();
                    Ok(Some(text))
                }
                // A cache miss offline is NOT an authoritative miss: the
                // backing store may well have the key. Unavailable keeps
                // the negative cache honest.
                None => Err(StoreError::Unavailable {
                    detail: format!(
                        "offline: '{key}' not in cache at {}",
                        self.cache.dir().display()
                    ),
                }),
            };
        }
        // Strict mode serves fresh entries without revalidation (the
        // warm-start fast path); StaleOk always revalidates so the cache
        // converges on the backing store whenever it is reachable.
        if matches!(self.freshness, Freshness::Strict) {
            if let Some((text, entry)) = &cached {
                if entry.is_fresh(now) {
                    self.cache.note_disk_hit();
                    return Ok(Some(text.clone()));
                }
            }
        }
        match self.inner.try_fetch(key) {
            Ok(Some(text)) => {
                // Persist only well-formed payloads; a torn/corrupt
                // upstream response must stay retryable, not get frozen
                // into the cache.
                if xpdl_xml::parse(&text).is_ok() {
                    let _ = self.cache.put(key, &text, &self.source_id, self.ttl);
                }
                Ok(Some(text))
            }
            Ok(None) => {
                // Upstream authoritatively dropped the key: forget it.
                let _ = self.cache.remove(key, Some(&self.source_id));
                Ok(None)
            }
            Err(e) => {
                if let Freshness::StaleOk { max_age } = self.freshness {
                    if let Some((text, entry)) = cached {
                        if entry.age(now) <= max_age {
                            self.cache.note_stale_served();
                            return Ok(Some(text));
                        }
                    }
                }
                Err(e)
            }
        }
    }

    fn keys(&self) -> Vec<String> {
        if let Freshness::OfflineOnly = self.freshness {
            return self.cache.keys(Some(&self.source_id));
        }
        let mut keys = self.inner.keys();
        keys.extend(self.cache.keys(Some(&self.source_id)));
        keys.sort();
        keys.dedup();
        keys
    }

    fn describe(&self) -> String {
        format!(
            "disk cache ({}) at {} over {}",
            self.freshness,
            self.cache.dir().display(),
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultInjectingStore};
    use crate::store::MemoryStore;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xpdl_dc_{name}_{}_{:x}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn library() -> MemoryStore {
        let mut m = MemoryStore::new();
        m.insert("CpuA", "<cpu name=\"CpuA\" frequency=\"2\" frequency_unit=\"GHz\"/>");
        m.insert("CpuB", "<cpu name=\"CpuB\"/>");
        m.insert("Dev", "<device name=\"Dev\" extends=\"CpuB\"/>");
        m
    }

    #[test]
    fn manifest_roundtrips_losslessly() {
        let mut m = Manifest::default();
        m.entries.insert(
            "Key \"quoted\"".to_string(),
            ManifestEntry {
                checksum: u64::MAX - 3, // beyond f64 precision: hex string survives
                len: 42,
                source: "dir:/tmp/models".to_string(),
                fetched_at_ms: 1_700_000_000_123,
                ttl_ms: Some(60_000),
            },
        );
        m.entries.insert(
            "NoTtl".to_string(),
            ManifestEntry {
                checksum: 7,
                len: 1,
                source: "library".to_string(),
                fetched_at_ms: 5,
                ttl_ms: None,
            },
        );
        m.stats = PersistentStats { stale_served: 9, quarantined_total: 2 };
        let back = Manifest::parse(&m.to_json()).expect("parses");
        assert_eq!(back.entries, m.entries);
        assert_eq!(back.stats, m.stats);
    }

    #[test]
    fn manifest_rejects_garbage_and_future_versions() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("{\"version\":99,\"entries\":{}}").is_err());
        assert!(Manifest::parse("{\"version\":1,\"entries\":{\"k\":{\"checksum\":\"zz\"}}}").is_err());
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmp("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        let (text, entry) = cache.get("CpuA", None).expect("hit");
        assert_eq!(text, "<cpu name=\"CpuA\"/>");
        assert_eq!(entry.source, "library");
        drop(cache);
        // Warm start: a fresh process sees the entry, checksum-verified.
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get("CpuA", Some("library")).is_some());
        assert!(cache.get("CpuA", Some("other-store")).is_none(), "source filter");
        assert!(cache.take_diagnostics().is_empty(), "clean cache: no diagnostics");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_on_open_and_self_heals() {
        let dir = tmp("quarantine");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        cache.put("CpuB", "<cpu name=\"CpuB\"/>", "library", None).unwrap();
        drop(cache);
        // Tear CpuA's entry behind the manifest's back.
        fs::write(dir.join(ENTRIES_DIR).join("CpuA.xpdl"), "<cpu nam").unwrap();
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1, "torn entry dropped");
        assert!(cache.get("CpuA", None).is_none());
        assert!(cache.get("CpuB", None).is_some(), "healthy sibling untouched");
        assert_eq!(cache.quarantined_session(), 1);
        let diags = cache.take_diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DIAG_QUARANTINED);
        assert_eq!(cache.stats().quarantine_files, 1);
        assert_eq!(cache.stats().quarantined_total, 1);
        // Self-heal: a CachingStore re-fetches and re-persists.
        let store = CachingStore::new(library(), Arc::new(cache), Freshness::Strict)
            .with_source_id("library");
        assert!(store.try_fetch("CpuA").unwrap().is_some());
        assert!(store.cache().get("CpuA", Some("library")).is_some(), "healed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_rebuilt_from_entries() {
        let dir = tmp("manifest");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        cache.put("CpuB", "<cpu name=\"CpuB\"/>", "library", None).unwrap();
        drop(cache);
        fs::write(dir.join(MANIFEST_FILE), "{\"version\":1,\"entr").unwrap();
        // Also leave one torn orphan to prove recovery distinguishes.
        fs::write(dir.join(ENTRIES_DIR).join("Torn.xpdl"), "<cpu nam").unwrap();
        let cache = DiskCache::open(&dir).unwrap();
        let diags = cache.take_diagnostics();
        assert!(diags.iter().any(|d| d.code == DIAG_MANIFEST_RESET), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == DIAG_QUARANTINED), "{diags:?}");
        // Both well-formed entries were re-adopted with fresh checksums.
        assert_eq!(cache.len(), 2);
        assert!(cache.get("CpuA", None).is_some());
        let (_, entry) = cache.get("CpuB", None).unwrap();
        assert_eq!(entry.source, "recovered");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_temp_files_are_discarded_on_open() {
        let dir = tmp("tmpfiles");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        drop(cache);
        // A writer crashed mid-write: its temp file survived.
        fs::write(dir.join(ENTRIES_DIR).join(".tmp.999.7"), "partial").unwrap();
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(!dir.join(ENTRIES_DIR).join(".tmp.999.7").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_serves_fresh_and_respects_ttl() {
        let dir = tmp("strict");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        let counted = FaultInjectingStore::new(library(), FaultConfig::failures(0.0, 1));
        let store = CachingStore::new(counted, cache.clone(), Freshness::Strict)
            .with_source_id("library");
        assert!(store.try_fetch("CpuA").unwrap().is_some());
        assert_eq!(store.inner().stats().passed_through, 1);
        // Second fetch: disk hit, upstream untouched.
        assert!(store.try_fetch("CpuA").unwrap().is_some());
        assert_eq!(store.inner().stats().passed_through, 1, "served from disk");
        assert_eq!(cache.disk_hits(), 1);
        // Zero TTL = immediately expired: every fetch revalidates.
        let store = CachingStore::new(
            FaultInjectingStore::new(library(), FaultConfig::failures(0.0, 1)),
            cache.clone(),
            Freshness::Strict,
        )
        .with_source_id("library")
        .with_ttl(Some(Duration::ZERO));
        assert!(store.try_fetch("CpuB").unwrap().is_some());
        assert!(store.try_fetch("CpuB").unwrap().is_some());
        assert_eq!(store.inner().stats().passed_through, 2, "expired entries revalidate");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_ok_serves_last_good_copy_when_upstream_dies() {
        let dir = tmp("staleok");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        // Warm the cache through a healthy store.
        let warm = CachingStore::new(library(), cache.clone(), Freshness::Strict)
            .with_source_id("library");
        assert!(warm.try_fetch("CpuA").unwrap().is_some());
        // Now the backing store is fully down.
        let dead = FaultInjectingStore::new(library(), FaultConfig::failures(1.0, 3));
        let store = CachingStore::new(
            dead,
            cache.clone(),
            Freshness::StaleOk { max_age: Duration::from_secs(3600) },
        )
        .with_source_id("library");
        let text = store.try_fetch("CpuA").unwrap().expect("stale copy served");
        assert!(text.contains("CpuA"));
        assert_eq!(cache.stale_served_session(), 1);
        assert_eq!(cache.stats().stale_served, 1, "persisted");
        // An entry older than max_age is NOT served: the error propagates.
        let tight = CachingStore::new(
            FaultInjectingStore::new(library(), FaultConfig::failures(1.0, 3)),
            cache.clone(),
            Freshness::StaleOk { max_age: Duration::ZERO },
        )
        .with_source_id("library");
        std::thread::sleep(Duration::from_millis(5));
        assert!(tight.try_fetch("CpuA").is_err());
        // A key never cached propagates the upstream error too.
        assert!(store.try_fetch("CpuB").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn offline_only_never_touches_upstream_and_misses_are_unavailable() {
        let dir = tmp("offline");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        let warm = CachingStore::new(library(), cache.clone(), Freshness::Strict)
            .with_source_id("library");
        assert!(warm.try_fetch("CpuA").unwrap().is_some());
        let counting = FaultInjectingStore::new(library(), FaultConfig::failures(0.0, 1));
        let store = CachingStore::new(counting, cache.clone(), Freshness::OfflineOnly)
            .with_source_id("library");
        assert!(store.try_fetch("CpuA").unwrap().is_some());
        assert_eq!(store.inner().stats().passed_through, 0, "upstream untouched");
        match store.try_fetch("CpuB") {
            Err(StoreError::Unavailable { detail }) => {
                assert!(detail.contains("offline"), "{detail}")
            }
            other => panic!("offline miss must be Unavailable, got {other:?}"),
        }
        assert_eq!(store.keys(), vec!["CpuA"], "offline keys come from the cache");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_upstream_payloads_are_never_persisted() {
        let dir = tmp("tornup");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        let torn = FaultInjectingStore::new(library(), FaultConfig::torn_writes(1.0, 8));
        let store =
            CachingStore::new(torn, cache.clone(), Freshness::Strict).with_source_id("library");
        let payload = store.try_fetch("CpuA").unwrap().unwrap();
        assert!(xpdl_xml::parse(&payload).is_err(), "upstream really tore it");
        assert!(cache.get("CpuA", None).is_none(), "torn payload must not be cached");
        assert_eq!(cache.len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn authoritative_miss_evicts_cached_entry() {
        let dir = tmp("evict");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        let warm = CachingStore::new(library(), cache.clone(), Freshness::Strict)
            .with_source_id("library")
            .with_ttl(Some(Duration::ZERO));
        assert!(warm.try_fetch("CpuA").unwrap().is_some());
        assert_eq!(cache.len(), 1);
        // Upstream no longer has the key: the revalidation miss evicts.
        let empty = CachingStore::new(MemoryStore::new(), cache.clone(), Freshness::Strict)
            .with_source_id("library")
            .with_ttl(Some(Duration::ZERO));
        assert!(empty.try_fetch("CpuA").unwrap().is_none());
        assert_eq!(cache.len(), 0, "gone upstream, gone here");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncacheable_keys_pass_through_without_writes() {
        let dir = tmp("unkey");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        let mut m = MemoryStore::new();
        m.insert("https://vendor.example/xpdl/K20c.xpdl", "<device name=\"K20c\"/>");
        let store = CachingStore::new(m, cache.clone(), Freshness::Strict);
        assert!(store.try_fetch("https://vendor.example/xpdl/K20c.xpdl").unwrap().is_some());
        assert_eq!(cache.len(), 0, "URL-shaped keys are not materialized as files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_expired_entries_and_purges_quarantine() {
        let dir = tmp("gc");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("Old", "<cpu name=\"Old\"/>", "library", Some(Duration::ZERO)).unwrap();
        cache.put("Live", "<cpu name=\"Live\"/>", "library", None).unwrap();
        fs::write(dir.join(QUARANTINE_DIR).join("junk.0.xpdl"), "x").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let report = cache.gc(None).unwrap();
        assert_eq!(report.expired_removed, 1);
        assert_eq!(report.quarantine_removed, 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get("Live", None).is_some());
        // max_age sweeps even never-expiring entries.
        let report = cache.gc(Some(Duration::ZERO)).unwrap();
        assert_eq!(report.expired_removed, 1);
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_wipes_everything() {
        let dir = tmp("clear");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        cache.clear().unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        drop(cache);
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.is_empty(), "clear persisted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_with_dead_pid_is_taken_over() {
        let dir = tmp("lock");
        fs::create_dir_all(&dir).unwrap();
        // PID u32::MAX exceeds every Linux pid_max: guaranteed dead.
        fs::write(dir.join(LOCK_FILE), format!("{}", u32::MAX)).unwrap();
        let cache =
            DiskCache::open_with_lock_timeout(&dir, Duration::from_millis(500)).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        assert!(!dir.join(LOCK_FILE).exists(), "lock released after put");
        let diags = cache.take_diagnostics();
        assert!(diags.iter().any(|d| d.code == DIAG_LOCK_TAKEOVER), "{diags:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_lock_blocks_writers_until_released() {
        let dir = tmp("livelock");
        let cache = DiskCache::open_with_lock_timeout(&dir, Duration::from_millis(80)).unwrap();
        // Our own (live) PID holds the lock.
        fs::write(dir.join(LOCK_FILE), format!("{}", std::process::id())).unwrap();
        match cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None) {
            Err(CacheError::Locked { holder, .. }) => {
                assert_eq!(holder, Some(std::process::id()))
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        fs::remove_file(dir.join(LOCK_FILE)).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_crash_truncation_is_detected_on_reopen() {
        let dir = tmp("crash");
        let cache = DiskCache::open(&dir).unwrap();
        for (k, v) in [("CpuA", "<cpu name=\"CpuA\" frequency=\"2\"/>"), ("CpuB", "<cpu name=\"CpuB\" frequency=\"3\"/>")] {
            cache.put(k, v, "library", None).unwrap();
        }
        let torn = cache.simulate_crash_truncation(1, 1.0);
        assert_eq!(torn.len(), 2);
        drop(cache);
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.quarantined_session(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().quarantine_files, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn freshness_displays() {
        assert_eq!(Freshness::Strict.to_string(), "strict");
        assert_eq!(
            Freshness::StaleOk { max_age: Duration::from_secs(60) }.to_string(),
            "stale-ok<=60s"
        );
        assert_eq!(Freshness::OfflineOnly.to_string(), "offline-only");
        let dir = tmp("desc");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        let store = CachingStore::new(library(), cache, Freshness::OfflineOnly);
        assert!(store.describe().contains("disk cache (offline-only)"), "{}", store.describe());
        let _ = fs::remove_dir_all(&dir);
    }
}
