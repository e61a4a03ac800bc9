//! Crash-only persistent model cache.
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
//! * **Self-describing entries.** Each file `entries/<key>.xpdl` is one
//!   header line, then the descriptor text. The header ([`EntryHeader`])
//!   is a JSON object with the format version, the FNV-1a checksum and
//!   byte length of the text, the source-store identity, the fetch time
//!   and an optional TTL. There is no index to keep in step with the
//!   entries: the directory listing is the set of entries, so every
//!   handle on a directory sees every other handle's writes at once.
//! * **One atomic rename per update.** An entry is written to a temp
//!   file, fsync'd, and renamed into place (then the directory is
//!   fsync'd). A crash at any instant leaves the old or the new entry,
//!   never a torn file that the cache itself wrote. Two writers of one
//!   key each leave a valid entry and the last rename wins, so there is
//!   no lock, across threads or processes.
//! * **Checked reads.** Every read checks the text against the header it
//!   read with it, at open *and* on every lookup. Reads take no lock.
//! * **Quarantine.** An entry that fails its header (a torn write that
//!   survived a power cut, bit rot, a concurrent partial copy, a file in
//!   an older layout) is *moved* to `quarantine/` — preserved for
//!   post-mortem, never served — and reported as an `R305` diagnostic
//!   rather than an error. The next fetch self-heals it from the backing
//!   store.
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
use parking_lot::Mutex;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use xpdl_core::diag::json::{self, JsonValue};
use xpdl_core::diag::Diagnostic;
use xpdl_xml::{ParseOptions, Reader};

/// Entry header format version; bumped on incompatible layout changes.
const HEADER_VERSION: u64 = 1;
const ENTRIES_DIR: &str = "entries";
const QUARANTINE_DIR: &str = "quarantine";
/// A temp file at least this old was left by a writer that died
/// mid-write: a live writer renames its own within milliseconds.
const STALE_TMP_AGE: Duration = Duration::from_secs(60);

/// Diagnostic code: a cache entry failed its header check and was
/// quarantined.
pub const DIAG_QUARANTINED: &str = "R305";

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

/// The header line of a cache entry: the integrity and provenance
/// metadata of the descriptor text that follows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryHeader {
    /// FNV-1a checksum of the text's exact bytes.
    pub checksum: u64,
    /// Text byte length (a cheap second torn-write tripwire).
    pub len: u64,
    /// Identity of the store the entry was fetched from.
    pub source: String,
    /// Fetch wall-clock time, milliseconds since the Unix epoch.
    pub fetched_at_ms: u64,
    /// Time-to-live; `None` = fresh forever.
    pub ttl_ms: Option<u64>,
}

impl EntryHeader {
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

    /// The header as one JSON line, its newline included; escaping keeps
    /// any newline in `source` off the line. The checksum is a full u64,
    /// so it is a hex string, not a JSON number, to survive the f64
    /// reader losslessly.
    fn to_line(&self) -> String {
        let mut s = format!(
            "{{\"v\":{HEADER_VERSION},\"checksum\":\"{:016x}\",\"len\":{},\"source\":",
            self.checksum, self.len
        );
        json::escape_into(&mut s, &self.source);
        s.push_str(&format!(",\"fetched_at_ms\":{},\"ttl_ms\":", self.fetched_at_ms));
        match self.ttl_ms {
            Some(ttl) => s.push_str(&format!("{ttl}}}\n")),
            None => s.push_str("null}\n"),
        }
        s
    }

    fn parse(line: &str) -> Result<EntryHeader, String> {
        let value = json::parse(line)?;
        let obj = value.as_object().ok_or("header is not an object")?;
        let num = |f: &str| {
            json::get(obj, f).and_then(JsonValue::as_number).ok_or(format!("header: bad {f}"))
        };
        let version = num("v")?;
        if version != HEADER_VERSION as f64 {
            return Err(format!("unsupported header version {version}"));
        }
        let checksum = json::get(obj, "checksum")
            .and_then(JsonValue::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("header: bad checksum")?;
        let source =
            json::get(obj, "source").and_then(JsonValue::as_str).ok_or("header: bad source")?;
        let ttl_ms = match json::get(obj, "ttl_ms") {
            Some(JsonValue::Null) => None,
            _ => Some(num("ttl_ms")? as u64),
        };
        Ok(EntryHeader {
            checksum,
            len: num("len")? as u64,
            source: source.to_string(),
            fetched_at_ms: num("fetched_at_ms")? as u64,
            ttl_ms,
        })
    }
}

/// Split an entry file into its text and header, and check the text
/// against the header.
fn decode_entry(mut bytes: Vec<u8>) -> Result<(String, EntryHeader), String> {
    let nl = bytes.iter().position(|&b| b == b'\n').ok_or("no header line")?;
    let line = std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not UTF-8")?;
    let header = EntryHeader::parse(line)?;
    bytes.drain(..=nl);
    if bytes.len() as u64 != header.len || fnv1a64(&bytes) != header.checksum {
        return Err("text does not match its header checksum".to_string());
    }
    let text = String::from_utf8(bytes).map_err(|_| "text is not UTF-8")?;
    Ok((text, header))
}

/// Whether `text` is well-formed XML, which [`CachingStore`] requires of
/// a payload before it persists it. It drains a [`Reader`] to the end and
/// builds no tree; the DOM is built from the same reader's events, so
/// both accept exactly the same inputs.
pub fn is_well_formed(text: &str) -> bool {
    let mut reader = Reader::new(text, ParseOptions::default());
    std::iter::from_fn(|| reader.next_event().transpose()).all(|event| event.is_ok())
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
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, detail } => {
                write!(f, "cache I/O failure at {}: {detail}", path.display())
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

/// The paths in `dir`; an unreadable directory lists as empty.
fn list(dir: &Path) -> impl Iterator<Item = PathBuf> {
    fs::read_dir(dir).into_iter().flatten().filter_map(|e| e.ok()).map(|e| e.path())
}

/// Unlink `path`: `Ok(false)` when it is already gone.
fn remove_file(path: &Path) -> Result<bool, CacheError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err(path, e)),
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

/// Point-in-time view of the cache directory, for `xpdlc cache stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries that pass their header check.
    pub entries: u64,
    /// Sum of those entries' text byte lengths.
    pub total_bytes: u64,
    /// Files currently sitting in `quarantine/`.
    pub quarantine_files: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entries={} bytes={} quarantine_files={}",
            self.entries, self.total_bytes, self.quarantine_files
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

/// The crash-only persistent cache directory. See the module docs for
/// the durability mechanics. It keeps no index in memory, so any number
/// of handles, in any number of processes, may share one directory.
/// Cheap to share: wrap in an [`Arc`] and hand clones to any number of
/// [`CachingStore`]s (and to
/// [`Repository::register_disk_cache`](crate::Repository::register_disk_cache)
/// for metrics).
pub struct DiskCache {
    dir: PathBuf,
    disk_hits: Arc<xpdl_obs::Counter>,
    stale_served_session: Arc<xpdl_obs::Counter>,
    quarantined_session: Arc<xpdl_obs::Counter>,
    diags: Mutex<Vec<Diagnostic>>,
}

impl fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskCache").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl DiskCache {
    /// Open (creating if necessary) the cache at `dir`, check every
    /// entry against its header, and quarantine whatever fails.
    /// Corruption is *not* an error — it produces `R305` diagnostics (see
    /// [`DiskCache::take_diagnostics`]) and the cache self-heals on the
    /// next fetch of the affected keys. Temp files that writers which
    /// died mid-write left behind are removed once they are 60 s old.
    pub fn open(dir: impl AsRef<Path>) -> Result<DiskCache, CacheError> {
        let dir = dir.as_ref().to_path_buf();
        for sub in [ENTRIES_DIR, QUARANTINE_DIR] {
            let p = dir.join(sub);
            fs::create_dir_all(&p).map_err(|e| io_err(&p, e))?;
        }
        let registry = xpdl_obs::MetricsRegistry::global();
        let cache = DiskCache {
            dir,
            disk_hits: registry.counter("cache.disk.hits"),
            stale_served_session: registry.counter("cache.disk.stale_served"),
            quarantined_session: registry.counter("cache.disk.quarantined"),
            diags: Mutex::new(Vec::new()),
        };
        cache.remove_stale_temp_files();
        cache.verify();
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries that pass their header check.
    pub fn len(&self) -> usize {
        self.scan().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of the entries that pass their header check, optionally
    /// restricted to one source identity (sorted).
    pub fn keys(&self, source: Option<&str>) -> Vec<String> {
        let mut entries = self.scan();
        entries.retain(|(_, h)| source.is_none_or(|s| h.source == s));
        entries.into_iter().map(|(k, _)| k).collect()
    }

    /// Diagnostics accumulated since the last take (open-time verification
    /// and runtime quarantines).
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

    /// Keys of the entry files under `entries/`, sorted. Temp files start
    /// with a dot, so they are not keys.
    fn listed_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = list(&self.dir.join(ENTRIES_DIR))
            .filter_map(|p| Some(p.file_name()?.to_str()?.strip_suffix(".xpdl")?.to_string()))
            .filter(|k| Self::key_is_cacheable(k))
            .collect();
        keys.sort();
        keys
    }

    /// The listed entries that pass their header check; the rest are
    /// quarantined on the way.
    fn scan(&self) -> Vec<(String, EntryHeader)> {
        let keys = self.listed_keys().into_iter();
        keys.filter_map(|k| self.get(&k, None).map(|(_, header)| (k, header))).collect()
    }

    /// Look up `key` and check its text against the header read with it.
    /// A missing file is a miss. A file that fails the check (or cannot
    /// be read) is quarantined and reported as a miss; the caller then
    /// self-heals from the backing store. When `source` is given, entries
    /// fetched from a different store are ignored — search-path
    /// precedence survives the shared cache.
    pub fn get(&self, key: &str, source: Option<&str>) -> Option<(String, EntryHeader)> {
        if !Self::key_is_cacheable(key) {
            return None;
        }
        let path = self.entry_path(key);
        let checked = match fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => Err(format!("entry file unreadable: {e}")),
            Ok(bytes) => decode_entry(bytes),
        };
        match checked {
            Ok((text, header)) => {
                source.is_none_or(|s| header.source == s).then_some((text, header))
            }
            Err(why) => {
                self.quarantine(key, &path, &why);
                None
            }
        }
    }

    /// Store `text` under `key`, durably: its header line and the text in
    /// one [`atomic_write`]. Uncacheable keys are a silent no-op.
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
        let header = EntryHeader {
            checksum: fnv1a64(text.as_bytes()),
            len: text.len() as u64,
            source: source.to_string(),
            fetched_at_ms: now_ms(),
            ttl_ms: ttl.map(|d| d.as_millis() as u64),
        };
        let mut entry = header.to_line();
        entry.push_str(text);
        atomic_write(&self.entry_path(key), entry.as_bytes())
    }

    /// Remove `key` (e.g. after the backing store authoritatively
    /// reported it gone). Only removes an entry fetched from `source`,
    /// when given.
    pub fn remove(&self, key: &str, source: Option<&str>) -> Result<bool, CacheError> {
        if self.get(key, source).is_none() {
            return Ok(false);
        }
        remove_file(&self.entry_path(key))
    }

    /// Move `key`'s entry file at `path` into `quarantine/`, count it and
    /// emit an `R305` diagnostic. Only the reader whose rename succeeds
    /// does so; one that finds the file gone lost the race to another and
    /// does nothing. Never fails: quarantine is a best-effort salvage
    /// path.
    fn quarantine(&self, key: &str, path: &Path, why: &str) {
        let dest = self.dir.join(QUARANTINE_DIR).join(format!("{key}.{}.xpdl", now_ms()));
        if fs::rename(path, &dest).is_err() {
            return;
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
    }

    /// Remove the temp files that writers which died mid-write left in
    /// `entries/`. A younger one may be a live writer's, about to be
    /// renamed into place, so it stays.
    fn remove_stale_temp_files(&self) {
        for path in list(&self.dir.join(ENTRIES_DIR)) {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            let modified = fs::metadata(&path).and_then(|m| m.modified());
            let age = modified.ok().and_then(|t| t.elapsed().ok());
            if name.starts_with(".tmp.") && age.is_some_and(|a| a >= STALE_TMP_AGE) {
                let _ = fs::remove_file(&path);
            }
        }
    }

    /// Re-verify every entry now; returns the diagnostics produced (also
    /// retained for [`DiskCache::take_diagnostics`] — callers that print
    /// the return value should drain via take to avoid double-reporting).
    pub fn verify(&self) -> Vec<Diagnostic> {
        let before = self.diags.lock().len();
        self.scan();
        self.diags.lock()[before..].to_vec()
    }

    /// Garbage-collect: drop TTL-expired entries (plus anything older
    /// than `max_age`, when given), remove stale temp files and purge
    /// `quarantine/`.
    pub fn gc(&self, max_age: Option<Duration>) -> Result<GcReport, CacheError> {
        let now = now_ms();
        let mut report = GcReport::default();
        for (key, h) in self.scan() {
            if !h.is_fresh(now) || max_age.is_some_and(|cap| h.age(now) > cap) {
                report.expired_removed += u64::from(remove_file(&self.entry_path(&key))?);
            }
        }
        self.remove_stale_temp_files();
        for path in list(&self.dir.join(QUARANTINE_DIR)) {
            report.quarantine_removed += u64::from(remove_file(&path)?);
        }
        Ok(report)
    }

    /// Wipe the cache: entries, temp files and quarantine.
    pub fn clear(&self) -> Result<(), CacheError> {
        for sub in [ENTRIES_DIR, QUARANTINE_DIR] {
            for path in list(&self.dir.join(sub)) {
                remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Current stats: the entries that pass their header check, and the
    /// files in `quarantine/`.
    pub fn stats(&self) -> CacheStats {
        let live = self.scan();
        CacheStats {
            entries: live.len() as u64,
            total_bytes: live.iter().map(|(_, h)| h.len).sum(),
            quarantine_files: list(&self.dir.join(QUARANTINE_DIR)).count() as u64,
        }
    }

    /// Test instrumentation: simulate the torn writes a power cut can
    /// leave behind. Each listed entry file is truncated in place to half
    /// its length, with deterministic per-`(seed, key)` selection at
    /// `rate`. Returns the affected keys; a subsequent
    /// [`DiskCache::open`] must quarantine every one of them. Public for
    /// the same reason [`FaultInjectingStore`](crate::FaultInjectingStore)
    /// is: durability claims are only worth making if they are
    /// reproducible.
    pub fn simulate_crash_truncation(&self, seed: u64, rate: f64) -> Vec<String> {
        let mut torn = Vec::new();
        for key in self.listed_keys() {
            if fraction(mix64(fnv1a64_seeded(seed, &[key.as_bytes()]))) < rate {
                let path = self.entry_path(&key);
                if let Ok(meta) = fs::metadata(&path) {
                    let cut = meta.len() / 2;
                    if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                        if f.set_len(cut).is_ok() {
                            torn.push(key);
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
/// well-formed XML is persisted ([`is_well_formed`]), so a torn or
/// corrupted upstream payload can never become a "valid" cache entry
/// that would defeat the repository's retry loop.
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

    /// Builder: a stable source identity for entry headers. Entries are
    /// only served back through a wrapper carrying the *same* identity,
    /// so a shared cache directory cannot violate search-path precedence.
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
                    self.cache.disk_hits.inc();
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
                    self.cache.disk_hits.inc();
                    return Ok(Some(text.clone()));
                }
            }
        }
        match self.inner.try_fetch(key) {
            Ok(Some(text)) => {
                // Persist only well-formed payloads; a torn/corrupt
                // upstream response must stay retryable, not get frozen
                // into the cache.
                if is_well_formed(&text) {
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
                            self.cache.stale_served_session.inc();
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

    /// Leave a temp file in `entries/` whose mtime is `age` ago.
    fn plant_temp_file(dir: &Path, name: &str, age: Duration) -> PathBuf {
        let path = dir.join(ENTRIES_DIR).join(name);
        fs::write(&path, "partial").unwrap();
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(SystemTime::now() - age).unwrap();
        path
    }

    #[test]
    fn header_roundtrips_losslessly() {
        for header in [
            EntryHeader {
                checksum: u64::MAX - 3, // beyond f64 precision: hex string survives
                len: 42,
                source: "dir:/tmp/\"models\"\nsecond line".to_string(),
                fetched_at_ms: 1_700_000_000_123,
                ttl_ms: Some(60_000),
            },
            EntryHeader {
                checksum: 7,
                len: 1,
                source: "library".to_string(),
                fetched_at_ms: 5,
                ttl_ms: None,
            },
        ] {
            let line = header.to_line();
            assert_eq!(line.find('\n'), Some(line.len() - 1), "one line: {line:?}");
            assert_eq!(EntryHeader::parse(&line).expect("parses"), header);
        }
    }

    #[test]
    fn header_rejects_garbage_and_future_versions() {
        let good = "{\"v\":1,\"checksum\":\"0000000000000007\",\"len\":1,\"source\":\"s\",\
                    \"fetched_at_ms\":5,\"ttl_ms\":null}";
        assert!(EntryHeader::parse(good).is_ok());
        assert!(EntryHeader::parse("").is_err());
        assert!(EntryHeader::parse("<cpu name=\"CpuA\"/>").is_err());
        assert!(EntryHeader::parse("{}").is_err());
        assert!(EntryHeader::parse(&good.replace("\"v\":1", "\"v\":99")).is_err());
        assert!(EntryHeader::parse(&good.replace("0000000000000007", "zz")).is_err());
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
    fn two_handles_on_one_dir_see_each_other_at_once() {
        let dir = tmp("twohandles");
        let a = DiskCache::open(&dir).unwrap();
        let b = DiskCache::open(&dir).unwrap();
        a.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        let (text, _) = b.get("CpuA", None).expect("B sees A's put without reopening");
        assert_eq!(text, "<cpu name=\"CpuA\"/>");
        assert_eq!(b.len(), 1);
        assert!(b.remove("CpuA", None).unwrap(), "B removes A's entry");
        assert!(a.get("CpuA", None).is_none(), "A sees B's remove");
        // A tears the entry it wrote; B finds it and quarantines it once.
        a.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        let path = a.entry_path("CpuA");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(b.get("CpuA", None).is_none());
        assert_eq!(b.quarantined_session(), 1);
        assert_eq!(b.take_diagnostics()[0].code, DIAG_QUARANTINED);
        // A reader that lost the race finds the file gone and does nothing.
        assert!(a.get("CpuA", None).is_none());
        a.quarantine("CpuA", &path, "read torn before B moved it");
        assert_eq!(a.quarantined_session(), 0);
        assert!(a.take_diagnostics().is_empty());
        assert_eq!(b.stats().quarantine_files, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_on_open_and_self_heals() {
        let dir = tmp("quarantine");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("CpuA", "<cpu name=\"CpuA\"/>", "library", None).unwrap();
        cache.put("CpuB", "<cpu name=\"CpuB\"/>", "library", None).unwrap();
        drop(cache);
        // Tear CpuA's text behind the cache's back; its header survives.
        let path = dir.join(ENTRIES_DIR).join("CpuA.xpdl");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1, "torn entry dropped");
        assert!(cache.get("CpuA", None).is_none());
        assert!(cache.get("CpuB", None).is_some(), "healthy sibling untouched");
        assert_eq!(cache.quarantined_session(), 1);
        let diags = cache.take_diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DIAG_QUARANTINED);
        assert_eq!(cache.stats().quarantine_files, 1);
        // Self-heal: a CachingStore re-fetches and re-persists.
        let store = CachingStore::new(library(), Arc::new(cache), Freshness::Strict)
            .with_source_id("library");
        assert!(store.try_fetch("CpuA").unwrap().is_some());
        assert!(store.cache().get("CpuA", Some("library")).is_some(), "healed");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A directory in the previous layout: an index file, a lock file of a
    /// dead writer, entries with no header line, and temp files.
    #[test]
    fn old_layout_dir_opens_quarantines_and_heals() {
        let dir = tmp("oldlayout");
        fs::create_dir_all(dir.join(ENTRIES_DIR)).unwrap();
        let text = |key| library().try_fetch(key).unwrap().expect("library key");
        let (cpu_a, cpu_b) = (text("CpuA"), text("CpuB"));
        let index = format!(
            "{{\"version\":1,\"entries\":{{\
             \"CpuA\":{{\"checksum\":\"{:016x}\",\"len\":{},\"source\":\"library\",\
             \"fetched_at_ms\":1700000000000,\"ttl_ms\":null}},\
             \"CpuB\":{{\"checksum\":\"{:016x}\",\"len\":{},\"source\":\"library\",\
             \"fetched_at_ms\":1700000000000,\"ttl_ms\":null}}}},\
             \"stats\":{{\"stale_served\":3,\"quarantined_total\":1}}}}",
            fnv1a64(cpu_a.as_bytes()),
            cpu_a.len(),
            fnv1a64(cpu_b.as_bytes()),
            cpu_b.len()
        );
        fs::write(dir.join("manifest.json"), &index).unwrap();
        // PID u32::MAX exceeds every Linux pid_max: a dead writer's lock.
        fs::write(dir.join(".lock"), u32::MAX.to_string()).unwrap();
        fs::write(dir.join(ENTRIES_DIR).join("CpuA.xpdl"), &cpu_a).unwrap();
        fs::write(dir.join(ENTRIES_DIR).join("CpuB.xpdl"), &cpu_b).unwrap();
        let old_tmp = plant_temp_file(&dir, ".tmp.999.7", Duration::from_secs(2 * 3600));
        let fresh_tmp = plant_temp_file(&dir, ".tmp.999.8", Duration::ZERO);

        let cache = Arc::new(DiskCache::open(&dir).expect("old layout opens"));
        let diags = cache.take_diagnostics();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == DIAG_QUARANTINED), "{diags:?}");
        assert_eq!(cache.quarantined_session(), 2);
        assert!(cache.is_empty());
        assert!(!old_tmp.exists(), "a dead writer's temp file is removed");
        assert!(fresh_tmp.exists(), "a live writer's temp file stays");
        // The next fetch heals both entries, and the old lock blocks no put.
        let store = CachingStore::new(library(), Arc::clone(&cache), Freshness::Strict)
            .with_source_id("library");
        for (key, text) in [("CpuA", &cpu_a), ("CpuB", &cpu_b)] {
            assert_eq!(store.try_fetch(key).unwrap().as_ref(), Some(text));
            assert_eq!(&cache.get(key, Some("library")).expect("healed").0, text);
        }
        cache.put("Dev", "<device name=\"Dev\"/>", "library", None).unwrap();
        assert_eq!(cache.len(), 3);
        assert!(cache.take_diagnostics().is_empty());
        assert_eq!(fs::read_to_string(dir.join("manifest.json")).unwrap(), index, "ignored");
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
        let written = fs::read(cache.entry_path("CpuA")).unwrap();
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
        // The count is per run: the serve wrote nothing to disk.
        assert_eq!(fs::read(cache.entry_path("CpuA")).unwrap(), written);
        assert_eq!(DiskCache::open(&dir).unwrap().stale_served_session(), 0);
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
        // A path-like key never reaches a file outside `entries/`.
        fs::write(dir.join("outside.xpdl"), "not an entry").unwrap();
        assert!(cache.get("../outside", None).is_none());
        assert!(dir.join("outside.xpdl").exists(), "not quarantined");
        assert_eq!(cache.quarantined_session(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_expired_entries_and_purges_quarantine() {
        let dir = tmp("gc");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put("Old", "<cpu name=\"Old\"/>", "library", Some(Duration::ZERO)).unwrap();
        cache.put("Live", "<cpu name=\"Live\"/>", "library", None).unwrap();
        fs::write(dir.join(QUARANTINE_DIR).join("junk.0.xpdl"), "x").unwrap();
        let old_tmp = plant_temp_file(&dir, ".tmp.999.1", Duration::from_secs(2 * 3600));
        let fresh_tmp = plant_temp_file(&dir, ".tmp.999.2", Duration::ZERO);
        std::thread::sleep(Duration::from_millis(5));
        let report = cache.gc(None).unwrap();
        assert_eq!(report.expired_removed, 1);
        assert_eq!(report.quarantine_removed, 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get("Live", None).is_some());
        assert!(!old_tmp.exists() && fresh_tmp.exists(), "only the dead writer's temp file goes");
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
        let fresh_tmp = plant_temp_file(&dir, ".tmp.999.3", Duration::ZERO);
        cache.clear().unwrap();
        assert!(cache.is_empty());
        assert!(!fresh_tmp.exists(), "clear removes every temp file");
        assert_eq!(cache.stats(), CacheStats::default());
        drop(cache);
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.is_empty(), "clear persisted");
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
