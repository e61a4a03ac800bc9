//! The search-path repository with caching and recursive resolution.

use crate::metrics::{MetricCounters, RepoMetrics};
use xpdl_obs::trace;
use crate::retry::RetryPolicy;
use crate::store::ModelStore;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xpdl_core::diag::Diagnostic;
use xpdl_core::{CoreError, ElementKind, XpdlDocument, XpdlElement};

/// Resolution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// No store provides the key.
    NotFound {
        /// The key that could not be found.
        key: String,
        /// Who referenced it (repository key of the referencing model).
        referenced_by: Option<String>,
        /// Store descriptions searched.
        searched: Vec<String>,
    },
    /// The descriptor failed to parse.
    Parse {
        /// Offending key.
        key: String,
        /// Underlying error.
        error: CoreError,
    },
    /// `extends`/`type` references form a cycle.
    Cycle {
        /// The reference chain, ending where it closes.
        stack: Vec<String>,
    },
    /// A store kept failing transiently and the retry budget ran out.
    /// Unlike [`ResolveError::NotFound`] this is *not* authoritative —
    /// the key may well exist; the store just never answered.
    Unavailable {
        /// The key whose fetch kept failing.
        key: String,
        /// Who referenced it, when resolution (not a direct load) failed.
        referenced_by: Option<String>,
        /// The failing store's description.
        store: String,
        /// How many attempts were made against that store.
        attempts: u32,
        /// Last transient error observed.
        detail: String,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NotFound { key, referenced_by, searched } => {
                write!(f, "model {key:?} not found")?;
                if let Some(by) = referenced_by {
                    write!(f, " (referenced by {by:?})")?;
                }
                write!(f, "; searched: {}", searched.join(", "))
            }
            ResolveError::Parse { key, error } => write!(f, "model {key:?}: {error}"),
            ResolveError::Cycle { stack } => {
                write!(f, "reference cycle: {}", stack.join(" -> "))
            }
            ResolveError::Unavailable { key, referenced_by, store, attempts, detail } => {
                write!(f, "model {key:?} unavailable after {attempts} attempt(s)")?;
                if let Some(by) = referenced_by {
                    write!(f, " (referenced by {by:?})")?;
                }
                write!(f, " from {store}: {detail}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

impl ResolveError {
    /// Stable machine-readable diagnostic code (`R3xx` = repository).
    pub fn code(&self) -> &'static str {
        match self {
            ResolveError::NotFound { .. } => "R301",
            ResolveError::Parse { .. } => "R302",
            ResolveError::Cycle { .. } => "R303",
            ResolveError::Unavailable { .. } => "R304",
        }
    }

    /// Convert into a [`Diagnostic`] for accumulation in keep-going mode.
    /// The diagnostic path is the repository key; parse errors carry the
    /// source position of the underlying XML fault when one is available.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let path = match self {
            ResolveError::NotFound { key, .. }
            | ResolveError::Parse { key, .. }
            | ResolveError::Unavailable { key, .. } => key.as_str(),
            ResolveError::Cycle { stack } => {
                stack.first().map(String::as_str).unwrap_or("<repository>")
            }
        };
        let mut d = Diagnostic::error(path, self.to_string()).with_code(self.code());
        if let ResolveError::Parse { error: CoreError::Xml(xml), .. } = self {
            d = d.with_span(xpdl_xml::Span::at(xml.pos));
        }
        d
    }
}

/// Options controlling recursive resolution.
#[derive(Debug, Clone)]
pub struct ResolveOptions {
    /// Treat unresolvable references as warnings collected on the
    /// [`ResolvedSet`] instead of hard errors. Useful for paper listings
    /// that reference elided names (`Intel_Xeon_...`).
    pub allow_missing: bool,
    /// Maximum number of documents to load (guards against runaway graphs).
    pub max_models: usize,
    /// Worker threads fanning out each BFS reference frontier. `1` keeps
    /// the classic serial resolver; higher values overlap store latency
    /// (remote fetches happen concurrently instead of back-to-back).
    /// Results and errors are deterministic regardless of `jobs`.
    pub jobs: usize,
}

impl Default for ResolveOptions {
    fn default() -> Self {
        ResolveOptions { allow_missing: false, max_models: 10_000, jobs: 1 }
    }
}

impl ResolveOptions {
    /// Default options with a worker count for parallel prefetch.
    pub fn with_jobs(jobs: usize) -> ResolveOptions {
        ResolveOptions { jobs: jobs.max(1), ..ResolveOptions::default() }
    }
}

/// The result of recursive resolution: all reachable documents, keyed.
#[derive(Debug, Clone)]
pub struct ResolvedSet {
    root_key: String,
    docs: BTreeMap<String, Arc<XpdlDocument>>,
    /// Keys that could not be resolved (only with `allow_missing`).
    pub missing: Vec<String>,
}

impl ResolvedSet {
    /// The key resolution started from.
    pub fn root_key(&self) -> &str {
        &self.root_key
    }

    /// The root document.
    pub fn root(&self) -> &XpdlDocument {
        &self.docs[&self.root_key]
    }

    /// Look up a document by key.
    pub fn get(&self, key: &str) -> Option<&XpdlDocument> {
        self.docs.get(key).map(Arc::as_ref)
    }

    /// All documents (sorted by key).
    pub fn documents(&self) -> impl Iterator<Item = (&str, &XpdlDocument)> {
        self.docs.iter().map(|(k, d)| (k.as_str(), d.as_ref()))
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the set is empty (never true for a successful resolution).
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// An ordered search path of stores plus a parse cache, a negative
/// cache for confirmed-missing keys, and a [`RetryPolicy`] governing
/// transient store failures.
#[derive(Default)]
pub struct Repository {
    stores: Vec<Box<dyn ModelStore>>,
    cache: RwLock<BTreeMap<String, Arc<XpdlDocument>>>,
    cache_enabled: bool,
    /// Keys every store has authoritatively denied. A confirmed miss is
    /// a fact worth caching: `allow_missing` resolutions re-request the
    /// same elided names over and over.
    negative: RwLock<BTreeSet<String>>,
    retry: RetryPolicy,
    metrics: MetricCounters,
    /// Registered persistent caches whose counters are merged into
    /// [`Repository::metrics`] snapshots.
    disk_caches: Vec<Arc<crate::DiskCache>>,
}

impl Repository {
    /// Empty repository with caching enabled and the default retry
    /// policy.
    pub fn new() -> Repository {
        Repository {
            stores: Vec::new(),
            cache: RwLock::new(BTreeMap::new()),
            cache_enabled: true,
            negative: RwLock::new(BTreeSet::new()),
            retry: RetryPolicy::default(),
            metrics: MetricCounters::default(),
            disk_caches: Vec::new(),
        }
    }

    /// Append a store to the search path (earlier stores win).
    pub fn with_store(mut self, store: impl ModelStore + 'static) -> Repository {
        self.push_store(Box::new(store));
        self
    }

    /// Append a boxed store.
    pub fn push_store(&mut self, store: Box<dyn ModelStore>) {
        self.stores.push(store);
        // A previously confirmed miss may now be served by the new store.
        self.negative.write().clear();
    }

    /// Replace the retry policy (builder form).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Repository {
        self.retry = policy;
        self
    }

    /// Replace the retry policy in place.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Disable the parse cache (ablation benchmarks).
    pub fn without_cache(mut self) -> Repository {
        self.cache_enabled = false;
        self
    }

    /// Register a persistent [`DiskCache`](crate::DiskCache) so its
    /// session counters (disk hits, stale serves, quarantines) appear in
    /// [`Repository::metrics`] snapshots. Several
    /// [`CachingStore`](crate::CachingStore)s may share one cache; register
    /// each distinct `Arc` once.
    pub fn register_disk_cache(&mut self, cache: Arc<crate::DiskCache>) {
        if !self.disk_caches.iter().any(|c| Arc::ptr_eq(c, &cache)) {
            self.disk_caches.push(cache);
        }
    }

    /// Snapshot the repository's activity counters, merged with the
    /// session counters of every registered disk cache.
    pub fn metrics(&self) -> RepoMetrics {
        let mut snap = self.metrics.snapshot();
        for cache in &self.disk_caches {
            snap.disk_hits += cache.disk_hits();
            snap.disk_stale_served += cache.stale_served_session();
            snap.quarantined += cache.quarantined_session();
        }
        snap
    }

    /// Store descriptions, in search order.
    pub fn search_path(&self) -> Vec<String> {
        self.stores.iter().map(|s| s.describe()).collect()
    }

    /// All keys available across stores (first occurrence wins).
    pub fn keys(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        for s in &self.stores {
            for k in s.keys() {
                seen.insert(k);
            }
        }
        seen.into_iter().collect()
    }

    /// Load and parse one descriptor by key.
    ///
    /// Walks the search path in order. At each store, transient failures
    /// ([`crate::StoreError`]) and — when the policy allows — corrupted
    /// payloads are retried with backoff; an authoritative miss moves on
    /// to the next store immediately. Only when *every* store has
    /// definitively denied the key is it recorded in the negative cache
    /// and reported as [`ResolveError::NotFound`]; if any store merely
    /// kept failing, the result is [`ResolveError::Unavailable`].
    pub fn load(&self, key: &str) -> Result<Arc<XpdlDocument>, ResolveError> {
        let mut sp = trace::span("repo.load");
        sp.record_attr("key", key);
        if self.cache_enabled {
            if let Some(doc) = self.cache.read().get(key) {
                self.metrics.cache_hits.inc();
                sp.record_attr("tier", "memory");
                return Ok(doc.clone());
            }
        }
        self.metrics.cache_misses.inc();
        if self.negative.read().contains(key) {
            self.metrics.negative_hits.inc();
            sp.record_attr("tier", "negative");
            return Err(self.not_found(key));
        }
        sp.record_attr("tier", "store");
        // Last store whose retry budget ran out on a transient failure.
        let mut exhausted: Option<(String, u32, String)> = None;
        for (store_idx, store) in self.stores.iter().enumerate() {
            let mut attempt: u32 = 0;
            loop {
                attempt += 1;
                self.metrics.fetch_attempts.inc();
                trace::event("repo.fetch").attr("store", store_idx).attr("attempt", attempt);
                match store.try_fetch(key) {
                    Ok(Some(source)) => {
                        let parsed = {
                            let _psp = trace::span("repo.parse");
                            XpdlDocument::parse_named(&source, key)
                        };
                        match parsed {
                            Ok(doc) => {
                                let doc = Arc::new(doc);
                                if self.cache_enabled {
                                    self.cache.write().insert(key.to_string(), doc.clone());
                                }
                                self.metrics.documents_loaded.inc();
                                return Ok(doc);
                            }
                            Err(error) => {
                                self.metrics.parse_errors.inc();
                                if self.retry.should_retry_parse_error(attempt) {
                                    self.metrics.retries.inc();
                                    self.backoff(key, attempt);
                                    continue;
                                }
                                // Persistently malformed: the descriptor
                                // itself is bad, not the transport.
                                return Err(ResolveError::Parse {
                                    key: key.to_string(),
                                    error,
                                });
                            }
                        }
                    }
                    // An authoritative miss: never retried, next store.
                    Ok(None) => break,
                    Err(error) => {
                        self.metrics.fetch_failures.inc();
                        if self.retry.should_retry_store_error(attempt) {
                            self.metrics.retries.inc();
                            self.backoff(key, attempt);
                            continue;
                        }
                        exhausted = Some((store.describe(), attempt, error.to_string()));
                        break;
                    }
                }
            }
        }
        if let Some((store, attempts, detail)) = exhausted {
            // At least one store never answered, so absence is unproven:
            // do NOT poison the negative cache.
            return Err(ResolveError::Unavailable {
                key: key.to_string(),
                referenced_by: None,
                store,
                attempts,
                detail,
            });
        }
        self.negative.write().insert(key.to_string());
        Err(self.not_found(key))
    }

    /// Sleep out the retry backoff for `key`, recording the wait in the
    /// `repo.retry.wait_us` histogram and as a trace event.
    fn backoff(&self, key: &str, attempt: u32) {
        let delay = self.retry.delay_after(key, attempt);
        let wait_us = delay.as_micros() as u64;
        self.metrics.retry_wait_us.record(wait_us);
        trace::event("repo.retry.wait").attr("attempt", attempt).attr("wait_us", wait_us);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    fn not_found(&self, key: &str) -> ResolveError {
        ResolveError::NotFound {
            key: key.to_string(),
            referenced_by: None,
            searched: self.search_path(),
        }
    }

    /// Number of cached parsed documents.
    pub fn cache_len(&self) -> usize {
        self.cache.read().len()
    }

    /// Number of keys confirmed missing by every store.
    pub fn negative_cache_len(&self) -> usize {
        self.negative.read().len()
    }

    /// Drop the cache contents (both parse and negative caches).
    pub fn clear_cache(&self) {
        self.cache.write().clear();
        self.negative.write().clear();
    }

    /// Fetch and parse many descriptors concurrently, warming the cache.
    ///
    /// Vendor sites are slow relative to local stores; preloading a known
    /// working set on up to eight scoped threads (stores are `Sync`) hides
    /// that latency before a batch of resolutions. Returns how many keys
    /// loaded successfully.
    pub fn preload_parallel(&self, keys: &[&str]) -> usize {
        fan_out(keys, 8, |k| self.load(k).is_ok()).into_iter().filter(|&ok| ok).count()
    }

    /// Resolve `key` and everything transitively referenced via
    /// `type`/`extends`/`mb`/`instruction_set` attributes.
    pub fn resolve_recursive(&self, key: &str) -> Result<ResolvedSet, ResolveError> {
        self.resolve_with(key, &ResolveOptions::default())
    }

    /// Resolve with options.
    ///
    /// Resolution is a level-synchronous BFS over the reference graph:
    /// each round loads the current frontier (serially, or across
    /// `opts.jobs` scoped worker threads), then collects the next
    /// frontier from the newly loaded documents. Parallelism only
    /// overlaps store latency — the processing order, the resulting
    /// document set, and which error surfaces first are all independent
    /// of `jobs` and of thread scheduling.
    pub fn resolve_with(
        &self,
        key: &str,
        opts: &ResolveOptions,
    ) -> Result<ResolvedSet, ResolveError> {
        let mut sp = trace::span("repo.resolve");
        sp.record_attr("key", key);
        sp.record_attr("jobs", opts.jobs);
        let mut docs: BTreeMap<String, Arc<XpdlDocument>> = BTreeMap::new();
        let mut missing = Vec::new();
        // Everything ever enqueued, so a key referenced from several
        // documents is fetched (and reported missing) at most once.
        let mut enqueued: BTreeSet<String> = BTreeSet::new();
        enqueued.insert(key.to_string());
        let mut frontier: Vec<(String, Option<String>)> = vec![(key.to_string(), None)];
        while !frontier.is_empty() {
            let loaded = fan_out(&frontier, opts.jobs, |(k, _)| self.load(k));
            let mut next: Vec<(String, Option<String>)> = Vec::new();
            for ((k, referenced_by), result) in frontier.into_iter().zip(loaded) {
                if docs.len() >= opts.max_models {
                    return Err(ResolveError::Cycle {
                        stack: vec![format!("model limit {} exceeded at {k}", opts.max_models)],
                    });
                }
                let doc = match result {
                    Ok(d) => d,
                    Err(ResolveError::NotFound { key, searched, .. }) => {
                        if opts.allow_missing && referenced_by.is_some() {
                            missing.push(key);
                            continue;
                        }
                        return Err(ResolveError::NotFound { key, referenced_by, searched });
                    }
                    Err(ResolveError::Unavailable { key, store, attempts, detail, .. }) => {
                        return Err(ResolveError::Unavailable {
                            key,
                            referenced_by,
                            store,
                            attempts,
                            detail,
                        });
                    }
                    Err(e) => return Err(e),
                };
                docs.insert(k.clone(), Arc::clone(&doc));
                // A document's local identifiers satisfy references before
                // the repository is consulted (in-line definitions, paper
                // §III-A).
                let local: BTreeSet<&str> =
                    doc.root().descendants().filter_map(|e| e.ident()).collect();
                for r in references_of(doc.root()) {
                    if !local.contains(r) && !docs.contains_key(r) && !enqueued.contains(r) {
                        enqueued.insert(r.to_string());
                        next.push((r.to_string(), Some(k.clone())));
                    }
                }
            }
            frontier = next;
        }
        // Cycle detection over the extends graph (type references to
        // already-loaded docs are fine; inheritance cycles are not).
        check_extends_acyclic(&docs)?;
        Ok(ResolvedSet { root_key: key.to_string(), docs, missing })
    }

    /// Resolve several roots, sharing this repository's caches.
    ///
    /// With `opts.jobs > 1` and several roots, the roots themselves are
    /// resolved across scoped worker threads (each root's own frontier is
    /// then loaded serially — the parallelism budget is spent once, at the
    /// batch level); a single root spends it on its frontiers. Results come
    /// back in input order, one per root, so callers can pair them back up
    /// with their keys.
    pub fn resolve_batch(
        &self,
        keys: &[&str],
        opts: &ResolveOptions,
    ) -> Vec<Result<ResolvedSet, ResolveError>> {
        let mut sp = trace::span("repo.resolve_batch");
        sp.record_attr("roots", keys.len());
        let jobs = if keys.len() > 1 { 1 } else { opts.jobs };
        let inner = ResolveOptions { jobs, ..opts.clone() };
        fan_out(keys, opts.jobs, |k| self.resolve_with(k, &inner))
    }
}

/// Map `items` through `f` on at most `jobs` scoped worker threads and
/// return the results in input order. With `jobs <= 1`, or a single
/// item, it maps on the caller's thread and spawns nothing.
///
/// Workers pull the next index from a shared atomic cursor (cheap work
/// stealing without a channel), so which thread ran an item never shows
/// in the result. Each runs under a `repo.worker` span whose parent is
/// the caller's span: a fresh thread starts with an empty span context.
fn fan_out<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let parent_span = trace::current_span_id();
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let _wsp = trace::span_with_parent("repo.worker", parent_span);
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("repository worker panicked")).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Whether the `type=` attribute of this element kind references a
/// meta-model in the repository.
///
/// `type=` on `param`, `const`, `property` and `data` is a *data type* name
/// (`msize`, `integer`; cf. Listing 8); on `programming_model` it is a list
/// of programming-model names (`"cuda6.0,opencl"`). Neither is a
/// repository key.
pub fn type_is_model_ref(kind: &ElementKind) -> bool {
    !matches!(
        kind,
        ElementKind::Param
            | ElementKind::Const
            | ElementKind::Property
            | ElementKind::Data
            | ElementKind::Properties
            | ElementKind::ProgrammingModel
            // `type=` on a microbenchmark names the instruction it
            // measures (Listing 15), not a model.
            | ElementKind::Microbenchmark
    )
}

/// Collect the outgoing repository references of a model tree.
///
/// `type=` on hardware/software elements references a meta-model;
/// `extends=` references supertypes; suite-level `mb=` (on `instructions`)
/// and `instruction_set=` (on `microbenchmarks`) cross-link instruction
/// sets and microbenchmark suites. Not chased:
///
/// * the [`type_is_model_ref`] exceptions (params, properties, data,
///   programming models);
/// * `type=` inside a `power_domain` — those name the domain's *component
///   types/ids* (Listing 12: `<core type="Leon"/>`), resolved against the
///   surrounding model, not the repository;
/// * per-instruction `mb=` (on `inst`) — those are benchmark-entry ids
///   *within* the suite the instruction set already references.
pub fn references_of(root: &XpdlElement) -> Vec<&str> {
    fn walk<'e>(
        e: &'e XpdlElement,
        in_power_domain: bool,
        seen: &mut BTreeSet<&'e str>,
        out: &mut Vec<&'e str>,
    ) {
        if !in_power_domain && type_is_model_ref(&e.kind) {
            if let Some(t) = &e.type_ref {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        for sup in &e.extends {
            if seen.insert(sup) {
                out.push(sup);
            }
        }
        let suite_attr = match e.kind {
            ElementKind::Instructions => Some("mb"),
            ElementKind::Microbenchmarks => Some("instruction_set"),
            _ => None,
        };
        if let Some(attr) = suite_attr {
            if let Some(v) = e.attr(attr) {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        let inside = in_power_domain || e.kind == ElementKind::PowerDomain;
        for c in &e.children {
            walk(c, inside, seen, out);
        }
    }
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    walk(root, false, &mut seen, &mut out);
    out
}

/// Verify the `extends` relation across a resolved set is acyclic.
fn check_extends_acyclic(
    docs: &BTreeMap<String, Arc<XpdlDocument>>,
) -> Result<(), ResolveError> {
    // Build name -> extends edge list from all root elements.
    let mut edges: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for doc in docs.values() {
        if let Some(name) = doc.root().meta_name() {
            edges.insert(name, doc.root().extends.iter().map(|s| &**s).collect());
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Visiting,
        Done,
    }
    fn visit<'a>(
        n: &'a str,
        edges: &BTreeMap<&'a str, Vec<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Result<(), ResolveError> {
        match marks.get(n) {
            Some(Mark::Done) => return Ok(()),
            Some(Mark::Visiting) => {
                let mut cycle: Vec<String> = stack.iter().map(|s| s.to_string()).collect();
                cycle.push(n.to_string());
                return Err(ResolveError::Cycle { stack: cycle });
            }
            None => {}
        }
        marks.insert(n, Mark::Visiting);
        stack.push(n);
        for &m in edges.get(n).into_iter().flatten() {
            if edges.contains_key(m) {
                visit(m, edges, marks, stack)?;
            }
        }
        stack.pop();
        marks.insert(n, Mark::Done);
        Ok(())
    }
    let mut marks = BTreeMap::new();
    for &n in edges.keys() {
        visit(n, &edges, &mut marks, &mut Vec::new())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemoryStore, RemoteStore};

    fn kepler_repo() -> Repository {
        let mut m = MemoryStore::new();
        m.insert("Nvidia_GPU", r#"<device name="Nvidia_GPU" role="worker"/>"#);
        m.insert(
            "Nvidia_Kepler",
            r#"<device name="Nvidia_Kepler" extends="Nvidia_GPU">
                 <param name="num_SM" type="integer"/>
               </device>"#,
        );
        m.insert(
            "Nvidia_K20c",
            r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler"><param name="num_SM" value="13"/></device>"#,
        );
        m.insert("pcie3", r#"<interconnect name="pcie3"><channel name="up_link"/></interconnect>"#);
        m.insert("Intel_Xeon_E5_2630L", r#"<cpu name="Intel_Xeon_E5_2630L"/>"#);
        m.insert(
            "liu_gpu_server",
            r#"<system id="liu_gpu_server">
                 <socket><cpu id="gpu_host" type="Intel_Xeon_E5_2630L"/></socket>
                 <device id="gpu1" type="Nvidia_K20c"/>
                 <interconnects>
                   <interconnect id="connection1" type="pcie3" head="gpu_host" tail="gpu1"/>
                 </interconnects>
               </system>"#,
        );
        Repository::new().with_store(m)
    }

    #[test]
    fn resolve_listing7_closure() {
        let repo = kepler_repo();
        let set = repo.resolve_recursive("liu_gpu_server").unwrap();
        let keys: Vec<_> = set.documents().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                "Intel_Xeon_E5_2630L",
                "Nvidia_GPU",
                "Nvidia_K20c",
                "Nvidia_Kepler",
                "liu_gpu_server",
                "pcie3"
            ]
        );
        assert_eq!(set.root_key(), "liu_gpu_server");
        assert_eq!(set.root().key(), Some("liu_gpu_server"));
    }

    #[test]
    fn param_type_is_not_a_model_reference() {
        let repo = kepler_repo();
        // Nvidia_Kepler's param has type="integer"; resolution must not try
        // to fetch a model called "integer".
        let set = repo.resolve_recursive("Nvidia_Kepler").unwrap();
        assert_eq!(set.len(), 2); // Kepler + Nvidia_GPU
    }

    #[test]
    fn missing_reference_reports_referrer() {
        let mut m = MemoryStore::new();
        m.insert("sys", r#"<system id="sys"><device id="d" type="Ghost"/></system>"#);
        let repo = Repository::new().with_store(m);
        let err = repo.resolve_recursive("sys").unwrap_err();
        match err {
            ResolveError::NotFound { key, referenced_by, .. } => {
                assert_eq!(key, "Ghost");
                assert_eq!(referenced_by.as_deref(), Some("sys"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn allow_missing_collects_instead_of_failing() {
        let mut m = MemoryStore::new();
        m.insert("sys", r#"<system id="sys"><device id="d" type="Ghost"/></system>"#);
        let repo = Repository::new().with_store(m);
        let set = repo
            .resolve_with("sys", &ResolveOptions { allow_missing: true, ..Default::default() })
            .unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.missing, vec!["Ghost"]);
    }

    #[test]
    fn root_not_found_is_always_an_error() {
        let repo = Repository::new().with_store(MemoryStore::new());
        let err = repo
            .resolve_with("nope", &ResolveOptions { allow_missing: true, ..Default::default() })
            .unwrap_err();
        assert!(matches!(err, ResolveError::NotFound { .. }));
    }

    #[test]
    fn inline_definitions_satisfy_references() {
        let mut m = MemoryStore::new();
        // `type="Xeon1"` refers to the in-document meta-model.
        m.insert(
            "sys",
            r#"<system id="sys">
                 <cpu name="Xeon1"/>
                 <socket><cpu id="h" type="Xeon1"/></socket>
               </system>"#,
        );
        let repo = Repository::new().with_store(m);
        let set = repo.resolve_recursive("sys").unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn extends_cycle_detected() {
        let mut m = MemoryStore::new();
        m.insert("A", r#"<device name="A" extends="B"/>"#);
        m.insert("B", r#"<device name="B" extends="A"/>"#);
        let repo = Repository::new().with_store(m);
        let err = repo.resolve_recursive("A").unwrap_err();
        assert!(matches!(err, ResolveError::Cycle { .. }), "{err}");
    }

    #[test]
    fn cache_hits_avoid_refetch() {
        let mut remote = RemoteStore::new("https://nvidia.example/xpdl");
        remote.publish("K20c", r#"<device name="K20c"/>"#);
        let repo = Repository::new().with_store(remote);
        repo.load("K20c").unwrap();
        repo.load("K20c").unwrap();
        repo.load("K20c").unwrap();
        assert_eq!(repo.cache_len(), 1);
        // The store served exactly one fetch; the rest hit the cache.
        // (Fetch counter is on the store, reachable via search_path desc.)
        let desc = repo.search_path().join(" ");
        assert!(desc.contains("remote store"));
    }

    #[test]
    fn without_cache_reloads() {
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        let repo = Repository::new().with_store(m).without_cache();
        repo.load("X").unwrap();
        assert_eq!(repo.cache_len(), 0);
    }

    #[test]
    fn search_order_earlier_store_wins() {
        let mut a = MemoryStore::new();
        a.insert("X", r#"<cpu name="X" frequency="1"/>"#);
        let mut b = MemoryStore::new();
        b.insert("X", r#"<cpu name="X" frequency="2"/>"#);
        let repo = Repository::new().with_store(a).with_store(b);
        let doc = repo.load("X").unwrap();
        assert_eq!(doc.root().attr("frequency"), Some("1"));
        assert_eq!(repo.keys(), vec!["X"]);
    }

    #[test]
    fn parse_error_carries_key() {
        let mut m = MemoryStore::new();
        m.insert("bad", "<cpu name='x'");
        let repo = Repository::new().with_store(m);
        match repo.load("bad").unwrap_err() {
            ResolveError::Parse { key, .. } => assert_eq!(key, "bad"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn preload_parallel_warms_cache() {
        let mut m = MemoryStore::new();
        let keys: Vec<String> = (0..40).map(|i| format!("M{i}")).collect();
        for k in &keys {
            m.insert(k.clone(), format!("<cpu name=\"{k}\"/>"));
        }
        let repo = Repository::new().with_store(m);
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let loaded = repo.preload_parallel(&refs);
        assert_eq!(loaded, 40);
        assert_eq!(repo.cache_len(), 40);
        // Unknown keys just don't count.
        assert_eq!(repo.preload_parallel(&["nope", "M0"]), 1);
    }

    #[test]
    fn preload_workers_nest_under_the_callers_span() {
        let mut m = MemoryStore::new();
        let keys = ["W0", "W1", "W2", "W3"];
        for k in keys {
            m.insert(k, format!("<cpu name=\"{k}\"/>"));
        }
        let repo = Repository::new().with_store(m);
        trace::set_enabled(true);
        let root = trace::span("repo_test.preload");
        let root_id = root.id();
        assert_eq!(repo.preload_parallel(&keys), 4);
        drop(root);
        trace::set_enabled(false);
        let records = trace::global_collector().drain();
        let workers: BTreeSet<u64> = records
            .iter()
            .filter(|r| r.name == "repo.worker" && r.parent == root_id)
            .map(|r| r.id)
            .collect();
        assert!(!workers.is_empty(), "no repo.worker span under the caller's span");
        let loads = records.iter().filter(|r| r.name == "repo.load" && workers.contains(&r.parent));
        assert_eq!(loads.count(), 4);
    }

    #[test]
    fn clear_cache_resets() {
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        let repo = Repository::new().with_store(m);
        repo.load("X").unwrap();
        assert_eq!(repo.cache_len(), 1);
        repo.clear_cache();
        assert_eq!(repo.cache_len(), 0);
    }

    #[test]
    fn negative_cache_short_circuits_confirmed_misses() {
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        let repo = Repository::new().with_store(m);
        assert!(repo.load("Ghost").is_err());
        assert_eq!(repo.negative_cache_len(), 1);
        assert!(repo.load("Ghost").is_err());
        let metrics = repo.metrics();
        assert_eq!(metrics.negative_hits, 1, "{metrics}");
        // The second miss never touched a store.
        assert_eq!(metrics.fetch_attempts, 1, "{metrics}");
    }

    #[test]
    fn pushing_a_store_invalidates_the_negative_cache() {
        let mut first = MemoryStore::new();
        first.insert("X", r#"<cpu name="X"/>"#);
        let mut repo = Repository::new().with_store(first);
        assert!(repo.load("Late").is_err());
        assert_eq!(repo.negative_cache_len(), 1);
        let mut second = MemoryStore::new();
        second.insert("Late", r#"<cpu name="Late"/>"#);
        repo.push_store(Box::new(second));
        assert!(repo.load("Late").is_ok(), "new store must be consulted");
    }

    #[test]
    fn exhausted_retries_surface_unavailable_not_notfound() {
        use crate::faults::{FaultConfig, FaultInjectingStore};
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        let faulty = FaultInjectingStore::new(m, FaultConfig::failures(1.0, 9));
        let repo = Repository::new()
            .with_store(faulty)
            .with_retry_policy(RetryPolicy::with_max_attempts(2));
        match repo.load("X").unwrap_err() {
            ResolveError::Unavailable { key, attempts, store, .. } => {
                assert_eq!(key, "X");
                assert_eq!(attempts, 2);
                assert!(store.contains("fault-injecting"), "{store}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unproven absence must not poison the negative cache.
        assert_eq!(repo.negative_cache_len(), 0);
        let metrics = repo.metrics();
        assert_eq!(metrics.fetch_attempts, 2, "{metrics}");
        assert_eq!(metrics.retries, 1, "{metrics}");
    }

    #[test]
    fn retries_recover_from_transient_failures() {
        use crate::faults::{FaultConfig, FaultInjectingStore};
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        // Seed 2 fails the first fetch of "X" at a 50% rate but passes a
        // later attempt within the default 4-attempt budget.
        let faulty = FaultInjectingStore::new(m, FaultConfig::failures(0.5, 2));
        let repo = Repository::new().with_store(faulty);
        let mut recovered = false;
        for _ in 0..8 {
            repo.clear_cache();
            if repo.load("X").is_ok() && repo.metrics().retries > 0 {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "expected at least one retried-then-successful load");
    }

    #[test]
    fn corrupted_payloads_are_refetched() {
        use crate::faults::{FaultConfig, FaultInjectingStore};
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        let faulty = FaultInjectingStore::new(m, FaultConfig::new(0.0, 0.0, 0.4, 11));
        let repo = Repository::new().with_store(faulty);
        let mut saw_corruption_recovery = false;
        for _ in 0..16 {
            repo.clear_cache();
            let loaded = repo.load("X");
            let metrics = repo.metrics();
            if loaded.is_ok() && metrics.parse_errors > 0 {
                saw_corruption_recovery = true;
                break;
            }
        }
        assert!(saw_corruption_recovery, "expected a corrupted fetch to be retried to success");
    }

    #[test]
    fn parse_retries_disabled_surface_parse_error() {
        use crate::faults::{FaultConfig, FaultInjectingStore};
        let mut m = MemoryStore::new();
        m.insert("X", r#"<cpu name="X"/>"#);
        let faulty = FaultInjectingStore::new(m, FaultConfig::new(0.0, 0.0, 1.0, 12));
        let repo = Repository::new().with_store(faulty).with_retry_policy(RetryPolicy::none());
        match repo.load("X").unwrap_err() {
            ResolveError::Parse { key, .. } => assert_eq!(key, "X"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parallel_resolution_matches_serial() {
        let serial = kepler_repo().resolve_recursive("liu_gpu_server").unwrap();
        let parallel = kepler_repo()
            .resolve_with("liu_gpu_server", &ResolveOptions::with_jobs(4))
            .unwrap();
        let a: Vec<_> = serial.documents().map(|(k, _)| k.to_string()).collect();
        let b: Vec<_> = parallel.documents().map(|(k, _)| k.to_string()).collect();
        assert_eq!(a, b);
        assert_eq!(serial.missing, parallel.missing);
    }

    #[test]
    fn parallel_resolution_reports_first_frontier_error() {
        let mut m = MemoryStore::new();
        m.insert(
            "sys",
            r#"<system id="sys">
                 <device id="a" type="GhostA"/>
                 <device id="b" type="GhostB"/>
               </system>"#,
        );
        let repo = Repository::new().with_store(m);
        // Regardless of worker scheduling, the error must be the first
        // unresolvable reference in frontier order.
        for _ in 0..4 {
            repo.clear_cache();
            let err = repo
                .resolve_with("sys", &ResolveOptions::with_jobs(4))
                .unwrap_err();
            match err {
                ResolveError::NotFound { key, .. } => assert_eq!(key, "GhostA"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn resolve_batch_preserves_input_order() {
        let repo = kepler_repo();
        let keys = ["Nvidia_K20c", "nope", "liu_gpu_server"];
        let results =
            repo.resolve_batch(&keys, &ResolveOptions { jobs: 3, ..Default::default() });
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().root_key(), "Nvidia_K20c");
        assert!(matches!(results[1], Err(ResolveError::NotFound { .. })));
        assert_eq!(results[2].as_ref().unwrap().root_key(), "liu_gpu_server");
        // The batch shares one parse cache: K20c's chain is not re-fetched
        // for the system resolution.
        assert!(repo.metrics().cache_hits > 0);
    }

    #[test]
    fn metrics_count_cache_hits_and_loads() {
        let repo = kepler_repo();
        repo.resolve_recursive("liu_gpu_server").unwrap();
        repo.resolve_recursive("liu_gpu_server").unwrap();
        let metrics = repo.metrics();
        assert_eq!(metrics.documents_loaded, 6, "{metrics}");
        assert!(metrics.cache_hits >= 1, "{metrics}");
        assert_eq!(metrics.fetch_failures, 0, "{metrics}");
    }

    #[test]
    fn references_of_collects_mb_links() {
        let doc = XpdlDocument::parse_str(
            r#"<instructions name="x86_base_isa" mb="mb_x86_base_1">
                 <inst name="fmul" energy="?" energy_unit="pJ" mb="fa1"/>
               </instructions>"#,
        )
        .unwrap();
        let refs = references_of(doc.root());
        assert!(refs.contains(&"mb_x86_base_1"));
        // Per-instruction mb refs are entry ids inside the suite — not
        // repository keys.
        assert!(!refs.contains(&"fa1"));
    }

    #[test]
    fn references_of_skips_power_domain_components() {
        let doc = XpdlDocument::parse_str(
            r#"<power_model name="pm">
                 <power_domains name="pds">
                   <power_domain name="main_pd"><core type="Leon"/></power_domain>
                 </power_domains>
               </power_model>"#,
        )
        .unwrap();
        assert!(references_of(doc.root()).is_empty());
    }

    #[test]
    fn resolve_errors_convert_to_coded_diagnostics() {
        let nf = ResolveError::NotFound {
            key: "Ghost".into(),
            referenced_by: Some("srv".into()),
            searched: vec!["memory".into()],
        };
        let d = nf.to_diagnostic();
        assert_eq!(d.code, "R301");
        assert_eq!(d.path, "Ghost");
        assert!(d.is_error());
        assert!(d.message.contains("not found"));

        let cyc = ResolveError::Cycle { stack: vec!["A".into(), "B".into(), "A".into()] };
        assert_eq!(cyc.to_diagnostic().code, "R303");
        assert_eq!(cyc.to_diagnostic().path, "A");

        // A parse failure inside a stored descriptor carries the XML
        // source position through to the diagnostic span.
        let mut store = crate::MemoryStore::new();
        store.insert("broken", "<system id=\"s\">\n  <oops\n</system>");
        let repo = Repository::new().with_store(store);
        let err = repo.load("broken").unwrap_err();
        let d = err.to_diagnostic();
        assert_eq!(d.code, "R302");
        assert_eq!(d.path, "broken");
        let pos = d.pos().expect("parse diagnostics carry a position");
        assert!(pos.line >= 2, "error should point past line 1, got {pos:?}");
    }
}
