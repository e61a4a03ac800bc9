#![deny(missing_docs)]
//! The XPDL model repository.
//!
//! XPDL descriptors are "placed in a distributed model repository: XPDL
//! models can be stored locally (retrieved via the model search path), but
//! may, ideally, even be provided for download e.g. at hardware manufacturer
//! web sites" (paper §III). This crate implements that machinery:
//!
//! * [`store`] — pluggable descriptor stores: in-memory, on-disk
//!   directories, and simulated remote vendor sites (with fetch accounting,
//!   used by the toolchain benchmarks).
//! * [`repository`] — the search-path [`Repository`]: ordered stores, a
//!   thread-safe parse cache, and recursive resolution of every
//!   `type`/`extends`/`mb` reference reachable from a concrete model, with
//!   cycle detection.
//! * [`retry`] — [`RetryPolicy`]: per-failure-class retries with
//!   exponential backoff and deterministic jitter, applied inside every
//!   repository fetch.
//! * [`faults`] — [`FaultInjectingStore`]: a deterministic, seeded
//!   wrapper that makes any store fail, time out, or serve corrupted XML
//!   at configured rates, so the resilience machinery is testable.
//! * [`metrics`] — [`RepoMetrics`]: counters for fetches, retries, cache
//!   hits/misses, negative-cache hits, and failures, snapshotted via
//!   [`Repository::metrics`].
//! * [`diskcache`] — [`DiskCache`] / [`CachingStore`]: a crash-only
//!   persistent cache layer (one self-describing entry file per
//!   descriptor, each written by one atomic rename and checked against
//!   its own header on every read; no index and no lock; corruption
//!   quarantine) with an explicit [`Freshness`] degradation policy for
//!   stale-if-unavailable and fully-offline operation.
//! * [`hash`] — the seeded FNV-1a, SplitMix64 finalizer and `[0, 1)`
//!   fraction behind the cache checksums, fault scripts and retry jitter.
//!
//! # Example
//!
//! ```
//! use xpdl_repo::{MemoryStore, Repository};
//!
//! let mut store = MemoryStore::new();
//! store.insert("Xeon1", r#"<cpu name="Xeon1" frequency="2" frequency_unit="GHz"/>"#);
//! store.insert("srv", r#"<system id="srv"><socket><cpu id="h" type="Xeon1"/></socket></system>"#);
//! let repo = Repository::new().with_store(store);
//! let set = repo.resolve_recursive("srv").unwrap();
//! assert_eq!(set.documents().count(), 2);
//! assert!(set.get("Xeon1").is_some());
//! ```

pub mod diskcache;
pub mod faults;
pub mod hash;
pub mod metrics;
pub mod repository;
pub mod retry;
pub mod store;

pub use diskcache::{CacheError, CacheStats, CachingStore, DiskCache, Freshness, GcReport};
pub use faults::{FaultConfig, FaultInjectingStore, FaultStats, CORRUPTED_PAYLOAD};
pub use metrics::RepoMetrics;
pub use repository::{ResolveError, ResolveOptions, ResolvedSet, Repository};
pub use retry::RetryPolicy;
pub use store::{DirStore, MemoryStore, ModelStore, RemoteStore, StoreError};
