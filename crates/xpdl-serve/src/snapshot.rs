//! Epoch-based snapshot registry: hot reload without blocking readers.
//!
//! The daemon serves every query from an immutable [`ServeSnapshot`]
//! (`Arc<RuntimeModel>` plus metadata). A reload builds the replacement
//! model entirely off to the side — repository fetch, elaboration,
//! flattening, fingerprinting all happen before the registry is touched —
//! and then *installs* it: under the registry's write lock the epoch is
//! bumped and the current `Arc` is swapped for the new one.
//!
//! Readers do the inverse: one clone of the current `Arc` under the read
//! lock. A reader can wait for at most one install's pointer swap, never
//! for model compilation, and in-flight queries keep their `Arc` across
//! any number of swaps: an old epoch's model is freed when its last query
//! completes, never before — and the registry itself holds no superseded
//! model.
//!
//! # Example
//!
//! ```
//! use xpdl_serve::{ServeSnapshot, SnapshotRegistry};
//!
//! let doc = xpdl_core::XpdlDocument::parse_str(
//!     r#"<system id="s"><core id="c"/></system>"#,
//! ).unwrap();
//! let registry = SnapshotRegistry::new(ServeSnapshot::initial(
//!     xpdl_runtime::RuntimeModel::from_element(doc.root()),
//!     "doc v1",
//! ));
//! let held = registry.load(); // a reader takes the epoch-0 snapshot
//!
//! // A hot reload installs epoch 1 without pausing that reader.
//! let epoch = registry.install(ServeSnapshot::initial(
//!     xpdl_runtime::RuntimeModel::from_element(doc.root()),
//!     "doc v2",
//! ));
//! assert_eq!(epoch, 1);
//! assert_eq!(registry.load().epoch, 1); // new readers see the new epoch
//! assert_eq!(held.epoch, 0);            // the held snapshot stays valid
//! ```

use std::sync::Arc;
use std::time::Instant;
use xpdl_codegen::plan::CompiledGetters;
use xpdl_runtime::{format, RuntimeModel, XpdlHandle};

/// One immutable, shareable serving unit.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// The epoch this snapshot was installed at (0 = initial load).
    pub epoch: u64,
    /// The query handle (cheap to clone; shares the model).
    pub handle: XpdlHandle,
    /// FNV-1a fingerprint of the encoded model — reloads that produce
    /// the same bytes are recognized and skipped.
    pub fingerprint: u64,
    /// Human-readable description of where the model came from.
    pub source: String,
    /// When this snapshot was installed.
    pub loaded_at: Instant,
    /// Compiled query plans over this snapshot's model: per-snapshot
    /// string table plus pre-resolved index tables, built once at
    /// install time (see `xpdl_codegen::plan`). The query hot path
    /// serves from these; the `handle` walk stays for estimators and
    /// introspection.
    pub plans: Arc<CompiledGetters>,
}

impl ServeSnapshot {
    /// Build the epoch-0 snapshot from a compiled model.
    pub fn initial(model: RuntimeModel, source: impl Into<String>) -> ServeSnapshot {
        let fingerprint = fingerprint_model(&model);
        ServeSnapshot::with_fingerprint(model, fingerprint, source)
    }

    /// Build a snapshot from a model whose fingerprint is already known
    /// (the reload path fingerprints first to detect no-op swaps). The
    /// epoch is a placeholder until [`SnapshotRegistry::install`]
    /// assigns the real one.
    pub fn with_fingerprint(
        model: RuntimeModel,
        fingerprint: u64,
        source: impl Into<String>,
    ) -> ServeSnapshot {
        let plans = Arc::new(CompiledGetters::compile(&model));
        ServeSnapshot {
            epoch: 0,
            handle: XpdlHandle::from_model(model),
            fingerprint,
            source: source.into(),
            loaded_at: Instant::now(),
            plans,
        }
    }
}

/// FNV-1a over the model's canonical encoding.
pub fn fingerprint_model(model: &RuntimeModel) -> u64 {
    xpdl_repo::diskcache::fnv1a64(format::encode(model).as_ref())
}

/// The swap point between the reload path and every reader.
#[derive(Debug)]
pub struct SnapshotRegistry {
    current: parking_lot::RwLock<Arc<ServeSnapshot>>,
}

impl SnapshotRegistry {
    /// Create a registry serving `initial` at epoch 0.
    pub fn new(initial: ServeSnapshot) -> SnapshotRegistry {
        let mut initial = initial;
        initial.epoch = 0;
        SnapshotRegistry { current: parking_lot::RwLock::new(Arc::new(initial)) }
    }

    /// The epoch currently being served.
    pub fn current_epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Take the current snapshot: one `Arc` clone under the read lock,
    /// which waits at most for one install's pointer swap, never for a
    /// reload's compilation. The returned snapshot stays valid (and its
    /// epoch stays meaningful) for as long as the caller holds it,
    /// regardless of how many reloads happen meanwhile.
    pub fn load(&self) -> Arc<ServeSnapshot> {
        self.current.read().clone()
    }

    /// Install a new snapshot, returning the epoch it was assigned.
    /// Installs are serialized by the write lock, which is held only for
    /// the epoch bump and the pointer swap.
    pub fn install(&self, mut snapshot: ServeSnapshot) -> u64 {
        snapshot.loaded_at = Instant::now();
        let mut current = self.current.write();
        let next = current.epoch + 1;
        snapshot.epoch = next;
        let displaced = std::mem::replace(&mut *current, Arc::new(snapshot));
        drop(current);
        // Freeing the old model (if no query still holds it) happens
        // after readers are let back in.
        drop(displaced);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn model(cores: usize) -> RuntimeModel {
        let mut xml = format!("<system id=\"s\" expect_cores=\"{cores}\"><cpu id=\"c\">");
        for i in 0..cores {
            xml.push_str(&format!("<core id=\"k{i}\"/>"));
        }
        xml.push_str("</cpu></system>");
        RuntimeModel::from_element(XpdlDocument::parse_str(&xml).unwrap().root())
    }

    #[test]
    fn load_sees_installs_in_epoch_order() {
        let reg = SnapshotRegistry::new(ServeSnapshot::initial(model(1), "t"));
        assert_eq!(reg.current_epoch(), 0);
        assert_eq!(reg.load().handle.num_cores(), 1);
        let e1 = reg.install(ServeSnapshot::initial(model(2), "t"));
        assert_eq!(e1, 1);
        let snap = reg.load();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.handle.num_cores(), 2);
    }

    #[test]
    fn old_snapshot_survives_many_installs() {
        let reg = SnapshotRegistry::new(ServeSnapshot::initial(model(3), "t"));
        let pinned = reg.load();
        for i in 0..128 {
            reg.install(ServeSnapshot::initial(model(4 + i % 2), "t"));
        }
        // The pinned Arc still reads the epoch-0 model, untouched, and
        // the registry holds only the newest snapshot besides it.
        assert_eq!(pinned.epoch, 0);
        assert_eq!(pinned.handle.num_cores(), 3);
        assert_eq!(Arc::strong_count(&pinned), 1);
        assert_eq!(reg.current_epoch(), 128);
        assert_eq!(Arc::strong_count(&reg.load()), 2);
    }

    #[test]
    fn fingerprint_distinguishes_content_not_identity() {
        let a = fingerprint_model(&model(2));
        let b = fingerprint_model(&model(2));
        let c = fingerprint_model(&model(3));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
