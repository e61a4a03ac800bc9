//! The C-style query façade mirroring the paper's §IV function list.
//!
//! The paper's API is C++ with generated getters; applications start with
//! `int xpdl_init(char *filename)`. [`XpdlHandle`] is the Rust equivalent:
//! category 1 (initialization), category 2 (tree browsing), category 3
//! (attribute getters) and category 4 (derived-attribute analyses), each a
//! thin forwarding layer over [`RuntimeModel`] so code written against the
//! paper's API shape ports directly.

use crate::format;
use crate::model::{NodeRef, RuntimeModel};
use std::path::Path;
use std::sync::Arc;

/// An initialized query environment (what `xpdl_init` returns).
#[derive(Clone)]
pub struct XpdlHandle {
    model: Arc<RuntimeModel>,
}

impl std::fmt::Debug for XpdlHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XpdlHandle")
            .field("nodes", &self.model.len())
            .field("root", &self.model.root().kind())
            .finish()
    }
}

impl XpdlHandle {
    /// Category 1 — initialization: load the runtime data structure file
    /// generated by the toolchain.
    ///
    /// The error keeps I/O and decode faults distinct (and carries the
    /// exact [`format::FormatError`]) so callers can turn a failed load
    /// into a coded `S400`/`S401` diagnostic instead of a flattened
    /// `io::Error` string.
    pub fn init(path: &Path) -> Result<XpdlHandle, format::LoadError> {
        Ok(XpdlHandle { model: Arc::new(format::load_file(path)?) })
    }

    /// Initialize from an in-memory model (tests, generated code, the
    /// serve daemon's snapshots). The model's query indexes are built
    /// here, before the handle is shared, so no query waits on them.
    pub fn from_model(model: RuntimeModel) -> XpdlHandle {
        model.index();
        XpdlHandle { model: Arc::new(model) }
    }

    /// Initialize from encoded bytes.
    pub fn from_bytes(data: &[u8]) -> Result<XpdlHandle, format::FormatError> {
        Ok(XpdlHandle { model: Arc::new(format::decode(data)?) })
    }

    /// The underlying model.
    pub fn model(&self) -> &RuntimeModel {
        &self.model
    }

    // Category 2 — browsing.

    /// The root model object.
    pub fn root(&self) -> NodeRef<'_> {
        self.model.root()
    }

    /// Look up an element by identifier; `None` mirrors the paper's NULL.
    pub fn find(&self, ident: &str) -> Option<NodeRef<'_>> {
        self.model.find(ident)
    }

    /// All elements of a kind.
    pub fn elements_of_kind<'m>(&'m self, kind: &'m str) -> Vec<NodeRef<'m>> {
        self.model.nodes_of_kind(kind).collect()
    }

    // Category 3 — attribute getters.

    /// Attribute of a named element.
    pub fn get_attr(&self, ident: &str, attr: &str) -> Option<&str> {
        self.find(ident)?.attr(attr)
    }

    /// Numeric attribute of a named element.
    pub fn get_number(&self, ident: &str, attr: &str) -> Option<f64> {
        self.find(ident)?.number(attr)
    }

    // Category 4 — model analysis functions for derived attributes.

    /// Count of cores in the whole model.
    pub fn num_cores(&self) -> usize {
        self.model.num_cores()
    }

    /// Count of CUDA-capable devices.
    pub fn num_cuda_devices(&self) -> usize {
        self.model.num_cuda_devices()
    }

    /// Total in-line static power, watts.
    pub fn total_static_power_w(&self) -> f64 {
        self.model.total_static_power_w()
    }

    /// Whether software matching the predicate is installed.
    pub fn has_installed(&self, pred: impl Fn(&str) -> bool) -> bool {
        self.model.has_installed(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn handle() -> XpdlHandle {
        let doc = XpdlDocument::parse_str(
            r#"<system id="s">
                 <cpu id="h"><core id="c0"/><core id="c1"/></cpu>
                 <device id="g"><programming_model type="cuda6.0"/></device>
                 <software><installed type="CUBLAS_6.0" path="/opt"/></software>
               </system>"#,
        )
        .unwrap();
        XpdlHandle::from_model(RuntimeModel::from_element(doc.root()))
    }

    #[test]
    fn init_from_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xpdl_q_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.xpdlrt");
        let h = handle();
        format::save_file(h.model(), &path).unwrap();
        let h2 = XpdlHandle::init(&path).unwrap();
        assert_eq!(h2.num_cores(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn browsing_and_getters() {
        let h = handle();
        assert_eq!(h.root().ident(), Some("s"));
        assert_eq!(h.find("h").unwrap().kind(), "cpu");
        assert!(h.find("ghost").is_none());
        assert_eq!(h.elements_of_kind("core").len(), 2);
        assert_eq!(h.get_attr("g", "missing"), None);
    }

    #[test]
    fn analyses() {
        let h = handle();
        assert_eq!(h.num_cores(), 2);
        assert_eq!(h.num_cuda_devices(), 1);
        assert_eq!(h.total_static_power_w(), 0.0);
        assert!(h.has_installed(|t| t.starts_with("CUBLAS")));
    }

    #[test]
    fn handle_is_cheaply_cloneable_and_shared() {
        let h = handle();
        let h2 = h.clone();
        assert_eq!(h2.num_cores(), h.num_cores());
        let t = std::thread::spawn(move || h2.num_cuda_devices());
        assert_eq!(t.join().unwrap(), 1);
    }

    #[test]
    fn from_bytes() {
        let h = handle();
        let bytes = format::encode(h.model());
        let h2 = XpdlHandle::from_bytes(&bytes).unwrap();
        assert_eq!(h2.num_cores(), 2);
        assert!(XpdlHandle::from_bytes(b"junk").is_err());
    }
}
