#![deny(missing_docs)]
//! The XPDL runtime model and query API (paper §IV).
//!
//! The toolchain "builds a light-weight run-time data structure for the
//! composed model that is finally written into a file"; applications call
//! `xpdl_init(filename)` at startup and then browse the model, read
//! attributes, and evaluate derived-attribute analyses — enabling
//! platform-aware dynamic optimizations such as conditional composition.
//!
//! * [`mod@format`] — the versioned binary file format (string-interned flat
//!   tree in pre-order, little-endian, built on `bytes`). Loading performs
//!   no XML parsing, which is the point: startup cost is one buffer scan
//!   that fills the model's arrays and checks the nodes form one pre-order
//!   tree.
//! * [`model`] — [`RuntimeModel`]: a handful of flat arrays whatever the
//!   model's size — one string blob with offsets, fixed-size node records
//!   in pre-order (kind, ident, type, parent, subtree end, first
//!   attribute), one shared attribute array — so every subtree is an
//!   index range and a child walk needs no stored list. Navigation
//!   (parent/children/descendants) and typed getters read those arrays. A
//!   [`ModelIndex`], built once on the first query (at load for a decoded
//!   model), adds the identifier and kind table
//!   (keyed by string id, hashed with std's `RandomState`), per-kind node
//!   lists, the document-order list of in-line static powers that subtree
//!   sums read, and the analysis results of the paper's category 4
//!   (`num_cores`, `num_cuda_devices`, `total_static_power`), so every
//!   getter is an index lookup.
//! * [`query`] — the C-style façade mirroring the paper's function list:
//!   `xpdl_init`, `xpdl_root`, `xpdl_find`, `xpdl_get_attr`,
//!   `xpdl_num_cores`, ….
//! * [`estimate`] — §IV's cost queries: expected communication time and
//!   the energy cost to use an accelerator, straight from the model's
//!   channel attributes.
//!
//! # Example
//!
//! ```
//! use xpdl_core::XpdlDocument;
//! use xpdl_runtime::{RuntimeModel, format};
//!
//! let doc = XpdlDocument::parse_str(
//!     r#"<system id="s"><cpu id="c"><core id="k0"/><core id="k1"/></cpu></system>"#).unwrap();
//! let model = RuntimeModel::from_element(doc.root());
//! let bytes = format::encode(&model);
//! let loaded = format::decode(&bytes).unwrap();
//! assert_eq!(loaded.num_cores(), 2);
//! assert_eq!(loaded.find("c").unwrap().kind(), "cpu");
//! ```

pub mod estimate;
pub mod format;
pub mod model;
pub mod query;

pub use estimate::{estimate_accelerator_use, estimate_static_energy, estimate_transfer, AcceleratorEstimate, TransferEstimate};
pub use format::{decode, encode, FormatError, LoadError};
pub use model::{ModelIndex, NodeRef, RuntimeModel};
pub use query::XpdlHandle;
