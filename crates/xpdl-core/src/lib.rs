//! The XPDL document model.
//!
//! This crate turns parsed XML (from [`xpdl_xml`]) into the typed XPDL
//! structure the rest of the toolchain works on:
//!
//! * [`units`] — the quantity algebra (sizes, frequencies, power, energy,
//!   time, bandwidth) with SI and IEC prefixes. Every numeric XPDL metric
//!   carries a unit via the paper's `metric_unit` convention
//!   (`static_power="4" static_power_unit="W"`; the metric `size` uses the
//!   bare attribute `unit` as its unit, per §III-A).
//! * [`value`] — typed attribute values, including the `?` placeholder that
//!   marks metrics to be derived by microbenchmarking at deployment time.
//! * [`kind`] — the vocabulary of element kinds (cpu, core, cache, memory,
//!   device, interconnect, group, power\_\*, …).
//! * [`model`] — [`model::XpdlElement`], the typed tree, with the paper's
//!   `name`/`id`/`type`/`extends` conventions made explicit.
//! * [`doc`] — whole-document handling and indices. A document's tree is
//!   built straight from the XML reader's events, with no DOM.
//! * [`diag`] — the unified diagnostics type shared by every pipeline
//!   stage (validation, resolution, elaboration), with source spans and
//!   a stable JSON serialization.
//!
//! # Example
//!
//! ```
//! use xpdl_core::doc::XpdlDocument;
//!
//! let src = r#"
//! <cpu name="Intel_Xeon_E5_2630L">
//!   <group prefix="core" quantity="4">
//!     <core frequency="2" frequency_unit="GHz"/>
//!     <cache name="L1" size="32" unit="KiB"/>
//!   </group>
//!   <cache name="L3" size="15" unit="MiB"/>
//! </cpu>"#;
//! let doc = XpdlDocument::parse_str(src).unwrap();
//! let cpu = doc.root();
//! assert_eq!(cpu.meta_name(), Some("Intel_Xeon_E5_2630L"));
//! let l3 = cpu.find_kind(xpdl_core::kind::ElementKind::Cache).nth(1).unwrap();
//! let size = l3.quantity("size").unwrap().unwrap();
//! assert_eq!(size.to_base(), 15.0 * 1024.0 * 1024.0);
//! ```

mod builder;
pub mod diag;
pub mod diff;
pub mod doc;
pub mod error;
pub mod kind;
pub mod model;
pub mod units;
pub mod value;

pub use diag::{
    diagnostics_to_json, parse_diagnostics_json, DiagSink, Diagnostic, DiagnosticsExt, Severity,
};
pub use diff::{diff_models, DiffEntry};
pub use doc::XpdlDocument;
pub use error::{CoreError, CoreResult};
pub use kind::ElementKind;
pub use model::{ModelKind, XpdlElement};
pub use units::{Dimension, Quantity, Unit};
pub use value::AttrValue;
