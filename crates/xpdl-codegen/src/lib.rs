//! Code generation from the schema metamodel (paper §IV).
//!
//! "The major part of the XPDL (run-time) query API (namely the C++
//! classes corresponding to model element types, with getters and setters
//! for attribute values and model navigation support) is generated
//! automatically from the central xpdl.xsd schema specification."
//!
//! This crate is that generator, retargeted to Rust:
//!
//! * [`rust_gen`] — emits a Rust module with one typed wrapper struct per
//!   element kind (`Cpu<'m>`, `Cache<'m>`, …) over
//!   `xpdl_runtime::NodeRef`, a getter per schema attribute (typed by its
//!   declared domain: metrics return `Quantity`, enums and strings return
//!   `&str`, booleans return `bool`), and kind-safe navigation helpers.
//!   The `xpdl` facade crate ships a checked-in copy of this output as
//!   `xpdl::api` and a test verifies regeneration is byte-identical — so
//!   the generated code provably compiles.
//! * [`c_gen`] — emits the C header with opaque handle typedefs and getter
//!   prototypes (the C++ flavour of the paper, C-ified for ABI neutrality).
//! * [`uml`] — the paper's third view: PlantUML class/object diagrams of
//!   the metamodel and of concrete models.
//! * [`ident`] — identifier conversion (`power_state_machine` →
//!   `PowerStateMachine`, attribute names → `get_*` getters) with keyword
//!   escaping.
//! * [`plan`] — re-exports the runtime's load-time index builder,
//!   [`xpdl_runtime::ModelIndex`], for callers that name it as a query
//!   plan; a loaded model already answers every getter from it.

pub mod c_gen;
pub mod ident;
pub mod plan;
pub mod rust_gen;
pub mod uml;

pub use c_gen::generate_c_header;
pub use ident::{camel_case, getter_name, sanitize_snake};
pub use rust_gen::generate_rust_api;
pub use uml::{model_to_plantuml, schema_to_plantuml};
