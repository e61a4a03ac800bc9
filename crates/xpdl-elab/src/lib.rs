//! Elaboration: from descriptor files to a composed, fully-expanded model.
//!
//! The paper's processing tool (§IV) "browses the XPDL model repository for
//! all required XPDL files recursively referenced in a concrete model tree,
//! parses them, generates an intermediate representation of the composed
//! model, … performs static analysis of the model (for instance,
//! downgrading bandwidth of interconnections where applicable …)". This
//! crate is that composition engine:
//!
//! * [`linearize`] — C3 linearization of the (multiple-)inheritance graph
//!   declared by `extends` (Listing 8/9: `Nvidia_K20c` → `Nvidia_Kepler` →
//!   `Nvidia_GPU`), with deterministic conflict resolution.
//! * [`inherit`] — computation of the *effective meta-model*: attributes
//!   and children merged down the linearization (derived overrides base;
//!   the paper: "the inheriting type may overscribe attribute values").
//! * [`scope`] — lexical parameter scopes built from `const` and `param`
//!   elements, unit-aware.
//! * [`expand`] — type instantiation, parameter substitution, and `group`
//!   expansion (`prefix="core" quantity="4"` → `core0..core3`).
//! * [`constraints`] — constraint checking (`L1size + shmsize ==
//!   shmtotalsize`) and configurable-parameter range checking.
//! * [`synth`] — the synthesized-attribute rule engine of §III-D
//!   ("calculated by applying a rule combining attribute values of the
//!   node's children … such as adding up static power values").
//! * [`analysis`] — static model analyses, including the paper's bandwidth
//!   downgrade along interconnect routes.
//! * [`filter`] — the tailorable "filters out uninteresting values" stage
//!   applied before the runtime structure is written.
//! * [`mod@elaborate`] — the pipeline tying it all together.
//!
//! # Example
//!
//! ```
//! use xpdl_repo::{MemoryStore, Repository};
//! use xpdl_elab::elaborate;
//!
//! let mut m = MemoryStore::new();
//! m.insert("Xeon1", r#"<cpu name="Xeon1">
//!     <group prefix="core" quantity="4"><core frequency="2" frequency_unit="GHz"/></group>
//! </cpu>"#);
//! m.insert("srv", r#"<system id="srv"><socket><cpu id="h" type="Xeon1"/></socket></system>"#);
//! let repo = Repository::new().with_store(m);
//! let set = repo.resolve_recursive("srv").unwrap();
//! let model = elaborate(&set).unwrap();
//! assert_eq!(model.count_kind(xpdl_core::ElementKind::Core), 4);
//! ```

pub mod analysis;
pub mod constraints;
pub mod control;
pub mod elaborate;
pub mod error;
pub mod expand;
pub mod filter;
pub mod routes;
pub mod inherit;
pub mod linearize;
pub mod scope;
mod stamp;
pub mod synth;

pub use elaborate::{elaborate, elaborate_with, ElabOptions, Elaborated};
pub use control::{ControlRelation, ControlUnit, Role};
pub use filter::ModelFilter;
pub use routes::{LinkGraph, Route};
pub use error::{ElabError, ElabResult};
pub use scope::{ParamValue, Scope};
pub use synth::{Rule, RuleSet};
