//! Query plans over a loaded model are the model's own load-time indexes:
//! [`xpdl_runtime::ModelIndex::compile`] is the builder every
//! [`xpdl_runtime::RuntimeModel`] constructor runs.

pub use xpdl_runtime::ModelIndex as CompiledGetters;
