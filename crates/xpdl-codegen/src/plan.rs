//! Query plans over a loaded model are the model's own indexes:
//! [`xpdl_runtime::ModelIndex::compile`] is the builder a
//! [`xpdl_runtime::RuntimeModel`] runs on its first query, or at load.

pub use xpdl_runtime::ModelIndex as CompiledGetters;
