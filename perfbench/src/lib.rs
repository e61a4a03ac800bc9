//! End-to-end and per-layer benchmark of the XPDL toolchain and the query
//! daemon.
//!
//! The benchmark measures the two costs the paper's users pay: building a
//! platform library into the runtime model file (`xpdlc build` plus
//! `xpdl_init`), and the latency of the getter calls runtime systems make
//! against a served model. It times each layer from outside, around calls
//! into the public API, and computes every statistic from its own raw
//! samples. See `README.md` beside this crate for the workloads and
//! metrics.

pub mod client;
pub mod daemon;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod suite;
pub mod toolchain;
pub mod trace;
