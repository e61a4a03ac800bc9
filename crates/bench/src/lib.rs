//! Shared experiment logic for the reproduction binaries and the Criterion
//! benches. Every table/figure row in `EXPERIMENTS.md` is produced by a
//! function here, so the binaries, the benches and the tests all agree.

pub mod experiments;
pub mod net;
pub mod record;
pub mod synth;

pub use experiments::*;
pub use synth::synthetic_system;

/// The value after `name` in `args` (`--flag value`), if both are there.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}
