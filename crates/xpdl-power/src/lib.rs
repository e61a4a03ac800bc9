//! Power and energy modeling (paper §III-C and §III-D).
//!
//! "Power modeling consists in modeling power domains, power states with
//! transitions and referencing to microbenchmarks for power benchmarking."
//! This crate implements all three legs, plus the energy *optimization* the
//! paper's title promises:
//!
//! * [`domain`] — power domains / power islands with `enableSwitchOff` and
//!   `switchoffCondition` semantics (Listing 12), including the default
//!   (main) domain that can never be switched off.
//! * [`fsm`] — power state machines (Listing 13): DVFS P-states with
//!   frequency/power, transitions with time and energy cost, validation
//!   ("must model all possible transitions"), and cheapest-path transition
//!   planning across multi-hop switches.
//! * [`energy`] — per-instruction dynamic energy (Listing 14) with
//!   frequency-dependent value tables and interpolation, plus whole-workload
//!   energy estimation (static + dynamic, the hierarchical model of §III-D).
//! * [`optimizer`] — DVFS schedule selection: given a work amount and a
//!   deadline, choose the power state (or state sequence) minimizing energy,
//!   accounting for idle power and transition overheads.

pub mod domain;
pub mod energy;
pub mod fsm;
pub mod optimizer;

pub use domain::{DomainError, PowerDomainModel, PowerDomainSet};
pub use energy::{EnergyError, InstructionEnergyTable, WorkloadEnergy};
pub use fsm::{FsmError, PowerState, PowerStateMachine, Transition};
pub use optimizer::{DvfsChoice, DvfsOptimizer, Workload};

use xpdl_core::XpdlElement;

/// `e`'s `attr` metric in base units, or `None` when it is absent. A value
/// that is not finite (NaN, an infinity, or a number its unit overflows)
/// is refused with a message naming the element and the attribute.
fn finite_metric(e: &XpdlElement, attr: &str) -> Result<Option<f64>, String> {
    let Some(q) = e.quantity(attr).map_err(|err| err.to_string())? else { return Ok(None) };
    let v = q.to_base();
    if v.is_finite() {
        return Ok(Some(v));
    }
    let raw = e.attr(attr).unwrap_or_default();
    Err(format!("<{}> {attr}=\"{raw}\" is not a finite number", e.kind.tag()))
}
