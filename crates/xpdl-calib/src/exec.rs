//! Plan execution: bounded-parallel microbenchmark runs with per-unit
//! timeouts and seeded determinism.
//!
//! Each work unit gets its own simulated machine seeded by
//! `seed ^ fnv1a64(doc key)` — the measured numbers depend only on the
//! master seed and the unit's identity, never on which worker thread ran
//! it or in what order. That is what lets `scenario_bench` checksum a
//! calibration sweep and `xpdlc calibrate` reproduce it.

use crate::plan::{CalibrationPlan, WorkUnit};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xpdl_hwsim::{GroundTruth, SimMachine};
use xpdl_mb::bootstrap::codes as mb_codes;
use xpdl_mb::{bootstrap_energy_table, BootstrapDiag, BootstrapReport};
use xpdl_power::{InstructionEnergyTable, PowerState, PowerStateMachine, Transition};
use xpdl_repo::hash::fnv1a64;

/// The state every calibration machine starts in (see [`default_fsm`]).
pub const DEFAULT_INITIAL_STATE: &str = "P1";

/// The DVFS/sleep state machine calibration runs against when the library
/// carries none of its own: three P-states inside the ground-truth model's
/// frequency range plus one deep sleep state, fully connected.
///
/// The sleep state has zero frequency, so the bootstrap loop never tries
/// to run on it — it exists for the §V sleep-schedule search over the
/// calibrated numbers.
pub fn default_fsm() -> PowerStateMachine {
    let run = |n: &str, ghz: f64, w: f64| PowerState {
        name: n.into(),
        frequency_hz: ghz * 1e9,
        power_w: w,
    };
    let states = vec![
        run("P1", 2.8, 20.0),
        run("P2", 3.1, 27.0),
        run("P3", 3.4, 36.0),
        PowerState { name: "C6".into(), frequency_hz: 0.0, power_w: 0.5 },
    ];
    let mut transitions = Vec::new();
    for a in &states {
        for b in &states {
            if a.name != b.name {
                transitions.push(Transition {
                    head: a.name.clone(),
                    tail: b.name.clone(),
                    time_s: 1e-6,
                    energy_j: 1e-7,
                });
            }
        }
    }
    PowerStateMachine { name: "calib_default".into(), domain: None, states, transitions }
}

/// Knobs for a calibration run.
#[derive(Debug, Clone)]
pub struct CalibOptions {
    /// Master seed; each unit derives `seed ^ fnv1a64(doc key)`.
    pub seed: u64,
    /// Worker threads (bounded parallelism). Clamped to at least 1.
    pub jobs: usize,
    /// Repetitions per measurement (0 = use each suite entry's own).
    pub repetitions: u32,
    /// Wall-clock budget per work unit; exceeding it (or setting it to
    /// zero) skips the whole unit with an `M605` diagnostic per pending
    /// instruction.
    pub driver_timeout: Duration,
    /// Relative measurement noise of the simulated meter.
    pub noise: f64,
}

impl Default for CalibOptions {
    fn default() -> CalibOptions {
        CalibOptions {
            seed: 0xCA11_B007,
            jobs: 4,
            repetitions: 5,
            driver_timeout: Duration::from_secs(10),
            noise: 0.002,
        }
    }
}

/// The result of calibrating one work unit.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The document the table came from (write-back target).
    pub doc_key: String,
    /// The table after calibration (unchanged if the unit timed out).
    pub table: InstructionEnergyTable,
    /// The bootstrap report, including timeout diagnostics.
    pub report: BootstrapReport,
    /// Wall-clock time the unit took (the timeout budget, if exceeded).
    pub elapsed: Duration,
    /// Whether the unit exceeded its driver timeout.
    pub timed_out: bool,
}

/// The aggregate result of a calibration run.
#[derive(Debug, Clone, Default)]
pub struct CalibrationOutcome {
    /// Per-unit outcomes, sorted by document key.
    pub units: Vec<UnitOutcome>,
    /// Instructions filled across all units.
    pub filled: usize,
    /// Instructions skipped across all units.
    pub skipped: usize,
    /// Total microbenchmark runs executed.
    pub total_runs: u32,
}

impl CalibrationOutcome {
    /// Whether every pending instruction of every unit was filled.
    pub fn complete(&self) -> bool {
        self.skipped == 0
    }

    /// All skip diagnostics across units, as `(doc key, diag)` pairs.
    pub fn diags(&self) -> Vec<(&str, &BootstrapDiag)> {
        self.units
            .iter()
            .flat_map(|u| u.report.diags.iter().map(move |d| (u.doc_key.as_str(), d)))
            .collect()
    }
}

/// Execute a calibration plan.
///
/// Workers pull units off a shared queue; each unit runs `xpdl-mb`'s
/// bootstrap loop on a fresh machine built from `fsm` under a wall-clock
/// budget. A unit that exceeds [`CalibOptions::driver_timeout`] is
/// abandoned (its driver thread is detached) and every one of its pending
/// instructions is reported skipped with code `M605`.
pub fn run_plan(
    plan: &CalibrationPlan,
    fsm: &PowerStateMachine,
    initial_state: &str,
    opts: &CalibOptions,
) -> CalibrationOutcome {
    let queue: Arc<Mutex<VecDeque<WorkUnit>>> =
        Arc::new(Mutex::new(plan.units.iter().cloned().collect()));
    let results: Arc<Mutex<Vec<UnitOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let jobs = opts.jobs.clamp(1, plan.units.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let queue = Arc::clone(&queue);
            let results = Arc::clone(&results);
            scope.spawn(move || {
                loop {
                    let Some(unit) = queue.lock().unwrap().pop_front() else { break };
                    let outcome = run_unit(unit, fsm, initial_state, opts);
                    results.lock().unwrap().push(outcome);
                }
            });
        }
    });

    let mut units = Arc::try_unwrap(results).expect("workers joined").into_inner().unwrap();
    units.sort_by(|a, b| a.doc_key.cmp(&b.doc_key));
    let mut out = CalibrationOutcome::default();
    for u in &units {
        out.filled += u.report.filled.len();
        out.skipped += u.report.skipped.len();
        out.total_runs += u.report.total_runs;
    }
    out.units = units;
    out
}

/// Calibrate one unit with a wall-clock budget.
fn run_unit(
    unit: WorkUnit,
    fsm: &PowerStateMachine,
    initial_state: &str,
    opts: &CalibOptions,
) -> UnitOutcome {
    let started = Instant::now();
    if opts.driver_timeout.is_zero() {
        // A zero budget abandons every unit up front — deterministic, and
        // what tests use to exercise the skip path (the simulated drivers
        // are far too fast to lose a real race).
        return timed_out_outcome(unit, opts);
    }
    let doc_key = unit.doc_key.clone();
    let unit_seed = opts.seed ^ fnv1a64(doc_key.as_bytes());
    let fsm = fsm.clone();
    let initial = initial_state.to_string();
    let repetitions = opts.repetitions;
    let noise = opts.noise;
    let pending = unit.pending.clone();
    let fallback_table = unit.table.clone();
    let unit_suite = unit.suite.clone();

    let (tx, rx) = mpsc::channel::<(InstructionEnergyTable, BootstrapReport)>();
    // The driver runs in its own thread so a wedged microbenchmark cannot
    // stall the whole sweep; on timeout the thread is detached and its
    // eventual result discarded.
    std::thread::spawn(move || {
        let mut table = unit.table;
        let report = match SimMachine::new(GroundTruth::x86_default(), fsm, 1, &initial, unit_seed)
        {
            Some(mut machine) => {
                machine.noise = noise;
                bootstrap_energy_table(&mut table, &unit.suite, &mut machine, repetitions)
            }
            None => {
                // The FSM rejected the initial state: every pending entry
                // is unmeasurable on this machine.
                let mut report = BootstrapReport::default();
                for inst in table.pending().iter().map(|s| s.to_string()).collect::<Vec<_>>() {
                    report.diags.push(BootstrapDiag {
                        code: mb_codes::STATE_REJECTED,
                        instruction: inst.clone(),
                        detail: format!("initial state '{initial}' not in FSM"),
                    });
                    report.skipped.push(inst);
                }
                report
            }
        };
        let _ = tx.send((table, report));
    });

    match rx.recv_timeout(opts.driver_timeout) {
        Ok((table, report)) => UnitOutcome {
            doc_key,
            table,
            report,
            elapsed: started.elapsed(),
            timed_out: false,
        },
        Err(_) => timed_out_outcome(
            WorkUnit { doc_key, table: fallback_table, suite: unit_suite, pending },
            opts,
        ),
    }
}

/// The outcome of a unit whose driver budget ran out: untouched table,
/// one `M605` per pending instruction.
fn timed_out_outcome(unit: WorkUnit, opts: &CalibOptions) -> UnitOutcome {
    let mut report = BootstrapReport::default();
    for inst in unit.pending {
        report.diags.push(BootstrapDiag {
            code: mb_codes::DRIVER_TIMEOUT,
            instruction: inst.clone(),
            detail: format!(
                "unit '{}' exceeded its {:?} driver budget",
                unit.doc_key, opts.driver_timeout
            ),
        });
        report.skipped.push(inst);
    }
    UnitOutcome {
        doc_key: unit.doc_key,
        table: unit.table,
        report,
        elapsed: opts.driver_timeout,
        timed_out: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_library;

    fn library(widths: usize) -> Vec<(String, String)> {
        let mut docs = Vec::new();
        for w in 0..widths {
            docs.push((
                format!("isa_{w}"),
                format!(
                    r#"<instructions name="isa_{w}" mb="mb_{w}">
  <inst name="fadd" energy="?" energy_unit="pJ" mb="fadd1"/>
  <inst name="mov" energy="?" energy_unit="pJ" mb="mov1"/>
  <inst name="add" energy="9" energy_unit="pJ"/>
</instructions>"#
                ),
            ));
            docs.push((
                format!("mb_{w}"),
                format!(
                    r#"<microbenchmarks id="mb_{w}" instruction_set="isa_{w}" path="/opt/mb" command="run.sh">
  <microbenchmark id="fadd1" type="fadd" file="fadd.c"/>
  <microbenchmark id="mov1" type="mov" file="mov.c"/>
</microbenchmarks>"#
                ),
            ));
        }
        docs
    }

    #[test]
    fn default_fsm_is_complete_and_has_a_sleep_state() {
        let fsm = default_fsm();
        fsm.validate().unwrap();
        fsm.check_complete().unwrap();
        assert!(fsm.state(DEFAULT_INITIAL_STATE).is_some());
        assert!(fsm.states.iter().any(|s| s.frequency_hz == 0.0));
    }

    #[test]
    fn plan_runs_to_completion_and_fills_everything() {
        let plan = plan_library(&library(3)).unwrap();
        assert_eq!(plan.units.len(), 3);
        let out = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default());
        assert!(out.complete(), "diags: {:?}", out.diags());
        assert_eq!(out.filled, 6);
        assert_eq!(out.skipped, 0);
        assert!(out.total_runs > 0);
        for u in &out.units {
            assert!(u.table.pending().is_empty());
            assert!(!u.timed_out);
            // Three runnable P-states → three-point tables.
            assert_eq!(u.table.table_of("fadd").map(<[_]>::len), Some(3));
        }
    }

    #[test]
    fn results_are_deterministic_and_schedule_independent() {
        let plan = plan_library(&library(4)).unwrap();
        let serial = CalibOptions { jobs: 1, ..CalibOptions::default() };
        let wide = CalibOptions { jobs: 8, ..CalibOptions::default() };
        let a = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &serial);
        let b = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &wide);
        assert_eq!(a.units.len(), b.units.len());
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.doc_key, y.doc_key);
            assert_eq!(x.table.table_of("fadd"), y.table.table_of("fadd"));
            assert_eq!(x.table.table_of("mov"), y.table.table_of("mov"));
        }
    }

    #[test]
    fn different_seeds_measure_different_noise() {
        let plan = plan_library(&library(1)).unwrap();
        let a = run_plan(
            &plan,
            &default_fsm(),
            DEFAULT_INITIAL_STATE,
            &CalibOptions { seed: 1, ..CalibOptions::default() },
        );
        let b = run_plan(
            &plan,
            &default_fsm(),
            DEFAULT_INITIAL_STATE,
            &CalibOptions { seed: 2, ..CalibOptions::default() },
        );
        assert_ne!(a.units[0].table.table_of("fadd"), b.units[0].table.table_of("fadd"));
    }

    #[test]
    fn timeout_skips_the_unit_with_m605() {
        let plan = plan_library(&library(1)).unwrap();
        let opts = CalibOptions { driver_timeout: Duration::ZERO, ..CalibOptions::default() };
        let out = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &opts);
        let u = &out.units[0];
        assert!(u.timed_out);
        assert!(!out.complete());
        assert_eq!(u.report.skipped.len(), 2);
        assert!(u.report.diags.iter().all(|d| d.code == mb_codes::DRIVER_TIMEOUT));
        // The table is untouched: still pending, ready for a retry.
        assert_eq!(u.table.pending().len(), 2);
    }

    #[test]
    fn bad_initial_state_reports_state_rejected() {
        let plan = plan_library(&library(1)).unwrap();
        let out = run_plan(&plan, &default_fsm(), "P99", &CalibOptions::default());
        let u = &out.units[0];
        assert!(!u.timed_out);
        assert_eq!(u.report.skipped.len(), 2);
        assert!(u.report.diags.iter().all(|d| d.code == mb_codes::STATE_REJECTED));
    }
}
