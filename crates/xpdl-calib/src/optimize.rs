//! The consumers the calibrated numbers exist for: energy optimization.
//!
//! Two of the paper's optimization scenarios run over a calibrated
//! instruction-energy table:
//!
//! * the **DVFS/sleep schedule search** (§V): pick the power state —
//!   optionally racing to a sleep state — minimizing energy for a
//!   cycles-under-deadline workload;
//! * the **SpMV variant selection** case study (§II, conditional
//!   composition): choose between dense and CSR kernels per matrix
//!   density by pricing their instruction mixes with the calibrated
//!   per-instruction energies.
//!
//! The report renders to text and JSON *deterministically* — same table,
//! FSM and parameters, same bytes — which CI's golden check relies on.

use crate::CalibError;
use std::fmt::Write as _;
use xpdl_core::diag::json::escape_into;
use xpdl_hwsim::kernels::{spmv_stream, KernelSpec, SpmvVariant};
use xpdl_power::{DvfsChoice, DvfsOptimizer, InstructionEnergyTable, PowerStateMachine, Workload};

/// One deadline scenario of the DVFS search.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsRow {
    /// Scenario label ("tight", "medium", "loose").
    pub scenario: String,
    /// Workload size in cycles.
    pub cycles: f64,
    /// Deadline in seconds.
    pub deadline_s: f64,
    /// Idle power assumed after early finish, in watts.
    pub idle_power_w: f64,
    /// The plain DVFS winner.
    pub best: DvfsChoice,
    /// The winner when racing to sleep is allowed (absent when no sleep
    /// state helps or none exists).
    pub with_sleep: Option<DvfsChoice>,
}

/// One density point of the SpMV variant selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvRow {
    /// Matrix dimension.
    pub n: usize,
    /// Nonzero density.
    pub density: f64,
    /// Nonzeros implied by the density.
    pub nnz: u64,
    /// Energy per variant in joules, in [`SpmvVariant::ALL`] order.
    pub costs: Vec<(&'static str, f64)>,
    /// Name of the chosen (cheapest) variant.
    pub chosen: &'static str,
}

/// The full optimization report.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Name of the instruction-energy table optimized over.
    pub model: String,
    /// Name of the power state machine searched.
    pub fsm: String,
    /// Frequency the SpMV mixes were priced at (the fastest state's), Hz.
    pub price_freq_hz: f64,
    /// DVFS scenarios.
    pub dvfs: Vec<DvfsRow>,
    /// SpMV density sweep.
    pub spmv: Vec<SpmvRow>,
}

/// Matrix dimension of the SpMV case study.
const SPMV_N: usize = 512;
/// Densities swept by the case study.
const SPMV_DENSITIES: [f64; 5] = [0.01, 0.05, 0.2, 0.5, 0.9];
/// Cycles of the DVFS workload.
const DVFS_CYCLES: f64 = 2e9;
/// Idle power of the DVFS workload, watts.
const DVFS_IDLE_W: f64 = 4.0;

/// Run both optimization scenarios over a calibrated table.
///
/// Errors loudly when the table still has `?` entries for any instruction
/// a kernel mix needs, or the FSM has no runnable state — an
/// un-calibrated model must not silently optimize to garbage.
pub fn optimize_model(
    table: &InstructionEnergyTable,
    fsm: &PowerStateMachine,
    initial_state: &str,
) -> Result<OptimizeReport, CalibError> {
    let opt = DvfsOptimizer::new(fsm, initial_state).ok_or_else(|| {
        CalibError::Optimize(format!("initial state '{initial_state}' not in FSM '{}'", fsm.name))
    })?;
    let fastest = fsm
        .fastest()
        .ok_or_else(|| CalibError::Optimize(format!("FSM '{}' has no runnable state", fsm.name)))?;

    let t_min = DVFS_CYCLES / fastest.frequency_hz;
    let mut dvfs = Vec::new();
    for (scenario, mult) in [("tight", 1.05), ("medium", 1.5), ("loose", 3.0)] {
        let w = Workload {
            cycles: DVFS_CYCLES,
            deadline_s: t_min * mult,
            idle_power_w: DVFS_IDLE_W,
        };
        let best = opt.best(&w).ok_or_else(|| {
            CalibError::Optimize(format!("no feasible state for the '{scenario}' deadline"))
        })?;
        let with_sleep = opt.best_with_sleep(&w).filter(|c| c.state != best.state);
        dvfs.push(DvfsRow {
            scenario: scenario.to_string(),
            cycles: w.cycles,
            deadline_s: w.deadline_s,
            idle_power_w: w.idle_power_w,
            best,
            with_sleep,
        });
    }

    let mut spmv = Vec::new();
    for density in SPMV_DENSITIES {
        let spec = KernelSpec { n: SPMV_N, density };
        let mut costs = Vec::new();
        for variant in SpmvVariant::ALL {
            let mut energy_j = 0.0;
            for (op, count) in spmv_stream(&spec, variant) {
                let per_op = table.energy_of(op, fastest.frequency_hz).map_err(|e| {
                    CalibError::Optimize(format!(
                        "variant '{variant}' needs '{op}' but the table cannot price it: {e}"
                    ))
                })?;
                energy_j += per_op * count as f64;
            }
            costs.push((variant.name(), energy_j));
        }
        let chosen = costs
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| *name)
            .expect("ALL is non-empty");
        spmv.push(SpmvRow { n: SPMV_N, density, nnz: spec.nnz(), costs, chosen });
    }

    Ok(OptimizeReport {
        model: table.name.clone(),
        fsm: fsm.name.clone(),
        price_freq_hz: fastest.frequency_hz,
        dvfs,
        spmv,
    })
}

impl OptimizeReport {
    /// Human-readable rendering (deterministic).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "optimize: model '{}' over FSM '{}'", self.model, self.fsm);
        let _ = writeln!(s, "dvfs schedule search ({} cycles):", DVFS_CYCLES);
        for r in &self.dvfs {
            let _ = write!(
                s,
                "  {:<6} deadline {:.6}s -> {} ({:.6} J",
                r.scenario, r.deadline_s, r.best.state, r.best.energy_j
            );
            match &r.with_sleep {
                Some(c) => {
                    let _ = writeln!(s, "; race-to-sleep {} saves {:.6} J)", c.state, r.best.energy_j - c.energy_j);
                }
                None => {
                    let _ = writeln!(s, "; sleep does not help)");
                }
            }
        }
        let _ = writeln!(s, "spmv variant selection (n={}, priced at {} GHz):", SPMV_N, self.price_freq_hz / 1e9);
        for r in &self.spmv {
            let _ = write!(s, "  density {:<4} ->", r.density);
            for (name, e) in &r.costs {
                let _ = write!(s, " {name}={e:.6}J");
            }
            let _ = writeln!(s, " => {}", r.chosen);
        }
        s
    }

    /// JSON rendering (deterministic; consumed by `--diag-format=json` and
    /// the CI golden check).
    pub fn to_json(&self) -> String {
        fn choice(s: &mut String, c: &DvfsChoice) {
            s.push_str(r#"{"state":"#);
            escape_into(s, &c.state);
            let _ = write!(
                s,
                r#","run_time_s":{},"energy_j":{},"feasible":{}}}"#,
                c.run_time_s, c.energy_j, c.feasible
            );
        }
        let mut s = String::from(r#"{"model":"#);
        escape_into(&mut s, &self.model);
        s.push_str(r#","fsm":"#);
        escape_into(&mut s, &self.fsm);
        let _ = write!(s, r#","price_freq_hz":{},"dvfs":["#, self.price_freq_hz);
        for (i, r) in self.dvfs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(r#"{"scenario":"#);
            escape_into(&mut s, &r.scenario);
            let _ = write!(
                s,
                r#","cycles":{},"deadline_s":{},"idle_power_w":{},"best":"#,
                r.cycles, r.deadline_s, r.idle_power_w
            );
            choice(&mut s, &r.best);
            s.push_str(r#","with_sleep":"#);
            match &r.with_sleep {
                Some(c) => choice(&mut s, c),
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str(r#"],"spmv":["#);
        for (i, r) in self.spmv.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                r#"{{"n":{},"density":{},"nnz":{},"costs":{{"#,
                r.n, r.density, r.nnz
            );
            for (j, (name, e)) in r.costs.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                escape_into(&mut s, name);
                let _ = write!(s, ":{e}");
            }
            s.push_str(r#"},"chosen":"#);
            escape_into(&mut s, r.chosen);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{default_fsm, run_plan, CalibOptions, DEFAULT_INITIAL_STATE};
    use crate::plan::plan_library;

    fn calibrated_table() -> InstructionEnergyTable {
        let ops = ["fadd", "fmul", "fma", "add", "mov", "load", "store", "branch"];
        let insts: String = ops
            .iter()
            .map(|op| format!("  <inst name=\"{op}\" energy=\"?\" energy_unit=\"pJ\" mb=\"{op}1\"/>\n"))
            .collect();
        let entries: String = ops
            .iter()
            .map(|op| format!("  <microbenchmark id=\"{op}1\" type=\"{op}\" file=\"{op}.c\"/>\n"))
            .collect();
        let docs = vec![
            (
                "isa".to_string(),
                format!("<instructions name=\"isa\" mb=\"mb\">\n{insts}</instructions>"),
            ),
            (
                "mb".to_string(),
                format!("<microbenchmarks id=\"mb\" instruction_set=\"isa\" path=\"/opt/mb\" command=\"run.sh\">\n{entries}</microbenchmarks>"),
            ),
        ];
        let plan = plan_library(&docs).unwrap();
        let out = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default());
        assert!(out.complete(), "{:?}", out.diags());
        out.units.into_iter().next().unwrap().table
    }

    #[test]
    fn report_is_deterministic_for_a_given_table() {
        let table = calibrated_table();
        let fsm = default_fsm();
        let a = optimize_model(&table, &fsm, DEFAULT_INITIAL_STATE).unwrap();
        let b = optimize_model(&table, &fsm, DEFAULT_INITIAL_STATE).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn dense_wins_when_dense_and_csr_wins_when_sparse() {
        let table = calibrated_table();
        let report = optimize_model(&table, &default_fsm(), DEFAULT_INITIAL_STATE).unwrap();
        let by_density: Vec<(f64, &str)> =
            report.spmv.iter().map(|r| (r.density, r.chosen)).collect();
        assert_eq!(by_density.first().map(|x| x.1), Some("spmv_csr"));
        assert_eq!(by_density.last().map(|x| x.1), Some("spmv_dense"));
    }

    #[test]
    fn loose_deadlines_never_cost_more_energy() {
        let table = calibrated_table();
        let report = optimize_model(&table, &default_fsm(), DEFAULT_INITIAL_STATE).unwrap();
        let tight = &report.dvfs[0];
        let loose = &report.dvfs[2];
        assert!(loose.best.energy_j <= tight.best.energy_j + 1e-12);
        // Racing to C6 (0.5 W) beats idling at 4 W whenever there is slack.
        let slept = loose.with_sleep.as_ref().expect("sleep helps on loose deadlines");
        assert!(slept.energy_j < loose.best.energy_j);
        assert!(slept.state.contains("+C6"), "{}", slept.state);
    }

    #[test]
    fn uncalibrated_table_is_a_loud_error() {
        let doc = xpdl_core::XpdlDocument::parse_str(
            r#"<instructions name="partial"><inst name="load" energy="?" energy_unit="pJ"/></instructions>"#,
        )
        .unwrap();
        let table = InstructionEnergyTable::from_element(doc.root()).unwrap();
        let err = optimize_model(&table, &default_fsm(), DEFAULT_INITIAL_STATE).unwrap_err();
        assert!(matches!(err, CalibError::Optimize(_)), "{err}");
        assert!(err.to_string().contains("load"), "{err}");
    }

    #[test]
    fn json_escapes_control_characters_in_names() {
        let mut table = calibrated_table();
        table.name = "evil\nisa".into();
        let mut fsm = default_fsm();
        fsm.name = "psm\tx".into();
        let json = optimize_model(&table, &fsm, DEFAULT_INITIAL_STATE).unwrap().to_json();
        // Strict JSON forbids raw control characters in strings, and this
        // crate's reader is lenient about them, so check the bytes too.
        assert!(!json.chars().any(char::is_control), "{json:?}");
        let doc = xpdl_core::diag::json::parse(&json).expect("report is JSON");
        let field = |k| xpdl_core::diag::json::get(doc.as_object().unwrap(), k)?.as_str();
        assert_eq!(field("model"), Some("evil\nisa"));
        assert_eq!(field("fsm"), Some("psm\tx"));
    }

    #[test]
    fn json_has_every_scenario_and_density() {
        let table = calibrated_table();
        let report = optimize_model(&table, &default_fsm(), DEFAULT_INITIAL_STATE).unwrap();
        let json = report.to_json();
        for needle in ["\"tight\"", "\"medium\"", "\"loose\"", "\"spmv_dense\"", "\"spmv_csr\"", "\"with_sleep\""] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches("\"scenario\"").count(), 3);
        assert_eq!(json.matches("\"density\"").count(), 5);
    }
}
