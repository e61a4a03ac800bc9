//! Per-instruction dynamic energy (Listing 14) and workload energy
//! estimation (§III-D).

use std::collections::BTreeMap;
use std::fmt;
use xpdl_core::{ElementKind, XpdlElement};

/// Errors in energy-table handling.
#[derive(Debug, Clone, PartialEq)]
pub enum EnergyError {
    /// Instruction not modeled.
    UnknownInstruction(String),
    /// The instruction's energy is `?` and no microbenchmark result has
    /// been written back yet.
    NotBenchmarked(String),
    /// Malformed element.
    BadElement(String),
}

impl fmt::Display for EnergyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnergyError::UnknownInstruction(i) => write!(f, "unknown instruction '{i}'"),
            EnergyError::NotBenchmarked(i) => {
                write!(f, "instruction '{i}' has no energy value yet (pending microbenchmark)")
            }
            EnergyError::BadElement(m) => write!(f, "malformed instruction model: {m}"),
        }
    }
}

impl std::error::Error for EnergyError {}

/// Energy data for one instruction.
#[derive(Debug, Clone, PartialEq)]
enum InstEnergy {
    /// A single energy value in joules (frequency-independent).
    Constant(f64),
    /// Frequency-dependent table: sorted (frequency Hz, energy J) points,
    /// as in Listing 14's `divsd` data rows.
    Table(Vec<(f64, f64)>),
    /// `?` — to be derived by microbenchmarking.
    Unknown,
}

/// The instruction energy table of one instruction set
/// (an `instructions` element, Listing 14).
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionEnergyTable {
    /// Instruction-set name (`x86_base_isa`).
    pub name: String,
    /// Suite-level microbenchmark reference (`mb=` attribute).
    pub suite_mb: Option<String>,
    entries: BTreeMap<String, InstEnergy>,
    /// Per-instruction microbenchmark references.
    mb_refs: BTreeMap<String, String>,
}

impl InstructionEnergyTable {
    /// Parse an `instructions` element.
    pub fn from_element(e: &XpdlElement) -> Result<InstructionEnergyTable, EnergyError> {
        if e.kind != ElementKind::Instructions {
            return Err(EnergyError::BadElement(format!(
                "expected <instructions>, got <{}>",
                e.kind.tag()
            )));
        }
        let name = e.ident().unwrap_or("instructions").to_string();
        let suite_mb = e.attr("mb").map(str::to_string);
        let mut entries = BTreeMap::new();
        let mut mb_refs = BTreeMap::new();
        for inst in e.children_of_kind(ElementKind::Inst) {
            let iname = inst
                .ident()
                .ok_or_else(|| EnergyError::BadElement("inst without name".into()))?
                .to_string();
            if let Some(mb) = inst.attr("mb") {
                mb_refs.insert(iname.clone(), mb.to_string());
            }
            let data_rows: Vec<&XpdlElement> = inst.children_of_kind(ElementKind::Data).collect();
            let energy = if !data_rows.is_empty() {
                let mut points = Vec::with_capacity(data_rows.len());
                for d in data_rows {
                    let row = |attr: &str| match crate::finite_metric(d, attr) {
                        Ok(Some(v)) => Ok(v),
                        Ok(None) => Err(EnergyError::BadElement(format!("data row without {attr}"))),
                        Err(m) => Err(EnergyError::BadElement(m)),
                    };
                    points.push((row("frequency")?, row("energy")?));
                }
                points.sort_by(|a, b| a.0.total_cmp(&b.0));
                InstEnergy::Table(points)
            } else if inst.is_unknown("energy") {
                InstEnergy::Unknown
            } else {
                match crate::finite_metric(inst, "energy").map_err(EnergyError::BadElement)? {
                    Some(j) => InstEnergy::Constant(j),
                    None => InstEnergy::Unknown,
                }
            };
            entries.insert(iname, energy);
        }
        Ok(InstructionEnergyTable { name, suite_mb, entries, mb_refs })
    }

    /// Instruction names in the table (sorted).
    pub fn instructions(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Instructions whose energy is still `?` (microbenchmark targets).
    pub fn pending(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, v)| matches!(v, InstEnergy::Unknown))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// The microbenchmark id for an instruction (falls back to the suite).
    pub fn mb_ref(&self, inst: &str) -> Option<&str> {
        self.mb_refs.get(inst).map(String::as_str).or(self.suite_mb.as_deref())
    }

    /// Dynamic energy in joules of one execution of `inst` at `freq_hz`.
    ///
    /// Frequency tables interpolate linearly between points and clamp at
    /// the ends (the paper gives divsd values only for 2.8–3.4 GHz).
    pub fn energy_of(&self, inst: &str, freq_hz: f64) -> Result<f64, EnergyError> {
        match self.entries.get(inst) {
            None => Err(EnergyError::UnknownInstruction(inst.to_string())),
            Some(InstEnergy::Unknown) => Err(EnergyError::NotBenchmarked(inst.to_string())),
            Some(InstEnergy::Constant(j)) => Ok(*j),
            Some(InstEnergy::Table(points)) => Ok(interpolate(points, freq_hz)),
        }
    }

    /// Write back a measured constant energy (the microbenchmark bootstrap;
    /// "on request, microbenchmarking … will then override the specified
    /// values").
    pub fn set_energy(&mut self, inst: &str, energy_j: f64) {
        self.entries.insert(inst.to_string(), InstEnergy::Constant(energy_j));
    }

    /// Write back a measured frequency table.
    pub fn set_energy_table(&mut self, inst: &str, mut points: Vec<(f64, f64)>) {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.entries.insert(inst.to_string(), InstEnergy::Table(points));
    }

    /// The frequency/energy points of an instruction's table, if tabulated.
    pub fn table_of(&self, inst: &str) -> Option<&[(f64, f64)]> {
        match self.entries.get(inst) {
            Some(InstEnergy::Table(p)) => Some(p),
            _ => None,
        }
    }
}

fn interpolate(points: &[(f64, f64)], x: f64) -> f64 {
    debug_assert!(!points.is_empty());
    if x <= points[0].0 {
        return points[0].1;
    }
    if x >= points[points.len() - 1].0 {
        return points[points.len() - 1].1;
    }
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x >= x0 && x <= x1 {
            let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
            return y0 + t * (y1 - y0);
        }
    }
    points[points.len() - 1].1
}

/// Whole-workload energy estimation: static power integrated over the run
/// time plus per-instruction dynamic energy (paper §III-D's hierarchical
/// model, flattened).
#[derive(Debug, Clone, Default)]
pub struct WorkloadEnergy {
    /// Instruction execution counts.
    pub counts: BTreeMap<String, u64>,
    /// Run time in seconds.
    pub duration_s: f64,
    /// Static power in watts over the duration.
    pub static_power_w: f64,
}

impl WorkloadEnergy {
    /// Add executed instructions.
    pub fn record(&mut self, inst: &str, count: u64) -> &mut Self {
        *self.counts.entry(inst.to_string()).or_insert(0) += count;
        self
    }

    /// Total energy in joules at the given core frequency.
    pub fn total_energy(
        &self,
        table: &InstructionEnergyTable,
        freq_hz: f64,
    ) -> Result<f64, EnergyError> {
        let mut dynamic = 0.0;
        for (inst, count) in &self.counts {
            dynamic += table.energy_of(inst, freq_hz)? * (*count as f64);
        }
        Ok(dynamic + self.static_power_w * self.duration_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    /// Listing 14's instruction model, including the divsd value table.
    pub(crate) fn listing14() -> InstructionEnergyTable {
        let doc = XpdlDocument::parse_str(
            r#"<instructions name="x86_base_isa" mb="mb_x86_base_1">
                 <inst name="fmul" energy="?" energy_unit="pJ" mb="fm1"/>
                 <inst name="fadd" energy="?" energy_unit="pJ" mb="fa1"/>
                 <inst name="divsd">
                   <data frequency="2.8" frequency_unit="GHz" energy="18.625" energy_unit="nJ"/>
                   <data frequency="2.9" frequency_unit="GHz" energy="19.573" energy_unit="nJ"/>
                   <data frequency="3.4" frequency_unit="GHz" energy="21.023" energy_unit="nJ"/>
                 </inst>
               </instructions>"#,
        )
        .unwrap();
        InstructionEnergyTable::from_element(doc.root()).unwrap()
    }

    #[test]
    fn parse_listing14() {
        let t = listing14();
        assert_eq!(t.name, "x86_base_isa");
        assert_eq!(t.suite_mb.as_deref(), Some("mb_x86_base_1"));
        assert_eq!(t.instructions(), vec!["divsd", "fadd", "fmul"]);
        assert_eq!(t.pending(), vec!["fadd", "fmul"]);
    }

    #[test]
    fn mb_refs_fall_back_to_suite() {
        let t = listing14();
        assert_eq!(t.mb_ref("fmul"), Some("fm1"));
        assert_eq!(t.mb_ref("fadd"), Some("fa1"));
        assert_eq!(t.mb_ref("divsd"), Some("mb_x86_base_1"));
    }

    #[test]
    fn divsd_table_exact_points() {
        let t = listing14();
        assert!((t.energy_of("divsd", 2.8e9).unwrap() - 18.625e-9).abs() < 1e-15);
        assert!((t.energy_of("divsd", 2.9e9).unwrap() - 19.573e-9).abs() < 1e-15);
        assert!((t.energy_of("divsd", 3.4e9).unwrap() - 21.023e-9).abs() < 1e-15);
    }

    #[test]
    fn divsd_table_interpolates_and_clamps() {
        let t = listing14();
        // Midpoint of 2.8 and 2.9 GHz.
        let mid = t.energy_of("divsd", 2.85e9).unwrap();
        assert!((mid - (18.625e-9 + 19.573e-9) / 2.0).abs() < 1e-15);
        // Clamping outside the measured range.
        assert!((t.energy_of("divsd", 1.0e9).unwrap() - 18.625e-9).abs() < 1e-15);
        assert!((t.energy_of("divsd", 5.0e9).unwrap() - 21.023e-9).abs() < 1e-15);
        // Energy grows with frequency inside the range (matches the table).
        let a = t.energy_of("divsd", 2.9e9).unwrap();
        let b = t.energy_of("divsd", 3.2e9).unwrap();
        assert!(b > a);
    }

    #[test]
    fn pending_instruction_errors_until_benchmarked() {
        let mut t = listing14();
        assert_eq!(
            t.energy_of("fmul", 2.8e9).unwrap_err(),
            EnergyError::NotBenchmarked("fmul".into())
        );
        t.set_energy("fmul", 3.1e-10);
        assert_eq!(t.energy_of("fmul", 2.8e9).unwrap(), 3.1e-10);
        assert!(t.pending().contains(&"fadd"));
        assert!(!t.pending().contains(&"fmul"));
    }

    #[test]
    fn set_energy_table_overrides() {
        let mut t = listing14();
        t.set_energy_table("fadd", vec![(3.0e9, 2e-10), (2.0e9, 1e-10)]);
        assert_eq!(t.energy_of("fadd", 2.0e9).unwrap(), 1e-10);
        assert_eq!(t.energy_of("fadd", 2.5e9).unwrap(), 1.5e-10);
        assert_eq!(t.table_of("fadd").unwrap().len(), 2);
        assert!(t.table_of("fmul").is_none());
    }

    #[test]
    fn non_finite_metrics_are_rejected() {
        let rows = r#"<instructions name="isa"><inst name="divsd">
                 <data frequency="2.8" frequency_unit="GHz" energy="18.625" energy_unit="nJ"/>
                 <data frequency="NaN" frequency_unit="GHz" energy="19.573" energy_unit="nJ"/>
               </inst></instructions>"#;
        let constant = r#"<instructions name="isa">
                 <inst name="fadd" energy="inf" energy_unit="pJ"/>
               </instructions>"#;
        let cases = [(rows, r#"<data> frequency="NaN""#), (constant, r#"<inst> energy="inf""#)];
        for (src, needle) in cases {
            let doc = XpdlDocument::parse_str(src).unwrap();
            match InstructionEnergyTable::from_element(doc.root()) {
                Err(EnergyError::BadElement(m)) => assert!(m.contains(needle), "{m}"),
                other => panic!("expected BadElement naming {needle}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_instruction_errors() {
        let t = listing14();
        assert_eq!(
            t.energy_of("vfmadd", 1e9).unwrap_err(),
            EnergyError::UnknownInstruction("vfmadd".into())
        );
    }

    #[test]
    fn workload_energy_static_plus_dynamic() {
        let mut t = listing14();
        t.set_energy("fmul", 1e-9);
        t.set_energy("fadd", 0.5e-9);
        let mut w = WorkloadEnergy::default();
        w.record("fmul", 1000).record("fadd", 2000);
        w.duration_s = 1e-3;
        w.static_power_w = 10.0;
        // dynamic: 1000·1nJ + 2000·0.5nJ = 2 µJ; static: 10 W · 1 ms = 10 mJ.
        let e = w.total_energy(&t, 3.0e9).unwrap();
        assert!((e - (2e-6 + 10e-3)).abs() < 1e-12);
    }

    #[test]
    fn workload_with_pending_instruction_fails() {
        let t = listing14();
        let mut w = WorkloadEnergy::default();
        w.record("fmul", 1);
        assert!(w.total_energy(&t, 1e9).is_err());
    }

    #[test]
    fn record_accumulates() {
        let mut w = WorkloadEnergy::default();
        w.record("x", 2).record("x", 3);
        assert_eq!(w.counts["x"], 5);
    }
}
