//! The experiment implementations behind EXPERIMENTS.md.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xpdl_composition::{spmv_component, CallContext, Dispatcher, SpmvPlatform};
use xpdl_core::{ElementKind, XpdlDocument};
use xpdl_hwsim::kernels::KernelSpec;
use xpdl_hwsim::{ChannelModel, GroundTruth, SimMachine};
use xpdl_mb::{bootstrap_energy_table, measure_instruction, MeasureConfig, MicrobenchmarkSuite};
use xpdl_power::{
    DvfsOptimizer, InstructionEnergyTable, PowerState, PowerStateMachine, Transition, Workload,
};
use xpdl_runtime::{RuntimeModel, XpdlHandle};

// ---------------------------------------------------------------- T14 ----

/// One row of the Table-14 reproduction: paper value vs measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Table14Row {
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// The paper's published energy, nJ (None for interpolated rows).
    pub paper_nj: Option<f64>,
    /// Energy measured by the simulated microbenchmark, nJ.
    pub measured_nj: f64,
    /// Relative error vs the paper where published.
    pub rel_err: Option<f64>,
}

/// The paper's published `divsd` rows (Listing 14).
pub const PAPER_DIVSD: &[(f64, f64)] = &[(2.8, 18.625), (2.9, 19.573), (3.4, 21.023)];

/// A DVFS machine with one P-state per 100 MHz step from 2.8 to 3.4 GHz
/// (the frequencies of the paper's table).
pub fn divsd_fsm() -> PowerStateMachine {
    let mut states = Vec::new();
    let mut transitions = Vec::new();
    for i in 0..7 {
        let f = 2.8 + 0.1 * i as f64;
        states.push(PowerState {
            name: format!("P{i}"),
            frequency_hz: f * 1e9,
            power_w: 20.0 + 3.0 * i as f64,
        });
    }
    for i in 0..7 {
        for j in 0..7 {
            if i != j {
                transitions.push(Transition {
                    head: format!("P{i}"),
                    tail: format!("P{j}"),
                    time_s: 1e-6,
                    energy_j: 1e-7,
                });
            }
        }
    }
    PowerStateMachine { name: "divsd_sweep".into(), domain: None, states, transitions }
}

/// T14: measure `divsd` at every table frequency on the simulator (which
/// is calibrated to the paper's endpoints) and compare.
pub fn table14(repetitions: u32, noise: f64, seed: u64) -> Vec<Table14Row> {
    let fsm = divsd_fsm();
    let mut machine =
        SimMachine::new(GroundTruth::x86_default(), fsm, 1, "P0", seed).expect("machine");
    machine.noise = noise;
    let paper: BTreeMap<u64, f64> =
        PAPER_DIVSD.iter().map(|(f, e)| ((f * 10.0).round() as u64, *e)).collect();
    let mut rows = Vec::new();
    for i in 0..7 {
        let f = 2.8 + 0.1 * i as f64;
        machine.set_core_state(0, &format!("P{i}")).expect("state");
        let stats = measure_instruction(
            &mut machine,
            "divsd",
            &MeasureConfig { repetitions, ..Default::default() },
        )
        .expect("measure");
        let measured_nj = stats.median_j * 1e9;
        let key = (f * 10.0).round() as u64;
        let paper_nj = paper.get(&key).copied();
        rows.push(Table14Row {
            freq_ghz: f,
            paper_nj,
            measured_nj,
            rel_err: paper_nj.map(|p| (measured_nj - p).abs() / p),
        });
    }
    rows
}

// -------------------------------------------------------------- MB ablation

/// Microbenchmark-repetitions ablation: mean |relative error| of the
/// measured fadd energy vs ground truth, per repetition count.
pub fn mb_repetitions_ablation(noise: f64, trials: u64) -> Vec<(u32, f64)> {
    let truth = GroundTruth::x86_default().get("fadd").unwrap().energy_at(2.8e9);
    let mut out = Vec::new();
    for k in [1u32, 3, 9, 27] {
        let mut total_err = 0.0;
        for seed in 0..trials {
            let mut m = SimMachine::new(GroundTruth::x86_default(), divsd_fsm(), 1, "P0", seed)
                .expect("machine");
            m.noise = noise;
            let stats = measure_instruction(
                &mut m,
                "fadd",
                &MeasureConfig { repetitions: k, ..Default::default() },
            )
            .expect("measure");
            total_err += (stats.median_j - truth).abs() / truth;
        }
        out.push((k, total_err / trials as f64));
    }
    out
}

// ---------------------------------------------------------------- CS1 ----

/// One row of the SpMV case-study sweep.
#[derive(Debug, Clone)]
pub struct SpmvRow {
    /// Matrix dimension.
    pub n: usize,
    /// Nonzero density.
    pub density: f64,
    /// The tuned (model-guided) selection.
    pub chosen: String,
    /// Measured times per variant, seconds.
    pub times: BTreeMap<String, f64>,
    /// Whether the tuned choice was the measured-fastest variant.
    pub tuned_is_oracle: bool,
}

/// The (n, density) grid of the case study.
pub const SPMV_GRID: &[(usize, f64)] = &[
    (100, 0.01),
    (100, 0.9),
    (400, 0.01),
    (400, 0.5),
    (1000, 0.05),
    (3000, 0.01),
    (3000, 0.5),
];

/// Build the dispatcher over the library's GPU server.
pub fn spmv_dispatcher() -> Dispatcher {
    let model = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("gpu server");
    let handle = XpdlHandle::from_model(RuntimeModel::from_element(&model.root));
    Dispatcher::build(spmv_component(), handle).expect("dispatcher")
}

fn single_state(name: &str, f_hz: f64, p_w: f64) -> PowerStateMachine {
    PowerStateMachine {
        name: name.into(),
        domain: None,
        states: vec![PowerState { name: "P0".into(), frequency_hz: f_hz, power_w: p_w }],
        transitions: vec![Transition {
            head: "P0".into(),
            tail: "P0".into(),
            time_s: 0.0,
            energy_j: 0.0,
        }],
    }
}

/// The simulated execution platform matching the library's GPU server.
pub fn spmv_platform() -> SpmvPlatform {
    SpmvPlatform {
        host: SimMachine::new(GroundTruth::x86_default(), single_state("host", 2e9, 25.0), 4, "P0", 7)
            .expect("host")
            .noiseless(),
        gpu: Some(
            SimMachine::new(
                GroundTruth::x86_default(),
                single_state("k20c", 706e6, 4.0),
                13 * 192,
                "P0",
                8,
            )
            .expect("gpu")
            .noiseless(),
        ),
        up: ChannelModel::pcie3_like("up_link"),
        down: ChannelModel::pcie3_like("down_link"),
    }
}

/// CS1: the sweep — tuned selection vs measured per-variant times.
pub fn spmv_sweep() -> Vec<SpmvRow> {
    let dispatcher = spmv_dispatcher();
    let mut platform = spmv_platform();
    let mut rows = Vec::new();
    for &(n, density) in SPMV_GRID {
        let ctx = CallContext::new().with("n", n as f64).with("density", density);
        let chosen = dispatcher.select(&ctx).name.clone();
        let spec = KernelSpec { n, density };
        let mut times = BTreeMap::new();
        for v in ["cpu_dense", "cpu_csr", "gpu_csr"] {
            if let Some(m) = platform.execute(v, &spec) {
                times.insert(v.to_string(), m.time_s);
            }
        }
        let fastest = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(k, _)| k.clone())
            .expect("some variant ran");
        rows.push(SpmvRow {
            n,
            density,
            tuned_is_oracle: fastest == chosen,
            chosen,
            times,
        });
    }
    rows
}

/// Summary of the sweep: total tuned time vs the best static policy.
pub fn spmv_summary(rows: &[SpmvRow]) -> (f64, BTreeMap<String, f64>) {
    let mut statics: BTreeMap<String, f64> = BTreeMap::new();
    let mut tuned = 0.0;
    for r in rows {
        tuned += r.times[&r.chosen];
        for (v, t) in &r.times {
            *statics.entry(v.clone()).or_insert(0.0) += t;
        }
    }
    (tuned, statics)
}

// ---------------------------------------------------------------- OPT1 ---

/// One row of the DVFS optimization sweep.
#[derive(Debug, Clone)]
pub struct DvfsRow {
    /// Deadline slack factor (1.0 = exactly the fastest-state run time).
    pub slack: f64,
    /// Energy per state (None = infeasible).
    pub energy_per_state: BTreeMap<String, Option<f64>>,
    /// The optimizer's pick.
    pub best: String,
}

/// The library's Xeon DVFS machine.
pub fn xeon_fsm() -> PowerStateMachine {
    let repo = xpdl_models::paper_repository();
    let pm = repo.load("power_model_E5_2630L").expect("power model");
    let psm = pm
        .root()
        .children_of_kind(ElementKind::PowerStateMachine)
        .next()
        .expect("psm");
    PowerStateMachine::from_element(psm).expect("fsm")
}

/// OPT1: energy per state across a slack sweep; crossover from P3 to P1.
pub fn dvfs_sweep(cycles: f64, idle_power_w: f64) -> Vec<DvfsRow> {
    let fsm = xeon_fsm();
    let opt = DvfsOptimizer::new(&fsm, "P3").expect("optimizer");
    let t_min = cycles / fsm.fastest().expect("states").frequency_hz;
    let mut rows = Vec::new();
    for slack in [1.0, 1.1, 1.3, 1.5, 1.8, 2.2, 3.0, 5.0] {
        let w = Workload { cycles, deadline_s: t_min * slack, idle_power_w };
        let choices = opt.evaluate_all(&w);
        let energy_per_state = choices
            .iter()
            .map(|c| (c.state.clone(), c.feasible.then_some(c.energy_j)))
            .collect();
        rows.push(DvfsRow {
            slack,
            energy_per_state,
            best: opt.best(&w).expect("feasible").state,
        });
    }
    rows
}

// ---------------------------------------------------------------- BL1 ----

/// Modularity comparison row: bytes needed to describe N systems sharing
/// one CPU type.
#[derive(Debug, Clone, PartialEq)]
pub struct ModularityRow {
    /// Number of systems described.
    pub systems: usize,
    /// Total PDL bytes (each system re-embeds the PU description).
    pub pdl_bytes: usize,
    /// Total XPDL bytes (one shared CPU descriptor + per-system references).
    pub xpdl_bytes: usize,
}

/// BL1: render N PDL platforms vs N XPDL systems sharing the Xeon type and
/// measure real byte counts.
pub fn modularity_comparison(counts: &[usize]) -> Vec<ModularityRow> {
    let pdl_one = |i: usize| {
        // PDL re-embeds the full PU text in every platform file.
        xpdl_pdl_example(i)
    };
    let xpdl_shared = xpdl_models::library::XEON_E5_2630L;
    let xpdl_one = |i: usize| {
        format!(
            r#"<system id="host{i}">
  <socket><cpu id="cpu{i}" type="Intel_Xeon_E5_2630L"/></socket>
  <memory id="mem{i}" type="DDR3_16G"/>
</system>"#
        )
    };
    counts
        .iter()
        .map(|&n| {
            let pdl_bytes = (0..n).map(|i| pdl_one(i).len()).sum();
            let xpdl_bytes =
                xpdl_shared.len() + (0..n).map(|i| xpdl_one(i).len()).sum::<usize>();
            ModularityRow { systems: n, pdl_bytes, xpdl_bytes }
        })
        .collect()
}

fn xpdl_pdl_example(i: usize) -> String {
    format!(
        r#"<Platform name="host{i}">
  <ProcessingUnits>
    <PU id="cpu{i}" role="Master" type="CPU">
      <Property name="x86_MAX_CLOCK_FREQUENCY" value="2000000000"/>
      <Property name="NUM_CORES" value="4"/>
      <Property name="L1_SIZE_BYTES" value="32768"/>
      <Property name="L2_SIZE_BYTES" value="262144"/>
      <Property name="L3_SIZE_BYTES" value="15728640"/>
      <Property name="STATIC_POWER_W" value="15"/>
    </PU>
  </ProcessingUnits>
  <MemoryRegions>
    <Memory id="mem{i}" scope="global"><Property name="SIZE_BYTES" value="17179869184"/></Memory>
  </MemoryRegions>
</Platform>"#
    )
}

/// BL1 fidelity: parse a PDL example, convert, and verify the key facts
/// survive. Returns the list of preserved facts (for printing).
pub fn conversion_fidelity() -> Vec<(String, bool)> {
    let pdl = pdl_compat::PdlPlatform::parse(pdl_compat::model::EXAMPLE_GPU_SERVER)
        .expect("PDL parses");
    let converted = pdl_compat::pdl_to_xpdl(&pdl);
    let rt = RuntimeModel::from_element(&converted);
    vec![
        ("master CPU preserved".into(), rt.find("cpu0").is_some()),
        ("GPU became a device".into(), rt.find("gpu0").map(|n| n.kind()) == Some("device")),
        (
            "frequency lifted to attribute".into(),
            rt.find("cpu0").and_then(|n| n.quantity("frequency")).map(|q| q.to_base())
                == Some(2e9),
        ),
        (
            "core count became a group".into(),
            rt.find("cpu0")
                .and_then(|n| n.child_of_kind("group"))
                .and_then(|g| g.attr("quantity"))
                == Some("4"),
        ),
        (
            "installed software first-class".into(),
            rt.has_installed(|t| t.starts_with("CUBLAS")),
        ),
        (
            "interconnect bandwidth typed".into(),
            rt.find("pcie").and_then(|n| n.quantity("max_bandwidth")).map(|q| q.to_base())
                == Some(6442450944.0),
        ),
    ]
}

// ---------------------------------------------------------------- ABL ----

/// Inheritance ablation: C3 vs naive depth-first resolution on a diamond
/// where the two paths disagree on an attribute value.
#[derive(Debug, Clone, PartialEq)]
pub struct InheritanceAblation {
    /// What C3 resolves the attribute to (deterministic, local-precedence).
    pub c3_value: String,
    /// What naive DFS resolves it to.
    pub naive_value: String,
    /// Whether C3 rejected an order-inconsistent hierarchy that naive DFS
    /// silently accepted.
    pub c3_rejects_inconsistent: bool,
}

/// Run the inheritance ablation.
pub fn inheritance_ablation() -> InheritanceAblation {
    use xpdl_repo::{MemoryStore, Repository};
    // Diamond: D extends B, C; B and C both extend A and both set `value`.
    let mut m = MemoryStore::new();
    m.insert("A", r#"<device name="A" value="a" base="yes"/>"#);
    m.insert("B", r#"<device name="B" extends="A" value="b"/>"#);
    m.insert("C", r#"<device name="C" extends="A" value="c"/>"#);
    m.insert("D", r#"<device name="D" extends="B, C"/>"#);
    let repo = Repository::new().with_store(m);
    let set = repo.resolve_recursive("D").unwrap();
    let mut table = xpdl_elab::inherit::MetaTable::new(&set);
    let eff = table.effective("D").unwrap().unwrap();
    let c3_value = eff.attr("value").unwrap_or("?").to_string();

    // Naive DFS: walk extends depth-first, last writer wins on gaps.
    let naive_value = {
        fn dfs(name: &str, set: &xpdl_repo::ResolvedSet, out: &mut Option<String>) {
            let Some(doc) = set.get(name) else { return };
            if out.is_none() {
                if let Some(v) = doc.root().attr("value") {
                    *out = Some(v.to_string());
                }
            }
            for sup in &doc.root().extends {
                dfs(sup, set, out);
            }
        }
        let mut out = None;
        // D itself has no value; DFS into B (finds "b"). Same answer as C3
        // here — the difference shows on the inconsistent hierarchy below.
        dfs("D", &set, &mut out);
        out.unwrap_or_default()
    };

    // Inconsistent local precedence: E extends (X, Y), F extends (Y, X),
    // G extends (E, F). C3 must reject; naive DFS just picks X.
    let mut m2 = MemoryStore::new();
    m2.insert("X", r#"<device name="X"/>"#);
    m2.insert("Y", r#"<device name="Y"/>"#);
    m2.insert("E", r#"<device name="E" extends="X, Y"/>"#);
    m2.insert("F", r#"<device name="F" extends="Y, X"/>"#);
    m2.insert("G", r#"<device name="G" extends="E, F"/>"#);
    let repo2 = Repository::new().with_store(m2);
    let set2 = repo2.resolve_recursive("G").unwrap();
    let mut table2 = xpdl_elab::inherit::MetaTable::new(&set2);
    let c3_rejects_inconsistent = table2.effective("G").is_err();

    InheritanceAblation { c3_value, naive_value, c3_rejects_inconsistent }
}

// ---------------------------------------------------------------- TC1 ----

/// One toolchain-scaling measurement: the median of each stage over the
/// repetitions.
#[derive(Debug, Clone)]
pub struct ToolchainRow {
    /// Nodes × cores configuration.
    pub config: (usize, usize),
    /// Expanded element count.
    pub elements: usize,
    /// `resolve_recursive` over a fresh repository (fetch + parse).
    pub resolve: Duration,
    /// Elaboration of the resolved set.
    pub elaborate: Duration,
    /// `RuntimeModel::from_element` on the elaborated tree.
    pub from_element: Duration,
    /// Runtime binary encode+decode wall time.
    pub rt_roundtrip: Duration,
    /// XML serialize+reparse wall time (the ablation baseline).
    pub xml_roundtrip: Duration,
}

/// TC1: scale the synthetic model and time each pipeline stage `reps`
/// times, reporting per-stage medians (criterion benches give the
/// distributions; this gives the table).
pub fn toolchain_scaling(configs: &[(usize, usize)], reps: usize) -> Vec<ToolchainRow> {
    fn median(mut v: Vec<Duration>) -> Duration {
        v.sort();
        v[v.len() / 2]
    }
    configs
        .iter()
        .map(|&(nodes, cores)| {
            let mut stages: [Vec<Duration>; 5] = Default::default();
            let mut elements = 0;
            for _ in 0..reps.max(1) {
                // A fresh repository per repetition, so resolution fetches
                // and parses every document instead of hitting its cache.
                let repo = crate::synth::synthetic_repository(nodes, cores);
                let t0 = Instant::now();
                let set = repo.resolve_recursive("synth").unwrap();
                let t1 = Instant::now();
                let model = xpdl_elab::elaborate(&set).unwrap();
                let t2 = Instant::now();
                let rt = RuntimeModel::from_element(&model.root);
                let t3 = Instant::now();
                let bytes = xpdl_runtime::encode(&rt);
                let back = xpdl_runtime::decode(&bytes).unwrap();
                let t4 = Instant::now();
                let xml = xpdl_xml::write_element(
                    &model.root.to_xml(),
                    &xpdl_xml::WriteOptions::compact(),
                );
                let reparsed = XpdlDocument::parse_str(&xml).unwrap();
                let t5 = Instant::now();

                assert_eq!(back.len(), rt.len());
                assert_eq!(reparsed.root().subtree_size(), model.root.subtree_size());
                elements = model.root.subtree_size();
                let times = [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4];
                for (stage, d) in stages.iter_mut().zip(times) {
                    stage.push(d);
                }
            }
            let [resolve, elaborate, from_element, rt_roundtrip, xml_roundtrip] =
                stages.map(median);
            ToolchainRow {
                config: (nodes, cores),
                elements,
                resolve,
                elaborate,
                from_element,
                rt_roundtrip,
                xml_roundtrip,
            }
        })
        .collect()
}

// ------------------------------------------------------------- bootstrap --

/// Full-library bootstrap (used by the `experiments` binary and benches):
/// fills every `?` in `x86_base_isa` and returns (filled, runs).
pub fn library_bootstrap(noise: f64, repetitions: u32) -> (usize, u32, InstructionEnergyTable) {
    let repo = xpdl_models::paper_repository();
    let isa = repo.load("x86_base_isa").expect("isa");
    let mut table = InstructionEnergyTable::from_element(isa.root()).expect("table");
    let suite_doc = repo.load("mb_x86_base_1").expect("suite");
    let suite = MicrobenchmarkSuite::from_element(suite_doc.root()).expect("suite model");
    let mut machine =
        SimMachine::new(GroundTruth::x86_default(), xeon_fsm(), 1, "P1", 0xCAFE).expect("machine");
    machine.noise = noise;
    let report = bootstrap_energy_table(&mut table, &suite, &mut machine, repetitions);
    assert!(report.complete(), "{report:?}");
    (report.filled.len(), report.total_runs, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table14_noiseless_matches_paper_endpoints_exactly() {
        let rows = table14(1, 0.0, 1);
        assert_eq!(rows.len(), 7);
        let at = |ghz: f64| {
            rows.iter()
                .find(|r| (r.freq_ghz - ghz).abs() < 1e-9)
                .unwrap()
        };
        assert!(at(2.8).rel_err.unwrap() < 1e-9);
        assert!(at(3.4).rel_err.unwrap() < 1e-9);
        // The 2.9 GHz row: the paper's table is slightly convex; the affine
        // calibration lands within 3 %.
        assert!(at(2.9).rel_err.unwrap() < 0.03);
        // Monotone in frequency.
        for w in rows.windows(2) {
            assert!(w[1].measured_nj > w[0].measured_nj);
        }
    }

    #[test]
    fn table14_noisy_stays_close() {
        let rows = table14(9, 0.002, 42);
        for r in &rows {
            if let Some(err) = r.rel_err {
                assert!(err < 0.10, "{r:?}");
            }
        }
    }

    #[test]
    fn mb_repetitions_reduce_error() {
        let abl = mb_repetitions_ablation(0.01, 30);
        assert_eq!(abl.len(), 4);
        let first = abl[0].1;
        let last = abl[3].1;
        assert!(last <= first, "median-of-27 ({last}) must not exceed single-run error ({first})");
    }

    #[test]
    fn spmv_sweep_every_variant_wins_somewhere_and_tuned_is_oracle() {
        let rows = spmv_sweep();
        let winners: std::collections::BTreeSet<_> =
            rows.iter().map(|r| r.chosen.clone()).collect();
        assert_eq!(winners.len(), 3, "{winners:?}");
        for r in &rows {
            assert!(r.tuned_is_oracle, "{r:?}");
        }
        let (tuned, statics) = spmv_summary(&rows);
        let best_static = statics.values().cloned().fold(f64::INFINITY, f64::min);
        assert!(tuned <= best_static * 1.0001);
        let worst_static = statics.values().cloned().fold(0.0, f64::max);
        assert!(worst_static / tuned > 5.0, "tuned should beat the worst policy by >5x");
    }

    #[test]
    fn dvfs_sweep_shows_crossover() {
        let rows = dvfs_sweep(2.4e9, 6.0);
        assert_eq!(rows.first().unwrap().best, "P3", "tight deadline needs the fast state");
        assert_eq!(rows.last().unwrap().best, "P1", "generous slack favors the frugal state");
        // Feasibility grows with slack.
        let feasible =
            |r: &DvfsRow| r.energy_per_state.values().filter(|e| e.is_some()).count();
        assert!(feasible(&rows[0]) <= feasible(rows.last().unwrap()));
    }

    #[test]
    fn modularity_gap_grows_with_system_count() {
        let rows = modularity_comparison(&[1, 2, 4, 8, 16]);
        // At N=1 PDL may be smaller (no separate descriptor file), but the
        // gap must invert and grow.
        let last = rows.last().unwrap();
        assert!(last.pdl_bytes > last.xpdl_bytes, "{last:?}");
        let ratio_first = rows[0].pdl_bytes as f64 / rows[0].xpdl_bytes as f64;
        let ratio_last = last.pdl_bytes as f64 / last.xpdl_bytes as f64;
        assert!(ratio_last > ratio_first);
    }

    #[test]
    fn conversion_fidelity_all_facts_hold() {
        for (fact, ok) in conversion_fidelity() {
            assert!(ok, "{fact}");
        }
    }

    #[test]
    fn inheritance_ablation_c3_deterministic_and_strict() {
        let abl = inheritance_ablation();
        assert_eq!(abl.c3_value, "b", "local precedence order: B before C");
        assert!(abl.c3_rejects_inconsistent);
    }

    #[test]
    fn toolchain_scaling_monotone_in_elements() {
        let rows = toolchain_scaling(&[(1, 2), (4, 4), (16, 8)], 3);
        assert!(rows.windows(2).all(|w| w[0].elements < w[1].elements));
        assert!(rows.iter().all(|r| r.elaborate > Duration::ZERO && r.resolve > Duration::ZERO));
    }

    #[test]
    fn library_bootstrap_complete() {
        let (filled, runs, table) = library_bootstrap(0.0, 1);
        assert_eq!(filled, 8);
        assert!(runs >= 24); // 8 instructions × 3 states
        assert!(table.pending().is_empty());
    }
}
