//! The SpMV conditional-composition case study (paper §II).
//!
//! Three implementation variants of `y = A·x`:
//!
//! * `cpu_dense` — dense traversal on one host core; needs nothing special.
//! * `cpu_csr` — CSR traversal on one host core; work scales with density.
//! * `gpu_csr` — CSR offloaded over PCIe to the GPU; selectable only when
//!   the model shows a CUDA device *and* an installed sparse BLAS library
//!   (the paper's library-availability constraint), and worthwhile only
//!   when the work amortizes the transfer.
//!
//! Cost models read the platform parameters (core counts, frequencies,
//! effective PCIe bandwidth) from the runtime model — exactly the
//! platform-aware dynamic optimization the XPDL query API exists for.

use crate::component::{CallContext, Component, Requirement, Variant};
use xpdl_hwsim::kernels::{gpu_offload_stream, spmv_stream, KernelSpec, SpmvVariant};
use xpdl_hwsim::{ChannelModel, GroundTruth, Measurement, SimMachine};
use xpdl_runtime::XpdlHandle;

/// Fixed host-side cost of one device offload (kernel launch, driver,
/// synchronization) — the dominant reason small problems stay on the CPU
/// in the 2014/2015 CUDA case study.
pub const GPU_LAUNCH_OVERHEAD_S: f64 = 50e-6;

/// Platform parameters extracted from the runtime model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformParams {
    /// Host core count.
    pub host_cores: usize,
    /// Host core frequency, Hz.
    pub host_freq_hz: f64,
    /// GPU core count (0 = no GPU).
    pub gpu_cores: usize,
    /// GPU core frequency, Hz.
    pub gpu_freq_hz: f64,
    /// Host↔device bandwidth, B/s.
    pub pcie_bandwidth_bps: f64,
}

impl PlatformParams {
    /// Read the parameters from a runtime model.
    pub fn from_handle(h: &XpdlHandle) -> PlatformParams {
        let core_freq = |ident: Option<&str>| -> (usize, f64) {
            let Some(node) = ident.and_then(|i| h.find(i)) else { return (0, 0.0) };
            let cores = || node.descendants().filter(|n| n.kind() == "core");
            let freq = cores()
                .find_map(|c| c.quantity("frequency").map(|q| q.to_base()))
                .unwrap_or(1e9);
            (cores().count(), freq)
        };
        // Conventional ids from the paper's GPU-server model (Listing 7);
        // fall back to the first cpu/device in the model.
        let cpu_id = h
            .find("gpu_host")
            .and_then(|n| n.ident())
            .or_else(|| h.elements_of_kind("cpu").first().and_then(|n| n.ident()));
        let gpu_id = h
            .find("gpu1")
            .and_then(|n| n.ident())
            .or_else(|| h.elements_of_kind("device").first().and_then(|n| n.ident()));
        let (host_cores, host_freq_hz) = core_freq(cpu_id);
        let (gpu_cores, gpu_freq_hz) = core_freq(gpu_id);
        let pcie_bandwidth_bps = h
            .elements_of_kind("interconnect")
            .iter()
            .find_map(|ic| {
                ic.quantity("effective_bandwidth")
                    .or_else(|| ic.quantity("max_bandwidth"))
                    .map(|q| q.to_base())
            })
            .unwrap_or(6.0 * 1024f64.powi(3));
        PlatformParams {
            host_cores: host_cores.max(1),
            host_freq_hz,
            gpu_cores,
            gpu_freq_hz,
            pcie_bandwidth_bps,
        }
    }

    /// Predicted run time of a CPU variant (single core, CPI model).
    pub fn predict_cpu_s(&self, spec: &KernelSpec, variant: SpmvVariant) -> f64 {
        let truth = GroundTruth::x86_default();
        let cycles: f64 = spmv_stream(spec, variant)
            .iter()
            .filter_map(|(i, c)| truth.cycles(i, *c))
            .sum();
        cycles / self.host_freq_hz.max(1.0)
    }

    /// Predicted run time of the GPU variant (parallel cores + transfers).
    pub fn predict_gpu_s(&self, spec: &KernelSpec) -> f64 {
        if self.gpu_cores == 0 {
            return f64::INFINITY;
        }
        let truth = GroundTruth::x86_default();
        let plan = gpu_offload_stream(spec, self.gpu_cores);
        let cycles: f64 = plan
            .per_core_mix
            .iter()
            .filter_map(|(i, c)| truth.cycles(i, *c))
            .sum();
        let compute = cycles / self.gpu_freq_hz.max(1.0);
        let transfer =
            (plan.upload_bytes + plan.download_bytes) as f64 / self.pcie_bandwidth_bps;
        compute + transfer + GPU_LAUNCH_OVERHEAD_S
    }
}

/// Build the SpMV component for a platform. The call context must provide
/// `n` (matrix dimension) and `density`.
pub fn spmv_component() -> Component {
    let spec_of = |ctx: &CallContext| KernelSpec {
        n: ctx.get("n").unwrap_or(1000.0) as usize,
        density: ctx.get("density").unwrap_or(0.01),
    };
    Component::new("spmv")
        .with_variant(Variant::new("cpu_dense", vec![Requirement::MinCores(1)], {
            move |h, ctx| {
                PlatformParams::from_handle(h).predict_cpu_s(&spec_of(ctx), SpmvVariant::CpuDense)
            }
        }))
        .with_variant(Variant::new("cpu_csr", vec![Requirement::MinCores(1)], {
            move |h, ctx| {
                PlatformParams::from_handle(h).predict_cpu_s(&spec_of(ctx), SpmvVariant::CpuCsr)
            }
        }))
        .with_variant(Variant::new(
            "gpu_csr",
            vec![
                Requirement::CudaDevice,
                // A sparse BLAS must be installed (the paper's constraint).
                Requirement::InstalledLib("cusparse"),
            ],
            move |h, ctx| PlatformParams::from_handle(h).predict_gpu_s(&spec_of(ctx)),
        ))
}

/// The executable platform: simulated host and device machines plus the
/// PCIe channels, for actually *running* the selected variant.
pub struct SpmvPlatform {
    /// Host machine.
    pub host: SimMachine,
    /// Device machine (if a GPU exists).
    pub gpu: Option<SimMachine>,
    /// Host→device channel.
    pub up: ChannelModel,
    /// Device→host channel.
    pub down: ChannelModel,
}

impl SpmvPlatform {
    /// Execute a variant by name; `None` for unknown names or a missing GPU.
    pub fn execute(&mut self, variant: &str, spec: &KernelSpec) -> Option<Measurement> {
        match variant {
            "cpu_dense" => {
                let mix = spmv_stream(spec, SpmvVariant::CpuDense);
                self.host.run_on_core(0, &to_refs(&mix))
            }
            "cpu_csr" => {
                let mix = spmv_stream(spec, SpmvVariant::CpuCsr);
                self.host.run_on_core(0, &to_refs(&mix))
            }
            "gpu_csr" => {
                let gpu = self.gpu.as_mut()?;
                let cores = gpu.cores.len();
                let plan = gpu_offload_stream(spec, cores);
                let up = self.up.transfer(plan.upload_bytes, 1);
                let down = self.down.transfer(plan.download_bytes, 1);
                let mut m = gpu.run_parallel(cores, &to_refs(&plan.per_core_mix))?;
                m.accumulate(Measurement { time_s: up.time_s, energy_j: up.energy_j });
                m.accumulate(Measurement { time_s: down.time_s, energy_j: down.energy_j });
                // Launch/driver overhead burns host static power.
                m.accumulate(Measurement {
                    time_s: GPU_LAUNCH_OVERHEAD_S,
                    energy_j: self.host.static_power_w() * GPU_LAUNCH_OVERHEAD_S,
                });
                Some(m)
            }
            _ => None,
        }
    }
}

fn to_refs(mix: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    mix.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Dispatcher;
    use xpdl_core::XpdlDocument;
    use xpdl_power::{PowerState, PowerStateMachine, Transition};
    use xpdl_runtime::RuntimeModel;

    fn gpu_server_handle(with_sparse_blas: bool) -> XpdlHandle {
        let lib = if with_sparse_blas {
            r#"<installed type="cusparse_6.0" path="/opt/cusparse"/>"#
        } else {
            ""
        };
        let mut cores = String::new();
        for i in 0..4 {
            cores.push_str(&format!(
                r#"<core id="hc{i}" frequency="2" frequency_unit="GHz"/>"#
            ));
        }
        let mut gpu_cores = String::new();
        for i in 0..64 {
            gpu_cores.push_str(&format!(
                r#"<core id="sm{i}" frequency="706" frequency_unit="MHz"/>"#
            ));
        }
        let src = format!(
            r#"<system id="srv">
                 <socket><cpu id="gpu_host">{cores}</cpu></socket>
                 <device id="gpu1">
                   <programming_model type="cuda6.0,opencl"/>
                   {gpu_cores}
                 </device>
                 <interconnects>
                   <interconnect id="connection1" head="gpu_host" tail="gpu1"
                                 effective_bandwidth="6442450944" effective_bandwidth_unit="B/s"/>
                 </interconnects>
                 <software><installed type="CUDA_6.0" path="/ext/local/cuda6.0/"/>{lib}</software>
               </system>"#
        );
        let doc = XpdlDocument::parse_str(&src).unwrap();
        XpdlHandle::from_model(RuntimeModel::from_element(doc.root()))
    }

    fn single_state_fsm(name: &str, f: f64, p: f64) -> PowerStateMachine {
        PowerStateMachine {
            name: name.into(),
            domain: None,
            states: vec![PowerState { name: "P0".into(), frequency_hz: f, power_w: p }],
            transitions: vec![Transition {
                head: "P0".into(),
                tail: "P0".into(),
                time_s: 0.0,
                energy_j: 0.0,
            }],
        }
    }

    fn sim_platform() -> SpmvPlatform {
        let host =
            SimMachine::new(GroundTruth::x86_default(), single_state_fsm("h", 2e9, 20.0), 4, "P0", 1)
                .unwrap()
                .noiseless();
        let gpu =
            SimMachine::new(GroundTruth::x86_default(), single_state_fsm("g", 706e6, 3.0), 64, "P0", 2)
                .unwrap()
                .noiseless();
        SpmvPlatform {
            host,
            gpu: Some(gpu),
            up: ChannelModel::pcie3_like("up_link"),
            down: ChannelModel::pcie3_like("down_link"),
        }
    }

    #[test]
    fn params_extracted_from_model() {
        let p = PlatformParams::from_handle(&gpu_server_handle(true));
        assert_eq!(p.host_cores, 4);
        assert_eq!(p.host_freq_hz, 2e9);
        assert_eq!(p.gpu_cores, 64);
        assert_eq!(p.gpu_freq_hz, 706e6);
        assert_eq!(p.pcie_bandwidth_bps, 6.0 * 1024f64.powi(3));
    }

    #[test]
    fn gpu_variant_gated_on_sparse_blas() {
        let with = Dispatcher::build(spmv_component(), gpu_server_handle(true)).unwrap();
        assert!(with.selectable_variants().contains(&"gpu_csr"));
        let without = Dispatcher::build(spmv_component(), gpu_server_handle(false)).unwrap();
        assert_eq!(without.selectable_variants(), vec!["cpu_dense", "cpu_csr"]);
    }

    #[test]
    fn density_drives_cpu_variant_choice() {
        let d = Dispatcher::build(spmv_component(), gpu_server_handle(false)).unwrap();
        // Sparse → CSR wins; near-dense → dense traversal wins (no indirect
        // loads, no per-element branching).
        let sparse = CallContext::new().with("n", 2000.0).with("density", 0.01);
        assert_eq!(d.select(&sparse).name, "cpu_csr");
        let dense = CallContext::new().with("n", 2000.0).with("density", 0.9);
        assert_eq!(d.select(&dense).name, "cpu_dense");
    }

    #[test]
    fn large_problems_offload_to_gpu() {
        let d = Dispatcher::build(spmv_component(), gpu_server_handle(true)).unwrap();
        let small = CallContext::new().with("n", 200.0).with("density", 0.05);
        assert!(d.select(&small).name.starts_with("cpu"), "{}", d.select(&small).name);
        let large = CallContext::new().with("n", 8000.0).with("density", 0.05);
        assert_eq!(d.select(&large).name, "gpu_csr");
    }

    #[test]
    fn execution_matches_prediction_ranking() {
        // The tuned selection must actually be the fastest on the simulator
        // for a spread of densities (model-guided ≈ oracle).
        let dispatcher = Dispatcher::build(spmv_component(), gpu_server_handle(true)).unwrap();
        let mut platform = sim_platform();
        for density in [0.005, 0.05, 0.3, 0.8] {
            let spec = KernelSpec { n: 3000, density };
            let ctx = CallContext::new().with("n", 3000.0).with("density", density);
            let chosen = dispatcher.select(&ctx).name.clone();
            let mut times = std::collections::BTreeMap::new();
            for v in ["cpu_dense", "cpu_csr", "gpu_csr"] {
                if let Some(m) = platform.execute(v, &spec) {
                    times.insert(v.to_string(), m.time_s);
                }
            }
            let fastest = times
                .iter()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(k, _)| k.clone())
                .unwrap();
            assert_eq!(
                chosen, fastest,
                "density {density}: chose {chosen}, fastest was {fastest} ({times:?})"
            );
        }
    }

    #[test]
    fn execute_unknown_variant_or_missing_gpu() {
        let mut p = sim_platform();
        assert!(p.execute("nope", &KernelSpec { n: 10, density: 0.1 }).is_none());
        p.gpu = None;
        assert!(p.execute("gpu_csr", &KernelSpec { n: 10, density: 0.1 }).is_none());
        assert!(p.execute("cpu_csr", &KernelSpec { n: 10, density: 0.1 }).is_some());
    }
}
