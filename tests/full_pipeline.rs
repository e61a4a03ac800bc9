//! Cross-crate integration: the complete toolchain pipeline of paper §IV,
//! from descriptor files to a queried runtime model with a bootstrapped
//! energy model and a conditional-composition decision.

use xpdl::composition::{spmv_component, CallContext, Dispatcher};
use xpdl::core::ElementKind;
use xpdl::elab::elaborate;
use xpdl::hwsim::{GroundTruth, SimMachine};
use xpdl::mb::{bootstrap_energy_table, MicrobenchmarkSuite};
use xpdl::models::paper_repository;
use xpdl::power::{InstructionEnergyTable, PowerStateMachine, WorkloadEnergy};
use xpdl::repo::hash::fnv1a64;
use xpdl::runtime::{format, RuntimeModel, XpdlHandle};

/// The whole §IV pipeline in one test: browse → parse → compose → analyze
/// → generate runtime structure → load → introspect.
#[test]
fn toolchain_pipeline_descriptor_to_query() {
    // Stage 1-2: browse the repository and parse everything reachable.
    let repo = paper_repository();
    let set = repo.resolve_recursive("liu_gpu_server").unwrap();
    assert!(set.len() >= 10, "closure should pull in the whole library chain");

    // Stage 3: compose + static analysis.
    let model = elaborate(&set).unwrap();
    assert!(model.is_clean(), "{:#?}", model.diagnostics);
    assert_eq!(model.links[0].id, "connection1");
    let effective = model.links[0].effective_bandwidth.unwrap();
    assert!(effective <= 6.0 * 1024f64.powi(3) + 1.0, "downgraded to the slowest hop");

    // Stage 4: the run-time data structure written to a file, pinned to
    // the bytes this library has always encoded to.
    let rt = RuntimeModel::from_element(&model.root);
    let bytes = format::encode(&rt);
    assert_eq!(bytes.len(), 175_783);
    assert_eq!(format!("{:016x}", fnv1a64(&bytes)), "61211eee8e9a179f");
    let dir = std::env::temp_dir().join(format!("xpdl_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.xpdlrt");
    format::save_file(&rt, &path).unwrap();

    // Stage 5: application startup (`xpdl_init`) + queries.
    let handle = XpdlHandle::init(&path).unwrap();
    assert_eq!(handle.num_cores(), 4 + 13 * 192);
    assert_eq!(handle.num_cuda_devices(), 1);
    assert!(handle.total_static_power_w() > 0.0);
    assert_eq!(handle.get_attr("gpu1", "compute_capability"), Some("3.5"));
    // Browse: gpu1's parent is the system.
    let gpu = handle.find("gpu1").unwrap();
    assert_eq!(gpu.parent().unwrap().kind(), "system");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deployment-time bootstrap: the `?` entries of the library's instruction
/// set get filled by simulated microbenchmarks, and the resulting table
/// feeds a workload-energy estimate.
#[test]
fn bootstrap_then_estimate_workload_energy() {
    let repo = paper_repository();
    let isa = repo.load("x86_base_isa").unwrap();
    let mut table = InstructionEnergyTable::from_element(isa.root()).unwrap();
    let pending_before = table.pending().len();
    assert!(pending_before >= 8);

    let suite_doc = repo.load("mb_x86_base_1").unwrap();
    let suite = MicrobenchmarkSuite::from_element(suite_doc.root()).unwrap();

    let pm = repo.load("power_model_E5_2630L").unwrap();
    let psm = pm
        .root()
        .children_of_kind(ElementKind::PowerStateMachine)
        .next()
        .unwrap();
    let fsm = PowerStateMachine::from_element(psm).unwrap();
    let mut machine =
        SimMachine::new(GroundTruth::x86_default(), fsm, 1, "P1", 99).unwrap().noiseless();

    let report = bootstrap_energy_table(&mut table, &suite, &mut machine, 3);
    assert!(report.complete(), "{report:?}");
    assert_eq!(report.filled.len(), pending_before);
    assert!(table.pending().is_empty());

    // Energy of a small kernel at 2.0 GHz (P3): noiseless bootstrap on the
    // simulator must reproduce ground truth exactly.
    let mut w = WorkloadEnergy::default();
    w.record("fadd", 1_000_000).record("fmul", 500_000).record("load", 250_000);
    let est = w.total_energy(&table, 2.0e9).unwrap();
    let truth = &machine.truth;
    let want = truth.energy("fadd", 1_000_000, 2.0e9).unwrap()
        + truth.energy("fmul", 500_000, 2.0e9).unwrap()
        + truth.energy("load", 250_000, 2.0e9).unwrap();
    assert!((est - want).abs() / want < 1e-9, "{est} vs {want}");
}

/// Conditional composition driven by the *composed* model: removing the
/// sparse BLAS from the software stanza flips the GPU variant off.
#[test]
fn composition_reacts_to_installed_software() {
    // Full platform: GPU variant selectable.
    let model = xpdl::models::loader::elaborate_system("liu_gpu_server").unwrap();
    let handle = XpdlHandle::from_model(RuntimeModel::from_element(&model.root));
    let d = Dispatcher::build(spmv_component(), handle).unwrap();
    assert!(d.selectable_variants().contains(&"gpu_csr"));
    let big = CallContext::new().with("n", 6000.0).with("density", 0.05);
    assert_eq!(d.select(&big).name, "gpu_csr");

    // Same hardware, cusparse removed → gpu_csr must disappear.
    let mut stripped = model.root.clone();
    for sw in &mut stripped.children {
        if sw.kind == ElementKind::Software {
            sw.children.retain(|c| {
                c.type_ref.as_deref().map(|t| !t.starts_with("cusparse")).unwrap_or(true)
            });
        }
    }
    let handle2 = XpdlHandle::from_model(RuntimeModel::from_element(&stripped));
    let d2 = Dispatcher::build(spmv_component(), handle2).unwrap();
    assert!(!d2.selectable_variants().contains(&"gpu_csr"));
    assert!(d2.select(&big).name.starts_with("cpu"));
}

/// The PDL baseline converts into a model the XPDL toolchain accepts
/// end-to-end (parse → validate → elaborate → runtime query).
#[test]
fn pdl_conversion_flows_through_the_whole_toolchain() {
    let pdl = xpdl::pdl::PdlPlatform::parse(xpdl::pdl::model::EXAMPLE_GPU_SERVER).unwrap();
    let converted = xpdl::pdl::pdl_to_xpdl(&pdl);
    let xml = xpdl::xml::write_element(&converted.to_xml(), &xpdl::xml::WriteOptions::pretty());

    let mut store = xpdl::repo::MemoryStore::new();
    // The converted model references software descriptors (CUBLAS_6.0) —
    // serve them from the library, as a deployment would; the converted
    // system descriptor overrides the library's under the same key.
    for (k, v) in xpdl::models::library::LIBRARY {
        store.insert(*k, *v);
    }
    store.insert("liu_gpu_server", xml);
    let repo = xpdl::repo::Repository::new().with_store(store);
    let set = repo.resolve_recursive("liu_gpu_server").unwrap();
    let model = elaborate(&set).unwrap();
    assert!(model.is_clean(), "{:#?}", model.diagnostics);
    let rt = RuntimeModel::from_element(&model.root);
    // NUM_CORES=4 became a real expanded group of 4 cores.
    assert_eq!(rt.num_cores(), 4);
    assert!(rt.has_installed(|t| t.starts_with("CUBLAS")));
}

/// Vendor-split repository: remote stores are consulted transparently and
/// the cache keeps refetches at one per descriptor.
#[test]
fn distributed_repository_with_cache() {
    let repo = xpdl::models::vendor_split_repository();
    let set1 = repo.resolve_recursive("liu_gpu_server").unwrap();
    let set2 = repo.resolve_recursive("liu_gpu_server").unwrap();
    assert_eq!(set1.len(), set2.len());
    // All parses are served from cache the second time.
    assert!(repo.cache_len() >= set1.len());
    let model = elaborate(&set1).unwrap();
    assert!(model.is_clean());
}

/// The runtime binary format survives the biggest model we ship.
#[test]
fn cluster_runtime_roundtrip() {
    let model = xpdl::models::loader::elaborate_system("XScluster").unwrap();
    let rt = RuntimeModel::from_element(&model.root);
    assert!(rt.len() > 20_000, "cluster model should be large, got {}", rt.len());
    let bytes = format::encode(&rt);
    let back = format::decode(&bytes).unwrap();
    assert_eq!(back.len(), rt.len());
    assert_eq!(back.num_cores(), rt.num_cores());
    assert_eq!(back.num_cores(), 4 * (8 + 13 * 192 + 15 * 192));
}

/// A synthesized fleet at deployment scale — extends chains 8 deep,
/// groups nested 6 deep — flows through the whole pipeline and matches
/// the golden summary pinned for seed 42 (the fleet generator's
/// determinism contract makes these numbers stable forever).
#[test]
fn generated_fleet_matches_golden_summary() {
    let shape = xpdl::fleetgen::FleetShape::parse("nodes=20,depth=6,chain=8,width=4,unknown=0.25")
        .unwrap();
    let fleet = xpdl::fleetgen::generate(42, &shape);
    assert_eq!(format!("{:016x}", fleet.checksum()), "8207f4cc80af1a40");
    assert_eq!(fleet.docs().len(), 27);
    assert!(xpdl::fleetgen::validate_fleet(&fleet).is_empty());

    let model = xpdl::fleetgen::elaborate_fleet(&fleet).unwrap();
    assert!(model.is_clean(), "{:#?}", model.diagnostics);
    assert_eq!(model.count_kind(ElementKind::Node), 20);
    assert_eq!(model.count_kind(ElementKind::Core), 255);
    assert_eq!(model.count_kind(ElementKind::Node), fleet.expected_nodes());
    assert_eq!(model.count_kind(ElementKind::Core), fleet.expected_cores());
    assert_eq!(model.count_kind(ElementKind::Device), fleet.expected_devices());

    // The synthesized num_cores annotation agrees with the structure,
    // and the model survives the runtime binary format.
    let rt = RuntimeModel::from_element(&model.root);
    assert_eq!(rt.num_cores() as usize, fleet.expected_cores());
    let bytes = format::encode(&rt);
    assert_eq!(bytes.len(), 55_631);
    assert_eq!(format!("{:016x}", fnv1a64(&bytes)), "9abdfe533a00baed");
    let back = format::decode(&bytes).unwrap();
    assert_eq!(back.len(), rt.len());
}
