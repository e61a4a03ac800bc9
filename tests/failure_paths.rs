//! Failure-injection integration: every stage of the pipeline must fail
//! loudly and precisely, never silently mis-compose.

use xpdl::elab::{elaborate, elaborate_with, ElabError, ElabOptions};
use xpdl::repo::{MemoryStore, Repository, ResolveError};

fn repo_of(entries: &[(&str, &str)]) -> Repository {
    let mut m = MemoryStore::new();
    for (k, v) in entries {
        m.insert(*k, *v);
    }
    Repository::new().with_store(m)
}

#[test]
fn missing_reference_names_the_referrer() {
    let repo = repo_of(&[(
        "sys",
        r#"<system id="sys"><socket><cpu id="h" type="Missing_Cpu"/></socket></system>"#,
    )]);
    match repo.resolve_recursive("sys").unwrap_err() {
        ResolveError::NotFound { key, referenced_by, searched } => {
            assert_eq!(key, "Missing_Cpu");
            assert_eq!(referenced_by.as_deref(), Some("sys"));
            assert!(!searched.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn broken_descriptor_fails_with_position() {
    let repo = repo_of(&[
        ("sys", r#"<system id="sys"><device id="d" type="Broken"/></system>"#),
        ("Broken", r#"<device name="Broken"><cache name="L1" </device>"#),
    ]);
    match repo.resolve_recursive("sys").unwrap_err() {
        ResolveError::Parse { key, error } => {
            assert_eq!(key, "Broken");
            // The underlying XML error carries a line:col position.
            assert!(error.to_string().contains("1:"), "{error}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn inheritance_cycle_rejected_at_resolution() {
    let repo = repo_of(&[
        ("A", r#"<device name="A" extends="B"/>"#),
        ("B", r#"<device name="B" extends="C"/>"#),
        ("C", r#"<device name="C" extends="A"/>"#),
    ]);
    let err = repo.resolve_recursive("A").unwrap_err();
    assert!(matches!(err, ResolveError::Cycle { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("A") && msg.contains("->"), "{msg}");
}

#[test]
fn runaway_quantity_hits_the_element_budget() {
    let repo = repo_of(&[(
        "boom",
        r#"<system id="boom">
             <group prefix="a" quantity="1000">
               <group prefix="b" quantity="1000">
                 <group prefix="c" quantity="1000"><core/></group>
               </group>
             </group>
           </system>"#,
    )]);
    let set = repo.resolve_recursive("boom").unwrap();
    let err = elaborate_with(
        &set,
        &ElabOptions { max_elements: 100_000, ..Default::default() },
    )
    .unwrap_err();
    match err {
        ElabError::TooLarge { produced, limit } => {
            assert!(produced > limit);
            assert_eq!(limit, 100_000);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unresolvable_quantity_is_a_hard_error() {
    let repo = repo_of(&[(
        "sys",
        r#"<system id="sys"><group prefix="x" quantity="not_bound"><core/></group></system>"#,
    )]);
    let set = repo.resolve_recursive("sys").unwrap();
    let err = elaborate(&set).unwrap_err();
    assert!(matches!(err, ElabError::UnresolvedQuantity { .. }), "{err}");
    assert!(err.to_string().contains("not_bound"));
}

#[test]
fn constraint_violations_are_diagnostics_not_aborts() {
    // A violated constraint must not prevent the rest of the model from
    // composing — tools need the full picture to report.
    let repo = repo_of(&[(
        "sys",
        r#"<system id="sys">
             <device id="d">
               <const name="limit" value="10"/>
               <param name="x" value="99"/>
               <constraints><constraint expr="x &lt; limit"/></constraints>
               <group prefix="c" quantity="3"><core/></group>
             </device>
           </system>"#,
    )]);
    let set = repo.resolve_recursive("sys").unwrap();
    let model = elaborate(&set).unwrap();
    assert!(!model.is_clean());
    assert_eq!(model.count_kind(xpdl::core::ElementKind::Core), 3, "rest still composed");
    assert!(model
        .diagnostics
        .iter()
        .any(|d| d.is_error() && d.message.contains("violated")));
}

#[test]
fn corrupted_runtime_file_rejected_cleanly() {
    let dir = std::env::temp_dir().join(format!("xpdl_failpaths_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.xpdlrt");
    let model = xpdl::models::loader::elaborate_system("liu_gpu_server").unwrap();
    let rt = xpdl::runtime::RuntimeModel::from_element(&model.root);
    xpdl::runtime::format::save_file(&rt, &path).unwrap();
    // Truncate the file mid-way: init must fail with InvalidData, not panic.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = match xpdl::runtime::XpdlHandle::init(&path) {
        Err(e) => e,
        Ok(_) => panic!("truncated file must not load"),
    };
    // The decode fault survives (no flattening into an io::Error), and
    // converts to a coded serving diagnostic.
    match &err {
        xpdl::runtime::LoadError::Format(f) => {
            assert_eq!(*f, xpdl::runtime::FormatError::Truncated)
        }
        other => panic!("expected a decode fault, got {other:?}"),
    }
    let diag = err.to_diagnostic(path.to_str().unwrap());
    assert_eq!(diag.code, "S401");
    assert!(diag.is_error());
    assert!(diag.notes.iter().any(|n| n.contains("truncated")), "{diag:?}");
    // A genuinely unreadable file is the other arm, with its own code.
    let gone = dir.join("nonexistent.xpdlrt");
    let err = xpdl::runtime::XpdlHandle::init(&gone).unwrap_err();
    assert!(matches!(err, xpdl::runtime::LoadError::Io(_)), "{err:?}");
    assert_eq!(err.to_diagnostic("nonexistent.xpdlrt").code, "S400");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn power_domain_guard_violations_do_not_change_state() {
    use xpdl::core::XpdlDocument;
    let doc = XpdlDocument::parse_str(xpdl::models::listings::LISTING_12_POWER_DOMAINS).unwrap();
    let mut pd = xpdl::power::PowerDomainSet::from_element(doc.root());
    let before = pd.off_domains().len();
    assert!(pd.switch_off("CMX_pd").is_err());
    assert!(pd.switch_off("main_pd").is_err());
    assert_eq!(pd.off_domains().len(), before, "failed switches must be no-ops");
}

#[test]
fn composition_with_no_viable_variant_reports_component() {
    use xpdl::composition::{Component, Dispatcher, Requirement, SelectError, Variant};
    use xpdl::core::XpdlDocument;
    use xpdl::runtime::{RuntimeModel, XpdlHandle};
    let doc = XpdlDocument::parse_str(r#"<system id="tiny"><cpu id="c"><core id="k"/></cpu></system>"#)
        .unwrap();
    let handle = XpdlHandle::from_model(RuntimeModel::from_element(doc.root()));
    let c = Component::new("fft").with_variant(Variant::new(
        "gpu_only",
        vec![Requirement::CudaDevice],
        |_, _| 1.0,
    ));
    assert_eq!(
        Dispatcher::build(c, handle).unwrap_err(),
        SelectError::NoSelectableVariant { component: "fft".into() }
    );
}

#[test]
fn strict_types_toggle_controls_failure_mode() {
    let entries: &[(&str, &str)] =
        &[("sys", r#"<system id="sys"><device id="d" type="Ghost"/></system>"#)];
    // allow_missing at resolution, strict at elaboration → UnknownType.
    let repo = repo_of(entries);
    let set = repo
        .resolve_with(
            "sys",
            &xpdl::repo::ResolveOptions { allow_missing: true, ..Default::default() },
        )
        .unwrap();
    let err = elaborate(&set).unwrap_err();
    assert!(matches!(err, ElabError::UnknownType { ref name, .. } if name == "Ghost"), "{err}");
    // Lenient everywhere → clean model plus a warning trail.
    let model =
        elaborate_with(&set, &ElabOptions { strict_types: false, ..Default::default() }).unwrap();
    assert!(model.is_clean());
    assert!(model.diagnostics.iter().any(|d| d.message.contains("Ghost")));
}

/// `xpdlc` on the exported library with one static power set to `NaN`:
/// composing reports the value as an elaboration error naming the
/// attribute and exits 1, and no total the toolchain prints reads `NaN`.
/// Building reports the same error and exits 1; it writes the runtime
/// file only under `--keep-going`.
#[test]
fn non_finite_static_power_is_an_error_not_a_total() {
    fn run_cli(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = xpdl_cli::run(&args, &mut buf);
        (code, String::from_utf8(buf).expect("utf8 output"))
    }
    let dir = std::env::temp_dir().join(format!("xpdl_nan_power_{}", std::process::id()));
    let models = dir.join("models");
    let (code, out) = run_cli(&["export", models.to_str().unwrap()]);
    assert_eq!(code, 0, "{out}");
    let xeon = models.join("Intel_Xeon_E5_2630L.xpdl");
    let src = std::fs::read_to_string(&xeon).unwrap();
    assert!(src.contains(r#"static_power="15""#), "{src}");
    std::fs::write(&xeon, src.replace(r#"static_power="15""#, r#"static_power="NaN""#)).unwrap();

    let models = models.to_str().unwrap();
    let (code, out) = run_cli(&["compose", "liu_gpu_server", "--models", models]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("error[E215]: system[liu_gpu_server]/socket/cpu[gpu_host]")
            && out.contains(r#"attribute "static_power" is not a finite number"#),
        "{out}"
    );
    assert!(!out.contains("NaN"), "{out}");

    let path = dir.join("server.xpdlrt");
    let file = path.to_str().unwrap();
    let build = ["build", "liu_gpu_server", "--models", models, "-o", file];
    let (code, out) = run_cli(&build);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains(r#"attribute "static_power" is not a finite number"#), "{out}");
    assert!(!path.exists(), "a build with errors wrote its file: {out}");
    let (code, out) = run_cli(&[&build[..], &["--keep-going"]].concat());
    assert_eq!(code, 1, "{out}");
    assert!(path.exists() && out.contains("wrote "), "{out}");
    let (code, out) = run_cli(&["query", file]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("total_static_power_w: 12\n"), "{out}");
    assert!(!out.contains("NaN"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}
