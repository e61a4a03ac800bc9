//! `xpdlc calibrate` and `xpdlc optimize` — the fleet calibration loop and
//! the optimization scenarios it feeds (paper §IV/§V).

use crate::{flag_value, has_flag, parse_flag, repository, ExitCode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use xpdl_calib::{
    announce_version, calibrate_dir, default_fsm, optimize_model, plan_dir, run_plan, CalibOptions,
    WorkUnit, DEFAULT_INITIAL_STATE,
};
use xpdl_core::diag::json::escape_into;
use xpdl_power::InstructionEnergyTable;

/// Parse calibration knobs shared by both subcommands.
fn calib_options(rest: &[String]) -> Result<CalibOptions, String> {
    let mut opts = CalibOptions::default();
    if let Some(seed) = parse_flag::<u64>(rest, "--seed")? {
        opts.seed = seed;
    }
    if let Some(jobs) = parse_flag::<usize>(rest, "--jobs")? {
        opts.jobs = jobs;
    }
    if let Some(reps) = parse_flag::<u32>(rest, "--repetitions")? {
        opts.repetitions = reps;
    }
    if let Some(ms) = parse_flag::<u64>(rest, "--timeout-ms")? {
        opts.driver_timeout = Duration::from_millis(ms);
    }
    Ok(opts)
}

fn diag_format(rest: &[String], out: &mut dyn std::io::Write) -> std::io::Result<Option<String>> {
    let format = flag_value(rest, "--diag-format").unwrap_or_else(|| "text".to_string());
    if format != "text" && format != "json" {
        writeln!(out, "unknown --diag-format '{format}' (text|json)")?;
        return Ok(None);
    }
    Ok(Some(format))
}

/// `xpdlc calibrate --dir DIR`: scan a published library directory for
/// `energy="?"` entries, run the microbenchmark sweep, write the
/// calibrated descriptors back atomically, and (optionally) announce the
/// new model version to a cluster registry.
pub(crate) fn calibrate_command(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let usage = "calibrate --dir DIR [--seed N] [--jobs N] [--repetitions N] [--timeout-ms MS] [--dry-run] [--registry HOST:PORT] [--diag-format text|json]";
    let Some(dir) = flag_value(rest, "--dir").map(PathBuf::from) else {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    };
    let Some(format) = diag_format(rest, out)? else { return Ok(2) };
    let opts = calib_options(rest)?;

    if has_flag(rest, "--dry-run") {
        let plan = plan_dir(&dir)?;
        if format == "json" {
            let mut s = format!(
                r#"{{"scanned_docs":{},"total_pending":{},"units":["#,
                plan.scanned_docs, plan.total_pending
            );
            for (i, u) in plan.units.iter().enumerate() {
                s.push_str(if i == 0 { r#"{"doc":"# } else { r#",{"doc":"# });
                escape_into(&mut s, &u.doc_key);
                s.push_str(r#","table":"#);
                escape_into(&mut s, &u.table.name);
                s.push_str(r#","suite":"#);
                escape_into(&mut s, &u.suite.id);
                write!(s, r#","pending":{}}}"#, u.pending.len())?;
            }
            s.push_str(r#"],"diags":["#);
            for (i, d) in plan.diags.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(s, r#"{sep}{{"code":"{}","doc":"#, d.code)?;
                escape_into(&mut s, &d.doc_key);
                s.push_str(r#","detail":"#);
                escape_into(&mut s, &d.detail);
                s.push('}');
            }
            writeln!(out, "{s}]}}")?;
        } else {
            for u in &plan.units {
                writeln!(
                    out,
                    "unit {}: table '{}' via suite '{}', {} pending",
                    u.doc_key,
                    u.table.name,
                    u.suite.id,
                    u.pending.len()
                )?;
            }
            for d in &plan.diags {
                writeln!(out, "{d}")?;
            }
            writeln!(
                out,
                "plan: {} docs scanned, {} units, {} pending entries, {} diagnostics",
                plan.scanned_docs,
                plan.units.len(),
                plan.total_pending,
                plan.diags.len()
            )?;
        }
        return Ok(if plan.diags.is_empty() { 0 } else { 1 });
    }

    let (outcome, summary) = calibrate_dir(&dir, &default_fsm(), DEFAULT_INITIAL_STATE, &opts)?;
    let mut subscribers: Option<u64> = None;
    if outcome.complete() && !summary.patched.is_empty() {
        if let Some(addr) = flag_value(rest, "--registry") {
            subscribers = Some(announce_version(&addr, &summary.version)?);
        }
    }

    if format == "json" {
        let mut s = format!(
            r#"{{"filled":{},"skipped":{},"total_runs":{},"complete":{},"version":"#,
            outcome.filled,
            outcome.skipped,
            outcome.total_runs,
            outcome.complete()
        );
        escape_into(&mut s, &summary.version);
        write!(
            s,
            r#","patched":{},"remaining_placeholders":{},"announced_subscribers":{},"units":["#,
            summary.patched.len(),
            summary.remaining_placeholders,
            subscribers.map(|n| n.to_string()).unwrap_or_else(|| "null".to_string())
        )?;
        for (i, u) in outcome.units.iter().enumerate() {
            s.push_str(if i == 0 { r#"{"doc":"# } else { r#",{"doc":"# });
            escape_into(&mut s, &u.doc_key);
            write!(
                s,
                r#","filled":{},"skipped":{},"timed_out":{}}}"#,
                u.report.filled.len(),
                u.report.skipped.len(),
                u.timed_out
            )?;
        }
        s.push_str(r#"],"diags":["#);
        for (i, (doc, d)) in outcome.diags().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(s, r#"{sep}{{"code":"{}","doc":"#, d.code)?;
            escape_into(&mut s, doc);
            s.push_str(r#","instruction":"#);
            escape_into(&mut s, &d.instruction);
            s.push_str(r#","detail":"#);
            escape_into(&mut s, &d.detail);
            s.push('}');
        }
        writeln!(out, "{s}]}}")?;
    } else {
        for u in &outcome.units {
            writeln!(
                out,
                "calibrated {}: {} filled, {} skipped{}",
                u.doc_key,
                u.report.filled.len(),
                u.report.skipped.len(),
                if u.timed_out { " (timed out)" } else { "" }
            )?;
        }
        for (doc, d) in outcome.diags() {
            writeln!(out, "  [{doc}] {d}")?;
        }
        writeln!(
            out,
            "calibrate: {} filled, {} skipped, {} runs; {} docs patched, {} placeholders remain; version {}",
            outcome.filled,
            outcome.skipped,
            outcome.total_runs,
            summary.patched.len(),
            summary.remaining_placeholders,
            summary.version
        )?;
        if let Some(n) = subscribers {
            writeln!(out, "announced to registry: {n} subscriber(s) notified")?;
        }
    }
    Ok(if outcome.complete() && summary.remaining_placeholders == 0 { 0 } else { 1 })
}

/// The built-in calibration target: every op the ground-truth machine
/// models, all pending, with a full driver suite — so `xpdlc optimize`
/// works out of the box and deterministically per seed.
fn builtin_unit() -> WorkUnit {
    const OPS: &[&str] = &["fadd", "fmul", "fma", "add", "mov", "load", "store", "branch"];
    let insts: String = OPS
        .iter()
        .map(|op| format!("  <inst name=\"{op}\" energy=\"?\" energy_unit=\"pJ\" mb=\"{op}1\"/>\n"))
        .collect();
    let entries: String = OPS
        .iter()
        .map(|op| format!("  <microbenchmark id=\"{op}1\" type=\"{op}\" file=\"{op}.c\"/>\n"))
        .collect();
    let isa = format!("<instructions name=\"builtin_full_isa\" mb=\"mb_builtin\">\n{insts}</instructions>");
    let suite = format!(
        "<microbenchmarks id=\"mb_builtin\" instruction_set=\"builtin_full_isa\" path=\"/opt/mb\" command=\"run.sh\">\n{entries}</microbenchmarks>"
    );
    let isa_doc = xpdl_core::XpdlDocument::parse_str(&isa).expect("builtin isa parses");
    let suite_doc = xpdl_core::XpdlDocument::parse_str(&suite).expect("builtin suite parses");
    let table = InstructionEnergyTable::from_element(isa_doc.root()).expect("builtin table");
    let suite = xpdl_mb::MicrobenchmarkSuite::from_element(suite_doc.root()).expect("builtin suite");
    let pending = table.pending().iter().map(|s| s.to_string()).collect();
    WorkUnit { doc_key: "builtin_full_isa".to_string(), table, suite, pending }
}

/// `xpdlc optimize`: run the DVFS/sleep schedule search and the SpMV
/// variant-selection case study over a calibrated instruction-energy
/// table.
///
/// With no `--isa`, a built-in full-coverage table is calibrated in
/// memory first (seeded, deterministic); `--isa KEY` loads a table from
/// the model library / `--models` directory instead, calibrating any `?`
/// entries the same way.
pub(crate) fn optimize_command(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some(format) = diag_format(rest, out)? else { return Ok(2) };
    let opts = calib_options(rest)?;

    let fsm = default_fsm();
    let unit = match flag_value(rest, "--isa") {
        None => builtin_unit(),
        Some(key) => {
            let repo = repository(rest)?;
            let isa_doc = repo.load(&key)?;
            let table = InstructionEnergyTable::from_element(isa_doc.root())?;
            let pending: Vec<String> = table.pending().iter().map(|s| s.to_string()).collect();
            if pending.is_empty() {
                // Every entry is priced: nothing to calibrate, no suite needed.
                return optimize_report(&table, &fsm, &format, out);
            }
            let suite_ref =
                table.suite_mb.clone().ok_or("instruction set has no mb= suite reference")?;
            let suite_doc = repo.load(&suite_ref)?;
            let suite = xpdl_mb::MicrobenchmarkSuite::from_element(suite_doc.root())?;
            WorkUnit { doc_key: key, table, suite, pending }
        }
    };

    let plan = xpdl_calib::CalibrationPlan {
        total_pending: unit.pending.len(),
        units: vec![unit],
        ..Default::default()
    };
    let outcome = run_plan(&plan, &fsm, DEFAULT_INITIAL_STATE, &opts);
    if !outcome.complete() {
        for (doc, d) in outcome.diags() {
            writeln!(out, "  [{doc}] {d}")?;
        }
        writeln!(out, "optimize: calibration incomplete; cannot price workloads")?;
        return Ok(1);
    }
    let table = outcome.units.into_iter().next().expect("one unit").table;
    optimize_report(&table, &fsm, &format, out)
}

/// Price the optimization scenarios over a fully priced `table` and print
/// the report in `format` (`text` or `json`).
fn optimize_report(
    table: &InstructionEnergyTable,
    fsm: &xpdl_power::PowerStateMachine,
    format: &str,
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let report = optimize_model(table, fsm, DEFAULT_INITIAL_STATE)?;
    if format == "json" {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{}", report.to_text())?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> (ExitCode, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = crate::run(&args, &mut buf);
        (code, String::from_utf8(buf).expect("utf8 output"))
    }

    fn fleet_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xpdlc_calib_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shape = xpdl_fleetgen::FleetShape::parse("nodes=4,depth=3,chain=3,width=2,pinned=2")
            .unwrap();
        xpdl_fleetgen::generate(11, &shape).write_dir(&dir).unwrap();
        dir
    }

    #[test]
    fn calibrate_requires_a_directory() {
        let (code, out) = run_cli(&["calibrate"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("usage: xpdlc calibrate"), "{out}");
    }

    #[test]
    fn dry_run_reports_the_plan_without_patching() {
        let dir = fleet_dir("dry");
        let before = std::fs::read_to_string(dir.join("fg_isa_0.xpdl")).unwrap();
        let (code, out) = run_cli(&["calibrate", "--dir", dir.to_str().unwrap(), "--dry-run"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 units"), "{out}");
        assert!(out.contains("4 pending entries"), "{out}");
        assert_eq!(std::fs::read_to_string(dir.join("fg_isa_0.xpdl")).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn calibrate_fills_a_fleet_library() {
        let dir = fleet_dir("full");
        let (code, out) =
            run_cli(&["calibrate", "--dir", dir.to_str().unwrap(), "--seed", "3"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("4 filled, 0 skipped"), "{out}");
        assert!(out.contains("0 placeholders remain"), "{out}");
        assert!(out.contains("version calib-"), "{out}");
        for w in 0..2 {
            let doc = std::fs::read_to_string(dir.join(format!("fg_isa_{w}.xpdl"))).unwrap();
            assert!(!doc.contains("energy=\"?\""), "{doc}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn calibrate_json_output_is_machine_readable() {
        let dir = fleet_dir("json");
        let (code, out) = run_cli(&[
            "calibrate",
            "--dir",
            dir.to_str().unwrap(),
            "--diag-format",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains(r#""complete":true"#), "{out}");
        assert!(out.contains(r#""remaining_placeholders":0"#), "{out}");
        assert!(out.contains(r#""announced_subscribers":null"#), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dry_run_json_escapes_control_characters() {
        // A pending table with no `mb=` suite: C702 quotes the table name,
        // which here holds a tab (XML character reference `&#9;`).
        let dir = std::env::temp_dir().join(format!("xpdlc_calib_tab_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("isa.xpdl"),
            r#"<instructions name="a&#9;b"><inst name="fadd" energy="?" energy_unit="pJ"/></instructions>"#,
        )
        .unwrap();
        let (code, out) = run_cli(&[
            "calibrate",
            "--dir",
            dir.to_str().unwrap(),
            "--dry-run",
            "--diag-format",
            "json",
        ]);
        assert_eq!(code, 1, "{out}");
        // Strict JSON forbids raw control characters in strings, and this
        // crate's reader is lenient about them, so check the bytes too.
        assert!(!out.trim_end().chars().any(char::is_control), "{out:?}");
        assert!(out.contains(r"'a\tb'"), "{out}");
        let doc = xpdl_core::diag::json::parse(out.trim()).expect("dry-run output is JSON");
        let diags = xpdl_core::diag::json::get(doc.as_object().unwrap(), "diags")
            .and_then(|d| d.as_array())
            .unwrap();
        let diag = diags[0].as_object().unwrap();
        let field = |k| xpdl_core::diag::json::get(diag, k).and_then(|v| v.as_str());
        assert_eq!(field("code"), Some("C702"));
        assert!(field("detail").unwrap().contains("'a\tb'"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn optimize_is_deterministic_per_seed() {
        let (c1, a) = run_cli(&["optimize", "--diag-format", "json", "--seed", "9"]);
        let (c2, b) = run_cli(&["optimize", "--diag-format", "json", "--seed", "9"]);
        assert_eq!(c1, 0, "{a}");
        assert_eq!(c2, 0);
        assert_eq!(a, b);
        let (c3, c) = run_cli(&["optimize", "--diag-format", "json", "--seed", "10"]);
        assert_eq!(c3, 0);
        assert_ne!(a, c, "different seeds must price differently");
    }

    #[test]
    fn optimize_text_names_both_scenarios() {
        let (code, out) = run_cli(&["optimize"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("dvfs schedule search"), "{out}");
        assert!(out.contains("spmv variant selection"), "{out}");
        assert!(out.contains("spmv_csr"), "{out}");
        assert!(out.contains("spmv_dense"), "{out}");
    }

    #[test]
    fn optimize_prices_a_calibrated_library_isa() {
        let dir = fleet_dir("opt_isa");
        let (code, out) = run_cli(&["calibrate", "--dir", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        // The fleet ISA only covers the generator's op vocabulary, which is
        // exactly what the SpMV mixes need — so pricing works.
        let (code, out) = run_cli(&[
            "optimize",
            "--isa",
            "fg_isa_0",
            "--models",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("model 'fg_isa_0'"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn optimize_needs_no_suite_when_nothing_is_pending() {
        let dir = std::env::temp_dir().join(format!("xpdlc_calib_priced_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ops = ["fadd", "fmul", "fma", "add", "mov", "load", "store", "branch"];
        let insts: String = ops
            .iter()
            .zip(1..)
            .map(|(op, e)| format!("  <inst name=\"{op}\" energy=\"{e}\" energy_unit=\"pJ\"/>\n"))
            .collect();
        let isa = format!("<instructions name=\"K\">\n{insts}</instructions>\n");
        std::fs::write(dir.join("K.xpdl"), isa).unwrap();
        let (code, out) = run_cli(&["optimize", "--isa", "K", "--models", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("model 'K'"), "{out}");
        assert!(out.contains("dvfs schedule search"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
