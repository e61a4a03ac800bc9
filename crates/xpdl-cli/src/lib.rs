//! Library backing the `xpdlc` command-line tool.
//!
//! The paper's §IV describes a processing tool that "runs statically to
//! build a run-time data structure based on the XPDL descriptor files":
//! browse the repository, parse, compose, analyze, generate drivers, run
//! microbenchmarks, write the runtime file. `xpdlc` packages that pipeline
//! as subcommands:
//!
//! | subcommand | paper stage |
//! |---|---|
//! | `validate <file>` | parse + schema check |
//! | `compose <key> [--models DIR]` | repository browse + composition + static analysis |
//! | `dump <key>` | print the composed model as XML |
//! | `build <key> -o FILE` | write the runtime data structure file |
//! | `query <file> <ident> [attr]` | runtime query API demo (`xpdl_init` + getters) |
//! | `serve --model FILE \| --repo KEY` | the query API as a network service (JSON-lines daemon) |
//! | `registry [announce]` | cluster membership daemon / push a model version to the fleet |
//! | `bootstrap <key>` | generate drivers + run microbenchmarks on the simulator |
//! | `calibrate --dir DIR` | fleet calibration sweep: fill every `?` in a model library |
//! | `optimize [--isa KEY]` | DVFS/sleep schedule search + SpMV variant selection |
//! | `codegen [rust\|c]` | generate the query API from the core schema |
//! | `uml [schema\|<key>]` | the UML view (PlantUML) of the metamodel or a composed model |
//! | `export <dir>` | write the built-in library as `.xpdl` files (a local model search path) |
//! | `fleetgen [--seed N] [--shape SPEC]` | generate a deterministic synthetic fleet (benchmark corpus) |
//! | `keys` | list the built-in model library |
//! | `cache stats\|verify\|gc\|clear` | manage the persistent model cache |
//!
//! All commands default to the built-in model library; `--models DIR` adds
//! a local directory of `.xpdl` files to the front of the search path.
//! `--cache-dir DIR` layers a crash-safe persistent cache over every
//! store; `--max-stale SECS` serves cached copies when stores are down,
//! and `--offline` resolves from the cache alone.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xpdl_core::XpdlDocument;
use xpdl_repo::{
    CachingStore, DirStore, DiskCache, FaultConfig, FaultInjectingStore, Freshness, MemoryStore,
    ModelStore, RepoMetrics, Repository, ResolveOptions, RetryPolicy,
};
use xpdl_schema::{validate_document, Schema};

mod calib;
mod registry;
mod serve;

/// Exit status of a command.
///
/// | code | meaning |
/// |---|---|
/// | 0 | success, no diagnostics worth acting on |
/// | 1 | errors reported (validation/elaboration/resolution failures) |
/// | 2 | usage error (bad subcommand, bad flag value) |
/// | 3 | warnings only (`validate`: no errors, but the model is suspect) |
/// | 4 | internal fault — the toolchain itself panicked (always a bug) |
pub type ExitCode = i32;

/// Run the CLI with the given arguments (excluding argv\[0\]); output goes
/// to the writers so tests can capture it.
///
/// A panic anywhere in the pipeline is caught here and converted to exit
/// code 4 so callers can distinguish "your descriptor is bad" (1) from
/// "the toolchain is bad" (4). This is the last line of the no-panic
/// guarantee: even if a bug slips past the proptests, `xpdlc` still
/// exits with a diagnosable status instead of aborting.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> ExitCode {
    let (args, trace_cfg) = match extract_trace_config(args) {
        Ok(v) => v,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    // Arm the collector before any pipeline work so the root span and
    // everything under it is captured. The root id lets the exporter cut
    // this invocation's subtree out of the process-global ring (which
    // other threads — or other tests — may also be writing to).
    let root_id = trace_cfg.as_ref().map(|_| {
        xpdl_obs::trace::set_enabled(true);
        let mut sp = xpdl_obs::trace::span(root_span_name(args.first().map(String::as_str)));
        if let Some(cmd) = args.first() {
            sp.record_attr("cmd", cmd.as_str());
        }
        sp
    });
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match dispatch(&args, out) {
            Ok(code) => code,
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                1
            }
        }
    }));
    let code = match result {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let _ = writeln!(out, "internal fault (this is a bug in xpdlc): {msg}");
            4
        }
    };
    if let (Some(cfg), Some(root)) = (trace_cfg, root_id) {
        let root_id = root.id();
        drop(root); // end the root span so it lands in the collector
        if let Err(e) = emit_trace(&cfg, root_id, out) {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    }
    code
}

/// How a `--trace`d invocation should render its span tree.
struct TraceConfig {
    format: TraceFormat,
    out: Option<PathBuf>,
}

#[derive(Clone, Copy, PartialEq)]
enum TraceFormat {
    Summary,
    Json,
    Chrome,
}

impl TraceFormat {
    fn parse(s: &str) -> Result<TraceFormat, String> {
        match s {
            "summary" => Ok(TraceFormat::Summary),
            "json" => Ok(TraceFormat::Json),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!("unknown trace format '{other}' (summary|json|chrome)")),
        }
    }
}

/// Strip the global tracing flags (`--trace[=FMT]`, `--trace-format FMT`,
/// `--trace-out FILE`) and the `trace <cmd>` wrapper subcommand out of the
/// argument list, returning the cleaned args plus the requested trace
/// configuration (if any). These are global because they can appear
/// before the subcommand (`xpdlc --trace-format=json compose x`).
fn extract_trace_config(args: &[String]) -> Result<(Vec<String>, Option<TraceConfig>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut enabled = false;
    let mut format: Option<TraceFormat> = None;
    let mut out_file: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--trace" {
            enabled = true;
        } else if let Some(v) = a.strip_prefix("--trace=") {
            enabled = true;
            format = Some(TraceFormat::parse(v)?);
        } else if a == "--trace-format" || a == "--trace-out" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{a} requires a value"))?;
            enabled = true;
            if a == "--trace-format" {
                format = Some(TraceFormat::parse(v)?);
            } else {
                out_file = Some(PathBuf::from(v));
            }
            i += 1;
        } else if let Some(v) = a.strip_prefix("--trace-format=") {
            enabled = true;
            format = Some(TraceFormat::parse(v)?);
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            enabled = true;
            out_file = Some(PathBuf::from(v));
        } else {
            rest.push(a.clone());
        }
        i += 1;
    }
    // `xpdlc trace compose x` — the wrapper form, equivalent to --trace.
    if rest.first().map(String::as_str) == Some("trace") {
        rest.remove(0);
        if rest.is_empty() {
            return Err("usage: xpdlc trace <subcommand> [args]".to_string());
        }
        enabled = true;
    }
    if !enabled {
        return Ok((rest, None));
    }
    let cfg =
        TraceConfig { format: format.unwrap_or(TraceFormat::Summary), out: out_file };
    Ok((rest, Some(cfg)))
}

/// The root span of a traced invocation. Span names are static strings,
/// so known subcommands get their own name; anything else is `cli.run`
/// (the `cmd` attribute still carries the exact subcommand).
fn root_span_name(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("compose") => "cli.compose",
        Some("validate") => "cli.validate",
        Some("build") => "cli.build",
        Some("dump") => "cli.dump",
        Some("query") => "cli.query",
        Some("route") => "cli.route",
        Some("uml") => "cli.uml",
        Some("bootstrap") => "cli.bootstrap",
        Some("calibrate") => "cli.calibrate",
        Some("optimize") => "cli.optimize",
        _ => "cli.run",
    }
}

/// Keep only the records in the subtree rooted at `root`: the ones whose
/// parent chain reaches it. Records from other threads' concurrent
/// invocations (parallel tests share one global ring) are dropped.
fn filter_to_subtree(records: Vec<xpdl_obs::Record>, root: u64) -> Vec<xpdl_obs::Record> {
    let parents: std::collections::HashMap<u64, u64> =
        records.iter().map(|r| (r.id, r.parent)).collect();
    records
        .into_iter()
        .filter(|r| {
            let mut cur = r.id;
            let mut hops = 0;
            loop {
                if cur == root {
                    return true;
                }
                match parents.get(&cur) {
                    Some(&p) if p != 0 && p != cur && hops < 256 => {
                        cur = p;
                        hops += 1;
                    }
                    _ => return false,
                }
            }
        })
        .collect()
}

/// Drain the global collector and render this invocation's subtree in
/// the requested format, to the output writer or `--trace-out` file.
fn emit_trace(
    cfg: &TraceConfig,
    root_id: u64,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let records = filter_to_subtree(xpdl_obs::trace::global_collector().drain(), root_id);
    let rendered = match cfg.format {
        TraceFormat::Summary => xpdl_obs::export::render_summary(&records),
        TraceFormat::Json => xpdl_obs::export::render_json(&records),
        TraceFormat::Chrome => xpdl_obs::export::render_chrome(&records),
    };
    match &cfg.out {
        Some(path) => std::fs::write(path, rendered.as_bytes())?,
        None => writeln!(out, "{rendered}")?,
    }
    Ok(())
}

fn dispatch(args: &[String], out: &mut dyn std::io::Write) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some(cmd) = args.first() else {
        write_usage(out)?;
        return Ok(2);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            write_usage(out)?;
            Ok(0)
        }
        "keys" => {
            for key in repository(rest)?.keys() {
                writeln!(out, "{key}")?;
            }
            Ok(0)
        }
        "validate" => validate(rest, out),
        // Hidden: deliberately panic so tests (and packagers) can check
        // that the internal-fault exit path really yields code 4.
        "selftest-panic" => panic!("deliberate panic requested via selftest-panic"),
        "compose" => {
            let key = arg_at(rest, 0, "compose <key>")?;
            let (model, metrics) = compose(&key, rest)?;
            writeln!(
                out,
                "composed '{key}': {} elements, {} cores, {} links, default-domain power {}",
                model.root.subtree_size(),
                model.count_kind(xpdl_core::ElementKind::Core),
                model.links.len(),
                model.default_domain_power,
            )?;
            writeln!(out, "repository: {metrics}")?;
            for d in &model.diagnostics {
                writeln!(out, "{d}")?;
            }
            for p in &model.poisoned {
                writeln!(out, "poisoned: {p}")?;
            }
            for link in &model.links {
                if let (Some(bw), Some(by)) = (link.effective_bandwidth, link.limited_by.as_ref()) {
                    writeln!(
                        out,
                        "link {}: effective bandwidth {:.3} GiB/s (limited by {by})",
                        link.id,
                        bw / 1024f64.powi(3),
                    )?;
                }
            }
            Ok(if model.is_clean() { 0 } else { 1 })
        }
        "dump" => {
            let key = arg_at(rest, 0, "dump <key>")?;
            let (model, _) = compose(&key, rest)?;
            let xml = xpdl_xml::write_element(&model.root.to_xml(), &xpdl_xml::WriteOptions::pretty());
            writeln!(out, "{xml}")?;
            Ok(0)
        }
        "build" => {
            let key = arg_at(rest, 0, "build <key> -o <file> [--filter deployment]")?;
            let out_path = flag_value(rest, "-o")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(format!("{key}.xpdlrt")));
            let (mut model, _) = compose(&key, rest)?;
            if let Some(profile) = flag_value(rest, "--filter") {
                let filter = match profile.as_str() {
                    "deployment" => xpdl_elab::ModelFilter::deployment(),
                    "deployment-strict" => {
                        xpdl_elab::ModelFilter::deployment().drop_unknowns()
                    }
                    other => {
                        writeln!(out, "unknown filter profile '{other}'")?;
                        return Ok(2);
                    }
                };
                let (elems, attrs) = filter.apply(&mut model.root);
                writeln!(out, "filter '{profile}': dropped {elems} elements, {attrs} attributes")?;
            }
            let rt = xpdl_runtime::RuntimeModel::from_element(&model.root);
            xpdl_runtime::format::save_file(&rt, &out_path)?;
            writeln!(
                out,
                "wrote {} ({} nodes, {} bytes)",
                out_path.display(),
                rt.len(),
                std::fs::metadata(&out_path)?.len()
            )?;
            Ok(0)
        }
        "query" => serve::query_command(rest, out),
        "serve" => serve::serve_command(rest, out),
        "registry" => registry::registry_command(rest, out),
        "bootstrap" => {
            let key = if rest.is_empty() { "x86_base_isa".to_string() } else { rest[0].clone() };
            bootstrap(&key, rest, out)
        }
        "calibrate" => calib::calibrate_command(rest, out),
        "optimize" => calib::optimize_command(rest, out),
        "diff" => {
            let a = arg_at(rest, 0, "diff <old.xpdl> <new.xpdl>")?;
            let b = arg_at(rest, 1, "diff <old.xpdl> <new.xpdl>")?;
            let old = XpdlDocument::parse_named(&std::fs::read_to_string(&a)?, &a)?;
            let new = XpdlDocument::parse_named(&std::fs::read_to_string(&b)?, &b)?;
            let entries = xpdl_core::diff_models(old.root(), new.root());
            for e in &entries {
                writeln!(out, "{e}")?;
            }
            writeln!(out, "{} difference(s)", entries.len())?;
            Ok(if entries.is_empty() { 0 } else { 1 })
        }
        "route" => {
            let key = arg_at(rest, 0, "route <key> <from> <to> [bytes]")?;
            let from = arg_at(rest, 1, "route <key> <from> <to> [bytes]")?;
            let to = arg_at(rest, 2, "route <key> <from> <to> [bytes]")?;
            let bytes: u64 = rest.get(3).and_then(|b| b.parse().ok()).unwrap_or(1 << 20);
            let (model, _) = compose(&key, rest)?;
            let graph = xpdl_elab::LinkGraph::build(&model.root);
            match graph.route(&model.root, &from, &to) {
                Some(r) => {
                    for h in &r.hops {
                        writeln!(out, "  {} -> {} via {}", h.from, h.to, h.link)?;
                    }
                    writeln!(
                        out,
                        "bottleneck: {}; latency {:.3} us; {} bytes in {}",
                        r.bottleneck_bps
                            .map(|b| format!("{:.2} GiB/s", b / 1024f64.powi(3)))
                            .unwrap_or_else(|| "unknown".into()),
                        r.latency_s * 1e6,
                        bytes,
                        r.transfer_time(bytes)
                            .map(|t| format!("{:.3} ms", t * 1e3))
                            .unwrap_or_else(|| "unknown".into()),
                    )?;
                    Ok(0)
                }
                None => {
                    writeln!(out, "no route from '{from}' to '{to}'")?;
                    Ok(1)
                }
            }
        }
        "uml" => {
            let what = rest.first().map(String::as_str).unwrap_or("schema");
            if what == "schema" {
                writeln!(out, "{}", xpdl_codegen::schema_to_plantuml(&Schema::core()))?;
            } else {
                let (model, _) = compose(what, rest)?;
                let cap = flag_value(rest, "--max")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(200);
                writeln!(out, "{}", xpdl_codegen::model_to_plantuml(&model.root, cap))?;
            }
            Ok(0)
        }
        "export" => {
            let dir = PathBuf::from(arg_at(rest, 0, "export <dir>")?);
            std::fs::create_dir_all(&dir)?;
            let mut n = 0;
            for (key, src) in xpdl_models::library::LIBRARY {
                // Keys double as file names; path separators never occur.
                std::fs::write(dir.join(format!("{key}.xpdl")), src)?;
                n += 1;
            }
            writeln!(out, "exported {n} descriptors to {}", dir.display())?;
            Ok(0)
        }
        "fleetgen" => {
            let seed = parse_flag::<u64>(rest, "--seed")?.unwrap_or(42);
            let shape = match rest.iter().position(|a| a == "--shape") {
                Some(i) => {
                    let spec = rest.get(i + 1).map(String::as_str).unwrap_or("");
                    match xpdl_fleetgen::FleetShape::parse(spec) {
                        Ok(s) => s,
                        Err(e) => {
                            writeln!(out, "bad --shape: {e}")?;
                            return Ok(2);
                        }
                    }
                }
                None => xpdl_fleetgen::FleetShape::default(),
            };
            let fleet = xpdl_fleetgen::generate(seed, &shape);
            writeln!(
                out,
                "fleet seed={seed} shape={shape}: {} descriptors, checksum {:016x}",
                fleet.docs().len(),
                fleet.checksum()
            )?;
            if has_flag(rest, "--check") {
                let diags = xpdl_fleetgen::validate_fleet(&fleet);
                for d in &diags {
                    writeln!(out, "{d}")?;
                }
                match xpdl_fleetgen::elaborate_fleet(&fleet) {
                    Ok(model) if model.is_clean() && diags.is_empty() => {
                        writeln!(
                            out,
                            "check: clean ({} nodes, {} cores)",
                            model.count_kind(xpdl_core::ElementKind::Node),
                            model.count_kind(xpdl_core::ElementKind::Core)
                        )?;
                    }
                    Ok(model) => {
                        writeln!(
                            out,
                            "check: {} validation + {} elaboration diagnostics",
                            diags.len(),
                            model.diagnostics.len()
                        )?;
                        return Ok(1);
                    }
                    Err(e) => {
                        writeln!(out, "check: elaboration failed: {e}")?;
                        return Ok(1);
                    }
                }
            }
            if let Some(dir) = flag_value(rest, "--out") {
                let dir = PathBuf::from(dir);
                let n = fleet.write_dir(&dir)?;
                writeln!(out, "wrote {n} descriptors to {}", dir.display())?;
            }
            Ok(0)
        }
        "cache" => cache_command(rest, out),
        "codegen" => {
            let lang = rest.first().map(String::as_str).unwrap_or("rust");
            let schema = Schema::core();
            match lang {
                "rust" => writeln!(out, "{}", xpdl_codegen::generate_rust_api(&schema))?,
                "c" => writeln!(out, "{}", xpdl_codegen::generate_c_header(&schema))?,
                other => {
                    writeln!(out, "unknown codegen language '{other}' (rust|c)")?;
                    return Ok(2);
                }
            }
            Ok(0)
        }
        other => {
            writeln!(out, "unknown subcommand '{other}'")?;
            write_usage(out)?;
            Ok(2)
        }
    }
}

/// `xpdlc validate`: schema-check a descriptor, optionally running the
/// whole pipeline in fail-soft mode.
///
/// Fail-fast (default) stops at the first parse/conversion error, exactly
/// like `compose` would. `--keep-going` switches every stage into
/// accumulation mode: lossy parse, full schema validation, resolution
/// with missing references downgraded to warnings, and poisoned-subtree
/// elaboration — so a single run reports *all* faults with source spans.
fn validate(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use xpdl_core::diag::{diagnostics_to_json, DiagSink};

    let path = arg_at(rest, 0, "validate <file.xpdl> [--keep-going] [--max-errors N] [--diag-format text|json]")?;
    let keep_going = has_flag(rest, "--keep-going");
    let max_errors = parse_flag::<usize>(rest, "--max-errors")?.unwrap_or(0);
    let format = flag_value(rest, "--diag-format").unwrap_or_else(|| "text".to_string());
    if format != "text" && format != "json" {
        writeln!(out, "unknown --diag-format '{format}' (text|json)")?;
        return Ok(2);
    }
    let src = std::fs::read_to_string(&path)?;

    let mut sink = DiagSink::with_max_errors(max_errors);
    if keep_going {
        match XpdlDocument::parse_named_lossy(&src, &path) {
            Ok((doc, parse_diags)) => {
                sink.extend(parse_diags);
                sink.extend(validate_document(&doc, &Schema::core()));
                // Run the rest of the pipeline fail-soft: the descriptor
                // joins the front of the search path under its own ident
                // so type/extends references resolve against the library.
                let key = doc.root().ident().unwrap_or("input").to_string();
                let repo = repository_with(rest, Some((&key, &src)))?;
                let opts = ResolveOptions { allow_missing: true, ..resolve_options(rest)? };
                match repo.resolve_with(&key, &opts) {
                    Ok(set) => {
                        let eopts =
                            xpdl_elab::ElabOptions { keep_going: true, ..Default::default() };
                        match xpdl_elab::elaborate_with(&set, &eopts) {
                            Ok(model) => sink.extend(model.diagnostics),
                            // keep_going only surfaces Err for resource
                            // exhaustion (TooLarge) — still worth a code.
                            Err(e) => sink.push(e.to_diagnostic(&key)),
                        }
                    }
                    Err(e) => sink.push(e.to_diagnostic()),
                }
            }
            // Malformed XML is unrecoverable: report the one fatal fault
            // as a diagnostic (rather than bailing) so --diag-format=json
            // output stays machine-readable even here.
            Err(e) => sink.push(e.to_diagnostic(&path)),
        }
    } else {
        let doc = XpdlDocument::parse_named(&src, &path)?;
        sink.extend(validate_document(&doc, &Schema::core()));
    }

    sink.sort_by_location();
    let errors = sink.total_errors();
    let warnings = sink.warning_count();
    if format == "json" {
        writeln!(out, "{}", diagnostics_to_json(sink.as_slice()))?;
    } else {
        for d in sink.as_slice() {
            writeln!(out, "{d}")?;
        }
        if sink.suppressed() > 0 {
            writeln!(out, "... {} more error(s) suppressed by --max-errors", sink.suppressed())?;
        }
        writeln!(out, "{}: {} diagnostics, {} errors", path, sink.as_slice().len(), errors)?;
    }
    Ok(if errors > 0 {
        1
    } else if warnings > 0 {
        3
    } else {
        0
    })
}

/// `xpdlc cache <stats|verify|gc|clear>`: manage a persistent cache
/// directory directly. Opening the cache already runs integrity
/// recovery, so even `stats` surfaces (and prints) any `R3xx`
/// diagnostics produced by quarantine or manifest rebuild.
fn cache_command(
    rest: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let usage = "cache <stats|verify|gc|clear> --cache-dir DIR [--max-age SECS]";
    let action = arg_at(rest, 0, usage)?;
    let Some(dir) = flag_value(rest, "--cache-dir") else {
        writeln!(out, "usage: xpdlc {usage}")?;
        return Ok(2);
    };
    let cache = DiskCache::open(&dir).map_err(|e| e.to_string())?;
    match action.as_str() {
        "stats" => {
            for d in cache.take_diagnostics() {
                writeln!(out, "{d}")?;
            }
            writeln!(out, "cache {}: {}", cache.dir().display(), cache.stats())?;
            Ok(0)
        }
        "verify" => {
            // Open already verified once; run it again explicitly so the
            // exit code reflects the *current* on-disk state.
            cache.verify();
            for d in cache.take_diagnostics() {
                writeln!(out, "{d}")?;
            }
            let quarantined = cache.quarantined_session();
            writeln!(
                out,
                "verified {} entries, {} quarantined",
                cache.stats().entries,
                quarantined
            )?;
            Ok(if quarantined > 0 { 1 } else { 0 })
        }
        "gc" => {
            let max_age = parse_flag::<u64>(rest, "--max-age")?.map(Duration::from_secs);
            let report = cache.gc(max_age).map_err(|e| e.to_string())?;
            for d in cache.take_diagnostics() {
                writeln!(out, "{d}")?;
            }
            writeln!(
                out,
                "gc: removed {} expired entries, purged {} quarantined files, {} entries remain",
                report.expired_removed,
                report.quarantine_removed,
                cache.len()
            )?;
            Ok(0)
        }
        "clear" => {
            cache.clear().map_err(|e| e.to_string())?;
            writeln!(out, "cleared cache {}", cache.dir().display())?;
            Ok(0)
        }
        other => {
            writeln!(out, "unknown cache action '{other}'")?;
            writeln!(out, "usage: xpdlc {usage}")?;
            Ok(2)
        }
    }
}

fn repository(args: &[String]) -> Result<Repository, String> {
    repository_with(args, None)
}

/// The persistent-cache configuration carried by the cache flags.
struct CacheSetup {
    cache: Arc<DiskCache>,
    freshness: Freshness,
    ttl: Option<Duration>,
}

/// Parse `--cache-dir/--offline/--max-stale/--cache-ttl` into an opened
/// cache (or `None` when caching is off). `--offline` and `--max-stale`
/// only make sense with a cache directory.
fn cache_setup(args: &[String]) -> Result<Option<CacheSetup>, String> {
    let dir = flag_value(args, "--cache-dir");
    let offline = has_flag(args, "--offline");
    let max_stale = parse_flag::<u64>(args, "--max-stale")?;
    let ttl = parse_flag::<u64>(args, "--cache-ttl")?.map(Duration::from_secs);
    let Some(dir) = dir else {
        if offline {
            return Err("--offline requires --cache-dir".to_string());
        }
        if max_stale.is_some() {
            return Err("--max-stale requires --cache-dir".to_string());
        }
        if ttl.is_some() {
            return Err("--cache-ttl requires --cache-dir".to_string());
        }
        return Ok(None);
    };
    if offline && max_stale.is_some() {
        return Err("--offline and --max-stale are mutually exclusive".to_string());
    }
    let freshness = if offline {
        Freshness::OfflineOnly
    } else if let Some(secs) = max_stale {
        Freshness::StaleOk { max_age: Duration::from_secs(secs) }
    } else {
        Freshness::Strict
    };
    let cache = Arc::new(DiskCache::open(&dir).map_err(|e| e.to_string())?);
    Ok(Some(CacheSetup { cache, freshness, ttl }))
}

/// Build the store stack, optionally pinning an in-memory descriptor
/// (`key`, `source`) at the very front so it shadows everything else.
fn repository_with(args: &[String], front: Option<(&str, &str)>) -> Result<Repository, String> {
    // User-provided models take precedence over the built-in library.
    // Each store carries a stable source identity so cache entries are
    // only ever served back through the store that produced them
    // (search-path precedence survives a shared --cache-dir).
    let mut stores: Vec<(Option<String>, Box<dyn ModelStore>)> = Vec::new();
    if let Some((key, src)) = front {
        let mut file = MemoryStore::new();
        file.insert(key, src);
        // The per-invocation pinned descriptor is never cached.
        stores.push((None, Box::new(file)));
    }
    if let Some(dir) = flag_value(args, "--models") {
        stores.push((Some(format!("models-dir:{dir}")), Box::new(DirStore::new(dir))));
    }
    let mut lib = MemoryStore::new();
    for (k, v) in xpdl_models::library::LIBRARY {
        lib.insert(*k, *v);
    }
    stores.push((Some("builtin-library".to_string()), Box::new(lib)));

    // Resilience knobs. `--fault-rate` wraps every store in a seeded
    // fault injector — the supported way to demo/exercise the retry
    // machinery from the command line.
    let fault_rate = parse_flag::<f64>(args, "--fault-rate")?.unwrap_or(0.0);
    let fault_seed = parse_flag::<u64>(args, "--fault-seed")?.unwrap_or(42);
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("--fault-rate {fault_rate} outside [0, 1]"));
    }
    let setup = cache_setup(args)?;
    let mut repo = Repository::new();
    for (source_id, store) in stores {
        // The cache wraps the fault injector: injected faults model an
        // unreliable *backing store*, which is exactly what the cache's
        // freshness policy is there to ride out.
        let store: Box<dyn ModelStore> = if fault_rate > 0.0 {
            Box::new(FaultInjectingStore::new(
                store,
                FaultConfig::failures(fault_rate, fault_seed),
            ))
        } else {
            store
        };
        match (&setup, source_id) {
            (Some(s), Some(source_id)) => repo.push_store(Box::new(
                CachingStore::new(store, Arc::clone(&s.cache), s.freshness)
                    .with_source_id(source_id)
                    .with_ttl(s.ttl),
            )),
            _ => repo.push_store(store),
        }
    }
    if let Some(s) = setup {
        repo.register_disk_cache(s.cache);
    }
    if let Some(retries) = parse_flag::<u32>(args, "--retries")? {
        repo.set_retry_policy(if retries <= 1 {
            RetryPolicy::none()
        } else {
            RetryPolicy::with_max_attempts(retries)
        });
    }
    Ok(repo)
}

fn resolve_options(args: &[String]) -> Result<ResolveOptions, String> {
    let jobs = parse_flag::<usize>(args, "--jobs")?.unwrap_or(1);
    Ok(ResolveOptions::with_jobs(jobs))
}

fn compose(
    key: &str,
    args: &[String],
) -> Result<(xpdl_elab::Elaborated, RepoMetrics), Box<dyn std::error::Error>> {
    let repo = repository(args)?;
    let keep_going = has_flag(args, "--keep-going");
    let mut opts = resolve_options(args)?;
    if keep_going {
        opts.allow_missing = true;
    }
    let set = repo.resolve_with(key, &opts)?;
    // Under --trace the profile should cover the full pipeline including
    // the schema stage, so run validation on the root descriptor (compose
    // normally trusts resolution; the extra pass costs nothing relative
    // to a traced run and gives the span tree its schema.validate node).
    if xpdl_obs::trace::is_enabled() {
        let _ = validate_document(set.root(), &Schema::core());
    }
    let model = xpdl_elab::elaborate_with(
        &set,
        &xpdl_elab::ElabOptions { keep_going, ..Default::default() },
    )?;
    Ok((model, repo.metrics()))
}

fn bootstrap(
    key: &str,
    args: &[String],
    out: &mut dyn std::io::Write,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use xpdl_hwsim::{GroundTruth, SimMachine};
    use xpdl_power::{InstructionEnergyTable, PowerStateMachine};

    let repo = repository(args)?;
    let isa_doc = repo.load(key)?;
    let mut table = InstructionEnergyTable::from_element(isa_doc.root())?;
    let suite_key = table.suite_mb.clone().ok_or("instruction set has no mb= suite reference")?;
    let suite_doc = repo.load(&suite_key)?;
    let suite = xpdl_mb::MicrobenchmarkSuite::from_element(suite_doc.root())?;

    // The deployment target: the Xeon's power model drives the simulator.
    let pm_doc = repo.load("power_model_E5_2630L")?;
    let psm_elem = pm_doc
        .root()
        .children_of_kind(xpdl_core::ElementKind::PowerStateMachine)
        .next()
        .ok_or("power model has no power_state_machine")?;
    let fsm = PowerStateMachine::from_element(psm_elem)?;
    let initial = fsm.states[0].name.clone();
    let mut machine = SimMachine::new(GroundTruth::x86_default(), fsm, 1, &initial, 0xBEEF)
        .ok_or("cannot build simulated machine")?;
    machine.noise = 0.002;

    writeln!(out, "pending before bootstrap: {:?}", table.pending())?;
    // Generated driver sources (the paper's driver generator output).
    for entry in &suite.entries {
        let src = xpdl_mb::generate_benchmark_source(entry, 1_000_000, xpdl_mb::DriverLanguage::C);
        writeln!(out, "generated {} ({} lines)", entry.file, src.lines().count())?;
    }
    let report = xpdl_mb::bootstrap_energy_table(&mut table, &suite, &mut machine, 5);
    for (inst, points) in &report.filled {
        writeln!(out, "measured {inst}: {points} frequency points")?;
    }
    for inst in &report.skipped {
        writeln!(out, "skipped {inst}: no microbenchmark")?;
    }
    writeln!(
        out,
        "bootstrap: {} filled, {} skipped, {} runs; pending after: {:?}",
        report.filled.len(),
        report.skipped.len(),
        report.total_runs,
        table.pending()
    )?;
    Ok(if report.complete() { 0 } else { 1 })
}

fn arg_at(args: &[String], i: usize, usage: &str) -> Result<String, String> {
    args.get(i).cloned().ok_or_else(|| format!("usage: xpdlc {usage}"))
}

/// Is a boolean flag present? (exact match only — `--keep-going`)
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Locate a valued flag, accepting both `--flag value` and `--flag=value`.
/// `Err` if the flag is present but the value is missing.
fn flag_lookup(args: &[String], flag: &str) -> Result<Option<String>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} requires a value")),
            };
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    flag_lookup(args, flag).ok().flatten()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_lookup(args, flag)? {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("invalid value '{v}' for {flag}")),
    }
}

fn write_usage(out: &mut dyn std::io::Write) -> std::io::Result<()> {
    writeln!(
        out,
        "xpdlc — the XPDL toolchain\n\
         \n\
         USAGE: xpdlc <subcommand> [args]\n\
         \n\
         SUBCOMMANDS:\n\
         \x20 validate <file.xpdl>           parse + schema-check a descriptor\n\
         \x20   --keep-going                 fail-soft: run the whole pipeline, report every fault\n\
         \x20   --max-errors N               cap reported errors (0 = unlimited)\n\
         \x20   --diag-format text|json      diagnostic output format (json is stable)\n\
         \x20 compose <key> [--models DIR]   resolve + elaborate a system model\n\
         \x20   --keep-going                 poison failing subtrees instead of aborting\n\
         \x20 dump <key>                     print the composed model as XML\n\
         \x20 build <key> -o <file>          write the runtime data structure\n\
         \x20 query <file|key> [id [at]]     runtime query API (.xpdlrt file or library key)\n\
         \x20   --rpc JSON                   feed one raw protocol request line, print raw response\n\
         \x20   --encoding json|binary       --rpc wire encoding; binary round-trips the frame codec\n\
         \x20 serve --model F|--repo KEY     TCP model-serving daemon (JSON-lines protocol)\n\
         \x20   --addr HOST:PORT             listen address (default 127.0.0.1:7433; :0 = ephemeral)\n\
         \x20   --addr-file PATH             write the bound address (for --addr with port 0)\n\
         \x20   --workers N                  pool threads for sleep/reload/shutdown (default 4)\n\
         \x20   --max-inflight N             admission limit; beyond it requests shed S420 (default 256)\n\
         \x20   --deadline-ms MS             pool queue deadline, S421 beyond; 0 disables (default 2000)\n\
         \x20   --reload-interval SECS       hot-reload the model every SECS; 0 disables (default 0)\n\
         \x20   --allow-remote-shutdown      permit the protocol 'shutdown' method\n\
         \x20   --allow-debug                permit debug methods ('sleep'; testing only)\n\
         \x20   --registry HOST:PORT         join a cluster registry (heartbeat + push reload)\n\
         \x20   --node-id NAME               stable cluster identity (default node-<pid>)\n\
         \x20   --advertise HOST:PORT        address published to the cluster (default bound addr)\n\
         \x20   --ttl-ms MS                  lease TTL; heartbeats at TTL/3 (default 1500)\n\
         \x20   --drain-grace-ms MS          SIGTERM: answer S510 this long before closing (default 200)\n\
         \x20   --shards                     shard the model universe across the cluster ring\n\
         \x20   --shard-keys K1,K2           shard-key universe (default: the built-in library keys)\n\
         \x20   --rebalance-interval-ms MS   self-healing rebalance tick (default 500)\n\
         \x20 registry [--addr HOST:PORT]    cluster membership daemon (default 127.0.0.1:7434)\n\
         \x20   --addr-file PATH             write the bound address (for --addr with port 0)\n\
         \x20   --sweep-interval-ms MS       lease sweeper period (default 100)\n\
         \x20   --replication N              ring replicas per shard key (default 2)\n\
         \x20   --vnodes N                   ring virtual nodes per member (default 32)\n\
         \x20 registry announce --addr A --version V   push a model version to all subscribed nodes\n\
         \x20 registry status --addr A       routing table, leases, ring epoch, per-node shard counts\n\
         \x20   --diag-format text|json      status output format (json is stable)\n\
         \x20 registry ring --nodes A,B,C    print the deterministic ring for a membership (CI check)\n\
         \x20 bootstrap [isa-key]            run microbenchmarks, fill '?' entries\n\
         \x20 calibrate --dir DIR            calibrate a model library: fill every '?', publish atomically\n\
         \x20   --seed N --jobs N            deterministic sweep seed / worker pool size\n\
         \x20   --repetitions N              measurement repetitions per state (default 5)\n\
         \x20   --timeout-ms MS              per-driver budget; 0 abandons every unit (default 10000)\n\
         \x20   --dry-run                    print the plan (units, pending, diags) without patching\n\
         \x20   --registry HOST:PORT         announce the new model version after a clean sweep\n\
         \x20   --diag-format text|json      report format (json is stable)\n\
         \x20 optimize [--isa KEY]           DVFS/sleep schedule search + SpMV variant selection\n\
         \x20   --seed N                     calibration seed for pending '?' entries\n\
         \x20   --diag-format text|json      report format (json is stable, byte-deterministic)\n\
         \x20 codegen [rust|c]               generate the query API from the schema\n\
         \x20 uml [schema|<key>] [--max N]   PlantUML view of metamodel / composed model\n\
         \x20 export <dir>                   write the library as .xpdl files\n\
         \x20 fleetgen [--seed N]            generate a deterministic synthetic fleet\n\
         \x20   --shape SPEC                 nodes=N,depth=D,chain=C,width=W,unknown=F\n\
         \x20   --out DIR                    write the fleet as .xpdl files (a --models dir)\n\
         \x20   --check                      validate + elaborate; exit 1 unless clean\n\
         \x20 route <key> <from> <to> [B]    interconnect route + transfer estimate\n\
         \x20 diff <old.xpdl> <new.xpdl>     structural model diff\n\
         \x20 keys                           list built-in model library keys\n\
         \x20 cache stats|verify|gc|clear    manage a persistent cache directory\n\
         \x20   --cache-dir DIR              the cache directory (required)\n\
         \x20   --max-age SECS               gc: also drop entries older than SECS\n\
         \x20 trace <subcommand> [args]      run any subcommand with tracing on (summary profile)\n\
         \n\
         TRACING FLAGS (any subcommand; may appear before it):\n\
         \x20 --trace[=FMT]      collect spans and render them after the command\n\
         \x20 --trace-format FMT summary|json|chrome (chrome output loads in Perfetto)\n\
         \x20 --trace-out FILE   write the rendered trace to FILE instead of stdout\n\
         \n\
         RESOLUTION FLAGS (compose/dump/build/route/uml/keys):\n\
         \x20 --models DIR       prepend a local .xpdl directory to the search path\n\
         \x20 --jobs N           parallel resolution workers (default 1)\n\
         \x20 --retries N        fetch attempts per store; 0/1 = fail fast (default 4)\n\
         \x20 --fault-rate F     inject store failures at rate F in [0,1] (testing)\n\
         \x20 --fault-seed S     seed for the deterministic fault script (default 42)\n\
         \x20 --cache-dir DIR    persistent crash-safe cache for fetched descriptors\n\
         \x20 --cache-ttl SECS   freshness lifetime recorded on new cache entries\n\
         \x20 --max-stale SECS   serve cached copies up to SECS old if a store is down\n\
         \x20 --offline          resolve from the cache only; never touch the stores\n\
         \n\
         EXIT CODES:\n\
         \x20 0 clean   1 errors   2 usage   3 warnings only (validate)   4 internal fault"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> (ExitCode, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&args, &mut buf);
        (code, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_cli(&[]);
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_exits_zero() {
        let (code, out) = run_cli(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("bootstrap"));
    }

    #[test]
    fn keys_lists_library() {
        let (code, out) = run_cli(&["keys"]);
        assert_eq!(code, 0);
        assert!(out.contains("liu_gpu_server"));
        assert!(out.contains("Nvidia_K20c"));
    }

    #[test]
    fn compose_gpu_server() {
        let (code, out) = run_cli(&["compose", "liu_gpu_server"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2500 cores"), "{out}");
        assert!(out.contains("effective bandwidth"), "{out}");
    }

    #[test]
    fn compose_unknown_key_fails() {
        let (code, out) = run_cli(&["compose", "ghost_server"]);
        assert_eq!(code, 1);
        assert!(out.contains("not found"));
    }

    #[test]
    fn trace_without_subcommand_is_usage_error() {
        let (code, out) = run_cli(&["trace"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("usage: xpdlc trace <subcommand>"), "{out}");
    }

    #[test]
    fn bad_trace_format_is_usage_error() {
        let (code, out) = run_cli(&["--trace-format=yaml", "compose", "liu_gpu_server"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown trace format 'yaml'"), "{out}");
        // The value-less form is also a usage error, not a silent default.
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--trace-format"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--trace-format requires a value"), "{out}");
    }

    #[test]
    fn traced_compose_appends_span_summary() {
        let (code, out) = run_cli(&["trace", "compose", "liu_gpu_server"]);
        assert_eq!(code, 0, "{out}");
        // The normal command output is intact...
        assert!(out.contains("2500 cores"), "{out}");
        // ...followed by the summary table for this invocation's subtree.
        assert!(out.contains("cli.compose"), "{out}");
        assert!(out.contains("repo.resolve"), "{out}");
        assert!(out.contains("elab.elaborate"), "{out}");
        assert!(out.contains("schema.validate"), "{out}");
    }

    #[test]
    fn cache_ttl_without_cache_dir_is_an_error() {
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--cache-ttl", "60"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--cache-ttl requires --cache-dir"), "{out}");
    }

    #[test]
    fn dump_produces_xml() {
        let (code, out) = run_cli(&["dump", "myriad_server"]);
        assert_eq!(code, 0);
        // The composed root also carries the synthesized derived_* attrs.
        assert!(out.contains("<system id=\"myriad_server\""));
        assert!(out.contains("derived_num_cores=\"22\""));
        assert!(out.contains("shave0"));
    }

    #[test]
    fn validate_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xpdlc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.xpdl");
        std::fs::write(&path, r#"<cache name="L1" size="32" unit="KiB"/>"#).unwrap();
        let (code, out) = run_cli(&["validate", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 errors"));
        let bad = dir.join("bad.xpdl");
        std::fs::write(&bad, r#"<cache name="L1" size="32" unit="XYZ"/>"#).unwrap();
        let (code, out) = run_cli(&["validate", bad.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(out.contains("error"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_and_query() {
        let dir = std::env::temp_dir().join(format!("xpdlc_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rt = dir.join("srv.xpdlrt");
        let (code, out) = run_cli(&["build", "liu_gpu_server", "-o", rt.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(rt.exists());
        let (code, out) = run_cli(&["query", rt.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("num_cores: 2500"), "{out}");
        assert!(out.contains("num_cuda_devices: 1"), "{out}");
        let (code, out) = run_cli(&["query", rt.to_str().unwrap(), "gpu1"]);
        assert_eq!(code, 0);
        assert!(out.contains("device[gpu1]"), "{out}");
        let (code, _) = run_cli(&["query", rt.to_str().unwrap(), "nope"]);
        assert_eq!(code, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_accepts_library_key_and_rpc_mode() {
        // A library key composes on the fly — no build step needed.
        let (code, out) = run_cli(&["query", "liu_gpu_server"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("num_cores: 2500"), "{out}");
        // --rpc speaks the daemon's wire protocol verbatim.
        let (code, out) = run_cli(&[
            "query",
            "liu_gpu_server",
            "--rpc",
            r#"{"v":1,"id":7,"method":"num_cores"}"#,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"id\":7"), "{out}");
        assert!(out.contains("2500"), "{out}");
        // Protocol errors surface as raw error responses with exit 1.
        let (code, out) = run_cli(&[
            "query",
            "liu_gpu_server",
            "--rpc",
            r#"{"v":1,"id":8,"method":"no_such_method"}"#,
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("S411"), "{out}");
    }

    #[test]
    fn serve_boots_answers_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write as _};
        let dir = std::env::temp_dir().join(format!("xpdlc_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let addr_file_s = addr_file.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run_cli(&[
                "serve",
                "--repo",
                "liu_gpu_server",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                &addr_file_s,
                "--allow-remote-shutdown",
            ])
        });
        // Wait for the daemon to publish its bound address.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never published its address");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.write_all(b"{\"v\":1,\"id\":1,\"method\":\"num_cores\"}\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("2500"), "{line}");
        conn.write_all(b"{\"v\":1,\"id\":2,\"method\":\"shutdown\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("shutting_down") || line.contains("ok"), "{line}");
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("shutdown:"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bootstrap_fills_isa() {
        let (code, out) = run_cli(&["bootstrap"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("measured fadd"), "{out}");
        assert!(out.contains("pending after: []"), "{out}");
    }

    #[test]
    fn codegen_both_languages() {
        let (code, out) = run_cli(&["codegen", "rust"]);
        assert_eq!(code, 0);
        assert!(out.contains("pub struct Cpu<'m>"));
        let (code, out) = run_cli(&["codegen", "c"]);
        assert_eq!(code, 0);
        assert!(out.contains("xpdl_init"));
        let (code, _) = run_cli(&["codegen", "cobol"]);
        assert_eq!(code, 2);
    }

    #[test]
    fn uml_schema_and_model() {
        let (code, out) = run_cli(&["uml"]);
        assert_eq!(code, 0);
        assert!(out.contains("@startuml"));
        assert!(out.contains("class Cpu"));
        let (code, out) = run_cli(&["uml", "myriad_server", "--max", "40"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("object"), "{out}");
        assert!(out.contains("elided"), "{out}");
    }

    #[test]
    fn export_then_compose_from_directory() {
        let dir = std::env::temp_dir().join(format!("xpdlc_export_{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let (code, out) = run_cli(&["export", &dir_s]);
        assert_eq!(code, 0, "{out}");
        assert!(dir.join("Intel_Xeon_E5_2630L.xpdl").exists());
        // Shadow the library's GPU server with an on-disk variant and make
        // sure --models picks it up (user dir wins over built-ins).
        std::fs::write(
            dir.join("liu_gpu_server.xpdl"),
            r#"<system id="liu_gpu_server"><socket><cpu id="h" type="Xeon1"/></socket></system>"#,
        )
        .unwrap();
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--models", &dir_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("4 cores"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn route_across_cluster() {
        let (code, out) = run_cli(&["route", "XScluster", "n0.gpu1", "n3", "1048576"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("conn3"), "{out}");
        assert!(out.contains("bottleneck"), "{out}");
        let (code, _) = run_cli(&["route", "XScluster", "ghost", "n3"]);
        assert_eq!(code, 1);
    }

    #[test]
    fn build_with_deployment_filter() {
        let dir = std::env::temp_dir().join(format!("xpdlc_filter_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rt = dir.join("f.xpdlrt");
        let (code, out) =
            run_cli(&["build", "liu_gpu_server", "-o", rt.to_str().unwrap(), "--filter", "deployment"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("dropped"), "{out}");
        let h = xpdl_runtime::XpdlHandle::init(&rt).unwrap();
        assert!(h.elements_of_kind("microbenchmarks").is_empty());
        assert_eq!(h.num_cores(), 2500);
        let (code, _) = run_cli(&["build", "liu_gpu_server", "--filter", "bogus"]);
        assert_eq!(code, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_descriptor_files() {
        let dir = std::env::temp_dir().join(format!("xpdlc_diff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.xpdl");
        let b = dir.join("b.xpdl");
        std::fs::write(&a, r#"<cache name="L1" size="32" unit="KiB"/>"#).unwrap();
        std::fs::write(&b, r#"<cache name="L1" size="64" unit="KiB"/>"#).unwrap();
        let (code, out) = run_cli(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(out.contains("@size"), "{out}");
        let (code, out) = run_cli(&["diff", a.to_str().unwrap(), a.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("0 difference(s)"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_subcommand() {
        let (code, out) = run_cli(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown subcommand"));
    }

    #[test]
    fn compose_prints_repository_metrics_line() {
        let (code, out) = run_cli(&["compose", "liu_gpu_server"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("repository: fetches="), "{out}");
        assert!(out.contains("cache_hits="), "{out}");
    }

    #[test]
    fn compose_survives_injected_faults_with_retries() {
        let (code, out) = run_cli(&[
            "compose",
            "liu_gpu_server",
            "--fault-rate",
            "0.3",
            "--fault-seed",
            "42",
            "--retries",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2500 cores"), "{out}");
        // The metrics line shows the faults that were ridden out.
        assert!(!out.contains("retries=0 "), "{out}");
    }

    #[test]
    fn compose_fails_fast_when_retries_disabled() {
        let (code, out) = run_cli(&[
            "compose",
            "liu_gpu_server",
            "--fault-rate",
            "0.9",
            "--fault-seed",
            "42",
            "--retries",
            "0",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unavailable"), "{out}");
    }

    #[test]
    fn compose_with_parallel_jobs_matches_serial() {
        let (code_s, out_s) = run_cli(&["compose", "XScluster"]);
        let (code_p, out_p) = run_cli(&["compose", "XScluster", "--jobs", "4"]);
        assert_eq!(code_s, 0, "{out_s}");
        assert_eq!(code_p, 0, "{out_p}");
        // Identical composition, metrics line aside.
        let strip = |s: &str| -> String {
            s.lines().filter(|l| !l.starts_with("repository:")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(strip(&out_s), strip(&out_p));
    }

    #[test]
    fn bad_flag_values_are_reported() {
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--fault-rate", "lots"]);
        assert_eq!(code, 1);
        assert!(out.contains("invalid value 'lots' for --fault-rate"), "{out}");
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--fault-rate", "7"]);
        assert_eq!(code, 1);
        assert!(out.contains("outside [0, 1]"), "{out}");
        // A trailing flag with no value must not be silently ignored.
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--retries"]);
        assert_eq!(code, 1);
        assert!(out.contains("--retries requires a value"), "{out}");
    }

    #[test]
    fn usage_documents_resilience_flags() {
        let (_, out) = run_cli(&["help"]);
        assert!(out.contains("--retries"), "{out}");
        assert!(out.contains("--fault-rate"), "{out}");
        assert!(out.contains("--jobs"), "{out}");
    }

    #[test]
    fn usage_documents_fail_soft_flags_and_exit_codes() {
        let (_, out) = run_cli(&["help"]);
        assert!(out.contains("--keep-going"), "{out}");
        assert!(out.contains("--max-errors"), "{out}");
        assert!(out.contains("--diag-format"), "{out}");
        assert!(out.contains("EXIT CODES"), "{out}");
    }

    /// A descriptor with several independent faults across pipeline
    /// stages: a bad unit (schema), a bad numeric attribute (schema), and
    /// an unknown type (elaboration).
    fn multi_fault_descriptor() -> &'static str {
        r#"<system id="faulty">
  <cache id="L1" size="12megs" unit="KiB"/>
  <cache id="L2" size="256" unit="XB"/>
  <device id="acc" type="NoSuchAccelerator"/>
</system>"#
    }

    fn write_temp(name: &str, contents: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("xpdlc_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.xpdl");
        std::fs::write(&path, contents).unwrap();
        (dir, path.to_str().unwrap().to_string())
    }

    #[test]
    fn validate_keep_going_reports_all_stages() {
        let (dir, path) = write_temp("kg", multi_fault_descriptor());
        // Fail-fast only sees the schema faults (elaboration never runs).
        let (code, out) = run_cli(&["validate", &path]);
        assert_eq!(code, 1, "{out}");
        assert!(!out.contains("NoSuchAccelerator"), "{out}");
        // Keep-going runs the whole pipeline and reports everything.
        let (code, out) = run_cli(&["validate", &path, "--keep-going"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("12megs"), "{out}");
        assert!(out.contains("XB"), "{out}");
        assert!(out.contains("NoSuchAccelerator"), "{out}");
        // Diagnostics carry line:col positions into the text output.
        assert!(out.contains("(2:"), "{out}");
        assert!(out.contains("(3:"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_max_errors_caps_output() {
        let (dir, path) = write_temp("cap", multi_fault_descriptor());
        let (code, out) = run_cli(&["validate", &path, "--keep-going", "--max-errors=1"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("suppressed by --max-errors"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_json_format_is_machine_readable() {
        let (dir, path) = write_temp("json", multi_fault_descriptor());
        let (code, out) = run_cli(&["validate", &path, "--keep-going", "--diag-format=json"]);
        assert_eq!(code, 1, "{out}");
        let parsed = xpdl_core::parse_diagnostics_json(&out).expect("valid diagnostics JSON");
        assert!(parsed.iter().any(|d| d.message.contains("NoSuchAccelerator")), "{out}");
        assert!(parsed.iter().any(|d| d.pos().is_some()), "{out}");
        // Unknown formats are a usage error.
        let (code, out) = run_cli(&["validate", &path, "--diag-format", "yaml"]);
        assert_eq!(code, 2, "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_keep_going_survives_malformed_xml() {
        let (dir, path) = write_temp("xml", "<system id=\"s\">\n  <oops\n</system>");
        let (code, out) = run_cli(&["validate", &path, "--keep-going", "--diag-format=json"]);
        assert_eq!(code, 1, "{out}");
        let parsed = xpdl_core::parse_diagnostics_json(&out).expect("valid diagnostics JSON");
        assert_eq!(parsed.len(), 1, "{out}");
        assert_eq!(parsed[0].code, "P000", "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_warnings_only_exits_three() {
        // An unknown (extension) tag is a warning, not an error — the
        // model is suspect but usable, and the exit code says so.
        let (dir, path) =
            write_temp("warn", r#"<system id="s"><frobnicator id="f"/></system>"#);
        let (code, out) = run_cli(&["validate", &path]);
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("warning"), "{out}");
        assert!(out.contains("0 errors"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn equals_form_flags_accepted() {
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--jobs=2", "--retries=4"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2500 cores"), "{out}");
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--jobs=lots"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("invalid value 'lots' for --jobs"), "{out}");
    }

    #[test]
    fn compose_keep_going_poisons_and_reports() {
        let dir = std::env::temp_dir().join(format!("xpdlc_ckg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("broken_server.xpdl"),
            r#"<system id="broken_server"><cpu id="h" type="Xeon1"/><device id="d" type="Ghost"/></system>"#,
        )
        .unwrap();
        let dir_s = dir.to_str().unwrap().to_string();
        // Fail-fast aborts on the unresolvable reference.
        let (code, out) = run_cli(&["compose", "broken_server", "--models", &dir_s]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("not found"), "{out}");
        // Keep-going still elaborates the healthy sibling and quarantines
        // the failing one.
        let (code, out) = run_cli(&["compose", "broken_server", "--models", &dir_s, "--keep-going"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("4 cores"), "{out}");
        assert!(out.contains("poisoned:"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn internal_fault_exits_four() {
        let (code, out) = run_cli(&["selftest-panic"]);
        assert_eq!(code, 4, "{out}");
        assert!(out.contains("internal fault"), "{out}");
        assert!(out.contains("bug"), "{out}");
    }

    fn cache_dir(name: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("xpdlc_cache_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = dir.to_str().unwrap().to_string();
        (dir, s)
    }

    #[test]
    fn warm_cache_then_compose_fully_offline() {
        let (dir, cache) = cache_dir("offline");
        // Warm: a normal compose with --cache-dir persists every descriptor.
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        // Offline: same compose, stores never consulted.
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--offline", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2500 cores"), "{out}");
        assert!(out.contains("disk_hits="), "{out}");
        assert!(!out.contains("disk_hits=0"), "{out}");
        // A key that was never cached is unavailable offline, not "missing".
        let (code, out) = run_cli(&["compose", "myriad_server", "--offline", "--cache-dir", &cache]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unavailable"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_stale_rides_out_a_dead_store_and_stats_reports_it() {
        let (dir, cache) = cache_dir("stale");
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        // Backing store now fails 100% of attempts; stale serves save us.
        let (code, out) = run_cli(&[
            "compose", "liu_gpu_server", "--cache-dir", &cache,
            "--max-stale", "3600", "--fault-rate", "1.0", "--retries", "0",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2500 cores"), "{out}");
        assert!(!out.contains("stale_served=0"), "{out}");
        // Strict mode rides out the dead store too — but only because
        // the entries are still fresh; no stale serve is counted.
        let (code, out) = run_cli(&[
            "compose", "liu_gpu_server", "--cache-dir", &cache,
            "--fault-rate", "1.0", "--retries", "0",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("disk_hits="), "{out}");
        // The stale serves were persisted: a separate `cache stats`
        // process reads them back off disk.
        let (code, out) = run_cli(&["cache", "stats", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("stale_served="), "{out}");
        assert!(!out.contains("stale_served=0"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_verify_quarantines_torn_entries_and_gc_purges() {
        let (dir, cache) = cache_dir("verify");
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cli(&["cache", "verify", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 quarantined"), "{out}");
        // Tear one entry on disk behind the manifest's back.
        std::fs::write(dir.join("entries").join("Nvidia_K20c.xpdl"), "<device nam").unwrap();
        let (code, out) = run_cli(&["cache", "verify", "--cache-dir", &cache]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("R305"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        let (code, out) = run_cli(&["cache", "gc", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("purged 1 quarantined files"), "{out}");
        // A fresh compose self-heals the quarantined key.
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cli(&["cache", "verify", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_clear_and_stats_flow() {
        let (dir, cache) = cache_dir("clear");
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cli(&["cache", "stats", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("entries="), "{out}");
        assert!(!out.contains("entries=0"), "{out}");
        let (code, out) = run_cli(&["cache", "clear", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cli(&["cache", "stats", "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("entries=0"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_flag_validation() {
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--offline"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--offline requires --cache-dir"), "{out}");
        let (code, out) = run_cli(&["compose", "liu_gpu_server", "--max-stale", "60"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--max-stale requires --cache-dir"), "{out}");
        let (dir, cache) = cache_dir("flags");
        let (code, out) = run_cli(&[
            "compose", "liu_gpu_server", "--cache-dir", &cache, "--offline", "--max-stale", "60",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("mutually exclusive"), "{out}");
        // cache subcommand without --cache-dir is a usage error.
        let (code, out) = run_cli(&["cache", "stats"]);
        assert_eq!(code, 2, "{out}");
        let (code, out) = run_cli(&["cache", "frobnicate", "--cache-dir", &cache]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown cache action"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn models_dir_precedence_survives_a_shared_cache() {
        let (dir, cache) = cache_dir("precedence");
        let models = dir.join("models");
        std::fs::create_dir_all(&models).unwrap();
        let models_s = models.to_str().unwrap().to_string();
        // The user's variant shadows the library's liu_gpu_server.
        std::fs::write(
            models.join("liu_gpu_server.xpdl"),
            r#"<system id="liu_gpu_server"><socket><cpu id="h" type="Xeon1"/></socket></system>"#,
        )
        .unwrap();
        let (code, out) =
            run_cli(&["compose", "liu_gpu_server", "--models", &models_s, "--cache-dir", &cache]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("4 cores"), "{out}");
        // Offline, still with --models on the path: the user variant is
        // served from its own cache partition, not the library's copy.
        let (code, out) = run_cli(&[
            "compose", "liu_gpu_server", "--models", &models_s, "--cache-dir", &cache, "--offline",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("4 cores"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_documents_cache_flags() {
        let (_, out) = run_cli(&["help"]);
        assert!(out.contains("--cache-dir"), "{out}");
        assert!(out.contains("--max-stale"), "{out}");
        assert!(out.contains("--offline"), "{out}");
        assert!(out.contains("cache stats|verify|gc|clear"), "{out}");
    }
}
