//! Write-back and publication: turn calibrated tables back into
//! descriptors, install them into the library directory atomically, and
//! derive the model version serving nodes are told to reload.
//!
//! Rendering goes through the table's *public* API only (pending /
//! frequency tables / constants), so the emitted document is exactly what
//! a fresh [`InstructionEnergyTable::from_element`] would reconstruct —
//! round-trip stability is tested, and the published bytes are
//! deterministic for a given calibration outcome.

use crate::exec::{run_plan, CalibOptions, CalibrationOutcome};
use crate::plan::plan_dir;
use crate::CalibError;
use std::fmt::Write as _;
use std::path::Path;
use xpdl_power::{InstructionEnergyTable, PowerStateMachine};
use xpdl_repo::diskcache::atomic_write;
use xpdl_repo::hash::fnv1a64;

/// Render a (possibly calibrated) instruction-energy table as a root-level
/// `instructions` descriptor.
///
/// * still-pending entries keep their `energy="?"` marker (and their
///   per-instruction `mb=` driver reference);
/// * multi-point entries become nested `data` rows in GHz/pJ, like the
///   paper's Listing 14 `divsd` table;
/// * single-value entries become a constant `energy=` attribute in pJ.
pub fn render_instructions(table: &InstructionEnergyTable) -> String {
    let mut s = String::new();
    let _ = write!(s, "<instructions name=\"{}\"", table.name);
    if let Some(suite) = &table.suite_mb {
        let _ = write!(s, " mb=\"{suite}\"");
    }
    s.push_str(">\n");
    let pending = table.pending();
    for inst in table.instructions() {
        // Emit a per-instruction driver reference only when it differs
        // from the suite-level default.
        let mb_attr = match table.mb_ref(inst) {
            Some(r) if table.suite_mb.as_deref() != Some(r) => format!(" mb=\"{r}\""),
            _ => String::new(),
        };
        if pending.contains(&inst) {
            let _ = writeln!(s, "  <inst name=\"{inst}\" energy=\"?\" energy_unit=\"pJ\"{mb_attr}/>");
            continue;
        }
        match table.table_of(inst) {
            Some(points) if points.len() > 1 => {
                let _ = writeln!(s, "  <inst name=\"{inst}\"{mb_attr}>");
                for (freq_hz, energy_j) in points {
                    let _ = writeln!(
                        s,
                        "    <data frequency=\"{}\" frequency_unit=\"GHz\" energy=\"{}\" energy_unit=\"pJ\"/>",
                        freq_hz / 1e9,
                        energy_j * 1e12
                    );
                }
                let _ = writeln!(s, "  </inst>");
            }
            Some(points) => {
                let _ = writeln!(
                    s,
                    "  <inst name=\"{inst}\" energy=\"{}\" energy_unit=\"pJ\"{mb_attr}/>",
                    points[0].1 * 1e12
                );
            }
            None => {
                // Constant entry; frequency is ignored for constants.
                let energy_j = table.energy_of(inst, 0.0).expect("constant entry");
                let _ = writeln!(
                    s,
                    "  <inst name=\"{inst}\" energy=\"{}\" energy_unit=\"pJ\"{mb_attr}/>",
                    energy_j * 1e12
                );
            }
        }
    }
    s.push_str("</instructions>");
    s
}

/// What a write-back pass did.
#[derive(Debug, Clone)]
pub struct PatchSummary {
    /// Document keys re-published, sorted.
    pub patched: Vec<String>,
    /// The model version derived from the patched bytes (stable for a
    /// given calibration outcome; what gets `announce`d).
    pub version: String,
    /// `energy="?"` markers remaining in the directory after patching.
    pub remaining_placeholders: usize,
}

/// Patch every calibrated table of `outcome` back into its `<key>.xpdl`
/// file under `dir`, using the repository's atomic-write discipline
/// (same-directory temp file + fsync + rename), so a crashed sweep never
/// leaves a torn descriptor for `DirStore` readers.
///
/// Units that filled nothing (timed out, or every entry skipped) are left
/// untouched so a retry still sees their `?` markers.
pub fn patch_dir(dir: &Path, outcome: &CalibrationOutcome) -> Result<PatchSummary, CalibError> {
    let mut patched = Vec::new();
    let mut version_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for unit in &outcome.units {
        if unit.report.filled.is_empty() {
            continue;
        }
        let rendered = render_instructions(&unit.table);
        let dest = dir.join(format!("{}.xpdl", unit.doc_key));
        atomic_write(&dest, rendered.as_bytes()).map_err(|e| CalibError::Io {
            path: dest.display().to_string(),
            detail: e.to_string(),
        })?;
        // Order-stable: units are sorted by doc key.
        version_hash ^= fnv1a64(unit.doc_key.as_bytes()).rotate_left(17);
        version_hash = version_hash.wrapping_mul(0x100_0000_01b3);
        version_hash ^= fnv1a64(rendered.as_bytes());
        patched.push(unit.doc_key.clone());
    }
    Ok(PatchSummary {
        patched,
        version: format!("calib-{version_hash:016x}"),
        remaining_placeholders: placeholders_in_dir(dir)?,
    })
}

/// Count `energy="?"` markers across every `.xpdl` document of a library
/// directory — the `calibration_sweep` clean check.
pub fn placeholders_in_dir(dir: &Path) -> Result<usize, CalibError> {
    Ok(crate::plan::read_dir_docs(dir)?
        .iter()
        .map(|(_, text)| text.matches("energy=\"?\"").count())
        .sum())
}

/// The whole loop over an on-disk library: plan, execute, write back.
///
/// Returns the execution outcome plus the patch summary; publication to a
/// registry (announcing `summary.version`) is the caller's last step via
/// [`crate::announce_version`], once it has decided the sweep is good.
pub fn calibrate_dir(
    dir: &Path,
    fsm: &PowerStateMachine,
    initial_state: &str,
    opts: &CalibOptions,
) -> Result<(CalibrationOutcome, PatchSummary), CalibError> {
    let plan = plan_dir(dir)?;
    let outcome = run_plan(&plan, fsm, initial_state, opts);
    let summary = patch_dir(dir, &outcome)?;
    Ok((outcome, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{default_fsm, DEFAULT_INITIAL_STATE};
    use crate::plan::plan_library;
    use xpdl_core::XpdlDocument;

    fn isa(w: usize) -> String {
        format!(
            r#"<instructions name="isa_{w}" mb="mb_{w}">
  <inst name="fadd" energy="?" energy_unit="pJ" mb="fadd1"/>
  <inst name="add" energy="9" energy_unit="pJ"/>
</instructions>"#
        )
    }

    fn suite(w: usize) -> String {
        format!(
            r#"<microbenchmarks id="mb_{w}" instruction_set="isa_{w}" path="/opt/mb" command="run.sh">
  <microbenchmark id="fadd1" type="fadd" file="fadd.c"/>
</microbenchmarks>"#
        )
    }

    fn temp_lib(name: &str, widths: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xpdl_calib_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for w in 0..widths {
            std::fs::write(dir.join(format!("isa_{w}.xpdl")), isa(w)).unwrap();
            std::fs::write(dir.join(format!("mb_{w}.xpdl")), suite(w)).unwrap();
        }
        dir
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let docs = vec![
            ("isa_0".to_string(), isa(0)),
            ("mb_0".to_string(), suite(0)),
        ];
        let plan = plan_library(&docs).unwrap();
        let out = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default());
        assert!(out.complete());
        let rendered = render_instructions(&out.units[0].table);
        assert!(!rendered.contains("energy=\"?\""));

        let doc = XpdlDocument::parse_str(&rendered).unwrap();
        let reparsed = InstructionEnergyTable::from_element(doc.root()).unwrap();
        assert!(reparsed.pending().is_empty());
        assert_eq!(reparsed.instructions(), out.units[0].table.instructions());
        // The frequency/energy points survive the GHz/pJ round-trip.
        let orig = out.units[0].table.table_of("fadd").unwrap();
        let back = reparsed.table_of("fadd").unwrap();
        assert_eq!(orig.len(), back.len());
        for ((f1, e1), (f2, e2)) in orig.iter().zip(back) {
            assert!((f1 - f2).abs() < 1e-3, "{f1} vs {f2}");
            assert!((e1 - e2).abs() < 1e-18, "{e1} vs {e2}");
        }
        // Constants survive too.
        assert!((reparsed.energy_of("add", 0.0).unwrap() - 9e-12).abs() < 1e-20);
        // Rendering the same outcome twice is byte-identical (what the
        // published version string hashes).
        assert_eq!(render_instructions(&out.units[0].table), rendered);
    }

    #[test]
    fn rendered_descriptor_validates_against_the_schema() {
        let docs = vec![
            ("isa_0".to_string(), isa(0)),
            ("mb_0".to_string(), suite(0)),
        ];
        let plan = plan_library(&docs).unwrap();
        let out = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default());
        let rendered = render_instructions(&out.units[0].table);
        let doc = XpdlDocument::parse_str(&rendered).unwrap();
        let schema = xpdl_schema::Schema::core();
        let errors: Vec<_> = xpdl_schema::validate_document(&doc, &schema)
            .into_iter()
            .filter(|d| d.is_error())
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn uncalibrated_pending_entries_keep_their_markers() {
        // A table whose suite lacks one driver: the missing one stays `?`.
        let docs = vec![
            (
                "isa_x".to_string(),
                r#"<instructions name="isa_x" mb="mb_x">
  <inst name="fadd" energy="?" energy_unit="pJ" mb="fadd1"/>
  <inst name="fmul" energy="?" energy_unit="pJ" mb="fmul1"/>
</instructions>"#
                    .to_string(),
            ),
            (
                "mb_x".to_string(),
                r#"<microbenchmarks id="mb_x" instruction_set="isa_x" path="/opt/mb" command="run.sh">
  <microbenchmark id="fadd1" type="fadd" file="fadd.c"/>
</microbenchmarks>"#
                    .to_string(),
            ),
        ];
        let plan = plan_library(&docs).unwrap();
        let out = run_plan(&plan, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default());
        assert!(!out.complete());
        let rendered = render_instructions(&out.units[0].table);
        assert_eq!(rendered.matches("energy=\"?\"").count(), 1);
        assert!(rendered.contains("mb=\"fmul1\""), "{rendered}");
    }

    #[test]
    fn patch_dir_clears_all_placeholders_and_is_atomic_to_readers() {
        let dir = temp_lib("patch", 2);
        assert_eq!(placeholders_in_dir(&dir).unwrap(), 2);
        let (out, summary) =
            calibrate_dir(&dir, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default())
                .unwrap();
        assert!(out.complete());
        assert_eq!(summary.patched, vec!["isa_0".to_string(), "isa_1".to_string()]);
        assert_eq!(summary.remaining_placeholders, 0);
        assert!(summary.version.starts_with("calib-"));
        // No temp droppings left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        // A second sweep finds nothing to do and leaves the version empty
        // of patches.
        let (out2, summary2) =
            calibrate_dir(&dir, &default_fsm(), DEFAULT_INITIAL_STATE, &CalibOptions::default())
                .unwrap();
        assert!(out2.units.is_empty());
        assert!(summary2.patched.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_is_deterministic_per_seed_and_differs_across_seeds() {
        let v = |name: &str, seed: u64| {
            let dir = temp_lib(name, 2);
            let opts = CalibOptions { seed, ..CalibOptions::default() };
            let (_, summary) =
                calibrate_dir(&dir, &default_fsm(), DEFAULT_INITIAL_STATE, &opts).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            summary.version
        };
        assert_eq!(v("va", 7), v("vb", 7));
        assert_ne!(v("vc", 7), v("vd", 8));
    }

    #[test]
    fn timed_out_units_are_not_patched() {
        let dir = temp_lib("timeout", 1);
        let opts = CalibOptions {
            driver_timeout: std::time::Duration::ZERO,
            ..CalibOptions::default()
        };
        let (out, summary) =
            calibrate_dir(&dir, &default_fsm(), DEFAULT_INITIAL_STATE, &opts).unwrap();
        assert!(!out.complete());
        assert!(summary.patched.is_empty());
        assert_eq!(summary.remaining_placeholders, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
