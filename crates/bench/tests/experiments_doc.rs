//! EXPERIMENTS.md's seeded T14 and MB tables are what the code prints:
//! every row `experiments t14` and `experiments mbrep` compute, rendered
//! in the doc's table format, must appear in the doc verbatim.

use bench::{mb_repetitions_ablation, table14};

/// The T14 rows (median-of-9, 0.2 % meter noise, seed 2015) and the MB
/// rows (1 % meter noise, 50 seeds), as the doc writes them.
fn rendered_rows() -> Vec<String> {
    let dash = || "–".to_string();
    let mut rows: Vec<String> = table14(9, 0.002, 2015)
        .iter()
        .map(|r| {
            let paper = r.paper_nj.map_or_else(dash, |p| format!("{p:.3}"));
            let err = r.rel_err.map_or_else(dash, |e| format!("{:.2} %", e * 100.0));
            format!("| {:.1} GHz | {paper} | {:.3} | {err} |", r.freq_ghz, r.measured_nj)
        })
        .collect();
    let mb = mb_repetitions_ablation(0.01, 50);
    rows.extend(mb.iter().map(|(k, err)| format!("| {k} | {:.2} % |", err * 100.0)));
    rows
}

#[test]
fn t14_and_mb_tables_match_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let missing: Vec<String> =
        rendered_rows().into_iter().filter(|row| !doc.lines().any(|l| l == row)).collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md lacks these rows; regenerate T14/MB from `experiments t14`/`mbrep`:\n{}",
        missing.join("\n")
    );
}
