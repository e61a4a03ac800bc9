//! Regenerate every table/figure of EXPERIMENTS.md.
//!
//! Subcommands: `t14`, `mbrep`, `cs1`, `opt1`, `bl1`, `abl`, `tc1`,
//! `bootstrap` — or `all` (default).
//!
//! Run with: `cargo run -p bench --bin experiments [-- <which>]`

use bench::*;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    if all || which == "t14" {
        t14();
    }
    if all || which == "mbrep" {
        mbrep();
    }
    if all || which == "cs1" {
        cs1();
    }
    if all || which == "opt1" {
        opt1();
    }
    if all || which == "bl1" {
        bl1();
    }
    if all || which == "abl" {
        abl();
    }
    if all || which == "tc1" {
        tc1();
    }
    if all || which == "bootstrap" {
        bootstrap();
    }
}

fn t14() {
    println!("== T14: instruction energy vs frequency (Listing 14, divsd) ==");
    println!(
        "{:>10} {:>12} {:>13} {:>9}",
        "frequency", "paper (nJ)", "measured (nJ)", "rel.err"
    );
    for r in table14(9, 0.002, 2015) {
        println!(
            "{:>9.1}G {:>12} {:>13.3} {:>9}",
            r.freq_ghz,
            r.paper_nj.map(|p| format!("{p:.3}")).unwrap_or_else(|| "-".into()),
            r.measured_nj,
            r.rel_err.map(|e| format!("{:.2}%", e * 100.0)).unwrap_or_else(|| "-".into()),
        );
    }
    println!();
}

fn mbrep() {
    println!("== MB ablation: repetitions vs measurement error (1% meter noise) ==");
    println!("{:>5} {:>16}", "k", "mean |rel.err|");
    for (k, err) in mb_repetitions_ablation(0.01, 50) {
        println!("{k:>5} {:>15.2}%", err * 100.0);
    }
    println!();
}

fn cs1() {
    println!("== CS1: SpMV conditional composition (paper §II case study) ==");
    println!(
        "{:>6} {:>8} {:>10} | {:>12} {:>12} {:>12} | {:>7}",
        "n", "density", "tuned", "cpu_dense", "cpu_csr", "gpu_csr", "oracle?"
    );
    let rows = spmv_sweep();
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>10} | {:>10.3}ms {:>10.3}ms {:>10.3}ms | {:>7}",
            r.n,
            r.density,
            r.chosen,
            r.times["cpu_dense"] * 1e3,
            r.times["cpu_csr"] * 1e3,
            r.times["gpu_csr"] * 1e3,
            if r.tuned_is_oracle { "yes" } else { "NO" },
        );
    }
    let (tuned, statics) = spmv_summary(&rows);
    println!("tuned total: {:.3} ms", tuned * 1e3);
    for (v, t) in &statics {
        println!("  always {v:>9}: {:>9.3} ms ({:.2}x)", t * 1e3, t / tuned);
    }
    println!();
}

fn opt1() {
    println!("== OPT1: DVFS energy optimization (2.4 Gcycles, 6 W idle) ==");
    println!("{:>6} | {:>10} {:>10} {:>10} | {:>5}", "slack", "E(P1)", "E(P2)", "E(P3)", "best");
    for r in dvfs_sweep(2.4e9, 6.0) {
        let e = |s: &str| {
            r.energy_per_state
                .get(s)
                .and_then(|o| o.map(|j| format!("{j:.2} J")))
                .unwrap_or_else(|| "infeas.".into())
        };
        println!("{:>5.1}x | {:>10} {:>10} {:>10} | {:>5}", r.slack, e("P1"), e("P2"), e("P3"), r.best);
    }
    println!();
}

fn bl1() {
    println!("== BL1: PDL vs XPDL modularity (N systems sharing one CPU) ==");
    println!("{:>4} {:>12} {:>12} {:>8}", "N", "PDL bytes", "XPDL bytes", "ratio");
    for r in modularity_comparison(&[1, 2, 4, 8, 16, 32]) {
        println!(
            "{:>4} {:>12} {:>12} {:>7.2}x",
            r.systems,
            r.pdl_bytes,
            r.xpdl_bytes,
            r.pdl_bytes as f64 / r.xpdl_bytes as f64
        );
    }
    println!("\nconversion fidelity (PDL -> XPDL):");
    for (fact, ok) in conversion_fidelity() {
        println!("  [{}] {fact}", if ok { "ok" } else { "LOST" });
    }
    println!();
}

fn abl() {
    println!("== ABL: inheritance resolution, C3 vs naive DFS ==");
    let a = inheritance_ablation();
    println!("diamond D(B, C), both override `value`:");
    println!("  C3 (local precedence):  value = {:?}", a.c3_value);
    println!("  naive DFS:              value = {:?}", a.naive_value);
    println!(
        "order-inconsistent hierarchy G(E(X,Y), F(Y,X)): C3 rejects = {}",
        a.c3_rejects_inconsistent
    );
    println!();
}

fn tc1() {
    println!("== TC1: toolchain scaling, per-stage medians of 21 runs ==");
    println!(
        "{:>13} {:>8} {:>10} {:>10} {:>10} {:>10} {:>13} {:>7}",
        "nodes x cores",
        "elements",
        "resolve",
        "elaborate",
        "flatten",
        "rt enc+dec",
        "xml ser+parse",
        "xml/rt"
    );
    for r in toolchain_scaling(&[(1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (32, 32)], 21) {
        println!(
            "{:>7} x {:>3} {:>8} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>13.2?} {:>6.2}x",
            r.config.0,
            r.config.1,
            r.elements,
            r.resolve,
            r.elaborate,
            r.from_element,
            r.rt_roundtrip,
            r.xml_roundtrip,
            r.xml_roundtrip.as_secs_f64() / r.rt_roundtrip.as_secs_f64().max(1e-12),
        );
    }
    println!();
}

fn bootstrap() {
    println!("== Deployment bootstrap over the library's x86 ISA ==");
    let (filled, runs, table) = library_bootstrap(0.002, 5);
    println!("filled {filled} instructions in {runs} microbenchmark runs");
    println!("{:>8} {:>12} {:>12} {:>12}", "inst", "1.2 GHz", "1.6 GHz", "2.0 GHz");
    for inst in table.instructions() {
        let at = |f: f64| {
            table
                .energy_of(inst, f)
                .map(|j| format!("{:.4} nJ", j * 1e9))
                .unwrap_or_else(|_| "-".into())
        };
        println!("{inst:>8} {:>12} {:>12} {:>12}", at(1.2e9), at(1.6e9), at(2.0e9));
    }
    println!();
}
