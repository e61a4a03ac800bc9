//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one `workload metric value unit n=<samples>` line per metric,
//! then, as the last line, the JSON result
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Untraced runs
//! report the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics and writes a Chrome trace to `perfbench/out/`.
//!
//! `--serve MODEL` is the daemon child the query workloads start.

use std::path::Path;
use xpdl_perfbench::suite::{self, Config, Workload};

const USAGE: &str = "usage: xpdl-perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or(format!("--workload must be one of {}", names.join(", ")))?;
    let seed = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("--seed N")?;
    let seconds = flag(args, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0 && s.is_finite())
        .ok_or("--seconds S (positive)")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace 0|1".into()),
    };
    Ok((workload, seed, seconds, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(model) = flag(&args, "--serve") {
        if let Err(e) = xpdl_perfbench::daemon::serve(Path::new(model)) {
            eprintln!("daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (workload, seed, seconds, trace) = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate this executable: {e}");
        std::process::exit(1);
    });
    let cfg = Config::standard(seconds, exe);
    eprintln!(
        "{} seed={seed} seconds={seconds} trace={} nproc={}",
        workload.name(),
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match suite::run(workload, seed, trace, &cfg) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("error: {e}");
            }
            print!("{}", outcome.lines());
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            std::process::exit(1);
        }
    }
}
