//! Scenario-keyed benchmark records: the one JSON shape every BENCH file
//! speaks (DESIGN.md §15).
//!
//! A [`ScenarioRecord`] carries the six mandatory fields every scenario
//! reports — `name`, `p50_us`, `p90_us`, `p99_us`, `qps`, `errors` —
//! plus free-form extra fields (server stats, reload counts, compat
//! keys). `scenario_bench` appends one [`RunRecord`] per invocation to
//! `BENCH_scenarios.json`, so the file is a *trajectory* (a JSON array
//! of runs, oldest first) instead of a one-off dump; `serve_bench`
//! writes a single record with its legacy keys preserved as extras.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use xpdl_core::diag::json::{self, JsonValue};
use xpdl_obs::metrics::percentile;

/// One extra (scenario-specific) field value.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtraValue {
    /// An unsigned integer.
    U64(u64),
    /// A float (serialized via `Display`, so integral values stay short).
    F64(f64),
    /// A string (escaped on serialization).
    Str(String),
    /// Pre-serialized JSON, embedded verbatim (e.g. a nested stats
    /// object). The caller guarantees it is valid JSON.
    Raw(String),
}

/// The mandatory keys of the record schema; extras may not shadow them.
const RESERVED: &[&str] = &["name", "p50_us", "p90_us", "p99_us", "qps", "errors"];

/// One scenario's result: the shared schema of every BENCH file.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// Scenario name (DESIGN.md §15 naming convention:
    /// `lower_snake_case`, stable across runs — it is the trajectory key).
    pub name: String,
    /// Client-observed median latency, microseconds: the nearest-rank
    /// sample of the scenario's raw measurements
    /// ([`ScenarioRecord::set_latencies`]).
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Operations per second over the scenario's wall time.
    pub qps: f64,
    /// Failed operations. A clean scenario reports 0; `--expect-clean`
    /// gates on this field.
    pub errors: u64,
    /// Scenario-specific extras, serialized as additional top-level keys.
    pub extra: BTreeMap<String, ExtraValue>,
}

impl ScenarioRecord {
    /// An empty record for `name` (all metrics zero).
    pub fn new(name: impl Into<String>) -> ScenarioRecord {
        ScenarioRecord {
            name: name.into(),
            p50_us: 0,
            p90_us: 0,
            p99_us: 0,
            qps: 0.0,
            errors: 0,
            extra: BTreeMap::new(),
        }
    }

    /// Fill the percentile fields from the scenario's raw latency
    /// samples (µs), sorting them in place: each field is a measured
    /// sample ([`xpdl_obs::metrics::percentile`]), 0 when there are none.
    pub fn set_latencies(&mut self, samples: &mut [u64]) {
        samples.sort_unstable();
        self.p50_us = percentile(samples, 0.50);
        self.p90_us = percentile(samples, 0.90);
        self.p99_us = percentile(samples, 0.99);
    }

    /// Attach an extra field. Reserved (mandatory-schema) keys are
    /// rejected with a panic — that is a harness bug, not a data error.
    pub fn with_extra(mut self, key: impl Into<String>, value: ExtraValue) -> ScenarioRecord {
        self.put_extra(key, value);
        self
    }

    /// Non-consuming [`ScenarioRecord::with_extra`].
    pub fn put_extra(&mut self, key: impl Into<String>, value: ExtraValue) {
        let key = key.into();
        assert!(!RESERVED.contains(&key.as_str()), "extra field '{key}' shadows the record schema");
        self.extra.insert(key, value);
    }

    /// Serialize as one JSON object: the mandatory fields first, extras
    /// after, keys of the extras in sorted order.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"name\":");
        json::escape_into(&mut s, &self.name);
        s.push_str(&format!(
            ",\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"qps\":{},\"errors\":{}",
            self.p50_us, self.p90_us, self.p99_us, self.qps, self.errors
        ));
        for (k, v) in &self.extra {
            s.push(',');
            json::escape_into(&mut s, k);
            s.push(':');
            match v {
                ExtraValue::U64(n) => s.push_str(&n.to_string()),
                ExtraValue::F64(f) => s.push_str(&f.to_string()),
                ExtraValue::Str(t) => json::escape_into(&mut s, t),
                ExtraValue::Raw(raw) => s.push_str(raw),
            }
        }
        s.push('}');
        s
    }
}

/// One `scenario_bench` invocation: the matrix label, the fleet it ran
/// against, and every scenario's record.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Matrix name (`smoke`, `full`, ...).
    pub matrix: String,
    /// Fleet seed.
    pub seed: u64,
    /// The fleet shape spec (the `FleetShape` Display form).
    pub shape: String,
    /// Hex FNV-1a checksum of the generated library — equal seeds must
    /// reproduce equal checksums (the determinism gate).
    pub fleet_checksum: String,
    /// Unix timestamp (seconds) of the run, for trajectory plots.
    pub unix_time: u64,
    /// The scenario records.
    pub scenarios: Vec<ScenarioRecord>,
}

impl RunRecord {
    /// Serialize as one JSON object with a `scenarios` array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"matrix\":");
        json::escape_into(&mut s, &self.matrix);
        s.push_str(&format!(",\"seed\":{},\"shape\":", self.seed));
        json::escape_into(&mut s, &self.shape);
        s.push_str(&format!(
            ",\"fleet_checksum\":\"{}\",\"unix_time\":{},\"scenarios\":[",
            self.fleet_checksum, self.unix_time
        ));
        for (i, rec) in self.scenarios.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&rec.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// Append a run to a trajectory file (a JSON array of run objects).
///
/// A missing or unparseable file starts a fresh `[run]`; an existing
/// valid array gets the run appended in place, preserving every prior
/// run byte-for-byte. The write is atomic (temp file + rename), so a
/// crash mid-append never corrupts the trajectory.
pub fn append_run(path: impl AsRef<Path>, run: &RunRecord) -> io::Result<()> {
    let path = path.as_ref();
    let existing = std::fs::read_to_string(path).ok().filter(|src| {
        matches!(json::parse(src), Ok(JsonValue::Array(_)))
    });
    let out = match existing {
        Some(src) => {
            let body = src.trim_end();
            // Valid JSON array: the last non-whitespace byte is `]`.
            let head = &body[..body.len() - 1];
            let is_empty_array = head.trim_end().ends_with('[');
            let sep = if is_empty_array { "" } else { "," };
            format!("{}{sep}\n{}\n]", head.trim_end(), run.to_json())
        }
        None => format!("[\n{}\n]", run.to_json()),
    };
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path)
}

/// Parse a trajectory file into its run objects (for tests and CI gates).
pub fn parse_runs(src: &str) -> Result<Vec<JsonValue>, String> {
    match json::parse(src)? {
        JsonValue::Array(runs) => Ok(runs),
        _ => Err("trajectory file is not a JSON array".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str) -> ScenarioRecord {
        let mut r = ScenarioRecord::new(name);
        r.p50_us = 10;
        r.p90_us = 20;
        r.p99_us = 40;
        r.qps = 1234.5;
        r.errors = 0;
        r
    }

    fn run(matrix: &str) -> RunRecord {
        RunRecord {
            matrix: matrix.to_string(),
            seed: 42,
            shape: "nodes=2,depth=1,chain=0,width=1,unknown=0".to_string(),
            fleet_checksum: "deadbeef".to_string(),
            unix_time: 1_700_000_000,
            scenarios: vec![record("a"), record("b")],
        }
    }

    #[test]
    fn record_json_carries_the_schema_fields() {
        let r = record("query_storm")
            .with_extra("reloads", ExtraValue::U64(7))
            .with_extra("server", ExtraValue::Raw("{\"x\":1}".to_string()));
        let parsed = json::parse(&r.to_json()).unwrap();
        let obj = parsed.as_object().unwrap();
        for key in ["name", "p50_us", "p90_us", "p99_us", "qps", "errors", "reloads", "server"] {
            assert!(json::get(obj, key).is_some(), "missing {key}");
        }
    }

    #[test]
    #[should_panic(expected = "shadows the record schema")]
    fn extras_cannot_shadow_mandatory_fields() {
        let _ = record("x").with_extra("p50_us", ExtraValue::U64(1));
    }

    #[test]
    fn append_builds_a_growing_valid_array() {
        let path = std::env::temp_dir()
            .join(format!("bench_record_{}_{:?}.json", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_file(&path);
        append_run(&path, &run("smoke")).unwrap();
        append_run(&path, &run("full")).unwrap();
        let src = std::fs::read_to_string(&path).unwrap();
        let runs = parse_runs(&src).unwrap();
        assert_eq!(runs.len(), 2);
        let first = runs[0].as_object().unwrap();
        assert_eq!(
            json::get(first, "matrix").and_then(|v| v.as_str()),
            Some("smoke")
        );
        let scenarios = json::get(first, "scenarios").and_then(|v| v.as_array()).unwrap();
        assert_eq!(scenarios.len(), 2);
        // A corrupted file starts over instead of erroring.
        std::fs::write(&path, "not json").unwrap();
        append_run(&path, &run("smoke")).unwrap();
        assert_eq!(parse_runs(&std::fs::read_to_string(&path).unwrap()).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latencies_are_nearest_rank_samples() {
        let mut r = ScenarioRecord::new("t");
        r.set_latencies(&mut [1000, 3, 100, 1, 2]);
        assert_eq!((r.p50_us, r.p90_us, r.p99_us), (3, 1000, 1000));
        r.set_latencies(&mut []);
        assert_eq!((r.p50_us, r.p90_us, r.p99_us), (0, 0, 0));
    }
}
