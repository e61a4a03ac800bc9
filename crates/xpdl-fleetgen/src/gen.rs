//! The fleet generator: `(seed, shape) -> Fleet`, a complete descriptor
//! library that parses, validates and elaborates cleanly.
//!
//! Every document's content is derived from a sub-RNG seeded by
//! `seed ^ fnv1a(key)`, so a document's bytes depend only on the seed,
//! the shape and its own key — never on generation order. Same seed and
//! shape therefore produce byte-identical libraries (the determinism
//! contract `scenario_bench` checksums rely on).

use crate::rng::SplitMix64;
use crate::shape::FleetShape;
use std::fmt::Write as _;
use std::path::Path;
use xpdl_repo::{MemoryStore, Repository};

/// The per-family plan the generator committed to — exposed so tests can
/// assert golden summaries without re-deriving RNG draws.
#[derive(Debug, Clone)]
pub struct FamilyPlan {
    /// Family index (`fg_cpu_<index>` etc.).
    pub index: usize,
    /// Nodes of this family in the cluster.
    pub node_count: usize,
    /// Cores per CPU after group expansion (product of the nested group
    /// quantities).
    pub cores_per_cpu: usize,
    /// Whether nodes of this family carry an accelerator device.
    pub has_device: bool,
    /// Node memory in GB.
    pub mem_gb: u64,
}

/// A generated descriptor library plus the plan it was built from.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The seed the library was derived from.
    pub seed: u64,
    /// The shape spec.
    pub shape: FleetShape,
    /// Per-family plans (length = `shape.effective_width()`).
    pub families: Vec<FamilyPlan>,
    /// Cores per accelerator device (the `nunits` binding of the leaf
    /// device descriptor).
    pub device_units: usize,
    docs: Vec<(String, String)>,
}

/// Key of the system descriptor every generated fleet is rooted at.
pub const SYSTEM_KEY: &str = "fg_sys";

/// The instruction vocabulary each generated instruction set covers.
const OPS: &[&str] = &["fadd", "fmul", "fma", "add", "mov", "load", "store", "branch"];

/// Generate the descriptor library for `(seed, shape)`.
pub fn generate(seed: u64, shape: &FleetShape) -> Fleet {
    let width = shape.effective_width();
    let chain = shape.chain;
    let mut docs: Vec<(String, String)> = Vec::new();

    // Device family: one cross-file extends chain of `chain + 1` docs.
    let leaf_key = format!("fg_dev_{chain}");
    let mut leaf_rng = doc_rng(seed, &leaf_key);
    let device_units = leaf_rng.range(4, 16) as usize;
    let device_mhz = leaf_rng.range(600, 1200);
    docs.push(("fg_devcore".to_string(), "<core name=\"fg_devcore\" endian=\"LE\"/>".to_string()));
    if chain == 0 {
        // Degenerate chain: the single device doc binds everything inline.
        docs.push((
            leaf_key.clone(),
            format!(
                "<device name=\"{leaf_key}\">\n  <group prefix=\"u\" quantity=\"{device_units}\">\n    <core type=\"fg_devcore\" frequency=\"{device_mhz}\" frequency_unit=\"MHz\"/>\n  </group>\n  <memory name=\"devmem\" size=\"4\" unit=\"GB\" static_power=\"2\" static_power_unit=\"W\"/>\n</device>"
            ),
        ));
    } else {
        docs.push((
            "fg_dev_0".to_string(),
            "<device name=\"fg_dev_0\">\n  <param name=\"nunits\" type=\"integer\"/>\n  <param name=\"ufrq\" type=\"frequency\"/>\n  <group prefix=\"u\" quantity=\"nunits\">\n    <core type=\"fg_devcore\" frequency=\"ufrq\"/>\n  </group>\n  <memory name=\"devmem\" size=\"4\" unit=\"GB\" static_power=\"2\" static_power_unit=\"W\"/>\n</device>"
                .to_string(),
        ));
        for k in 1..chain {
            docs.push((
                format!("fg_dev_{k}"),
                format!(
                    "<device name=\"fg_dev_{k}\" extends=\"fg_dev_{}\">\n  <const name=\"fg_gen{k}\" value=\"{k}\"/>\n</device>",
                    k - 1
                ),
            ));
        }
        docs.push((
            leaf_key.clone(),
            format!(
                "<device name=\"{leaf_key}\" extends=\"fg_dev_{}\">\n  <param name=\"nunits\" value=\"{device_units}\"/>\n  <param name=\"ufrq\" frequency=\"{device_mhz}\" unit=\"MHz\"/>\n</device>",
                chain - 1
            ),
        ));
    }

    // Component families: CPU + instruction set + microbenchmark suite +
    // software package per family.
    let mut families = Vec::with_capacity(width);
    for w in 0..width {
        let node_count = shape.nodes / width + usize::from(w < shape.nodes % width);
        let (cpu_doc, cores_per_cpu) = gen_cpu(seed, w, shape.depth);
        docs.push((format!("fg_cpu_{w}"), cpu_doc));
        docs.push((
            format!("fg_isa_{w}"),
            gen_isa(seed, w, shape.unknown_density, shape.unknown_pinned),
        ));
        docs.push((format!("fg_mb_{w}"), gen_mb_suite(w)));
        docs.push((
            format!("fg_sw_{w}"),
            format!("<installed name=\"fg_sw_{w}\" version=\"1.{w}\"/>"),
        ));
        let mut fam_rng = doc_rng(seed, &format!("fg_fam_{w}"));
        families.push(FamilyPlan {
            index: w,
            node_count,
            cores_per_cpu,
            has_device: fam_rng.chance(0.5),
            mem_gb: [16, 32, 64, 128][fam_rng.range(0, 3) as usize],
        });
    }

    docs.push((SYSTEM_KEY.to_string(), gen_system(&families, &leaf_key)));
    Fleet { seed, shape: shape.clone(), families, device_units, docs }
}

/// One CPU meta-model: `depth` nested groups, the innermost holding the
/// cores. Returns the document and the expanded core count.
fn gen_cpu(seed: u64, w: usize, depth: usize) -> (String, usize) {
    let mut rng = doc_rng(seed, &format!("fg_cpu_{w}"));
    let static_power = rng.range(8, 30);
    let freq_tenths = rng.range(12, 34);
    let llc_mib = rng.range(4, 32);
    let q_inner = rng.range(2, 4) as usize;
    // Up to two of the outer wrapper levels get quantity 2 (so deep
    // nesting multiplies structure without exploding the element count).
    let outer_levels = depth - 1;
    let mut doubled = Vec::new();
    if outer_levels > 0 {
        doubled.push(rng.range(0, outer_levels as u64 - 1) as usize);
        if outer_levels > 1 && rng.chance(0.5) {
            let second = rng.range(0, outer_levels as u64 - 1) as usize;
            if !doubled.contains(&second) {
                doubled.push(second);
            }
        }
    }
    let cores = q_inner << doubled.len();

    let mut s = format!(
        "<cpu name=\"fg_cpu_{w}\" static_power=\"{static_power}\" static_power_unit=\"W\">\n"
    );
    for level in 0..outer_levels {
        let q = if doubled.contains(&level) { 2 } else { 1 };
        let indent = "  ".repeat(level + 1);
        let _ = writeln!(s, "{indent}<group prefix=\"g{level}_\" quantity=\"{q}\">");
    }
    let indent = "  ".repeat(depth);
    let _ = writeln!(s, "{indent}<group prefix=\"c\" quantity=\"{q_inner}\">");
    let _ = writeln!(
        s,
        "{indent}  <core frequency=\"{}.{}\" frequency_unit=\"GHz\"/>",
        freq_tenths / 10,
        freq_tenths % 10
    );
    let _ = writeln!(s, "{indent}  <cache name=\"L1\" size=\"32\" unit=\"KiB\" replacement=\"LRU\"/>");
    let _ = writeln!(s, "{indent}</group>");
    for level in (0..outer_levels).rev() {
        let _ = writeln!(s, "{}</group>", "  ".repeat(level + 1));
    }
    let _ = writeln!(
        s,
        "  <cache name=\"LLC\" size=\"{llc_mib}\" unit=\"MiB\" replacement=\"LRU\"/>"
    );
    let _ = writeln!(s, "  <instructions type=\"fg_isa_{w}\"/>");
    s.push_str("</cpu>");
    (s, cores)
}

/// One instruction-energy model; `density` of the entries stay `?`
/// microbenchmark targets (each pointing at its suite entry, the
/// library's `x86_base_isa` idiom). With `pinned` set, exactly
/// `min(pinned, ops)` entries are `?`, the ops chosen by a deterministic
/// shuffle of the doc RNG — the calibration scenarios' guaranteed-work
/// contract. The unpinned path draws the RNG in the exact legacy order,
/// so existing golden checksums are unaffected.
fn gen_isa(seed: u64, w: usize, density: f64, pinned: Option<usize>) -> String {
    let mut rng = doc_rng(seed, &format!("fg_isa_{w}"));
    // With pinning, a deterministic Fisher-Yates shuffle picks which ops
    // stay `?`; without it, each op draws its own Bernoulli — in the
    // *exact* legacy draw order (decide, then maybe draw the energy), so
    // pre-pinning checksums are byte-stable.
    let mask: Option<Vec<bool>> = pinned.map(|n| {
        let n = n.min(OPS.len());
        let mut idx: Vec<usize> = (0..OPS.len()).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.range(0, i as u64) as usize;
            idx.swap(i, j);
        }
        let mut mask = vec![false; OPS.len()];
        for &i in idx.iter().take(n) {
            mask[i] = true;
        }
        mask
    });
    let mut s = format!("<instructions name=\"fg_isa_{w}\" mb=\"fg_mb_{w}\">\n");
    for (i, op) in OPS.iter().enumerate() {
        let unknown = match &mask {
            Some(m) => m[i],
            None => rng.chance(density),
        };
        if unknown {
            let _ = writeln!(s, "  <inst name=\"{op}\" energy=\"?\" energy_unit=\"pJ\" mb=\"{op}1\"/>");
        } else {
            let _ = writeln!(
                s,
                "  <inst name=\"{op}\" energy=\"{}\" energy_unit=\"pJ\"/>",
                rng.range(5, 40)
            );
        }
    }
    s.push_str("</instructions>");
    s
}

/// The microbenchmark suite covering every op of the family's
/// instruction set (whether currently `?` or not — re-generation with a
/// different seed may flip any entry to `?`).
fn gen_mb_suite(w: usize) -> String {
    let mut s = format!(
        "<microbenchmarks id=\"fg_mb_{w}\" instruction_set=\"fg_isa_{w}\" path=\"/opt/fleetmb\" command=\"mb.sh\">\n"
    );
    for op in OPS {
        let _ = writeln!(s, "  <microbenchmark id=\"{op}1\" type=\"{op}\" file=\"{op}.c\" cflags=\"-O0\"/>");
    }
    s.push_str("</microbenchmarks>");
    s
}

/// The cluster system descriptor: one expansion group per family, plus
/// the software stanza listing every family's package.
fn gen_system(families: &[FamilyPlan], device_leaf: &str) -> String {
    let mut s = String::from("<system id=\"fg_sys\">\n  <cluster>\n");
    for f in families {
        if f.node_count == 0 {
            continue;
        }
        let w = f.index;
        let _ = writeln!(s, "    <group prefix=\"f{w}n\" quantity=\"{}\">", f.node_count);
        s.push_str("      <node>\n");
        let _ = writeln!(s, "        <socket><cpu type=\"fg_cpu_{w}\"/></socket>");
        let _ = writeln!(
            s,
            "        <memory size=\"{}\" unit=\"GB\" static_power=\"3\" static_power_unit=\"W\"/>",
            f.mem_gb
        );
        if f.has_device {
            let _ = writeln!(s, "        <device type=\"{device_leaf}\"/>");
        }
        s.push_str("      </node>\n    </group>\n");
    }
    s.push_str("  </cluster>\n  <software>\n");
    for f in families {
        let _ = writeln!(s, "    <installed type=\"fg_sw_{}\" path=\"/opt/fleet\"/>", f.index);
    }
    s.push_str("  </software>\n</system>");
    s
}

/// Derive the sub-RNG for one document.
fn doc_rng(seed: u64, key: &str) -> SplitMix64 {
    SplitMix64::new(seed ^ xpdl_repo::hash::fnv1a64(key.as_bytes()))
}

impl Fleet {
    /// The generated documents, in deterministic order: device chain
    /// first, then the per-family components, the system last.
    pub fn docs(&self) -> &[(String, String)] {
        &self.docs
    }

    /// Key of the root system descriptor.
    pub fn system_key(&self) -> &str {
        SYSTEM_KEY
    }

    /// FNV-1a checksum over every `(key, content)` pair in document
    /// order. Byte-identical libraries — the determinism contract — have
    /// equal checksums.
    pub fn checksum(&self) -> u64 {
        let mut buf = String::new();
        for (k, v) in &self.docs {
            buf.push_str(k);
            buf.push('\0');
            buf.push_str(v);
            buf.push('\n');
        }
        xpdl_repo::hash::fnv1a64(buf.as_bytes())
    }

    /// An in-memory store serving the whole library.
    pub fn store(&self) -> MemoryStore {
        let mut store = MemoryStore::new();
        for (k, v) in &self.docs {
            store.insert(k.clone(), v.clone());
        }
        store
    }

    /// A repository over [`Fleet::store`].
    pub fn repository(&self) -> Repository {
        Repository::new().with_store(self.store())
    }

    /// Write the library as `<key>.xpdl` files (a `--models` search-path
    /// directory). Returns the number of files written.
    pub fn write_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<usize> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (k, v) in &self.docs {
            std::fs::write(dir.join(format!("{k}.xpdl")), v)?;
        }
        Ok(self.docs.len())
    }

    /// Total nodes in the cluster.
    pub fn expected_nodes(&self) -> usize {
        self.families.iter().map(|f| f.node_count).sum()
    }

    /// Total cores after expansion (CPU cores plus accelerator units).
    pub fn expected_cores(&self) -> usize {
        self.families
            .iter()
            .map(|f| {
                f.node_count
                    * (f.cores_per_cpu + if f.has_device { self.device_units } else { 0 })
            })
            .sum()
    }

    /// Total accelerator devices after expansion.
    pub fn expected_devices(&self) -> usize {
        self.families.iter().filter(|f| f.has_device).map(|f| f.node_count).sum()
    }

    /// `?` placeholder entries actually present in the generated library
    /// (counted over the document bytes — what a calibrator will find).
    pub fn placeholder_count(&self) -> usize {
        self.docs.iter().map(|(_, v)| v.matches("energy=\"?\"").count()).sum()
    }

    /// The placeholder count a *pinned* shape guarantees:
    /// `effective_width × min(pinned, ops)`. `None` for density shapes,
    /// where the count is seed-dependent.
    pub fn expected_placeholders(&self) -> Option<usize> {
        self.shape
            .unknown_pinned
            .map(|n| self.shape.effective_width() * n.min(OPS.len()))
    }

    /// A copy of the fleet with the first `victims` families' CPU
    /// references pointing at meta-models that do not exist — the
    /// poisoned-fleet input for keep-going elaboration scenarios.
    /// Resolution must run with `allow_missing` and elaboration with
    /// `keep_going`; every node of a poisoned family elaborates into a
    /// `poisoned="true"` quarantined element.
    pub fn poisoned(&self, victims: usize) -> Fleet {
        let mut out = self.clone();
        let victims = victims.min(self.families.len());
        if let Some(sys) = out.docs.iter_mut().find(|(k, _)| k == SYSTEM_KEY) {
            for w in 0..victims {
                sys.1 = sys.1.replace(
                    &format!("<cpu type=\"fg_cpu_{w}\"/>"),
                    &format!("<cpu type=\"fg_missing_{w}\"/>"),
                );
            }
        }
        out
    }

    /// How many elements `poisoned(victims)` is expected to quarantine:
    /// one per node of each victim family.
    pub fn expected_poisoned(&self, victims: usize) -> usize {
        self.families
            .iter()
            .take(victims.min(self.families.len()))
            .map(|f| f.node_count)
            .sum()
    }
}
