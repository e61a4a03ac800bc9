//! The paper's toolchain (§IV), timed stage by stage from outside:
//! resolve the descriptor library, elaborate it, flatten it into the
//! runtime model, encode it, write it to a file, and load that file the
//! way a runtime system's `xpdl_init` does.
//!
//! The stages run back to back on one thread, so their times sum to the
//! build time; a traced run checks that they do.

use crate::rng::fnv1a;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xpdl_core::ElementKind;
use xpdl_elab::Elaborated;
use xpdl_repo::{DirStore, Repository};
use xpdl_runtime::{format, RuntimeModel, XpdlHandle};

/// A descriptor library written to disk, plus what its build must yield.
#[derive(Debug, Clone)]
pub struct Library {
    /// Directory of `<key>.xpdl` files (a model search path).
    pub dir: PathBuf,
    /// Key of the system to build.
    pub key: String,
    /// Expected `(nodes, cores, devices)` after elaboration, where the
    /// library's generator states them.
    pub expect: Option<(usize, usize, usize)>,
}

impl Library {
    /// Write `docs` as a model search path under `dir`.
    pub fn write(
        dir: PathBuf,
        key: &str,
        docs: &[(String, String)],
        expect: Option<(usize, usize, usize)>,
    ) -> std::io::Result<Library> {
        std::fs::create_dir_all(&dir)?;
        for (k, src) in docs {
            std::fs::write(dir.join(format!("{k}.xpdl")), src)?;
        }
        Ok(Library {
            dir,
            key: key.to_string(),
            expect,
        })
    }

    /// The paper's model library, rooted at `key` (e.g. `liu_gpu_server`).
    pub fn paper(dir: PathBuf, key: &str) -> std::io::Result<Library> {
        let docs: Vec<(String, String)> = xpdl_models::library::LIBRARY
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Library::write(dir, key, &docs, None)
    }

    /// A synthetic fleet, with the counts its generator promises.
    pub fn fleet(dir: PathBuf, fleet: &xpdl_fleetgen::Fleet) -> std::io::Result<Library> {
        let expect = (
            fleet.expected_nodes(),
            fleet.expected_cores(),
            fleet.expected_devices(),
        );
        Library::write(dir, fleet.system_key(), fleet.docs(), Some(expect))
    }
}

/// Stage times of one build, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    /// `Repository::resolve_recursive` over a fresh `DirStore` (fetch and
    /// parse of every reachable document).
    pub resolve: f64,
    /// `xpdl_elab::elaborate`.
    pub elaborate: f64,
    /// `RuntimeModel::from_element`.
    pub from_element: f64,
    /// `format::encode`.
    pub encode: f64,
    /// Writing the encoded bytes to the model file.
    pub write: f64,
    /// `XpdlHandle::init` on the written file.
    pub load: f64,
    /// The whole build, first call to last.
    pub total: f64,
}

impl Stages {
    /// Sum of the stage times (equal to `total` up to timer overhead).
    pub fn sum(&self) -> f64 {
        self.resolve + self.elaborate + self.from_element + self.encode + self.write + self.load
    }
}

/// The outputs of one build.
#[derive(Debug)]
pub struct Build {
    /// The elaborated instance tree.
    pub elaborated: Elaborated,
    /// The runtime model before encoding.
    pub model: RuntimeModel,
    /// The encoded model, as written to the file.
    pub bytes: Vec<u8>,
    /// The handle `xpdl_init` returned for the written file.
    pub loaded: XpdlHandle,
    /// Keys of the documents resolution reached.
    pub doc_keys: Vec<String>,
    /// Stage times.
    pub stages: Stages,
    /// The `Instant`s bounding each stage, for tracing: start, then the
    /// end of each stage in [`Stages`] order.
    pub marks: [Instant; 7],
}

/// Span names of the build stages, in [`Build::marks`] order.
pub const STAGE_SPANS: [&str; 6] = [
    "repo.resolve",
    "elab.elaborate",
    "runtime.from_element",
    "runtime.encode",
    "runtime.write",
    "runtime.load",
];

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Build `lib` into the runtime file `out`, timing every stage.
pub fn build(lib: &Library, out: &Path) -> Result<Build, String> {
    let t0 = Instant::now();
    let repo = Repository::new().with_store(DirStore::new(&lib.dir));
    let set = repo
        .resolve_recursive(&lib.key)
        .map_err(|e| format!("resolve {}: {e}", lib.key))?;
    let t1 = Instant::now();
    let elaborated =
        xpdl_elab::elaborate(&set).map_err(|e| format!("elaborate {}: {e}", lib.key))?;
    let t2 = Instant::now();
    let model = RuntimeModel::from_element(&elaborated.root);
    let t3 = Instant::now();
    let bytes = format::encode(&model).to_vec();
    let t4 = Instant::now();
    std::fs::write(out, &bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
    let t5 = Instant::now();
    let loaded = XpdlHandle::init(out).map_err(|e| format!("init {}: {e}", out.display()))?;
    let t6 = Instant::now();
    let stages = Stages {
        resolve: ms(t0, t1),
        elaborate: ms(t1, t2),
        from_element: ms(t2, t3),
        encode: ms(t3, t4),
        write: ms(t4, t5),
        load: ms(t5, t6),
        total: ms(t0, t6),
    };
    let doc_keys = set.documents().map(|(k, _)| k.to_string()).collect();
    Ok(Build {
        elaborated,
        model,
        bytes,
        loaded,
        doc_keys,
        stages,
        marks: [t0, t1, t2, t3, t4, t5, t6],
    })
}

/// Check a build against its library's promises: a clean elaboration,
/// the generator's node/core/device counts, and a model that survives
/// the encode → file → `xpdl_init` round trip byte for byte.
pub fn check(lib: &Library, b: &Build) -> Result<(), String> {
    if !b.elaborated.is_clean() {
        return Err(format!("{}: elaboration reported errors", lib.key));
    }
    if let Some(expect) = lib.expect {
        let got = (
            b.elaborated.count_kind(ElementKind::Node),
            b.elaborated.count_kind(ElementKind::Core),
            b.elaborated.count_kind(ElementKind::Device),
        );
        if got != expect {
            return Err(format!(
                "{}: (nodes, cores, devices) {got:?}, expected {expect:?}",
                lib.key
            ));
        }
    }
    let reloaded = format::encode(b.loaded.model());
    if b.loaded.model().len() != b.model.len() || fnv1a(&reloaded) != fnv1a(&b.bytes) {
        return Err(format!(
            "{}: model changed across the encode/init round trip",
            lib.key
        ));
    }
    Ok(())
}

/// Parse every document `b` resolved, in a pass of its own, returning
/// `(milliseconds, bytes parsed)`. Resolution parses the same documents
/// inside `repo.resolve`; this isolates the XML + core layers' share.
pub fn parse_pass(lib: &Library, b: &Build) -> Result<(f64, usize), String> {
    let mut texts = Vec::with_capacity(b.doc_keys.len());
    for k in &b.doc_keys {
        let path = lib.dir.join(format!("{k}.xpdl"));
        texts.push((
            k,
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        ));
    }
    let bytes = texts.iter().map(|(_, t)| t.len()).sum();
    let t0 = Instant::now();
    for (k, text) in &texts {
        let doc = xpdl_core::XpdlDocument::parse_named(text, k).map_err(|e| format!("{k}: {e}"))?;
        std::hint::black_box(doc);
    }
    Ok((ms(t0, Instant::now()), bytes))
}
