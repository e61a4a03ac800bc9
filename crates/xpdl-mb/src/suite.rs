//! The microbenchmark suite descriptor (Listing 15).

use std::fmt;
use xpdl_core::{ElementKind, XpdlElement};

/// Errors parsing a suite.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// Wrong element kind.
    NotASuite(String),
    /// A benchmark entry is missing a required attribute.
    MissingAttr {
        /// The benchmark id (or `<anonymous>`).
        bench: String,
        /// The missing attribute.
        attr: &'static str,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::NotASuite(t) => write!(f, "expected <microbenchmarks>, got <{t}>"),
            SuiteError::MissingAttr { bench, attr } => {
                write!(f, "microbenchmark '{bench}' is missing '{attr}'")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// One microbenchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkEntry {
    /// Benchmark id (`fa1`).
    pub id: String,
    /// The instruction it measures (`type=` attribute, e.g. `fadd`).
    pub instruction: String,
    /// Source file name (`fadd.c`).
    pub file: String,
    /// Compiler flags.
    pub cflags: String,
    /// Linker flags.
    pub lflags: String,
    /// Measurement repetitions (default 5).
    pub repetitions: u32,
}

/// A parsed microbenchmark suite.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrobenchmarkSuite {
    /// Suite id (`mb_x86_base_1`).
    pub id: String,
    /// The instruction set it covers (`x86_base_isa`).
    pub instruction_set: Option<String>,
    /// Source directory on the deployment host.
    pub path: String,
    /// Build-and-run script name (`mbscript.sh`).
    pub command: String,
    /// Benchmark entries.
    pub entries: Vec<BenchmarkEntry>,
}

impl MicrobenchmarkSuite {
    /// Parse a `microbenchmarks` element.
    pub fn from_element(e: &XpdlElement) -> Result<MicrobenchmarkSuite, SuiteError> {
        if e.kind != ElementKind::Microbenchmarks {
            return Err(SuiteError::NotASuite(e.kind.tag().to_string()));
        }
        let id = e.ident().unwrap_or("microbenchmarks").to_string();
        let instruction_set = e.attr("instruction_set").map(str::to_string);
        let path = e.attr("path").unwrap_or(".").to_string();
        let command = e.attr("command").unwrap_or("mbscript.sh").to_string();
        let mut entries = Vec::new();
        for mb in e.children_of_kind(ElementKind::Microbenchmark) {
            let bid = mb.ident().unwrap_or("<anonymous>").to_string();
            let instruction = mb
                .type_ref
                .as_deref()
                .map(str::to_string)
                .ok_or(SuiteError::MissingAttr { bench: bid.clone(), attr: "type" })?;
            let file = mb
                .attr("file")
                .map(str::to_string)
                .unwrap_or_else(|| format!("{instruction}.c"));
            entries.push(BenchmarkEntry {
                id: bid,
                instruction,
                file,
                cflags: mb.attr("cflags").unwrap_or("-O0").to_string(),
                lflags: mb.attr("lflags").unwrap_or("").to_string(),
                repetitions: mb
                    .attr("repetitions")
                    .and_then(|r| r.parse().ok())
                    .unwrap_or(5),
            });
        }
        Ok(MicrobenchmarkSuite { id, instruction_set, path, command, entries })
    }

    /// Find the entry measuring an instruction.
    pub fn entry_for_instruction(&self, inst: &str) -> Option<&BenchmarkEntry> {
        self.entries.iter().find(|b| b.instruction == inst)
    }

    /// Find an entry by id (the `mb=` references of Listing 14).
    pub fn entry(&self, id: &str) -> Option<&BenchmarkEntry> {
        self.entries.iter().find(|b| b.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    /// Listing 15.
    pub(crate) fn listing15() -> MicrobenchmarkSuite {
        let doc = XpdlDocument::parse_str(
            r#"<microbenchmarks id="mb_x86_base_1" instruction_set="x86_base_isa"
                              path="/usr/local/micr/src" command="mbscript.sh">
                 <microbenchmark id="fa1" type="fadd" file="fadd.c" cflags="-O0" lflags="-lm"/>
                 <microbenchmark id="mo1" type="mov" file="mov.c" cflags="-O0"/>
                 <microbenchmark id="fm1" type="fmul"/>
               </microbenchmarks>"#,
        )
        .unwrap();
        MicrobenchmarkSuite::from_element(doc.root()).unwrap()
    }

    #[test]
    fn parse_listing15() {
        let s = listing15();
        assert_eq!(s.id, "mb_x86_base_1");
        assert_eq!(s.instruction_set.as_deref(), Some("x86_base_isa"));
        assert_eq!(s.path, "/usr/local/micr/src");
        assert_eq!(s.command, "mbscript.sh");
        assert_eq!(s.entries.len(), 3);
        let fa = s.entry("fa1").unwrap();
        assert_eq!(fa.instruction, "fadd");
        assert_eq!(fa.file, "fadd.c");
        assert_eq!(fa.lflags, "-lm");
        assert_eq!(fa.repetitions, 5);
    }

    #[test]
    fn defaults_applied() {
        let s = listing15();
        let fm = s.entry("fm1").unwrap();
        assert_eq!(fm.file, "fmul.c");
        assert_eq!(fm.cflags, "-O0");
    }

    #[test]
    fn lookup_by_instruction() {
        let s = listing15();
        assert_eq!(s.entry_for_instruction("mov").unwrap().id, "mo1");
        assert!(s.entry_for_instruction("divsd").is_none());
    }

    #[test]
    fn missing_type_rejected() {
        let doc = XpdlDocument::parse_str(
            r#"<microbenchmarks id="s"><microbenchmark id="x" file="x.c"/></microbenchmarks>"#,
        )
        .unwrap();
        assert_eq!(
            MicrobenchmarkSuite::from_element(doc.root()).unwrap_err(),
            SuiteError::MissingAttr { bench: "x".into(), attr: "type" }
        );
    }

    #[test]
    fn wrong_kind_rejected() {
        let doc = XpdlDocument::parse_str(r#"<cpu name="c"/>"#).unwrap();
        assert!(matches!(
            MicrobenchmarkSuite::from_element(doc.root()),
            Err(SuiteError::NotASuite(_))
        ));
    }
}
