//! The program registry: every kernel the workspace ships, addressable by name.
//!
//! Before this module, each front-end (the `graphh-node` binary, the examples,
//! the bench harness, the determinism suites) kept its own `match` over program
//! names — and they drifted: kernels existed that no CLI could reach. The
//! registry is the single list: a [`ProgramSpec`] per kernel with its name, a
//! one-line summary, how its input graph must be prepared
//! ([`ProgramSpec::symmetrize_input`]), the options it accepts, and a builder
//! from parsed options to a boxed [`GabProgram`].
//!
//! Options travel as `key=value` strings (the CLI's `--program-arg` values),
//! parsed into a [`ProgramOptions`] bag; [`ProgramSpec::build`] rejects keys
//! the program does not accept, so a typo fails loudly instead of being
//! silently ignored. Defaults that depend on the graph (the BFS/SSSP source)
//! come from the [`ProgramContext`], which every process of a cluster derives
//! from the same deterministic workload — so defaulted options agree across
//! processes too.
//!
//! ```
//! use graphh_core::registry::{find_program, ProgramContext, ProgramOptions};
//!
//! let out_degrees = vec![1, 3, 2];
//! let ctx = ProgramContext::new(&out_degrees);
//! let spec = find_program("bfs").expect("registered");
//! let opts = ProgramOptions::parse(&["source=2"]).unwrap();
//! let program = spec.build(&ctx, &opts).unwrap();
//! assert_eq!(program.name(), "bfs");
//! ```

use crate::algorithms::{Bfs, DegreeCentrality, LabelPropagation, PageRank, Sssp, Wcc};
use crate::gab::GabProgram;
use graphh_graph::ids::VertexId;

/// Graph-derived facts a program builder may need for its defaults.
///
/// Deterministic: two processes that built the same graph derive the same
/// context, so defaulted options (e.g. the BFS source) agree cluster-wide.
#[derive(Debug, Clone, Copy)]
pub struct ProgramContext<'a> {
    /// Per-vertex out-degrees, indexed by vertex id.
    pub out_degrees: &'a [u32],
}

impl<'a> ProgramContext<'a> {
    /// A context over `out_degrees` (index = vertex id).
    pub fn new(out_degrees: &'a [u32]) -> Self {
        Self { out_degrees }
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&self) -> u64 {
        self.out_degrees.len() as u64
    }

    /// The default traversal source: the maximum-out-degree vertex.
    ///
    /// Matches the selection the multi-process workloads have always used
    /// (`max_by_key`, which keeps the *last* maximum on ties), so registry
    /// defaults are bit-compatible with the pre-registry `sssp` arm.
    pub fn default_source(&self) -> VertexId {
        (0..self.out_degrees.len() as u32)
            .max_by_key(|&v| self.out_degrees[v as usize])
            .unwrap_or(0)
    }
}

/// A parsed bag of `key=value` program options.
#[derive(Debug, Clone, Default)]
pub struct ProgramOptions {
    entries: Vec<(String, String)>,
}

impl ProgramOptions {
    /// An empty option bag (every option takes its default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse `key=value` strings (e.g. the repeated `--program-arg` CLI values).
    pub fn parse<S: AsRef<str>>(specs: &[S]) -> Result<Self, String> {
        let mut opts = Self::new();
        for spec in specs {
            let spec = spec.as_ref();
            let (key, value) = spec
                .split_once('=')
                .ok_or_else(|| format!("program option {spec:?} is not of the form key=value"))?;
            if key.is_empty() {
                return Err(format!("program option {spec:?} has an empty key"));
            }
            opts.set(key, value);
        }
        Ok(opts)
    }

    /// Set an option (the last write for a key wins).
    pub fn set(&mut self, key: &str, value: &str) {
        self.entries.push((key.to_string(), value.to_string()));
    }

    /// The raw value of `key`, if set.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every key that was set (with duplicates collapsed).
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn parsed<T>(&self, key: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| format!("bad value for program option {key}={raw}: {e}")),
        }
    }
}

/// A registered kernel's builder: context (degrees for defaults) + parsed
/// options in, boxed program or a diagnostic out.
pub type ProgramBuilder =
    fn(&ProgramContext<'_>, &ProgramOptions) -> Result<Box<dyn GabProgram>, String>;

/// One registered kernel: its name, input contract, accepted options, builder.
pub struct ProgramSpec {
    /// Registry name, the value of `--program`.
    pub name: &'static str,
    /// One-line summary for usage/docs output.
    pub summary: &'static str,
    /// Whether the input graph should be symmetrised (both edge directions
    /// present) before partitioning — true for the component/community
    /// kernels, whose semantics are undirected.
    pub symmetrize_input: bool,
    /// Accepted option keys as `(key, doc)` pairs.
    pub options: &'static [(&'static str, &'static str)],
    build: ProgramBuilder,
}

impl std::fmt::Debug for ProgramSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramSpec")
            .field("name", &self.name)
            .field("symmetrize_input", &self.symmetrize_input)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl ProgramSpec {
    /// Whether this program accepts the option `key`.
    pub fn accepts(&self, key: &str) -> bool {
        self.options.iter().any(|&(k, _)| k == key)
    }

    /// Build the program, rejecting options the program does not accept.
    pub fn build(
        &self,
        ctx: &ProgramContext<'_>,
        opts: &ProgramOptions,
    ) -> Result<Box<dyn GabProgram>, String> {
        for key in opts.keys() {
            if !self.accepts(key) {
                let accepted: Vec<&str> = self.options.iter().map(|&(k, _)| k).collect();
                return Err(format!(
                    "program {} does not accept option {key:?} (accepted: {})",
                    self.name,
                    if accepted.is_empty() {
                        "none".to_string()
                    } else {
                        accepted.join(", ")
                    }
                ));
            }
        }
        (self.build)(ctx, opts)
    }
}

/// Every registered program. Front-ends iterate this for usage text and
/// coverage sweeps; resolve one by name with [`find_program`].
pub const PROGRAMS: &[ProgramSpec] = &[
    ProgramSpec {
        name: "pagerank",
        summary: "PageRank with damping 0.85 (paper Algorithm 6)",
        symmetrize_input: false,
        options: &[
            ("supersteps", "superstep cap (default 10)"),
            (
                "tolerance",
                "rank delta below which a vertex is unchanged (default 0)",
            ),
        ],
        build: |_ctx, opts| {
            let supersteps = opts.parsed("supersteps")?.unwrap_or(10);
            let tolerance = opts.parsed("tolerance")?.unwrap_or(0.0);
            Ok(Box::new(PageRank::with_tolerance(supersteps, tolerance)))
        },
    },
    ProgramSpec {
        name: "sssp",
        summary: "single-source shortest paths (paper Algorithm 7)",
        symmetrize_input: false,
        options: &[(
            "source",
            "source vertex id (default: max-out-degree vertex)",
        )],
        build: |ctx, opts| {
            let source = opts
                .parsed("source")?
                .unwrap_or_else(|| ctx.default_source());
            Ok(Box::new(Sssp::new(source)))
        },
    },
    ProgramSpec {
        name: "wcc",
        summary: "weakly connected components via min-label propagation",
        symmetrize_input: true,
        options: &[],
        build: |_ctx, _opts| Ok(Box::new(Wcc::new())),
    },
    ProgramSpec {
        name: "bfs",
        summary: "breadth-first search levels (direction-optimizing)",
        symmetrize_input: false,
        options: &[(
            "source",
            "source vertex id (default: max-out-degree vertex)",
        )],
        build: |ctx, opts| {
            let source = opts
                .parsed("source")?
                .unwrap_or_else(|| ctx.default_source());
            Ok(Box::new(Bfs::new(source)))
        },
    },
    ProgramSpec {
        name: "labelprop",
        summary: "label propagation with deterministic min-tie-break",
        symmetrize_input: true,
        options: &[("rounds", "propagation round cap (default 20)")],
        build: |_ctx, opts| {
            let rounds = opts.parsed("rounds")?.unwrap_or(20);
            Ok(Box::new(LabelPropagation::with_rounds(rounds)))
        },
    },
    ProgramSpec {
        name: "degree-centrality",
        summary: "weighted in-degree per vertex (one superstep)",
        symmetrize_input: false,
        options: &[],
        build: |_ctx, _opts| Ok(Box::new(DegreeCentrality::new())),
    },
];

/// Look up a program by registry name.
pub fn find_program(name: &str) -> Option<&'static ProgramSpec> {
    PROGRAMS.iter().find(|spec| spec.name == name)
}

/// All registered program names, comma-joined — for usage/error text.
pub fn program_names() -> String {
    PROGRAMS
        .iter()
        .map(|s| s.name)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_over(degrees: &[u32]) -> ProgramContext<'_> {
        ProgramContext::new(degrees)
    }

    fn err_of(result: Result<Box<dyn GabProgram>, String>) -> String {
        match result {
            Err(e) => e,
            Ok(p) => panic!("expected an error, built {}", p.name()),
        }
    }

    #[test]
    fn every_spec_builds_with_defaults_and_matches_its_name() {
        let degrees = vec![2, 5, 5, 1];
        let ctx = ctx_over(&degrees);
        for spec in PROGRAMS {
            let program = spec.build(&ctx, &ProgramOptions::new()).expect(spec.name);
            assert_eq!(program.name(), spec.name);
            assert_eq!(find_program(spec.name).unwrap().name, spec.name);
        }
        assert!(find_program("frobnicate").is_none());
        assert!(program_names().contains("labelprop"));
    }

    #[test]
    fn default_source_matches_the_legacy_max_by_key_selection() {
        let degrees = vec![2, 5, 5, 1];
        // Rust's max_by_key keeps the LAST maximum: vertex 2, not 1. The
        // registry must reproduce that exactly for bit-compat with the
        // pre-registry sssp workload arm.
        assert_eq!(ctx_over(&degrees).default_source(), 2);
        assert_eq!(ctx_over(&[]).default_source(), 0);
    }

    #[test]
    fn options_parse_validate_and_reject_unknown_keys() {
        let degrees = vec![1, 2];
        let ctx = ctx_over(&degrees);
        let opts = ProgramOptions::parse(&["source=1"]).unwrap();
        let spec = find_program("bfs").unwrap();
        assert!(spec.build(&ctx, &opts).is_ok());

        let err = err_of(find_program("wcc").unwrap().build(&ctx, &opts));
        assert!(err.contains("does not accept"), "{err}");

        assert!(ProgramOptions::parse(&["no-equals"]).is_err());
        assert!(ProgramOptions::parse(&["=empty-key"]).is_err());
        let err = err_of(find_program("sssp").unwrap().build(
            &ctx,
            &ProgramOptions::parse(&["source=not-a-number"]).unwrap(),
        ));
        assert!(err.contains("bad value"), "{err}");
    }

    #[test]
    fn last_write_wins_for_duplicate_option_keys() {
        let opts = ProgramOptions::parse(&["source=1", "source=9"]).unwrap();
        assert_eq!(opts.get("source"), Some("9"));
        assert_eq!(opts.keys(), vec!["source"]);
    }

    #[test]
    fn symmetrize_flags_cover_the_undirected_kernels() {
        for spec in PROGRAMS {
            let expect = matches!(spec.name, "wcc" | "labelprop");
            assert_eq!(spec.symmetrize_input, expect, "{}", spec.name);
        }
    }
}
