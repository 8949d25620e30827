//! Shared pieces of the multi-process runtime: the workload vocabulary of the
//! `graphh-node` binary and the value-file format it writes.
//!
//! A multi-process run has no shared memory, so every node process rebuilds
//! the *same* graph and partition from the same CLI parameters
//! ([`NodeWorkload::build`] is deterministic: seeded generators, order-
//! preserving partitioning) and then exchanges only broadcast frames over
//! TCP. The launcher (CI smoke job, the `multiprocess` integration test)
//! builds the identical workload in-process to diff the nodes' value files
//! against the sequential reference executor.

use graphh_core::registry::{find_program, program_names, ProgramContext, ProgramOptions};
use graphh_core::GabProgram;
use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_graph::{Graph, GraphBuilder};
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use graphh_pool::WorkerPool;

/// Parameters that pin a node workload bit-for-bit across processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeWorkload {
    /// A [`graphh_core::registry`] program name (`pagerank`, `sssp`, `wcc`,
    /// `bfs`, `labelprop`, `degree-centrality`).
    pub program: String,
    /// Per-program `key=value` options (the `--program-arg` CLI values); must
    /// match on every process, like every other workload field.
    pub program_args: Vec<String>,
    /// RMAT scale (log2 vertices).
    pub scale: u32,
    /// RMAT edge factor.
    pub edge_factor: u32,
    /// Generator seed.
    pub seed: u64,
    /// Target tile count for the SPE.
    pub tiles: u32,
    /// Superstep cap handed to the program (only to programs that take one).
    pub supersteps: u32,
}

impl NodeWorkload {
    /// Deterministically construct the graph, partition and program every
    /// process of the cluster must agree on.
    ///
    /// The program comes from the registry; the graph is a seeded RMAT,
    /// symmetrised first when the program's [`ProgramSpec::symmetrize_input`]
    /// contract asks for it (WCC, label propagation).
    ///
    /// [`ProgramSpec::symmetrize_input`]: graphh_core::registry::ProgramSpec::symmetrize_input
    pub fn build(
        &self,
        pool: &WorkerPool,
    ) -> Result<(PartitionedGraph, Box<dyn GabProgram>), String> {
        let spec = find_program(&self.program).ok_or_else(|| {
            format!(
                "unknown program {:?} (expected one of: {})",
                self.program,
                program_names()
            )
        })?;
        self.check_size()?;
        let graph: Graph = if spec.symmetrize_input {
            let base = RmatGenerator::new(self.scale, self.edge_factor)
                .simplified()
                .generate(self.seed);
            let mut b = GraphBuilder::new()
                .with_num_vertices(base.num_vertices())
                .symmetric(true);
            for e in base.edges().iter() {
                b.add_edge(e);
            }
            b.build().map_err(|e| format!("symmetrise graph: {e}"))?
        } else {
            RmatGenerator::new(self.scale, self.edge_factor).generate(self.seed)
        };
        let ctx = ProgramContext::new(graph.out_degrees());
        let mut opts = ProgramOptions::parse(&self.program_args)?;
        // The workload-level superstep cap feeds programs that take one
        // (explicit program args still win: options are last-write-wins and
        // this default is prepended conceptually, appended never overriding).
        if spec.accepts("supersteps") && opts.get("supersteps").is_none() {
            opts.set("supersteps", &self.supersteps.to_string());
        }
        let program = spec.build(&ctx, &opts)?;
        let partitioned = Spe::partition_with_pool(
            &graph,
            &SpeConfig::with_tile_count("node", &graph, self.tiles),
            pool,
        )
        .map_err(|e| format!("partition: {e}"))?;
        Ok((partitioned, program))
    }

    /// The sizes come from the command line and the generator allocates for
    /// them up front: vertex ids are `u32`, and an edge list indexes its
    /// edges in `u32` when it sorts them.
    fn check_size(&self) -> Result<(), String> {
        if self.scale > 31 {
            return Err(format!(
                "--scale {} asks for 2^{} vertices; vertex ids are 32 bits, so at most 31",
                self.scale, self.scale
            ));
        }
        let edges = u64::from(self.edge_factor) << self.scale;
        if edges > u64::from(u32::MAX) {
            return Err(format!(
                "--scale {} with --edge-factor {} asks for {edges} edges; \
                 an edge list holds fewer than 2^32",
                self.scale, self.edge_factor
            ));
        }
        Ok(())
    }
}

// The GHHV value-file codec now lives in the runtime (it is also the value
// section of GHHC checkpoint files — `graphh_runtime::checkpoint`); re-export
// it under its historical home so launchers keep one import path.
pub use graphh_runtime::{decode_values, encode_values, VALUES_MAGIC};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_losslessly() {
        let values = vec![
            0.0,
            -1.5,
            f64::MAX,
            1e-300,
            f64::from_bits(0x7ff8_0000_0000_0001),
        ];
        let decoded = decode_values(&encode_values(&values)).unwrap();
        assert_eq!(values.len(), decoded.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_values(b"nope").is_err());
    }

    #[test]
    fn workload_build_is_deterministic_across_calls() {
        let w = NodeWorkload {
            program: "pagerank".into(),
            program_args: Vec::new(),
            scale: 7,
            edge_factor: 4,
            seed: 11,
            tiles: 6,
            supersteps: 3,
        };
        let pool = WorkerPool::with_host_parallelism();
        let (a, _) = w.build(&pool).unwrap();
        let (b, _) = w.build(&pool).unwrap();
        assert_eq!(a.tiles, b.tiles);
        assert_eq!(a.in_degrees, b.in_degrees);
    }

    /// Checked before anything is generated: `--scale 32` used to abort the
    /// process on a 96 GB allocation.
    #[test]
    fn sizes_past_32_bits_are_rejected_by_flag_name() {
        let sized = |scale, edge_factor| NodeWorkload {
            program: "pagerank".into(),
            program_args: Vec::new(),
            scale,
            edge_factor,
            seed: 1,
            tiles: 2,
            supersteps: 1,
        };
        let pool = WorkerPool::new(1);
        let refusal = |scale, edge_factor| {
            let built = sized(scale, edge_factor).build(&pool);
            built.err().expect("a size the id types cannot hold")
        };
        for scale in [32, 40, 64, u32::MAX] {
            let err = refusal(scale, 1);
            assert!(err.contains("--scale"), "{err}");
        }
        for (scale, edge_factor) in [(31, 2), (28, 16), (4, u32::MAX), (1, u32::MAX)] {
            let err = refusal(scale, edge_factor);
            assert!(err.contains("--edge-factor"), "{err}");
        }
        assert!(sized(4, 3).build(&pool).is_ok());
    }

    #[test]
    fn unknown_program_is_rejected() {
        let w = NodeWorkload {
            program: "frobnicate".into(),
            program_args: Vec::new(),
            scale: 5,
            edge_factor: 2,
            seed: 1,
            tiles: 2,
            supersteps: 1,
        };
        assert!(w.build(&WorkerPool::new(1)).is_err());
    }
}
