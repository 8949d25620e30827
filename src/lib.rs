//! # graphh
//!
//! Facade crate for the GraphH reproduction (CLUSTER 2017: *GraphH: High Performance
//! Big Graph Analytics in Small Clusters*, Sun et al.). It re-exports the public API
//! of every workspace crate so applications can depend on a single crate:
//!
//! ```
//! use graphh::prelude::*;
//!
//! // 1. Get a graph (here: a small synthetic web-like graph).
//! let graph = RmatGenerator::new(10, 8).generate(42);
//!
//! // 2. Pre-process it into tiles (the paper's SPE / two-stage partitioning).
//! let partitioned = Spe::partition(&graph, &SpeConfig::with_tile_count("demo", &graph, 16)).unwrap();
//!
//! // 3. Run a GAB program on a simulated cluster (the paper's MPE).
//! let engine = GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(3)));
//! let result = engine.run(&partitioned, &PageRank::new(10)).unwrap();
//!
//! assert_eq!(result.values.len() as u64, graph.num_vertices());
//! assert!(result.metrics.total_seconds() > 0.0);
//! ```
//!
//! The individual layers are documented in their own crates:
//!
//! * [`graph`] — graph data structures, generators, dataset stand-ins,
//! * [`storage`] — the tile store: memory or directory backends behind one
//!   trait, metered,
//! * [`compress`] — snappy / zlib / varint-delta codecs,
//! * [`partition`] — two-stage partitioning into tiles,
//! * [`cluster`] — the simulated cluster: config, metrics, cost model, broadcast,
//! * [`cache`] — the edge cache,
//! * [`pool`] — the persistent fork-join worker pool behind intra-server tile
//!   parallelism (the paper's `T` compute threads) and the SPE's parallel
//!   passes,
//! * [`core`] — the GAB model, the GraphH engine, executors and the algorithms,
//! * [`runtime`] — the parallel worker runtime (one OS thread per server ×
//!   `T` tile threads inside it; broadcast planes over in-process channels or
//!   TCP sockets — the latter runs each server as its own process via the
//!   `graphh-node` binary; the planes' end-of-superstep markers are the
//!   superstep barrier),
//! * [`baselines`] — Pregel+, GraphD, PowerGraph, PowerLyra and Chaos.
//!
//! To run the engine on real threads instead of the sequential reference loop:
//!
//! ```
//! use graphh::prelude::*;
//! use std::sync::Arc;
//!
//! let graph = RmatGenerator::new(8, 4).generate(1);
//! let partitioned = Spe::partition(&graph, &SpeConfig::with_tile_count("demo", &graph, 8)).unwrap();
//! let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3));
//! let threaded = GraphHEngine::with_executor(config, Arc::new(ThreadedExecutor::new()));
//! let result = threaded.run(&partitioned, &PageRank::new(5)).unwrap();
//! assert_eq!(result.executor, "threaded");
//! ```

pub use graphh_baselines as baselines;
pub use graphh_cache as cache;
pub use graphh_cluster as cluster;
pub use graphh_compress as compress;
pub use graphh_core as core;
pub use graphh_graph as graph;
pub use graphh_obs as obs;
pub use graphh_partition as partition;
pub use graphh_pool as pool;
pub use graphh_runtime as runtime;
pub use graphh_storage as storage;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use graphh_baselines::{
        ChaosConfig, ChaosEngine, CostSheet, GasConfig, GasEngine, PregelConfig, PregelEngine,
        SystemKind,
    };
    pub use graphh_cache::{CacheMode, EdgeCache, EdgeCacheConfig};
    pub use graphh_cluster::{ClusterConfig, CommunicationMode, CostModel, MachineSpec};
    pub use graphh_compress::Codec;
    pub use graphh_core::{
        Bfs, DegreeCentrality, Direction, DirectionMode, DirectionOptimizingBfs, Executor,
        FrontierStats, GabProgram, GraphHConfig, GraphHEngine, LabelPropagation, PageRank,
        RunResult, SequentialExecutor, Sssp, Wcc,
    };
    pub use graphh_graph::datasets::{Dataset, DatasetSpec};
    pub use graphh_graph::generators::{
        ChungLuGenerator, ErdosRenyiGenerator, GraphGenerator, RmatGenerator,
    };
    pub use graphh_graph::{Edge, EdgeList, Graph, GraphBuilder};
    pub use graphh_partition::{PartitionedGraph, Spe, SpeConfig, Tile};
    pub use graphh_runtime::ThreadedExecutor;
    pub use graphh_storage::{LocalDiskBackend, MemoryBackend, StorageBackend};
}
