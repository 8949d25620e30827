//! The four workloads: what each runs, on which graph, through which
//! driver. Sizes were chosen so that one program run takes a fraction of a
//! second on one core — a pass reports the fastest repetition of each, and
//! only short runs are regularly undisturbed on a shared host; the README
//! records how they were cut down from the issue's sizing.

use crate::inputs::{pick_corner, pick_sources, GraphKind};
use crate::verify;
use graphh::partition::TileAssignment;
use graphh::prelude::*;

/// Simulated servers of every run, one compute thread each.
pub const SERVERS: u32 = 2;

/// The RMAT graph the three RMAT workloads share.
const RMAT: GraphKind = GraphKind::Rmat {
    scale: 17,
    edge_factor: 16,
};

/// How a workload is executed and timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Two `graphh-node` processes per trial.
    Cluster,
    /// `GraphHEngine::with_executor(cfg, ThreadedExecutor)` in this process;
    /// `out_of_core` shrinks the edge cache to a quarter of the tiles.
    Engine { out_of_core: bool },
}

/// What a workload computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    PageRank {
        supersteps: u32,
    },
    /// SSSP from the grid corner the seed picks.
    SsspFromCorner,
    /// Direction-optimizing BFS from this many seeded sources; one trial
    /// runs them all.
    BfsFromSources {
        count: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub graph: GraphKind,
    pub tiles: u32,
    pub kernel: Kernel,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "pr-cluster",
        driver: Driver::Cluster,
        graph: RMAT,
        tiles: 64,
        kernel: Kernel::PageRank { supersteps: 12 },
    },
    Workload {
        name: "sssp-grid",
        driver: Driver::Engine { out_of_core: false },
        graph: GraphKind::Grid { side: 128 },
        tiles: 32,
        kernel: Kernel::SsspFromCorner,
    },
    Workload {
        name: "pr-outofcore",
        driver: Driver::Engine { out_of_core: true },
        graph: RMAT,
        tiles: 64,
        kernel: Kernel::PageRank { supersteps: 3 },
    },
    Workload {
        name: "bfs-rmat",
        driver: Driver::Engine { out_of_core: false },
        graph: RMAT,
        tiles: 64,
        kernel: Kernel::BfsFromSources { count: 8 },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// One program run of a trial, with the inputs the seed chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    PageRank { supersteps: u32 },
    Sssp { source: u32 },
    Bfs { source: u32 },
}

impl Job {
    pub fn program(self) -> Box<dyn GabProgram> {
        match self {
            Job::PageRank { supersteps } => Box::new(PageRank::new(supersteps)),
            Job::Sssp { source } => Box::new(Sssp::new(source)),
            Job::Bfs { source } => Box::new(DirectionOptimizingBfs::new(source)),
        }
    }

    /// The kernel's structural check (see [`crate::verify`]).
    pub fn check(self, graph: &Graph, values: &[f64]) -> Result<(), String> {
        match self {
            Job::PageRank { supersteps } => verify::check_pagerank(graph, supersteps, values),
            Job::Sssp { source } => verify::check_levels(graph, source, false, values),
            Job::Bfs { source } => verify::check_levels(graph, source, true, values),
        }
    }
}

impl Workload {
    /// The program runs of one trial.
    pub fn jobs(&self, seed: u64, graph: &Graph) -> Vec<Job> {
        match (self.kernel, self.graph) {
            (Kernel::PageRank { supersteps }, _) => vec![Job::PageRank { supersteps }],
            (Kernel::SsspFromCorner, GraphKind::Grid { side }) => vec![Job::Sssp {
                source: pick_corner(side, seed),
            }],
            (Kernel::SsspFromCorner, GraphKind::Rmat { .. }) => {
                unreachable!("corner sources exist on grids only")
            }
            (Kernel::BfsFromSources { count }, _) => pick_sources(graph.out_degrees(), seed, count)
                .into_iter()
                .map(|source| Job::Bfs { source })
                .collect(),
        }
    }

    /// The engine configuration of the in-process runs, which is also what
    /// `graphh-node --servers 2 --threads-per-server 1` builds for itself.
    pub fn config(&self, partitioned: &PartitionedGraph) -> GraphHConfig {
        let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
            .with_threads_per_server(1);
        if self.driver == (Driver::Engine { out_of_core: true }) {
            // A quarter of the fuller server's tile bytes. `Auto` then picks
            // zlib-1 on both servers (estimated ratio 4 just fits); a quarter
            // of the *mean* would sit on the selector's boundary and flip one
            // server to zlib-3 depending on the seed.
            let assignment = TileAssignment::round_robin(partitioned.num_tiles(), SERVERS);
            let fullest = (0..SERVERS)
                .map(|sid| {
                    assignment
                        .tiles_of(sid)
                        .iter()
                        .map(|&t| partitioned.tiles[t as usize].serialized_size())
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            config.cache_capacity = Some(fullest.div_ceil(4));
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn workloads_match_the_spec_table() {
        let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        let spec_names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, spec_names);
        assert_eq!(find("sssp-grid").map(|w| w.tiles), Some(32));
        assert!(find("nope").is_none());
    }
}
