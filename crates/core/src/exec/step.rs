//! One server's GAB superstep (§III-C, Algorithm 5) as four calls, with no
//! transport, clock or scheduling inside.
//!
//! A [`WorkerStep`] owns one server's [`ServerState`], the superstep's
//! [`UpdateRuns`], the replicated frontier, its encode lanes and the
//! superstep's [`ServerMetrics`]. A driver runs each superstep as
//!
//! 1. [`WorkerStep::compute`] — the frontier view, then the tile phase;
//! 2. [`WorkerStep::encode`] — encode + compress this server's messages over
//!    its compute pool and charge the sends; its own updates join the merge
//!    as they are, without a decode; the wires come back in message order;
//! 3. [`WorkerStep::receive`], once per peer wire, in any order;
//! 4. [`WorkerStep::apply`] — merge, apply to the replica, record the
//!    superstep's metrics.
//!
//! and stops when [`WorkerStep::next_superstep`] says the run is over. Three
//! drivers share it: [`super::sequential::SequentialExecutor`] steps every
//! server on the calling thread, and `graphh-runtime`'s `run_worker` steps
//! one server over a broadcast plane — under the threaded executor and under
//! `graphh-node`. The delivery order of peer wires cannot change a replica or
//! a frontier: every message is an ascending run over its own tile's range,
//! so no vertex is named twice and the merged frontier is ascending whatever
//! order the runs arrived in.

use super::{ExecutionPlan, ServerState, UpdateRuns};
use crate::engine::GraphHConfig;
use crate::gab::{Direction, GabProgram};
use crate::{EngineError, Result};
use graphh_cluster::{BroadcastMessage, ServerMetrics};
use graphh_compress::{Codec, CompressorScratch};
use graphh_graph::ids::{ServerId, VertexId};
use graphh_obs::{global_counters, Counter, Tracer};
use graphh_partition::PartitionedGraph;
use graphh_storage::IoSnapshot;
use std::sync::{Mutex, PoisonError};

/// One message's slot in the encode phase: its wire bytes and the
/// compression seconds it was charged. The charges are summed in message
/// order, which keeps the wire byte stream and the float sum of the
/// compression charge the same for any schedule. Lanes live for the run, so
/// a steady-state superstep reuses them and allocates nothing.
#[derive(Default)]
struct Lane {
    wire: Vec<u8>,
    compress_seconds: f64,
}

/// What one thread of the encode phase encodes with, kept across messages
/// and supersteps: the plain encoding of the message at hand, and the LZSS
/// match-finder tables (256 KB once warm). One per pool thread, not one per
/// message — the bytes they produce do not depend on which one is used.
#[derive(Default)]
struct Encoder {
    scratch: Vec<u8>,
    comp: CompressorScratch,
}

/// What one server hands back when its run is over.
#[derive(Debug)]
pub struct WorkerOutput {
    /// The server.
    pub server: ServerId,
    /// Final vertex values of its replica.
    pub values: Vec<f64>,
    /// Codec its edge cache selected.
    pub cache_codec: Codec,
    /// What its local disk moved during the run
    /// ([`ServerState::io_snapshot`]).
    pub io: IoSnapshot,
    /// The superstep cursor at the end: every superstep below it has run.
    pub supersteps_run: u32,
    /// This server's metered work, one entry per superstep it executed (from
    /// its restore cursor on, when it was restored). Each entry's
    /// `vertices_updated` is the superstep's cluster-wide update count — the
    /// same on every server, which applies the same merged update set.
    pub metrics: Vec<ServerMetrics>,
}

/// One server's superstep body: see the module docs.
pub struct WorkerStep<'a> {
    plan: &'a ExecutionPlan,
    program: &'a dyn GabProgram,
    use_bloom: bool,
    num_servers: u32,
    server: ServerState,
    /// The superstep the next [`Self::compute`] runs.
    cursor: u32,
    /// Vertices updated in the previous superstep, ascending.
    frontier: Vec<VertexId>,
    /// This superstep's updates, own and received, one run per message.
    updates: UpdateRuns,
    /// The tile phase's messages, until [`Self::encode`] ships them.
    messages: Vec<BroadcastMessage>,
    /// One per message, grown to the widest superstep. Every mutex here is
    /// uncontended by construction: lane `i` and encoder `j` are touched only
    /// by encode job `j = i % encoders.len()`.
    lanes: Vec<Mutex<Lane>>,
    encoders: Vec<Mutex<Encoder>>,
    /// Decompression scratch of the receive path.
    dec_scratch: Vec<u8>,
    /// This superstep's metered work so far.
    metrics: ServerMetrics,
    /// One finished entry per superstep executed.
    history: Vec<ServerMetrics>,
    dir_pull: Counter,
    dir_push: Counter,
}

/// A broadcast no honest peer sends.
fn corrupt(why: String) -> EngineError {
    EngineError::BadInput(format!("corrupt broadcast: {why}"))
}

impl<'a> WorkerStep<'a> {
    /// Build server `sid` (see [`ServerState::build`]), its compute pool's
    /// spans routed to lanes `100 * (1 + sid) + worker_index` of `tracer`,
    /// at superstep 0 with the plan's initial frontier.
    pub fn new(
        config: &GraphHConfig,
        plan: &'a ExecutionPlan,
        partitioned: &PartitionedGraph,
        program: &'a dyn GabProgram,
        sid: ServerId,
        tracer: &Tracer,
    ) -> Self {
        let server = ServerState::build(config, plan, partitioned, sid);
        server.set_tracer(tracer.clone(), 100 * (1 + sid));
        let encoders = (0..server.pool().threads()).map(|_| Mutex::default());
        // Fetched once: the registry lookup locks, the adds do not.
        let counters = global_counters();
        Self {
            plan,
            program,
            use_bloom: config.use_bloom_filter,
            num_servers: config.cluster.num_servers,
            server,
            cursor: 0,
            frontier: plan.initial_frontier(),
            updates: UpdateRuns::new(),
            messages: Vec::new(),
            lanes: Vec::new(),
            encoders: encoders.collect(),
            dec_scratch: Vec::new(),
            metrics: ServerMetrics::default(),
            history: Vec::new(),
            dir_pull: counters.counter("exec.direction.pull"),
            dir_push: counters.counter("exec.direction.push"),
        }
    }

    /// Re-enter the run at `next_superstep` with a snapshotted replica and
    /// frontier. Supersteps are deterministic, so this recomputes exactly the
    /// run the snapshot was taken from; the caller checks that the snapshot
    /// fits the plan.
    pub fn restore(&mut self, next_superstep: u32, values: Vec<f64>, frontier: Vec<VertexId>) {
        self.cursor = next_superstep;
        self.server.values = values;
        self.frontier = frontier;
    }

    /// The superstep the next [`Self::compute`] runs, or `None` once the run
    /// is over: the superstep cap is reached, or a superstep updated nothing.
    /// (A run that starts from an empty frontier still runs superstep 0.)
    pub fn next_superstep(&self) -> Option<u32> {
        let converged = self.cursor > 0 && self.frontier.is_empty();
        (self.cursor < self.plan.max_supersteps && !converged).then_some(self.cursor)
    }

    /// The superstep the next [`Self::compute`] would run: every superstep
    /// below it has been applied (or restored).
    pub fn cursor(&self) -> u32 {
        self.cursor
    }

    /// The server this step runs.
    pub fn server(&self) -> ServerId {
        self.server.id
    }

    /// The replicated frontier: the vertices the last applied superstep
    /// updated, ascending.
    pub fn frontier(&self) -> &[VertexId] {
        &self.frontier
    }

    /// This server's replica.
    pub fn values(&self) -> &[f64] {
        &self.server.values
    }

    /// Swap the tile phase's prepared-values array with `prepared`: a driver
    /// that runs its servers one at a time lends one array to each in turn.
    pub(crate) fn swap_prepared(&mut self, prepared: &mut Vec<f64>) {
        std::mem::swap(&mut self.server.prepared, prepared);
    }

    /// Run the tile phase of the current superstep; returns the direction
    /// every server resolved from the replicated frontier. Server 0 counts it
    /// under `exec.direction.*`, once per superstep for the whole cluster.
    pub fn compute(&mut self) -> Result<Direction> {
        let view = self.plan.frontier_view(self.program, &self.frontier);
        if self.server.id == 0 {
            match view.direction {
                Direction::Push => self.dir_push.add(1),
                Direction::Pull => self.dir_pull.add(1),
            }
        }
        let phase = self.server.run_tile_phase(
            self.program,
            self.plan,
            self.cursor,
            &view,
            self.use_bloom,
        )?;
        // Merged, not assigned: a peer's wires may have arrived already.
        self.metrics.merge(&phase.metrics);
        self.messages = phase.messages;
        Ok(view.direction)
    }

    /// Encode and compress the tile phase's messages over the server's
    /// compute pool, one job per pool thread taking every `jobs`-th message;
    /// charge every send to the `num_servers - 1` peers; add the messages'
    /// own updates to the merge as they are (the wire format is lossless).
    /// Returns the wire bytes, in message order.
    pub fn encode(&mut self) -> impl Iterator<Item = &[u8]> {
        let (messages, n) = (&self.messages, self.messages.len());
        if self.lanes.len() < n {
            self.lanes.resize_with(n, Mutex::default);
        }
        let (lanes, encoders) = (&self.lanes, &self.encoders);
        let (codec, jobs) = (&self.plan.message_codec, encoders.len().min(n));
        self.server
            .pool()
            .fork_join_ordered_named(jobs, "encode-compress", |job| {
                let mut encoder = encoders[job].lock().unwrap_or_else(PoisonError::into_inner);
                let Encoder { scratch, comp } = &mut *encoder;
                for i in (job..n).step_by(jobs) {
                    let mut lane = lanes[i].lock().unwrap_or_else(PoisonError::into_inner);
                    let mut charged = ServerMetrics::default();
                    codec.encode_into_with(
                        &messages[i],
                        &mut charged,
                        scratch,
                        &mut lane.wire,
                        comp,
                    );
                    lane.compress_seconds = charged.compress_seconds;
                }
            });
        let fanout = u64::from(self.num_servers - 1);
        for (message, lane) in self.messages.drain(..).zip(&mut self.lanes) {
            let lane = lane.get_mut().unwrap_or_else(PoisonError::into_inner);
            self.metrics.compress_seconds += lane.compress_seconds;
            self.metrics.network_sent_bytes += lane.wire.len() as u64 * fanout;
            self.metrics.network_messages += fanout;
            self.updates.extend_run(&message.updates);
        }
        self.lanes[..n].iter_mut().map(|lane| {
            let lane = lane.get_mut().unwrap_or_else(PoisonError::into_inner);
            lane.wire.as_slice()
        })
    }

    /// Decode one peer's wire message into this superstep's merge, charging
    /// its bytes and decompression to this server. The message is outside
    /// input: a decode error, or a range past the graph, is `Err` — the
    /// partial run it leaves is never applied, since the run aborts.
    pub fn receive(&mut self, wire: &[u8]) -> Result<()> {
        self.metrics.network_received_bytes += wire.len() as u64;
        let updates = &mut self.updates;
        let header = self
            .plan
            .message_codec
            .decode_each(wire, &mut self.metrics, &mut self.dec_scratch, |v, val| {
                updates.push(v, val)
            })
            .map_err(corrupt)?;
        updates.end_run();
        // `decode_each` bounds the ids by the message's own range; that range
        // is wire bytes too, so bound it by the graph before an id can index
        // the replica.
        if u64::from(header.range_end) > self.plan.num_vertices {
            return Err(corrupt(format!(
                "range end {} exceeds vertex count {}",
                header.range_end, self.plan.num_vertices
            )));
        }
        Ok(())
    }

    /// Merge the superstep's updates into the next frontier, apply them to
    /// the replica and record the superstep's metrics. Two messages that
    /// update one vertex were sent by a corrupt peer — applying either value
    /// could set this replica apart from the others without a word — so they
    /// are `Err`.
    pub fn apply(&mut self) -> Result<()> {
        let superstep = self.cursor;
        self.updates.merge(&mut self.frontier).map_err(|vertex| {
            corrupt(format!(
                "two messages overlap at vertex {vertex} in superstep {superstep}"
            ))
        })?;
        self.server.apply_updates(self.updates.as_slice());
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.vertices_updated = self.frontier.len() as u64;
        metrics.peak_memory_bytes = self.server.peak_memory();
        self.history.push(metrics);
        self.updates.clear();
        self.cursor += 1;
        Ok(())
    }

    /// End the run: flush the server's storage, cache and compressor
    /// statistics into the global counters and hand back its output.
    pub fn finish(mut self) -> WorkerOutput {
        self.server.publish_observability();
        for encoder in &mut self.encoders {
            let encoder = encoder.get_mut().unwrap_or_else(PoisonError::into_inner);
            encoder.comp.publish_observability();
        }
        WorkerOutput {
            server: self.server.id,
            cache_codec: self.server.cache_codec(),
            io: self.server.io_snapshot(),
            supersteps_run: self.cursor,
            metrics: self.history,
            values: self.server.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PageRank;
    use graphh_cluster::ClusterConfig;
    use graphh_graph::generators::path_graph;
    use graphh_partition::{Spe, SpeConfig};

    /// The superstep buffers are refilled in place, not replaced: once the
    /// first superstep has grown them, the merge's update buffer, the
    /// frontier and every lane's wire keep their allocations superstep after
    /// superstep (the clear-and-reuse contract `tests/alloc_count.rs`
    /// measures on the wire path).
    #[test]
    fn a_step_reuses_its_buffers_across_supersteps() {
        let g = path_graph(64);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(6);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        let mut step = WorkerStep::new(&config, &plan, &p, &program, 0, &Tracer::off());
        let mut first = None;
        while let Some(superstep) = step.next_superstep() {
            step.compute().unwrap();
            assert!(step.encode().count() > 0);
            step.apply().unwrap();
            let lane = step.lanes[0].get_mut().unwrap();
            let buffers = (
                step.updates.as_slice().as_ptr(),
                step.frontier.as_ptr(),
                lane.wire.as_ptr(),
            );
            assert_eq!(
                *first.get_or_insert(buffers),
                buffers,
                "superstep {superstep}"
            );
        }
        let output = step.finish();
        assert_eq!((output.supersteps_run, output.metrics.len()), (6, 6));
    }
}
