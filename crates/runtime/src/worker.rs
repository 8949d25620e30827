//! The per-server worker: one server's [`WorkerStep`] driven over a
//! [`BroadcastPlane`].
//!
//! Each superstep, [`run_worker`] asks the step to compute its tiles,
//! broadcasts the wires it encodes, ends the superstep on the plane, hands
//! every wire the plane collects to the step, and has it apply the merged
//! updates — the superstep body the in-process executors step too, so
//! `graphh-node` stays bit-identical to them. Then
//! [`acknowledge_durable`] writes a checkpoint when one is due and
//! acknowledges what is durable.
//! Every replica applies the same merged update set, so every worker reaches
//! the same continue/stop decision.
//!
//! There is no separate barrier: `collect(s)` returning *is* the barrier —
//! every peer's end-of-superstep marker for `s` has arrived, and a faster
//! peer's `s + 1` frames wait in the collector's stash until this worker
//! gets there.

use crate::checkpoint::{Checkpoint, CheckpointSink};
use crate::plane::{BroadcastPlane, PlaneError};
use graphh_core::exec::{ExecutionPlan, WorkerOutput, WorkerStep};
use graphh_core::gab::GabProgram;
use graphh_core::{EngineError, GraphHConfig};
use graphh_graph::ids::ServerId;
use graphh_obs::Tracer;
use graphh_partition::PartitionedGraph;

/// Reject a checkpoint the plan cannot run on server `sid` — it is file
/// bytes: another server's snapshot, a replica that is not one value per
/// vertex, a frontier that is not strictly ascending inside the graph, a
/// cursor past the run's last superstep.
fn check_restore(
    plan: &ExecutionPlan,
    sid: ServerId,
    resume: &Checkpoint,
) -> Result<(), EngineError> {
    let n = plan.num_vertices;
    let values = resume.values.len() as u64;
    let frontier = &resume.frontier;
    let why = if resume.server != sid {
        format!("server {}'s checkpoint on server {sid}", resume.server)
    } else if values != n {
        format!("{values} replica values for a {n}-vertex graph")
    } else if let Some(pair) = frontier.windows(2).find(|pair| pair[0] >= pair[1]) {
        let (a, b) = (pair[0], pair[1]);
        format!("frontier lists vertex {a} before vertex {b}; it must be strictly ascending")
    } else if let Some(v) = frontier.last().filter(|&&v| u64::from(v) >= n) {
        format!("frontier vertex {v} outside the {n}-vertex graph")
    } else if resume.next_superstep > plan.max_supersteps {
        let (s, max) = (resume.next_superstep, plan.max_supersteps);
        format!("cursor at superstep {s}, past the run's {max} supersteps")
    } else {
        return Ok(());
    };
    Err(EngineError::BadInput(format!("checkpoint restore: {why}")))
}

fn plane_error(e: PlaneError) -> EngineError {
    EngineError::BadInput(format!("broadcast plane failure: {e}"))
}

/// Optional behaviors of [`run_worker`] beyond the plain superstep loop.
/// [`Default`] is a fresh start at superstep 0, no checkpoints, no delay.
#[derive(Default)]
pub struct WorkerOptions {
    /// The checkpoint to resume from: the worker re-enters the run at its
    /// cursor with its replica and frontier, and relies on peers replaying
    /// the delta. It is file bytes, so it must fit the plan and this server.
    pub resume: Option<Checkpoint>,
    /// Periodic checkpoint writer. When set, the worker snapshots replica
    /// values + superstep cursor after every due superstep and only
    /// acknowledges durability ([`BroadcastPlane::acknowledge`]) for
    /// checkpointed supersteps — so peers retain exactly the replay delta a
    /// restart would need. When unset, every superstep is acknowledged as it
    /// completes (in-memory state is durable enough for transient cuts).
    pub checkpoint: Option<CheckpointSink>,
    /// Artificial pause at the top of each superstep. A test aid that widens
    /// the window for killing a process mid-run; it never changes values.
    pub superstep_delay: Option<std::time::Duration>,
}

/// When a worker may acknowledge a superstep, for every driver of a
/// [`WorkerStep`]: `run_worker`, and the fault simulation in
/// `tests/fabric_sim.rs`, which checks this rule rather than a copy of it.
///
/// An ack of superstep `s` promises the peers that a restart will not need
/// `s`'s frames replayed, so they trim them. Call this once with the
/// checkpoint the worker resumes from (`None` on a fresh start), and again
/// with `None` after every applied superstep:
///
/// * a resumed step is restored from the checkpoint, and the ack of
///   `cursor - 1` it stands for is repeated: it may have died with the
///   process that made it, and with no superstep left to run every peer
///   would retain the final ones until it exits;
/// * with checkpoints kept every `every` supersteps, a due checkpoint is
///   written through `write` first and only then acknowledged, and a
///   superstep that is not due is not acknowledged at all;
/// * without checkpoints every superstep is acknowledged as it completes:
///   in-memory state is durable enough for transient cuts.
pub fn acknowledge_durable(
    step: &mut WorkerStep<'_>,
    resume: Option<Checkpoint>,
    every: Option<u32>,
    write: &mut dyn FnMut(&Checkpoint) -> Result<(), String>,
    ack: &mut dyn FnMut(u32) -> Result<(), PlaneError>,
) -> Result<(), EngineError> {
    let cursor = step.cursor();
    let durable = match (resume, every) {
        (Some(checkpoint), _) => {
            let cursor = checkpoint.next_superstep;
            step.restore(cursor, checkpoint.values, checkpoint.frontier);
            cursor.checked_sub(1)
        }
        // A fresh start has nothing durable yet.
        (None, _) if cursor == 0 => None,
        (None, None) => Some(cursor - 1),
        (None, Some(every)) if cursor.is_multiple_of(every) => {
            write(&Checkpoint {
                server: step.server(),
                next_superstep: cursor,
                frontier: step.frontier().to_vec(),
                values: step.values().to_vec(),
            })
            .map_err(|e| EngineError::BadInput(format!("checkpoint write: {e}")))?;
            Some(cursor - 1)
        }
        (None, Some(_)) => None,
    };
    match durable {
        Some(superstep) => ack(superstep).map_err(plane_error),
        None => Ok(()),
    }
}

/// Run server `sid` to completion on the calling thread.
///
/// Phase spans go to `tracer`: the worker records on lane `1 + sid`; its
/// server's pool jobs land on lanes `100 * (1 + sid) + worker_index` (see
/// `docs/OBSERVABILITY.md`). With the tracer off ([`Tracer::off`]) every span
/// call is a no-op that reads no clock and allocates nothing.
///
/// On *any* exit that is not a clean finish — an `Err` return or a panic
/// (e.g. a user `GabProgram` indexing out of bounds) — the peers are
/// unblocked by an abort frame on the plane: the only place a peer can be
/// parked is `collect`, and an abort fails every collect.
#[allow(clippy::too_many_arguments)]
pub fn run_worker(
    config: &GraphHConfig,
    plan: &ExecutionPlan,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    sid: ServerId,
    plane: &mut dyn BroadcastPlane,
    tracer: &Tracer,
    options: WorkerOptions,
) -> Result<WorkerOutput, EngineError> {
    let WorkerOptions {
        resume,
        checkpoint: sink,
        superstep_delay,
    } = options;
    if let Some(Err(e)) = resume.as_ref().map(|c| check_restore(plan, sid, c)) {
        plane.abort();
        return Err(e);
    }
    let mut rec = tracer.thread(1 + sid);
    let load = rec.begin();
    let mut step = WorkerStep::new(config, plan, partitioned, program, sid, tracer);
    rec.end(load, "server-build", "load");

    let rec = &mut rec;
    let body = std::panic::AssertUnwindSafe(|| -> Result<(), EngineError> {
        let every = sink.as_ref().map(|sink| sink.every);
        let mut write = |checkpoint: &Checkpoint| {
            let sink = sink.as_ref().expect("written only with a sink");
            sink.write(checkpoint).map(drop)
        };
        let mut ack = |superstep| plane.acknowledge(superstep);
        acknowledge_durable(&mut step, resume, every, &mut write, &mut ack)?;
        while let Some(superstep) = step.next_superstep() {
            if let Some(delay) = superstep_delay {
                std::thread::sleep(delay);
            }
            let compute = rec.begin();
            let direction = step.compute()?;
            rec.end_superstep_dir(
                compute,
                "tile-compute",
                "superstep",
                superstep,
                direction.as_str(),
            );
            let publish = rec.begin();
            for wire in step.encode() {
                plane.broadcast(superstep, wire).map_err(plane_error)?;
            }
            rec.end_superstep(publish, "encode-publish", "superstep", superstep);
            let flush = rec.begin();
            plane.end_superstep(superstep).map_err(plane_error)?;
            rec.end_superstep(flush, "plane-flush", "superstep", superstep);
            let exchange = rec.begin();
            for wire in plane.collect(superstep).map_err(plane_error)? {
                step.receive(&wire)?;
            }
            rec.end_superstep(exchange, "collect-decode", "superstep", superstep);
            let apply = rec.begin();
            step.apply()?;
            rec.end_superstep(apply, "apply", "superstep", superstep);

            let mut ack = |superstep| plane.acknowledge(superstep);
            acknowledge_durable(&mut step, None, every, &mut write, &mut ack)?;
        }
        Ok(())
    });

    // catch_unwind so a panicking worker (not just an erroring one) still
    // releases its peers before the panic is re-raised.
    // (AssertUnwindSafe implements FnOnce, so it is passed directly — wrapping
    // it in another closure would capture the inner closure field and lose
    // the unwind-safety assertion.)
    match std::panic::catch_unwind(body) {
        Ok(Ok(())) => Ok(step.finish()),
        Ok(Err(e)) => {
            plane.abort();
            Err(e)
        }
        Err(payload) => {
            plane.abort();
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::WireMessage;
    use graphh_cluster::{BroadcastMessage, ClusterConfig, CommunicationMode, ServerMetrics};
    use graphh_compress::Codec;
    use graphh_core::PageRank;
    use graphh_graph::generators::path_graph;
    use graphh_partition::{Spe, SpeConfig};

    /// A plane that hands the worker one attacker-controlled wire message,
    /// if given one, and records the markers and acks it is told, in order.
    #[derive(Default)]
    struct TestPlane {
        payload: Option<WireMessage>,
        calls: Vec<(&'static str, u32)>,
    }

    impl BroadcastPlane for TestPlane {
        fn num_servers(&self) -> u32 {
            2
        }
        fn server_id(&self) -> ServerId {
            0
        }
        fn broadcast(&mut self, _superstep: u32, _wire: &[u8]) -> Result<(), PlaneError> {
            Ok(())
        }
        fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError> {
            self.calls.push(("end", superstep));
            Ok(())
        }
        fn collect(&mut self, _superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
            Ok(self.payload.take().into_iter().collect())
        }
        fn acknowledge(&mut self, superstep: u32) -> Result<(), PlaneError> {
            self.calls.push(("ack", superstep));
            Ok(())
        }
        fn abort(&mut self) {}
    }

    /// `PageRank(3)` over `path_graph(10)` on one server, started with
    /// `options` on a [`TestPlane`]: the result and the plane's calls.
    fn run_path_graph(
        options: WorkerOptions,
    ) -> (Result<WorkerOutput, EngineError>, Vec<(&'static str, u32)>) {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(3);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        assert_eq!(plan.max_supersteps, 3);
        let mut plane = TestPlane::default();
        let tracer = Tracer::off();
        let result = run_worker(
            &config, &plan, &p, &program, 0, &mut plane, &tracer, options,
        );
        (result, plane.calls)
    }

    /// A checkpoint of server 0 at `next_superstep`, holding `frontier` and
    /// the 10-vertex graph's first-superstep replica.
    fn checkpoint(next_superstep: u32, frontier: Vec<u32>) -> WorkerOptions {
        WorkerOptions {
            resume: Some(Checkpoint {
                server: 0,
                next_superstep,
                frontier,
                values: vec![0.1; 10],
            }),
            ..WorkerOptions::default()
        }
    }

    /// A checkpoint at cursor `s` promised `s - 1` durable, so a worker
    /// resumed there says so before anything else — even when nothing is left
    /// to run, which used to leave every peer retaining the final supersteps —
    /// and a fresh start acknowledges nothing before it has ended superstep 0.
    #[test]
    fn a_resumed_worker_repeats_the_ack_its_checkpoint_stands_for() {
        let calls_of = |options| {
            let (result, calls) = run_path_graph(options);
            result.unwrap();
            calls
        };
        let everything: Vec<u32> = (0..10).collect();
        // The cursor is past the last superstep: zero iterations, one ack.
        assert_eq!(calls_of(checkpoint(3, everything.clone())), [("ack", 2)]);
        // The run had terminated (empty frontier) before the process died.
        assert_eq!(calls_of(checkpoint(2, Vec::new())), [("ack", 1)]);
        // Mid-run: the repeated ack comes first, then the loop's own.
        let mid_run = calls_of(checkpoint(1, everything));
        assert_eq!(mid_run[..3], [("ack", 0), ("end", 1), ("ack", 1)]);
        // A fresh start has nothing to repeat.
        let fresh = calls_of(WorkerOptions::default());
        assert_eq!(fresh[..2], [("end", 0), ("ack", 0)]);
    }

    /// With checkpoints every 2 supersteps, a due checkpoint is written
    /// before its superstep is acknowledged, a superstep that is not due is
    /// not acknowledged, and a write that fails acknowledges nothing.
    #[test]
    fn a_due_checkpoint_is_written_before_its_ack() {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(3);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        let events = std::cell::RefCell::new(Vec::new());
        let run = |fail: bool| {
            let mut step = WorkerStep::new(&config, &plan, &p, &program, 0, &Tracer::off());
            let mut write = |c: &Checkpoint| {
                events.borrow_mut().push(("write", c.next_superstep));
                if fail {
                    return Err("disk full".to_string());
                }
                Ok(())
            };
            let mut ack = |superstep| {
                events.borrow_mut().push(("ack", superstep));
                Ok(())
            };
            acknowledge_durable(&mut step, None, Some(2), &mut write, &mut ack)?;
            while step.next_superstep().is_some() {
                step.compute()?;
                step.encode().for_each(drop);
                step.apply()?;
                acknowledge_durable(&mut step, None, Some(2), &mut write, &mut ack)?;
            }
            Ok::<_, EngineError>(())
        };
        run(false).unwrap();
        assert_eq!(events.take(), [("write", 2), ("ack", 1)]);
        let err = run(true).expect_err("the write failed");
        assert!(err.to_string().contains("checkpoint write: disk full"));
        assert_eq!(events.take(), [("write", 2)]);
    }

    /// Why a restore that does not fit the plan was refused.
    fn refused_restore(options: WorkerOptions) -> String {
        let err = run_path_graph(options)
            .0
            .expect_err("the restore must be refused");
        err.to_string()
    }

    /// A replica of any other length is refused — even with a frontier that
    /// keeps the run away from the missing ids, which used to return a
    /// 5-value replica for the 10-vertex graph.
    #[test]
    fn a_restored_replica_must_hold_one_value_per_vertex() {
        for len in [5, 11] {
            let mut options = checkpoint(1, Vec::new());
            options.resume.as_mut().unwrap().values = vec![0.0; len];
            let why = refused_restore(options);
            assert!(
                why.contains(&format!("{len} replica values for a 10-vertex")),
                "{why}"
            );
        }
    }

    /// A frontier id past the graph used to panic indexing the out-degrees.
    #[test]
    fn a_restored_frontier_must_ascend_inside_the_graph() {
        for (frontier, named) in [
            (vec![99], "frontier vertex 99 outside"),
            (vec![4, 1], "vertex 4 before vertex 1"),
            (vec![3, 3], "vertex 3 before vertex 3"),
        ] {
            let why = refused_restore(checkpoint(1, frontier));
            assert!(why.contains(named), "{why}");
        }
    }

    /// A cursor past the last superstep used to run nothing and return `Ok`.
    #[test]
    fn a_restored_cursor_may_not_pass_the_last_superstep() {
        let why = refused_restore(checkpoint(4, Vec::new()));
        assert!(why.contains("superstep 4, past the run's 3"), "{why}");
    }

    /// Another server's snapshot would hand this server a replica and a
    /// cursor it never held.
    #[test]
    fn a_restored_checkpoint_must_be_this_servers() {
        let mut options = checkpoint(1, Vec::new());
        options.resume.as_mut().unwrap().server = 1;
        let why = refused_restore(options);
        assert!(why.contains("server 1's checkpoint on server 0"), "{why}");
    }

    /// A sparse message can be internally consistent (ids inside its own
    /// advertised range, strictly increasing) while the range itself lies far
    /// past the graph — `decode` cannot know the vertex count, so the worker
    /// must bound the range before `apply_updates` indexes the replica.
    #[test]
    fn oversized_broadcast_range_is_an_error_not_a_panic() {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let evil = BroadcastMessage {
            range_start: 0,
            range_end: 1 << 30,
            updates: vec![(123_456_789, 1.0)],
        };
        // The plain layout, and the default's wrapped one.
        for compressor in [None, Some(Codec::Snappy)] {
            let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
            config.communication = CommunicationMode::Sparse;
            config.message_compressor = compressor;
            let program = PageRank::new(3);
            let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();

            let (wire, _) = plan
                .message_codec
                .encode(&evil, &mut ServerMetrics::default());
            let mut plane = TestPlane {
                payload: Some(wire.into()),
                ..TestPlane::default()
            };
            let err = run_worker(
                &config,
                &plan,
                &p,
                &program,
                0,
                &mut plane,
                &Tracer::off(),
                WorkerOptions::default(),
            )
            .expect_err("oversized range must abort cleanly");
            let rendered = err.to_string();
            assert!(rendered.contains("exceeds vertex count"), "{rendered}");
        }
    }

    /// A peer message whose range overlaps this server's own tile is well
    /// formed on its own, but it updates a vertex this server updated too.
    /// Sorting the two and keeping either would split the replicas silently
    /// (each server holds its own updates first), so it is a corrupt
    /// broadcast.
    #[test]
    fn a_vertex_updated_by_two_messages_is_an_error() {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(3);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        // Superstep 0 of PageRank moves vertex 0, the path's head, from
        // 1/10 to the teleport share.
        let overlapping = BroadcastMessage::new(0, 10, vec![(0, 0.5)]);
        let (wire, _) = plan
            .message_codec
            .encode(&overlapping, &mut ServerMetrics::default());
        let mut plane = TestPlane {
            payload: Some(wire.into()),
            ..TestPlane::default()
        };
        let err = run_worker(
            &config,
            &plan,
            &p,
            &program,
            0,
            &mut plane,
            &Tracer::off(),
            WorkerOptions::default(),
        )
        .expect_err("an id two messages update must abort the run");
        let rendered = err.to_string();
        assert!(
            rendered.contains("two messages overlap at vertex 0 in superstep 0"),
            "{rendered}"
        );
        assert!(
            !plane.calls.contains(&("ack", 0)),
            "the superstep must not be acknowledged: {:?}",
            plane.calls
        );
    }
}
