//! The per-server worker: one server's [`WorkerStep`] driven over a
//! [`BroadcastPlane`].
//!
//! Each superstep, [`run_worker`] asks the step to compute its tiles,
//! broadcasts the wires it encodes, ends the superstep on the plane, hands
//! every wire the plane collects to the step, and has it apply the merged
//! updates — the superstep body the in-process executors step too, so
//! `graphh-node` stays bit-identical to them. Every replica applies the same
//! merged update set, so every worker reaches the same continue/stop
//! decision.
//!
//! There is no separate barrier: `collect(s)` returning *is* the barrier —
//! every peer's end-of-superstep marker for `s` has arrived, and a faster
//! peer's `s + 1` waits in the collector's stash until this worker gets
//! there. Nor is there an acknowledgement: the worker publishes `s + 1` only
//! after applying `s`, so its marker of `s + 1` tells the peers' planes what
//! they may stop retaining (`docs/WIRE.md` §9.2).
//!
//! Recovery needs no file (`docs/WIRE.md` §9.4). A new process taking over
//! from a dead one starts from the state its live peers sent it
//! ([`restore_state`]); a worker asked for its state while it collects or
//! finishes answers with [`state_for`] — what it holds then, since nothing
//! before `apply` touches the replica or the frontier.

use crate::checkpoint::{encode_state, Checkpoint};
use crate::plane::{BroadcastPlane, PlaneError};
use graphh_core::exec::{ExecutionPlan, WorkerOutput, WorkerStep};
use graphh_core::gab::GabProgram;
use graphh_core::{EngineError, GraphHConfig};
use graphh_graph::ids::ServerId;
use graphh_obs::Tracer;
use graphh_partition::PartitionedGraph;

/// Resume `step` from `state`, the `GHHC` bytes a live peer sent this new
/// process. They are a peer's bytes, so nothing is restored from bytes that
/// do not decode, a state addressed to another server, a replica that is
/// not one value per vertex, a frontier that is not strictly ascending
/// inside the graph, or a cursor past the run's last superstep.
pub fn restore_state(
    step: &mut WorkerStep<'_>,
    plan: &ExecutionPlan,
    state: &[u8],
) -> Result<(), EngineError> {
    let refused = |why: String| EngineError::BadInput(format!("state restore: {why}"));
    let state = Checkpoint::decode(state).map_err(refused)?;
    let (n, sid) = (plan.num_vertices, step.server());
    let values = state.values.len() as u64;
    let frontier = &state.frontier;
    let why = if state.server != sid {
        format!(
            "a state addressed to server {} on server {sid}",
            state.server
        )
    } else if values != n {
        format!("{values} replica values for a {n}-vertex graph")
    } else if let Some(pair) = frontier.windows(2).find(|pair| pair[0] >= pair[1]) {
        let (a, b) = (pair[0], pair[1]);
        format!("frontier lists vertex {a} before vertex {b}; it must be strictly ascending")
    } else if let Some(v) = frontier.last().filter(|&&v| u64::from(v) >= n) {
        format!("frontier vertex {v} outside the {n}-vertex graph")
    } else if state.next_superstep > plan.max_supersteps {
        let (s, max) = (state.next_superstep, plan.max_supersteps);
        format!("cursor at superstep {s}, past the run's {max} supersteps")
    } else {
        step.restore(state.next_superstep, state.values, state.frontier);
        return Ok(());
    };
    Err(refused(why))
}

/// `step`'s cursor, frontier and replica as `GHHC` bytes addressed to `peer`,
/// a new process that asked for them. Encoded only when asked: a fault-free
/// run never copies its replica.
pub fn state_for(step: &WorkerStep<'_>, peer: ServerId) -> Vec<u8> {
    encode_state(peer, step.cursor(), step.frontier(), step.values())
}

fn plane_error(e: PlaneError) -> EngineError {
    EngineError::BadInput(format!("broadcast plane failure: {e}"))
}

/// `call` on the plane until no state request interrupts it, each request
/// answered with `step`'s state.
fn serving<T>(
    plane: &mut dyn BroadcastPlane,
    step: &WorkerStep<'_>,
    mut call: impl FnMut(&mut dyn BroadcastPlane) -> Result<T, PlaneError>,
) -> Result<T, EngineError> {
    loop {
        match call(plane) {
            Err(PlaneError::StateRequested(peer)) => plane
                .send_state(peer, &state_for(step, peer))
                .map_err(plane_error)?,
            result => return result.map_err(plane_error),
        }
    }
}

/// Run server `sid` to completion on the calling thread, starting from the
/// state the plane was restored with, if any, and finishing the plane:
/// [`BroadcastPlane::finish`] returns once the peers are done with it.
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
///
/// `superstep_delay` pauses at the top of each superstep: a test aid that
/// widens the window for killing a process mid-run; it never changes values.
#[allow(clippy::too_many_arguments)]
pub fn run_worker(
    config: &GraphHConfig,
    plan: &ExecutionPlan,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    sid: ServerId,
    plane: &mut dyn BroadcastPlane,
    tracer: &Tracer,
    superstep_delay: Option<std::time::Duration>,
) -> Result<WorkerOutput, EngineError> {
    let mut rec = tracer.thread(1 + sid);
    let load = rec.begin();
    let mut step = WorkerStep::new(config, plan, partitioned, program, sid, tracer);
    rec.end(load, "server-build", "load");

    let rec = &mut rec;
    let body = std::panic::AssertUnwindSafe(|| -> Result<(), EngineError> {
        if let Some(state) = plane.restore_state() {
            restore_state(&mut step, plan, &state)?;
        }
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
            for wire in serving(plane, &step, |plane| plane.collect(superstep))? {
                step.receive(&wire)?;
            }
            rec.end_superstep(exchange, "collect-decode", "superstep", superstep);
            let apply = rec.begin();
            step.apply()?;
            rec.end_superstep(apply, "apply", "superstep", superstep);
        }
        serving(plane, &step, |plane| plane.finish())
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
    /// if given one, and a state to restore from, if given one; it asks for
    /// this server's state once in the collect of `request`'s superstep, and
    /// records the markers and states it is told, in order.
    #[derive(Default)]
    struct TestPlane {
        payload: Option<WireMessage>,
        state: Option<WireMessage>,
        request: Option<(u32, ServerId)>,
        sent: Vec<Checkpoint>,
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
        fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
            if let Some((_, peer)) = self.request.filter(|&(s, _)| s == superstep) {
                self.request = None;
                return Err(PlaneError::StateRequested(peer));
            }
            Ok(self.payload.take().into_iter().collect())
        }
        fn send_state(&mut self, peer: ServerId, state: &[u8]) -> Result<(), PlaneError> {
            let state = Checkpoint::decode(state).expect("a GHHC state");
            self.calls.push(("state", peer));
            self.sent.push(state);
            Ok(())
        }
        fn restore_state(&mut self) -> Option<WireMessage> {
            self.state.take()
        }
        fn abort(&mut self) {}
    }

    /// `PageRank(3)` over `path_graph(10)` on one server, run on `plane`:
    /// the result.
    fn run_path_graph(plane: &mut TestPlane) -> Result<WorkerOutput, EngineError> {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(3);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        assert_eq!(plan.max_supersteps, 3);
        let tracer = Tracer::off();
        run_worker(&config, &plan, &p, &program, 0, plane, &tracer, None)
    }

    /// A state addressed to server 0 at `next_superstep`, holding `frontier`
    /// and a 10-vertex replica.
    fn state(next_superstep: u32, frontier: Vec<u32>) -> Checkpoint {
        Checkpoint {
            server: 0,
            next_superstep,
            frontier,
            values: vec![0.1; 10],
        }
    }

    /// A plane that restores the worker from `state`.
    fn restoring(state: &Checkpoint) -> TestPlane {
        TestPlane {
            state: Some(state.encode().into()),
            ..TestPlane::default()
        }
    }

    /// A request in the middle of collecting superstep 1 is answered with the
    /// state the worker holds then — cursor 1, superstep 0's replica —
    /// addressed to the asker, and the collect goes on.
    #[test]
    fn a_state_request_is_answered_with_the_state_before_apply() {
        let mut plane = TestPlane {
            request: Some((1, 1)),
            ..TestPlane::default()
        };
        let output = run_path_graph(&mut plane).unwrap();
        assert_eq!(output.supersteps_run, 3);
        let calls = &plane.calls;
        assert_eq!(
            calls[..4],
            [("end", 0), ("end", 1), ("state", 1), ("end", 2)]
        );
        let sent = &plane.sent[0];
        assert_eq!((sent.server, sent.next_superstep), (1, 1));
        // A run restored from it (readdressed to this server) ends where the
        // uninterrupted one did.
        let mut restored = restoring(&Checkpoint {
            server: 0,
            ..sent.clone()
        });
        let resumed = run_path_graph(&mut restored).unwrap();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.values), bits(&output.values));
    }

    /// Why a restore that does not fit the plan was refused.
    fn refused_restore(state: &Checkpoint) -> String {
        let err = run_path_graph(&mut restoring(state)).expect_err("the restore must be refused");
        err.to_string()
    }

    /// Bytes that are no `GHHC` state are refused before anything runs.
    #[test]
    fn a_state_that_does_not_decode_is_refused() {
        let mut bytes = state(1, Vec::new()).encode();
        bytes.push(0);
        let mut plane = TestPlane {
            state: Some(bytes.into()),
            ..TestPlane::default()
        };
        let why = run_path_graph(&mut plane)
            .expect_err("trailing bytes")
            .to_string();
        assert!(
            why.contains("state restore: checkpoint value section"),
            "{why}"
        );
        assert!(plane.calls.is_empty(), "{:?}", plane.calls);
    }

    /// A replica of any other length is refused — even with a frontier that
    /// keeps the run away from the missing ids, which used to return a
    /// 5-value replica for the 10-vertex graph.
    #[test]
    fn a_restored_replica_must_hold_one_value_per_vertex() {
        for len in [5, 11] {
            let mut state = state(1, Vec::new());
            state.values = vec![0.0; len];
            let why = refused_restore(&state);
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
            let why = refused_restore(&state(1, frontier));
            assert!(why.contains(named), "{why}");
        }
    }

    /// A cursor past the last superstep used to run nothing and return `Ok`.
    #[test]
    fn a_restored_cursor_may_not_pass_the_last_superstep() {
        let why = refused_restore(&state(4, Vec::new()));
        assert!(why.contains("superstep 4, past the run's 3"), "{why}");
    }

    /// A state addressed to another server was meant for another process.
    #[test]
    fn a_restored_state_must_be_addressed_to_this_server() {
        let mut state = state(1, Vec::new());
        state.server = 1;
        let why = refused_restore(&state);
        assert!(
            why.contains("a state addressed to server 1 on server 0"),
            "{why}"
        );
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
                None,
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
            None,
        )
        .expect_err("an id two messages update must abort the run");
        let rendered = err.to_string();
        assert!(
            rendered.contains("two messages overlap at vertex 0 in superstep 0"),
            "{rendered}"
        );
        // No marker of superstep 1, which would acknowledge superstep 0.
        assert_eq!(plane.calls, [("end", 0)]);
    }
}
