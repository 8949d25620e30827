//! # graphh-runtime
//!
//! The real parallel worker runtime for the GraphH engine.
//!
//! The paper's MPE runs its supersteps on `p` servers concurrently; the
//! sequential reference executor in `graphh-core` iterates the simulated
//! servers on one thread, which keeps the *simulated* cost model honest but
//! makes wall-clock numbers `p×` off. This crate supplies the missing
//! execution substrate:
//!
//! * [`ThreadedExecutor`] — one OS thread per simulated server, each owning
//!   its tile set, vertex-replica array and edge cache (implements
//!   [`graphh_core::Executor`], so `GraphHEngine::with_executor` plugs it in);
//!   inside each server the tile phase additionally fans out to
//!   `threads_per_server` compute threads (the paper's `T`, via
//!   `graphh-pool`'s persistent per-server `WorkerPool`), so the executor
//!   runs `p × T` workers at peak,
//! * [`frame`] — the transport-agnostic framing protocol: [`Frame`], its
//!   length-prefixed wire codec, and the [`SuperstepCollector`] inbox
//!   discipline (superstep ordering, stashing, abort semantics), unit-tested
//!   without threads,
//! * [`BroadcastPlane`] — the all-to-all message fabric the workers broadcast
//!   wire-encoded updates over; every message really travels encoded
//!   (+ compressed) through [`graphh_cluster::MessageCodec`], so Figure 8
//!   traffic is metered per real message. Backends: [`ChannelPlane`]
//!   (in-process mpsc) and [`PollPlane`] (TCP, **one event-loop thread**
//!   multiplexing all peers over non-blocking sockets) — the TCP plane lets
//!   each simulated server be its own OS **process**; the `graphh-node`
//!   binary in `graphh-bench` does exactly that. The wire protocol it speaks
//!   is specified normatively in `docs/WIRE.md`, and its end-of-superstep
//!   markers are BSP's `wait_other_servers` — `collect(s)` returns only once
//!   every peer has ended `s`, so there is no separate barrier,
//! * [`fabric`] — the TCP plane's link life-cycle as one I/O-free step
//!   function (`Fabric::step(now, Event, &mut Vec<Action>)`): establishment,
//!   redial and backoff, hello vetting, replay and ack repeat, goodbye and
//!   linger, terminal loss, the address book (static, or discovered from
//!   seeds and gossiped), and what reaches the collector (a peer's superstep
//!   once its marker is in, replayed duplicates never). [`poll`] moves the
//!   bytes, with one private poller (`poll(2)` on Linux, a spin elsewhere);
//!   `tests/fabric_sim.rs` runs the same machine through thousands of seeded
//!   fault schedules on a virtual network and clock,
//! * [`run_worker`] — one server's [`graphh_core::exec::WorkerStep`] (the
//!   superstep body the sequential executor steps too) driven over a
//!   [`BroadcastPlane`], with checkpoint resume and writing; the threaded
//!   executor runs one per thread, `graphh-node` one per process.
//!
//! ## Determinism
//!
//! Thread scheduling must never change results. Three properties guarantee it:
//!
//! 1. each vertex is updated by exactly one tile, and each tile by exactly one
//!    server, so the merged update set of a superstep is schedule-independent,
//! 2. the merged update set names each vertex at most once, so the order a
//!    worker applies it in cannot change the replica, and the next frontier —
//!    the messages' ids, ordered by first id and concatenated — is ascending
//!    however the messages arrived; every executor runs the same
//!    [`graphh_core::exec::WorkerStep`], and two messages whose ids overlap
//!    are a corrupt broadcast that aborts the run,
//! 3. the plane's end-of-superstep markers keep replicas in lockstep — no
//!    worker applies superstep `s` before every peer finished publishing it,
//!    and a faster peer's `s + 1` frames are stashed, not applied — so every
//!    gather reads the same replica state.
//!
//! The differential tests in this crate and `tests/determinism.rs` enforce
//! bit-identical `values` between [`ThreadedExecutor`] and
//! [`graphh_core::SequentialExecutor`].

pub mod buffer;
pub mod chaos;
pub mod checkpoint;
pub mod establish;
pub mod fabric;
pub mod frame;
pub mod membership;
pub mod plane;
pub mod poll;
pub mod resume;
pub mod threaded;
pub mod worker;

pub use buffer::{BufferPool, PooledBuf};
pub use chaos::{CutPlan, FaultPlane, SeverPeer};
pub use checkpoint::{
    decode_values, encode_values, Checkpoint, CheckpointSink, CHECKPOINT_MAGIC, VALUES_MAGIC,
};
pub use frame::{
    encode_message_into, Frame, FrameDecoder, FrameError, InboxEvent, PlaneError,
    SuperstepCollector, WireMessage,
};
pub use graphh_core::exec::WorkerOutput;
pub use membership::{
    AddressBook, BookEntry, MembershipKind, MembershipMsg, ReconnectBackoff, WireEntry,
    MEMBERSHIP_MAGIC,
};
pub use plane::{BroadcastPlane, ChannelPlane};
pub use poll::{BoundPollPlane, PollPlane};
pub use resume::{ReplayError, ReplayLog, ResilienceConfig, ResumeHello};
pub use threaded::ThreadedExecutor;
pub use worker::{run_worker, WorkerError, WorkerOptions};
