//! # graphh-runtime
//!
//! What a process needs to be one GraphH server of a multi-process cluster.
//! The simulated servers of an in-process run need none of it: they are
//! stepped by `graphh-core`'s one superstep loop
//! ([`graphh_core::SequentialExecutor`], [`graphh_core::ThreadedExecutor`]),
//! which hands wires from server to server with no plane. This crate is the
//! rest:
//!
//! * [`frame`] — the transport-agnostic framing protocol: [`Frame`], its
//!   length-prefixed wire codec, and the [`SuperstepCollector`] inbox
//!   discipline (whole supersteps per peer, stashing, abort semantics),
//!   unit-tested without threads,
//! * [`BroadcastPlane`] — the all-to-all message fabric a worker broadcasts
//!   wire-encoded updates over; every message really travels encoded
//!   (+ compressed) through [`graphh_cluster::MessageCodec`], so Figure 8
//!   traffic is metered per real message. [`PollPlane`] is the TCP backend:
//!   **one event-loop thread** multiplexing all peers over non-blocking
//!   sockets, so each simulated server can be its own OS **process** — the
//!   `graphh-node` binary in `graphh-bench` does exactly that. The wire
//!   protocol it speaks is specified normatively in `docs/WIRE.md`, and its
//!   end-of-superstep markers are BSP's `wait_other_servers` — `collect(s)`
//!   returns only once every peer has ended `s`, so there is no separate
//!   barrier. ([`ChannelPlane`], an in-process backend over `mpsc`, has no
//!   user but the benchmark's latency probe.)
//! * [`fabric`] — the TCP plane's link life-cycle as one I/O-free step
//!   function (`Fabric::step(now, Event, &mut Vec<Action>)`): establishment,
//!   redial and backoff at the addresses of the static peer table, hello
//!   vetting, replay, trimming on the peers' markers (each acknowledges the
//!   superstep before it), state transfer to a new process, ordered
//!   goodbyes and linger, terminal loss, and what reaches the collector (a
//!   peer's superstep, whole, once its marker is in, replayed duplicates
//!   never). [`poll`] moves the bytes, with one private poller
//!   (`poll(2)` on Linux, a spin elsewhere),
//! * [`run_worker`] — one server's [`graphh_core::exec::WorkerStep`] (the
//!   superstep body the in-process loop steps too) driven over a
//!   [`BroadcastPlane`], restoring
//!   a new process from its peers' state ([`restore_state`]) and answering
//!   their requests for its own ([`state_for`]); `graphh-node` runs one per
//!   process,
//! * [`checkpoint`] — the `GHHC` encoding of a server's state, which a state
//!   frame carries.
//!
//! `tests/fabric_sim.rs` is the fault-tolerance check: real
//! [`graphh_core::exec::WorkerStep`]s running registry programs through
//! real collectors and [`poll`]'s production event loop, turned over a
//! virtual network and clock through the loop's [`poll::Net`] seam,
//! thousands of seeded cut, crash and restart schedules, every
//! restart recovering from its peers and every finished replica
//! bit-identical to the sequential executor's. Over real
//! sockets, [`PollPlane::crash`] and `graphh-bench`'s multi-process `kill -9`
//! gate check the same code.
//!
//! ## Determinism
//!
//! Process scheduling must never change results. Three properties guarantee
//! it:
//!
//! 1. each vertex is updated by exactly one tile, and each tile by exactly one
//!    server, so the merged update set of a superstep is schedule-independent,
//! 2. the merged update set names each vertex at most once, so the order a
//!    worker applies it in cannot change the replica, and the next frontier —
//!    the messages' ids, ordered by first id and concatenated — is ascending
//!    however the messages arrived; every driver runs the same
//!    [`graphh_core::exec::WorkerStep`], and two messages whose ids overlap
//!    are a corrupt broadcast that aborts the run,
//! 3. the plane's end-of-superstep markers keep replicas in lockstep — no
//!    worker applies superstep `s` before every peer finished publishing it,
//!    and a faster peer's `s + 1` frames are stashed, not applied — so every
//!    gather reads the same replica state.
//!
//! `tests/determinism.rs` at the repository root runs workers over loopback
//! [`PollPlane`]s and holds their replicas to the sequential executor's, bit
//! for bit.

pub mod buffer;
pub mod checkpoint;
pub mod establish;
pub mod fabric;
pub mod frame;
pub mod plane;
pub mod poll;
pub mod resume;
pub mod worker;

pub use buffer::{BufferPool, PooledBuf};
pub use checkpoint::{
    decode_values, encode_values, Checkpoint, CheckpointSink, CHECKPOINT_MAGIC, VALUES_MAGIC,
};
pub use frame::{
    encode_message_into, Frame, FrameDecoder, FrameError, InboxEvent, PlaneError,
    SuperstepCollector, WireMessage,
};
pub use graphh_core::exec::WorkerOutput;
pub use plane::{BroadcastPlane, ChannelPlane};
pub use poll::{BoundPollPlane, PollPlane};
pub use resume::{ReplayLog, ResilienceConfig, ResumeHello};
pub use worker::{restore_state, run_worker, state_for};
