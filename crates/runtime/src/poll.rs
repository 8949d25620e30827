//! The TCP backend of the broadcast plane: real multi-process transport,
//! **one readiness loop drives every peer socket**.
//!
//! [`PollPlane`] puts one simulated server in its own OS **process** (the
//! `graphh-node` binary in `graphh-bench` does exactly that): every pair of
//! servers shares one full-duplex TCP connection (established by
//! [`crate::establish`], opened with the `GHHR` resume hello) and frames
//! travel in the length-prefixed wire encoding of [`crate::frame`]. A thread per peer would cost each process of
//! a `p`-server cluster `p - 1` parked threads, which caps how many servers
//! one host can simulate; `PollPlane` multiplexes all peer connections onto a
//! **single event-loop thread** instead: every stream is `O_NONBLOCK`, a
//! [`ReadinessPoller`] reports which sockets can make progress, and per-peer
//! state machines carry partial frames ([`crate::frame::FrameDecoder`]) and
//! backpressured write queues across loop iterations. It feeds the same
//! [`SuperstepCollector`] inbox discipline the in-process
//! [`crate::plane::ChannelPlane`] uses — so the executor-facing behaviour
//! (superstep ordering, stashing, abort semantics) is identical and the
//! determinism suites pin `PollPlane` runs bit-identical to the sequential
//! reference (see `docs/WIRE.md` §5 for the conformance contract).
//!
//! ## Threading model
//!
//! ```text
//!  worker thread                     event-loop thread (exactly one)
//!  ─────────────                     ──────────────────────────────
//!  broadcast() ──encode──▶ bounded   ┌────────────────────────────────┐
//!  end_superstep()         command   │ drain commands → retain, fan   │
//!  acknowledge()           channel ─▶│ out to per-peer write queues   │
//!  abort()                  + waker  │ poll(readable/writable fds)    │
//!       │                            │  readable → read, FrameDecoder │
//!       ▼                            │  writable → flush write queue  │
//!  collect() ◀── inbox channel ◀─────│  listener → re-accept cut peer │
//!  (SuperstepCollector)              └────────────────────────────────┘
//! ```
//!
//! The worker thread never touches a socket; the event loop never blocks on
//! one. Commands travel over a *bounded* channel, so a worker that broadcasts
//! faster than the network drains is throttled (backpressure) instead of
//! buffering without limit; the loop additionally stops accepting commands
//! while any peer's write queue is above its high-water mark.
//!
//! ## One protocol: retain, cut, resume
//!
//! Every link speaks the fault-tolerant protocol of `docs/WIRE.md` §9 — there
//! is no other mode. Broadcast batches are retained (shared, not copied) in a
//! [`ReplayLog`] until every peer acknowledges their superstep; *any* stream
//! end is a **cut**, not a loss: the link parks down, the higher-id side
//! redials with backoff while the lower-id side's listener — a poller slot of
//! its own, open for the whole run — re-accepts, both exchange resume cursors
//! and replay what the other missed. Only a peer that stays away past
//! [`ResilienceConfig::reconnect_deadline`] (or asks for frames below the
//! replay floor) surfaces as the terminal `PeerLost`; a clean exit announces
//! itself with a goodbye frame and is seen at once. The loop is
//! single-threaded, so none of this needs locks or generations: command
//! intake, retention, stream replacement and recovery interleave at
//! loop-iteration granularity, which makes replay gap-free by construction
//! (no frame can be retained between a replay snapshot and the stream
//! install — both happen on this thread).
//!
//! ## Write coalescing
//!
//! Broadcast frames are not shipped one by one. The plane accumulates them
//! in a pooled **batch buffer** ([`crate::buffer::BufferPool`])
//! and hands the whole batch to the loop when it reaches the flush threshold
//! (`BATCH_FLUSH`, 256 KiB) or the superstep ends — so a typical superstep costs one command,
//! one waker write and one contiguous socket write per peer instead of one
//! of each per frame. On the loop side `pump_writes` additionally gathers
//! queued batches into a single `write_vectored` call per readiness event.
//! Batch buffers are shared across all peers' queues (`Arc`) and recycled
//! through the pool once the last peer has written them, so steady-state
//! supersteps reuse the same few allocations. None of this changes a single
//! wire byte: frames are concatenated in order, exactly as `docs/WIRE.md`
//! specifies them.
//!
//! ## Readiness abstraction
//!
//! [`ReadinessPoller`] is the minimal mio-style seam: register sockets once,
//! then repeatedly ask which can make progress. Two implementations:
//!
//! * [`PollSyscallPoller`] (Linux) — level-triggered readiness via the
//!   `poll(2)` syscall, declared directly (std already links libc; no crate
//!   dependency). The loop sleeps in the kernel until a socket has data or
//!   buffer space.
//! * [`SpinPoller`] (portable, FFI-less) — claims every registered socket
//!   ready and lets the non-blocking `read`/`write` calls discover the truth
//!   (`WouldBlock`), with a short sleep per round to keep the spin cool.
//!   Tests force it on every platform
//!   ([`BoundPollPlane::establish_resilient_with`]).
//!
//! A dropped [`PollPlane`] flushes its queues, half-closes its streams and
//! joins the loop thread — shutdown is asserted by the thread-count checks in
//! `tests/poll_threads.rs` and `examples/socket_cluster.rs`, not assumed.

use crate::buffer::{BufferPool, PooledBuf};
use crate::chaos::SeverPeer;
use crate::establish::{
    accept_connection, bind_listener, dial_handshake, establish_links, DEFAULT_ESTABLISH_TIMEOUT,
    LOOP_HANDSHAKE_CAP,
};
use crate::frame::{Frame, FrameDecoder, InboxEvent, PlaneError, SuperstepCollector, WireMessage};
use crate::membership::{MembershipMsg, MembershipView, ReconnectBackoff};
use crate::plane::BroadcastPlane;
use crate::resume::{count_frames, ReplayLog, ResilienceConfig, ResumeHello};
use graphh_graph::ids::ServerId;
use graphh_obs::{global_counters, Counter};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one `poll` round may sleep when nothing is ready. Bounds shutdown
/// latency for events the waker does not cover; the waker covers commands.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Per-peer write-queue high-water mark: while any peer has more than this
/// many bytes queued, the loop stops draining commands, the bounded command
/// channel fills, and the broadcasting worker blocks — backpressure reaches
/// the producer instead of growing an unbounded buffer.
const WRITE_HIGH_WATER: usize = 8 * 1024 * 1024;

/// Commands the loop will buffer before `broadcast` blocks.
const COMMAND_BACKLOG: usize = 64;

/// Read scratch size per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Bytes of batched frames at which `broadcast` hands the batch to the event
/// loop without waiting for `end_superstep`. Small supersteps ship as a
/// single contiguous buffer (one command, one waker write, one socket write
/// per peer); large supersteps stream in `BATCH_FLUSH`-sized chunks so the
/// loop overlaps writing with the worker's encoding.
const BATCH_FLUSH: usize = 256 * 1024;

/// Most queue entries one coalesced `write_vectored` call gathers.
const MAX_WRITE_VECTORS: usize = 16;

/// Frame bytes shared by every peer's write queue: one batch buffer checked
/// out of the plane's [`BufferPool`], enqueued once per peer, returned to the
/// pool when the last peer finishes writing it.
type SharedBatch = Arc<PooledBuf>;

/// The event loop's observability counters (see `docs/OBSERVABILITY.md` for
/// the catalog). Handles are fetched from the global registry once at
/// establish time; the loop's updates are relaxed atomic adds — never an
/// allocation, never read back by the loop itself.
struct LoopCounters {
    /// Coalesced `write_vectored` calls issued.
    write_vectored_calls: Counter,
    /// Frame bytes actually written to peer sockets.
    bytes_written: Counter,
    /// Intake rounds skipped because some peer's write queue was above
    /// [`WRITE_HIGH_WATER`] (each one is a round of producer backpressure).
    high_water_stalls: Counter,
    /// Largest write-queue depth any peer reached, in bytes (gauge).
    queued_bytes_peak: Counter,
    /// Peers declared terminally lost (reconnect deadline, replay floor).
    peers_lost: Counter,
    /// Cut links brought back by a redial or a re-accept.
    reconnects: Counter,
    /// Retained frames re-sent over a reinstalled link.
    replayed_frames: Counter,
}

impl LoopCounters {
    fn registered() -> Self {
        let registry = global_counters();
        LoopCounters {
            write_vectored_calls: registry.counter("poll.write_vectored_calls"),
            bytes_written: registry.counter("poll.bytes_written"),
            high_water_stalls: registry.counter("poll.high_water_stalls"),
            queued_bytes_peak: registry.counter("poll.queued_bytes_peak"),
            peers_lost: registry.counter("poll.peers_lost"),
            reconnects: registry.counter("fabric.reconnects"),
            replayed_frames: registry.counter("fabric.replayed_frames"),
        }
    }
}

// ---------------------------------------------------------------------------
// Readiness abstraction
// ---------------------------------------------------------------------------

/// Which directions a socket is interesting in / ready for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Reading would make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// Writing would make progress.
    pub writable: bool,
}

impl Readiness {
    /// Neither direction.
    pub fn none() -> Self {
        Self::default()
    }

    /// Is either direction set?
    pub fn any(self) -> bool {
        self.readable || self.writable
    }
}

/// The minimal mio-style readiness seam the event loop drives sockets with.
///
/// Sockets are registered once, in order; each [`poll`](Self::poll) round
/// then pairs `interest[i]` / `ready[i]` with the `i`-th registered socket.
/// Implementations may block up to `timeout`, and may over-report readiness
/// (the loop's non-blocking I/O treats `WouldBlock` as "not actually ready"),
/// but must never under-report it forever — a byte sitting in a socket's
/// receive buffer must eventually set `readable`.
pub trait ReadinessPoller: Send {
    /// Register the next socket; its index is the number of sockets
    /// registered before it.
    fn register(&mut self, stream: &TcpStream) -> std::io::Result<()>;

    /// Report readiness for every registered socket whose `interest[i]` has a
    /// direction set, blocking up to `timeout` when none is ready.
    fn poll(
        &mut self,
        interest: &[Readiness],
        ready: &mut [Readiness],
        timeout: Duration,
    ) -> std::io::Result<()>;

    /// Register the plane's listening socket as the next slot (its
    /// `readable` means a cut peer's reconnect is waiting to be accepted).
    fn register_listener(&mut self, listener: &TcpListener) -> std::io::Result<()>;

    /// Replace the socket behind an existing slot (a reconnected peer
    /// stream). Pollers that re-derive readiness each round (the spin
    /// fallback) need no bookkeeping; fd-based pollers swap the descriptor.
    fn reregister(&mut self, _slot: usize, _stream: &TcpStream) -> std::io::Result<()> {
        Ok(())
    }
}

/// Level-triggered readiness via the `poll(2)` syscall.
///
/// Declared directly against the C ABI std already links on Linux — no `libc`
/// crate, no new dependency. Entries without interest are skipped by handing
/// the kernel a negative fd (ignored per POSIX).
#[cfg(target_os = "linux")]
pub struct PollSyscallPoller {
    fds: Vec<std::os::unix::io::RawFd>,
    /// Reused `pollfd` array — `poll` runs once per event-loop round (the
    /// hottest path in the plane), so it must not allocate per call.
    pollfds: Vec<sys::PollFd>,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::unix::io::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)` — nfds_t
        /// is `unsigned long` on Linux.
        pub fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }
}

#[cfg(target_os = "linux")]
impl PollSyscallPoller {
    /// A poller with no sockets registered yet.
    pub fn new() -> Self {
        Self {
            fds: Vec::new(),
            pollfds: Vec::new(),
        }
    }
}

#[cfg(target_os = "linux")]
impl Default for PollSyscallPoller {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(target_os = "linux")]
impl ReadinessPoller for PollSyscallPoller {
    fn register(&mut self, stream: &TcpStream) -> std::io::Result<()> {
        use std::os::unix::io::AsRawFd;
        self.fds.push(stream.as_raw_fd());
        Ok(())
    }

    fn register_listener(&mut self, listener: &TcpListener) -> std::io::Result<()> {
        use std::os::unix::io::AsRawFd;
        self.fds.push(listener.as_raw_fd());
        Ok(())
    }

    fn reregister(&mut self, slot: usize, stream: &TcpStream) -> std::io::Result<()> {
        use std::os::unix::io::AsRawFd;
        self.fds[slot] = stream.as_raw_fd();
        Ok(())
    }

    fn poll(
        &mut self,
        interest: &[Readiness],
        ready: &mut [Readiness],
        timeout: Duration,
    ) -> std::io::Result<()> {
        debug_assert_eq!(interest.len(), self.fds.len());
        debug_assert_eq!(ready.len(), self.fds.len());
        self.pollfds.clear();
        self.pollfds
            .extend(interest.iter().zip(&self.fds).map(|(want, &fd)| {
                let mut events = 0i16;
                if want.readable {
                    events |= sys::POLLIN;
                }
                if want.writable {
                    events |= sys::POLLOUT;
                }
                sys::PollFd {
                    // Negative fds are ignored by poll(2): no-interest entries
                    // stay index-aligned without waking the loop.
                    fd: if events == 0 { -1 } else { fd },
                    events,
                    revents: 0,
                }
            }));
        // Zero stays zero (the event loop's "burst in progress, don't sleep"
        // round); anything else is at least 1 ms so a sub-millisecond value
        // does not truncate into a busy loop.
        let timeout_ms = if timeout.is_zero() {
            0
        } else {
            i32::try_from(timeout.as_millis())
                .unwrap_or(i32::MAX)
                .max(1)
        };
        loop {
            let rc = unsafe {
                sys::poll(
                    self.pollfds.as_mut_ptr(),
                    self.pollfds.len() as std::os::raw::c_ulong,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (slot, pollfd) in ready.iter_mut().zip(&self.pollfds) {
            let r = pollfd.revents;
            // Errors and hangups surface through the read path (a read
            // returns the error or EOF), so they count as readable.
            slot.readable = r & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0;
            slot.writable = r & (sys::POLLOUT | sys::POLLERR) != 0;
        }
        Ok(())
    }
}

/// Portable FFI-less fallback: claim every interesting socket ready and let
/// the non-blocking `read`/`write` calls discover the truth (`WouldBlock`).
///
/// A short sleep per round keeps the spin from pegging a core; the sleep is
/// skipped when the previous round made progress (the loop passes a zero
/// timeout then). Used on non-Linux targets, and forced everywhere by the
/// conformance tests so the trait seam itself is exercised.
pub struct SpinPoller {
    registered: usize,
    /// Upper bound on one round's sleep; defaults to 1 ms.
    nap: Duration,
}

impl SpinPoller {
    /// A spin poller with the default 1 ms nap.
    pub fn new() -> Self {
        Self {
            registered: 0,
            nap: Duration::from_millis(1),
        }
    }
}

impl Default for SpinPoller {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadinessPoller for SpinPoller {
    fn register(&mut self, _stream: &TcpStream) -> std::io::Result<()> {
        self.registered += 1;
        Ok(())
    }

    fn register_listener(&mut self, _listener: &TcpListener) -> std::io::Result<()> {
        self.registered += 1;
        Ok(())
    }

    fn poll(
        &mut self,
        interest: &[Readiness],
        ready: &mut [Readiness],
        timeout: Duration,
    ) -> std::io::Result<()> {
        debug_assert_eq!(interest.len(), self.registered);
        ready.copy_from_slice(interest);
        if !timeout.is_zero() {
            std::thread::sleep(timeout.min(self.nap));
        }
        Ok(())
    }
}

/// The platform's best poller: `poll(2)` on Linux, the spin fallback
/// elsewhere.
pub fn default_poller() -> Box<dyn ReadinessPoller> {
    #[cfg(target_os = "linux")]
    {
        Box::new(PollSyscallPoller::new())
    }
    #[cfg(not(target_os = "linux"))]
    {
        Box::new(SpinPoller::new())
    }
}

/// This process's OS thread count (Linux: `Threads:` in `/proc/self/status`;
/// `None` where that is unavailable). Test aid for the "exactly one
/// event-loop thread" and clean-shutdown assertions.
pub fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

// ---------------------------------------------------------------------------
// Plane
// ---------------------------------------------------------------------------

/// A poll plane that has bound its listener but not yet connected to its
/// peers. Two-phase establishment exists so callers (tests, the `graphh-node`
/// launcher) can bind every listener first — `local_addr` then reports the
/// OS-assigned port — before any endpoint starts dialing.
pub struct BoundPollPlane {
    id: ServerId,
    num_servers: u32,
    listener: TcpListener,
}

impl BoundPollPlane {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Seed-node bootstrap: learn the full `id → address` book from `seeds`
    /// via `GHHM` exchanges on this plane's listener (see
    /// [`crate::membership::discover`]). Follow with
    /// [`Self::establish_resilient`] on the view's `peer_addrs`, with the
    /// view's `handle` set as [`ResilienceConfig::membership`].
    pub fn discover(
        &self,
        seeds: &[SocketAddr],
        timeout: Duration,
    ) -> std::io::Result<MembershipView> {
        crate::membership::discover(
            self.id,
            self.num_servers as usize,
            &self.listener,
            seeds,
            timeout,
        )
    }

    /// Connect to every peer and return the ready plane, with the default
    /// [`ResilienceConfig`] and establish timeout.
    pub fn establish(self, peer_addrs: &[SocketAddr]) -> std::io::Result<PollPlane> {
        self.establish_with_timeout(peer_addrs, DEFAULT_ESTABLISH_TIMEOUT)
    }

    /// [`Self::establish`] with an explicit timeout.
    pub fn establish_with_timeout(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
    ) -> std::io::Result<PollPlane> {
        self.establish_resilient(peer_addrs, timeout, ResilienceConfig::default())
    }

    /// [`Self::establish`] with an explicit timeout and recovery policy: the
    /// reconnect deadline and backoff, the resume cursor of a restarted
    /// process, the live membership handle of a seed-discovered cluster.
    pub fn establish_resilient(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
        config: ResilienceConfig,
    ) -> std::io::Result<PollPlane> {
        self.establish_resilient_with(peer_addrs, timeout, config, default_poller())
    }

    /// [`Self::establish_resilient`] with an explicit poller (tests force
    /// [`SpinPoller`] here so the readiness seam runs on every platform).
    pub fn establish_resilient_with(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
        config: ResilienceConfig,
        mut poller: Box<dyn ReadinessPoller>,
    ) -> std::io::Result<PollPlane> {
        let BoundPollPlane {
            id,
            num_servers,
            listener,
        } = self;
        let mut fault_budget = config.handshake_fault_budget;
        let streams = establish_links(
            id,
            num_servers,
            &listener,
            peer_addrs,
            timeout,
            &config,
            &mut fault_budget,
        )?;

        // Slot layout: 0 = waker, 1..=peers = peer streams, last = listener.
        let (waker_tx, waker_rx) = waker_pair()?;
        poller.register(&waker_rx)?;
        let registry = global_counters();
        let mut peers = Vec::with_capacity(streams.len());
        for (peer, stream) in streams {
            stream.set_nonblocking(true)?;
            poller.register(&stream)?;
            peers.push(Peer {
                id: peer,
                stream,
                decoder: FrameDecoder::new(),
                outbound: VecDeque::new(),
                queued_bytes: 0,
                read_open: true,
                write_open: true,
                ack_delivered: None,
                done: false,
                down: None,
                gone: false,
                // Per-peer traffic counters, named at establish time (the
                // only place the name formatting — an allocation — happens).
                frames_in: registry.counter(&format!("poll.s{id}.from{peer}.frames_in")),
                bytes_in: registry.counter(&format!("poll.s{id}.from{peer}.bytes_in")),
            });
        }
        listener.set_nonblocking(true)?;
        poller.register_listener(&listener)?;

        let (command_tx, command_rx) = sync_channel::<Command>(COMMAND_BACKLOG);
        let (inbox_tx, inbox) = channel::<InboxEvent>();
        let peer_ids: Vec<ServerId> = peers.iter().map(|p| p.id).collect();
        let pool = BufferPool::new();
        let event_loop = EventLoop {
            id,
            num_servers,
            peers,
            waker_rx,
            listener,
            commands: command_rx,
            inbox: inbox_tx,
            poller,
            counters: LoopCounters::registered(),
            peer_addrs: peer_addrs.to_vec(),
            fault_budget,
            replay: ReplayLog::resuming_from(num_servers, id, config.resume_from),
            recv_cursor: vec![config.resume_from; num_servers as usize],
            last_ack: None,
            aborted: false,
            pool: pool.clone(),
            // The establish itself proves every peer holds a complete book:
            // nothing to gossip until the book moves again.
            last_gossip_version: config.membership.as_ref().map_or(0, |m| m.version()),
            config,
        };
        let event_loop = std::thread::Builder::new()
            .name(format!("graphh-poll-loop-{id}"))
            .spawn(move || event_loop.run())
            .map_err(|e| std::io::Error::other(format!("spawn event-loop thread: {e}")))?;

        let batch = pool.checkout();
        Ok(PollPlane {
            id,
            num_servers,
            peer_ids,
            commands: command_tx,
            waker: waker_tx,
            inbox,
            collector: SuperstepCollector::new(),
            event_loop: Some(event_loop),
            pool,
            batch,
            batch_flushes: registry.counter("poll.batch_flushes"),
            batch_superstep: 0,
        })
    }
}

/// Event-driven TCP implementation of [`BroadcastPlane`]: one non-blocking
/// stream per peer, all driven by a single readiness-loop thread. See the
/// [module docs](self) for the threading model.
///
/// Construction is two-phase: [`PollPlane::bind`] then
/// [`BoundPollPlane::establish`].
pub struct PollPlane {
    id: ServerId,
    num_servers: u32,
    /// Peer ids, sorted — the collector's completeness set.
    peer_ids: Vec<ServerId>,
    /// Bounded command channel into the event loop (the backpressure edge).
    commands: SyncSender<Command>,
    /// Write end of the waker: one byte unblocks the loop's `poll`.
    waker: TcpStream,
    /// Frames (and peer-loss events) from the event loop.
    inbox: Receiver<InboxEvent>,
    collector: SuperstepCollector,
    event_loop: Option<JoinHandle<()>>,
    /// Recycles batch buffers: the event loop drops a batch once every peer
    /// has written *and acknowledged* it, which returns the allocation here
    /// for the next one.
    pool: BufferPool,
    /// Frames encoded since the last flush, shipped to the event loop as one
    /// contiguous buffer (see [`BATCH_FLUSH`]) — the write-coalescing half of
    /// the plane: peers receive whole supersteps in one or two writes
    /// instead of one write per frame.
    batch: PooledBuf,
    /// Batches handed to the event loop (`poll.batch_flushes`).
    batch_flushes: Counter,
    /// The superstep every frame in the current batch belongs to (batches
    /// never span supersteps — `end_superstep` flushes).
    batch_superstep: u32,
}

impl PollPlane {
    /// Bind the listener for server `id` of a `num_servers` cluster on
    /// `listen_addr` (port 0 picks a free port; see
    /// [`BoundPollPlane::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        id: ServerId,
        num_servers: u32,
        listen_addr: A,
    ) -> std::io::Result<BoundPollPlane> {
        let listener = bind_listener(id, num_servers, listen_addr)?;
        Ok(BoundPollPlane {
            id,
            num_servers,
            listener,
        })
    }

    /// Hand the accumulated batch to the event loop (blocking while the loop
    /// is `COMMAND_BACKLOG` commands behind) and wake it. The batch buffer
    /// cycles: a fresh one is checked out of the pool, and the shipped one
    /// returns there once every peer has written and acknowledged it.
    fn flush_batch(&mut self) -> Result<(), PlaneError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.batch, self.pool.checkout());
        self.commands
            .send(Command::Broadcast {
                superstep: self.batch_superstep,
                batch: Arc::new(full),
            })
            .map_err(|_| PlaneError::Disconnected)?;
        self.batch_flushes.incr();
        self.wake();
        Ok(())
    }

    fn wake(&self) {
        // A full waker pipe means the loop already has a pending wakeup;
        // any other failure surfaces through the command channel.
        let _ = (&self.waker).write(&[1]);
    }

    /// Tear this endpoint down as a *crash* — the in-process analog of
    /// `kill -9` for chaos tests: the event loop closes every stream on the
    /// spot (queued bytes included) and exits without sending a goodbye,
    /// serving a linger, or attempting recovery. Without this, a crash
    /// simulated as "sever, then drop" races the plane's own redial
    /// machinery, which can resurrect the link in the gap and turn the drop
    /// into a clean goodbye exit — peers would then stop holding the door
    /// open for a replacement.
    pub fn crash(self) {
        let _ = self.commands.send(Command::Crash);
        self.wake();
        // The normal drop runs next: its Shutdown command lands on a closed
        // channel (ignored) and it joins the already-exiting event loop.
    }
}

impl BroadcastPlane for PollPlane {
    fn num_servers(&self) -> u32 {
        self.num_servers
    }

    fn server_id(&self) -> ServerId {
        self.id
    }

    fn broadcast(&mut self, superstep: u32, wire: &[u8]) -> Result<(), PlaneError> {
        // Frames accumulate in the batch (encode_message_into appends); they
        // reach the event loop when the batch fills or the superstep ends —
        // whole supersteps travel as one contiguous buffer instead of one
        // command + waker write + socket write per frame.
        self.batch_superstep = superstep;
        crate::frame::encode_message_into(self.id, superstep, wire, &mut self.batch)
            .map_err(|e| PlaneError::Protocol(e.to_string()))?;
        if self.batch.len() >= BATCH_FLUSH {
            self.flush_batch()?;
        }
        Ok(())
    }

    fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError> {
        self.batch_superstep = superstep;
        Frame::EndOfSuperstep {
            sender: self.id,
            superstep,
        }
        .encode(&mut self.batch);
        // The batch must ship now — peers block in `collect` until they see
        // this marker. Delivery itself stays a liveness property of the
        // event loop (no blocking socket write here).
        self.flush_batch()
    }

    fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
        let inbox = &self.inbox;
        self.collector.collect(superstep, &self.peer_ids, || {
            inbox.recv().map_err(|_| PlaneError::Disconnected)
        })
    }

    fn acknowledge(&mut self, superstep: u32) -> Result<(), PlaneError> {
        // Acks travel unretained (losing one to a cut only delays replay-log
        // trimming) in their own batch, so they never mix into a retained one.
        let mut buf = self.pool.checkout();
        Frame::Ack {
            sender: self.id,
            superstep,
        }
        .encode(&mut buf);
        self.commands
            .send(Command::Ack {
                superstep,
                batch: Arc::new(buf),
            })
            .map_err(|_| PlaneError::Disconnected)?;
        self.wake();
        Ok(())
    }

    fn abort(&mut self) {
        // The abort rides whatever is still batched (stream order preserved).
        // Those batched frames travel unretained — acceptable, because an
        // abort ends the run for every peer anyway.
        Frame::Abort { sender: self.id }.encode(&mut self.batch);
        // Best effort and non-blocking (the WIRE.md §5 contract): try_send,
        // not send — a full command channel means the loop is backpressured,
        // and an aborting worker must unwind rather than park on it. A
        // dropped abort is recovered by peers observing the stream close.
        let full = std::mem::replace(&mut self.batch, self.pool.checkout());
        let _ = self.commands.try_send(Command::Abort(Arc::new(full)));
        self.wake();
    }
}

impl SeverPeer for PollPlane {
    fn sever_peer(&mut self, peer: ServerId) {
        let _ = self.commands.send(Command::Sever(peer));
        self.wake();
    }
}

impl Drop for PollPlane {
    fn drop(&mut self) {
        // Ship any still-batched frames (normally none: `end_superstep`
        // flushes), then everything is in the FIFO command channel and the
        // loop flushes it all before half-closing.
        let _ = self.flush_batch();
        let _ = self.commands.send(Command::Shutdown);
        self.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for PollPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollPlane")
            .field("id", &self.id)
            .field("num_servers", &self.num_servers)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

enum Command {
    /// Enqueue this batch of pre-encoded frame bytes to every peer and retain
    /// it in the replay log under `superstep` until every peer acks it (a
    /// batch never spans supersteps because `end_superstep` always flushes).
    Broadcast { superstep: u32, batch: SharedBatch },
    /// An acknowledgement batch: enqueued unretained, but the superstep is
    /// remembered so a re-established link can repeat the latest ack (acks
    /// die with a cut stream).
    Ack { superstep: u32, batch: SharedBatch },
    /// An abort batch: enqueued unretained, and marks the run aborted so
    /// shutdown never lingers for stragglers.
    Abort(SharedBatch),
    /// Chaos injection: cut the live connection to this peer (flush its
    /// queue, then close our write half — the peer sees a full stream then a
    /// FIN, exactly like a real boundary failure).
    Sever(ServerId),
    /// Chaos injection: die like a killed process — close every stream on
    /// the spot (queued bytes included), send no goodbye, serve no linger,
    /// attempt no recovery, and exit the loop immediately.
    Crash,
    /// Flush all write queues, half-close the streams, exit the loop.
    Shutdown,
}

/// One peer connection's event-driven state.
struct Peer {
    id: ServerId,
    stream: TcpStream,
    /// Carries partial frames across loop iterations.
    decoder: FrameDecoder,
    /// Pending outbound (batch, offset-already-written). The batch `Arc` is
    /// shared across all peers' queues and the replay log: one broadcast
    /// batch, one buffer — returned to the plane's pool when the last holder
    /// lets go.
    outbound: VecDeque<(SharedBatch, usize)>,
    queued_bytes: usize,
    /// False while the link is down (and for good once the peer is gone).
    read_open: bool,
    /// False once a write failed; the queue is discarded (the read path
    /// notices the cut and parks the link).
    write_open: bool,
    /// Highest ack superstep queued on this link while writable (`None`
    /// when none). Acks travel unretained, so this is what tells a finished
    /// endpoint whether a down peer might still be waiting on our floor.
    ack_delivered: Option<u32>,
    /// True once the peer sent a `Goodbye`: its next EOF is a deliberate
    /// clean exit, so the cut must not arm recovery and the linger must not
    /// hold the door for it.
    done: bool,
    /// The recovery clock while the link is cut (`None` = believed up).
    down: Option<DownState>,
    /// Terminally lost: never redialed, never re-accepted.
    gone: bool,
    /// Complete frames decoded off this peer's stream.
    frames_in: Counter,
    /// Raw stream bytes read from this peer.
    bytes_in: Counter,
}

impl Peer {
    fn enqueue(&mut self, bytes: &SharedBatch, queued_peak: &Counter) {
        if self.write_open {
            self.queued_bytes += bytes.len();
            queued_peak.record_max(self.queued_bytes as u64);
            self.outbound.push_back((Arc::clone(bytes), 0));
        }
    }

    /// Close both directions on the spot and forget everything queued.
    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.read_open = false;
        self.write_open = false;
        self.outbound.clear();
        self.queued_bytes = 0;
    }
}

/// One down peer's recovery clock.
struct DownState {
    /// Past this instant the peer is declared terminally lost.
    deadline: Instant,
    /// Next redial attempt (dial-side recovery only).
    next_retry: Instant,
    /// Deterministic seeded exponential backoff pacing the redials.
    backoff: ReconnectBackoff,
}

struct EventLoop {
    id: ServerId,
    num_servers: u32,
    /// Registered with the poller as slots `1..=peers.len()`.
    peers: Vec<Peer>,
    /// Poller slot 0.
    waker_rx: TcpStream,
    /// The last poller slot. Kept open for the whole run so cut peers — or a
    /// restarted process — can always dial back in.
    listener: TcpListener,
    commands: Receiver<Command>,
    inbox: Sender<InboxEvent>,
    poller: Box<dyn ReadinessPoller>,
    counters: LoopCounters,
    peer_addrs: Vec<SocketAddr>,
    config: ResilienceConfig,
    /// Remaining sabotaged dial attempts (chaos handshake faults).
    fault_budget: u32,
    replay: ReplayLog,
    /// Per-peer count of completed supersteps received (EOS superstep + 1),
    /// indexed by server id: the `resume_from` this endpoint requests when a
    /// link is re-established.
    recv_cursor: Vec<u32>,
    /// Highest superstep this endpoint acknowledged; repeated on every
    /// re-established link (acks are unretained — any the peer missed while
    /// down died with the old stream, and it needs the current floor to trim
    /// its own replay log and finish its own linger).
    last_ack: Option<u32>,
    /// Set by [`Command::Abort`]: an aborted run never lingers at shutdown.
    aborted: bool,
    /// The plane's pool, for the few frames the loop itself encodes.
    pool: BufferPool,
    /// Book version last pushed as a tag-6 gossip frame: the steady-state
    /// cadence check in `gossip_tick` is one u64 compare per iteration —
    /// zero allocation until the book actually moves (never, on a fault-free
    /// run).
    last_gossip_version: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut read_buf = vec![0u8; READ_CHUNK];
        let listener_slot = 1 + self.peers.len();
        let mut interest = vec![Readiness::none(); listener_slot + 1];
        let mut ready = interest.clone();
        interest[0].readable = true;
        interest[listener_slot].readable = true;
        let mut shutting_down = false;
        // Armed on the first shutdown iteration that still owes a down peer
        // something: the graceful-termination linger window.
        let mut linger_deadline: Option<Instant> = None;
        let mut progressed = true;
        loop {
            // 1. Commands — but only while below the high-water mark: a slow
            // peer's growing queue stops the intake, the bounded channel
            // fills, and the producer blocks in `broadcast`.
            while !shutting_down {
                if !self.peers.iter().all(|p| p.queued_bytes < WRITE_HIGH_WATER) {
                    // Intake gated: backpressure is reaching the producer.
                    self.counters.high_water_stalls.incr();
                    break;
                }
                match self.commands.try_recv() {
                    Ok(Command::Broadcast { superstep, batch }) => {
                        // Retain before enqueueing: a frame is replayable
                        // the moment any peer could have missed it.
                        self.replay.append(superstep, Arc::clone(&batch));
                        self.enqueue_all(&batch);
                    }
                    Ok(Command::Ack { superstep, batch }) => {
                        self.last_ack = Some(self.last_ack.map_or(superstep, |s| s.max(superstep)));
                        self.enqueue_all(&batch);
                        for peer in self.peers.iter_mut().filter(|p| p.write_open) {
                            // Queued while writable counts as delivered:
                            // the exit path flushes queues before close.
                            peer.ack_delivered =
                                Some(peer.ack_delivered.map_or(superstep, |s| s.max(superstep)));
                        }
                    }
                    Ok(Command::Abort(batch)) => {
                        self.aborted = true;
                        self.enqueue_all(&batch);
                    }
                    Ok(Command::Sever(peer_id)) => {
                        if let Some(peer) = self.peers.iter_mut().find(|p| p.id == peer_id) {
                            sever_peer(peer);
                        }
                    }
                    Ok(Command::Crash) => {
                        // kill -9: everything closes abruptly — queued bytes
                        // die with the process, no goodbye, no linger, no
                        // recovery served. Returning drops the listener too.
                        self.peers.iter_mut().for_each(Peer::close);
                        return;
                    }
                    // A disconnected sender means the plane was dropped; it
                    // always sends Shutdown first, but be safe either way.
                    Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => shutting_down = true,
                    Err(TryRecvError::Empty) => break,
                }
                progressed = true;
            }

            // 1b. Graceful-termination linger: a finished endpoint must keep
            // serving (accepts, replay, recovery) while a *down* peer might
            // still need something only we can give it — frames we retain
            // (it has not acked everything) or our latest ack (acks travel
            // unretained, so one lost to a cut leaves the peer unable to
            // trim its own log and finish its own linger). Exiting early
            // slams the listener on a peer cut near the end of the run; its
            // redials bounce until its deadline declares us lost. Up links
            // owe nothing (queued bytes reach the peer even after we close),
            // gone peers can never come back, and an aborted run never
            // lingers. Bounded by the reconnect deadline (a peer down that
            // long is given up by recovery, which forgets it from the log).
            let lingering = shutting_down && !self.aborted && self.owes_a_down_peer() && {
                let deadline = *linger_deadline
                    .get_or_insert_with(|| Instant::now() + self.config.reconnect_deadline);
                Instant::now() < deadline
            };

            // 1c. Recovery: declare deadline-expired peers lost and redial
            // lower-id down peers (higher-id ones come back through the
            // listener). Skipped once shutting down past the linger — the
            // run is over.
            if !shutting_down || lingering {
                progressed |= self.recovery_tick();
                progressed |= self.gossip_tick();
            }

            // 2. Exit once told to stop, done lingering, and every queue is
            // flushed (or its peer unreachable). Announce the clean exit so
            // peers treat the coming EOFs as a deliberate close, not a cut to
            // recover from (best-effort: 9 bytes into a drained socket
            // buffer), then half-close so they see a clean EOF after our
            // final bytes.
            if shutting_down
                && !lingering
                && self
                    .peers
                    .iter()
                    .all(|p| p.outbound.is_empty() || !p.write_open)
            {
                let mut goodbye = Vec::new();
                Frame::Goodbye { sender: self.id }.encode(&mut goodbye);
                for peer in &self.peers {
                    if peer.write_open {
                        let _ = (&peer.stream).write_all(&goodbye);
                    }
                    let _ = peer.stream.shutdown(Shutdown::Write);
                }
                return;
            }

            // 3. Readiness round. Zero timeout while work remains from the
            // previous round, so a burst is serviced without sleeping.
            for (slot, peer) in interest[1..].iter_mut().zip(&self.peers) {
                slot.readable = peer.read_open;
                slot.writable = peer.write_open && !peer.outbound.is_empty();
            }
            let timeout = if progressed {
                Duration::ZERO
            } else {
                POLL_TIMEOUT
            };
            if self.poller.poll(&interest, &mut ready, timeout).is_err() {
                // A broken poller cannot drive any stream: report every
                // peer lost, then park on the command channel until the
                // plane shuts us down (no point spinning on a dead poller).
                for idx in 0..self.peers.len() {
                    if !self.peers[idx].gone {
                        self.peers[idx].close();
                        self.declare_gone(idx, PlaneError::Disconnected);
                    }
                }
                loop {
                    match self.commands.recv() {
                        Ok(Command::Shutdown) | Err(_) => return,
                        Ok(_) => continue,
                    }
                }
            }

            progressed = false;
            if ready[0].readable {
                progressed |= drain_waker(&self.waker_rx, &mut read_buf);
            }
            for idx in 0..self.peers.len() {
                let state = ready[1 + idx];
                if state.readable && self.peers[idx].read_open {
                    progressed |= self.pump_reads(idx, &mut read_buf);
                }
                let peer = &mut self.peers[idx];
                if state.writable && peer.write_open && !peer.outbound.is_empty() {
                    progressed |= pump_writes(peer, &self.counters);
                }
            }
            if (!shutting_down || lingering) && ready[listener_slot].readable {
                progressed |= self.accept_connections();
            }
        }
    }

    fn enqueue_all(&mut self, batch: &SharedBatch) {
        for peer in &mut self.peers {
            peer.enqueue(batch, &self.counters.queued_bytes_peak);
        }
    }

    /// Does some down peer still need frames we retain, or our latest ack?
    fn owes_a_down_peer(&self) -> bool {
        let replay_needed = self.replay.retained_supersteps() > 0;
        self.peers.iter().any(|peer| {
            peer.down.is_some()
                && (replay_needed
                    || self
                        .last_ack
                        .is_some_and(|ack| peer.ack_delivered != Some(ack)))
        })
    }

    /// Give up on peer `idx` for good: it stops gating retention (its acks
    /// can never arrive) and the collector learns the terminal `error`.
    fn declare_gone(&mut self, idx: usize, error: PlaneError) {
        let peer = &mut self.peers[idx];
        peer.down = None;
        peer.gone = true;
        self.replay.forget(peer.id);
        self.counters.peers_lost.incr();
        let _ = self.inbox.send(InboxEvent::PeerLost(peer.id, error));
    }

    /// Park a peer whose stream ended: close it fully, reset the decoder (a
    /// torn frame tail is re-delivered by replay, not resumed mid-frame), and
    /// start the recovery clock — unless the peer is already terminally gone
    /// or announced a clean exit with a goodbye. A stream end is a *cut*,
    /// not a loss: only the reconnect deadline makes it terminal.
    fn enter_down(&mut self, idx: usize) {
        let peer = &mut self.peers[idx];
        peer.close();
        // Anything queued (acks included) may have died with the stream; the
        // reinstall's repeated ack is what re-establishes delivery.
        peer.ack_delivered = None;
        peer.decoder = FrameDecoder::new();
        if peer.gone {
            return;
        }
        if peer.done {
            // Announced clean exit: nothing to recover — no redial clock, no
            // linger obligation — but the collector must still learn the
            // stream is over (benign once the peer ended its last superstep:
            // streams are FIFO, so everything it sent was delivered first).
            let _ = self
                .inbox
                .send(InboxEvent::PeerLost(peer.id, PlaneError::Disconnected));
            return;
        }
        let now = Instant::now();
        peer.down = Some(DownState {
            deadline: now + self.config.reconnect_deadline,
            next_retry: now,
            backoff: self.config.backoff_for(self.id, peer.id),
        });
    }

    /// One round of recovery: expire deadlines into terminal `PeerLost`,
    /// redial lower-id down peers whose backoff elapsed. Higher-id peers
    /// redial us; we only watch their deadline here.
    fn recovery_tick(&mut self) -> bool {
        let mut progressed = false;
        for idx in 0..self.peers.len() {
            let (deadline, next_retry) = match &self.peers[idx].down {
                Some(d) => (d.deadline, d.next_retry),
                None => continue,
            };
            let now = Instant::now();
            if now >= deadline {
                self.declare_gone(idx, PlaneError::Disconnected);
                progressed = true;
                continue;
            }
            let peer_id = self.peers[idx].id;
            if peer_id < self.id && now >= next_retry {
                match self.dial_link(peer_id) {
                    Some((stream, peer_resume_from)) => {
                        progressed = true;
                        self.install_link(idx, stream, peer_resume_from);
                    }
                    None => {
                        if let Some(d) = self.peers[idx].down.as_mut() {
                            d.next_retry = Instant::now() + d.backoff.next_delay();
                        }
                    }
                }
            }
        }
        progressed
    }

    /// Anti-entropy push, one check per loop iteration: if the address book
    /// moved past what this endpoint last gossiped, flood the delta to every
    /// writable peer as an unretained tag-6 frame. Receivers whose merge
    /// changes nothing do not bump their own version, so the flood converges.
    /// Fault-free runs never get past the version compare — the book only
    /// moves when an address changes.
    fn gossip_tick(&mut self) -> bool {
        let Some(membership) = self.config.membership.as_ref() else {
            return false;
        };
        let version = membership.version();
        if version <= self.last_gossip_version {
            return false;
        }
        self.last_gossip_version = version;
        let mut buf = self.pool.checkout();
        Frame::Membership {
            sender: self.id,
            payload: membership.delta_payload().into(),
        }
        .encode(&mut buf);
        self.enqueue_all(&Arc::new(buf));
        true
    }

    /// One bounded redial attempt (connect + resume handshake). The target
    /// address comes from the gossiped book when membership is live — a
    /// replacement process may have adopted the peer's id at a fresh address.
    fn dial_link(&mut self, peer: ServerId) -> Option<(TcpStream, u32)> {
        let addr = self.config.peer_addr(peer, &self.peer_addrs);
        let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(100)).ok()?;
        let hello = ResumeHello {
            cluster_size: self.num_servers,
            sender: self.id,
            resume_from: self.recv_cursor[peer as usize],
        };
        dial_handshake(
            stream,
            hello,
            peer,
            self.config.handshake_fault,
            &mut self.fault_budget,
        )
        .ok()
    }

    /// Drain the listener's accept queue: every valid reconnect supersedes
    /// whatever stream its slot holds and is installed with replay; a `GHHM`
    /// exchange is served (it may teach us a replacement's fresh address,
    /// which the next `gossip_tick` floods to the survivors); anything else
    /// is dropped without disturbing the plane. This runs on the loop thread,
    /// so no connection may hold it longer than [`LOOP_HANDSHAKE_CAP`].
    fn accept_connections(&mut self) -> bool {
        let mut progressed = false;
        // `Err` = WouldBlock or a transient accept error: done for this round.
        while let Ok((stream, _from)) = self.listener.accept() {
            let recv_cursor = &self.recv_cursor;
            let accepted = accept_connection(
                stream,
                self.num_servers,
                self.id,
                LOOP_HANDSHAKE_CAP,
                self.config.membership.as_ref(),
                |sender| recv_cursor[sender as usize],
            );
            let (sender, stream, peer_resume_from) = match accepted {
                Ok(Some(link)) => link,
                Ok(None) => {
                    progressed = true;
                    continue;
                }
                Err(_) => continue,
            };
            // Higher-id sender (the handshake checked): its slot is `sender - 1`.
            let idx = (sender - 1) as usize;
            if self.peers[idx].gone {
                continue; // terminally lost peers stay dead
            }
            // Supersede the old stream (cut, or abandoned by the peer). Unread
            // tail bytes on it are torn-tail frames ≥ the cursor we just sent —
            // the peer replays them on the new stream and the collector dedups.
            let _ = self.peers[idx].stream.shutdown(Shutdown::Both);
            progressed = true;
            self.install_link(idx, stream, peer_resume_from);
        }
        progressed
    }

    /// Adopt a handshaken stream as the live link for slot `idx`: replay what
    /// the peer still needs, announce the resume, and rearm the poller slot.
    fn install_link(&mut self, idx: usize, stream: TcpStream, peer_resume_from: u32) {
        let batches = match self.replay.replay_from(peer_resume_from) {
            Ok(batches) => batches,
            Err(e) => {
                // The peer wants frames already trimmed below the replay floor:
                // permanently unrecoverable, not a transient failure.
                self.declare_gone(idx, PlaneError::Protocol(e.to_string()));
                return;
            }
        };
        if stream.set_nonblocking(true).is_err()
            || self.poller.reregister(1 + idx, &stream).is_err()
        {
            return; // could not adopt the stream; recovery keeps retrying
        }
        let peer = &mut self.peers[idx];
        peer.stream = stream;
        peer.decoder = FrameDecoder::new();
        peer.outbound.clear();
        peer.queued_bytes = 0;
        peer.read_open = true;
        peer.write_open = true;
        // The resume event precedes everything the new stream can deliver
        // (frames only surface through pump_reads, which runs after this
        // returns): the collector purges the old torn tail at the event, then
        // dedups whatever the replay below re-delivers.
        let _ = self.inbox.send(InboxEvent::PeerResumed(peer.id));
        self.counters.reconnects.incr();
        for batch in &batches {
            peer.enqueue(batch, &self.counters.queued_bytes_peak);
            self.counters.replayed_frames.add(count_frames(batch));
        }
        // Repeat our latest ack on the new link: the peer may have missed it
        // while down, and it needs the current floor to trim its own replay log
        // (and finish its own linger at shutdown).
        if let Some(superstep) = self.last_ack {
            let mut buf = self.pool.checkout();
            Frame::Ack {
                sender: self.id,
                superstep,
            }
            .encode(&mut buf);
            peer.enqueue(&Arc::new(buf), &self.counters.queued_bytes_peak);
        }
        peer.ack_delivered = self.last_ack;
        // A rejoining (restarted) peer is a live participant again.
        peer.done = false;
        peer.down = None;
    }

    /// Read peer `idx`'s socket until it would block, feeding the frame
    /// decoder. Transport-level frames are consumed here — acks trim the
    /// replay log, a goodbye marks the peer done, gossip merges into the book
    /// — end-of-superstep markers raise the peer's receive cursor, and
    /// everything else is forwarded to the collector. *Any* stream end — EOF,
    /// torn frame, corrupt bytes, sender mismatch, I/O error — parks the link
    /// ([`Self::enter_down`]) instead of declaring the peer lost. Returns
    /// whether anything happened.
    fn pump_reads(&mut self, idx: usize, buf: &mut [u8]) -> bool {
        let peer = &mut self.peers[idx];
        let mut progressed = false;
        let ended = 'stream: loop {
            let n = match (&peer.stream).read(buf) {
                Ok(0) => break true,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            };
            progressed = true;
            peer.bytes_in.add(n as u64);
            peer.decoder.push(&buf[..n]);
            loop {
                let frame = match peer.decoder.next_frame() {
                    Ok(Some(frame)) if frame.sender() == peer.id => frame,
                    Ok(None) => break,
                    // Corrupt bytes or a foreign sender: a poisoned stream.
                    Ok(Some(_)) | Err(_) => break 'stream true,
                };
                peer.frames_in.incr();
                match frame {
                    Frame::Ack { sender, superstep } => {
                        self.replay.ack(sender, superstep);
                        continue;
                    }
                    Frame::Goodbye { .. } => {
                        // Deliberate clean exit: the EOF that follows is
                        // not a cut.
                        peer.done = true;
                        continue;
                    }
                    Frame::Membership { ref payload, .. } => {
                        // Address-book gossip: merge it; the next
                        // `gossip_tick` pushes any news onward. A malformed
                        // payload is dropped (the anti-entropy cadence
                        // re-converges).
                        if let Some(m) = self.config.membership.as_ref() {
                            if let Ok(msg) = MembershipMsg::decode(payload) {
                                let _ = m.merge_msg(&msg);
                            }
                        }
                        continue;
                    }
                    Frame::EndOfSuperstep { superstep, .. } => {
                        let cursor = &mut self.recv_cursor[peer.id as usize];
                        *cursor = (*cursor).max(superstep.saturating_add(1));
                    }
                    Frame::Message { .. } | Frame::Abort { .. } => {}
                }
                if self.inbox.send(InboxEvent::Frame(frame)).is_err() {
                    // Plane dropped; stop decoding, no recovery.
                    peer.read_open = false;
                    return true;
                }
            }
        };
        if ended {
            self.enter_down(idx);
        }
        progressed || ended
    }
}

/// Chaos injection on one peer link: flush everything queued (blocking — a
/// sever is deterministic, the peer must receive the full superstep), then
/// close only our write half. The peer observes a complete stream followed by
/// a FIN — exactly a superstep-boundary failure; its recovery then closes its
/// socket, which our read path observes, parking our side of the link too.
fn sever_peer(peer: &mut Peer) {
    if !peer.write_open {
        return;
    }
    let _ = peer.stream.set_nonblocking(false);
    while let Some((bytes, offset)) = peer.outbound.pop_front() {
        if peer.stream.write_all(&bytes[offset..]).is_err() {
            break;
        }
    }
    peer.outbound.clear();
    peer.queued_bytes = 0;
    let _ = peer.stream.set_nonblocking(true);
    let _ = peer.stream.shutdown(Shutdown::Write);
    peer.write_open = false;
}

/// Write queued bytes to one peer until its socket would block or the queue
/// drains, gathering up to [`MAX_WRITE_VECTORS`] queued batches into a single
/// `write_vectored` call — one syscall moves everything the queue holds,
/// however the batches were produced. A write failure discards the queue and
/// closes the write half — the peer's own read path is what attributes the
/// loss. Returns whether any bytes moved.
fn pump_writes(peer: &mut Peer, counters: &LoopCounters) -> bool {
    let mut progressed = false;
    loop {
        let mut iov = [IoSlice::new(&[]); MAX_WRITE_VECTORS];
        let mut vectors = 0usize;
        for (bytes, offset) in peer.outbound.iter().take(MAX_WRITE_VECTORS) {
            iov[vectors] = IoSlice::new(&bytes[*offset..]);
            vectors += 1;
        }
        if vectors == 0 {
            return progressed;
        }
        counters.write_vectored_calls.incr();
        let wrote = match (&peer.stream).write_vectored(&iov[..vectors]) {
            Ok(0) => {
                // A zero-length write on non-empty slices: treat as a dead
                // stream rather than spinning.
                peer.write_open = false;
                peer.queued_bytes = 0;
                peer.outbound.clear();
                return progressed;
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                peer.write_open = false;
                peer.queued_bytes = 0;
                peer.outbound.clear();
                return progressed;
            }
        };
        progressed = true;
        counters.bytes_written.add(wrote as u64);
        peer.queued_bytes -= wrote;
        // Advance the queue past the written bytes (a short write can end
        // mid-batch; the remainder goes out next readiness round).
        let mut remaining = wrote;
        while remaining > 0 {
            let (bytes, offset) = peer
                .outbound
                .front_mut()
                .expect("written bytes came from the queue");
            let left = bytes.len() - *offset;
            if remaining >= left {
                remaining -= left;
                peer.outbound.pop_front();
            } else {
                *offset += remaining;
                remaining = 0;
            }
        }
    }
}

/// Drain the waker pipe (its only payload is "wake up").
fn drain_waker(waker: &TcpStream, buf: &mut [u8]) -> bool {
    let mut progressed = false;
    loop {
        match (&*waker).read(buf) {
            Ok(0) => return progressed, // plane dropped its write end
            Ok(_) => progressed = true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return progressed, // WouldBlock or a dead waker: either way, proceed
        }
    }
}

/// A connected loopback TCP pair used as a portable waker: the write end
/// lives with the plane, the read end sits in the poll set. (Unix pipes would
/// do on Unix; a loopback pair works on every std target and registers with
/// any [`ReadinessPoller`].)
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    // Guard against a stranger racing onto the transient listener.
    let local = tx.local_addr()?;
    let rx = loop {
        let (candidate, peer_addr) = listener.accept()?;
        if peer_addr == local {
            break candidate;
        }
    };
    tx.set_nodelay(true)?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{CutPlan, FaultPlane};
    use crate::resume::HandshakeFault;
    use std::thread;

    const TIMEOUT: Duration = Duration::from_secs(10);

    fn bind_cluster(n: u32) -> (Vec<BoundPollPlane>, Vec<SocketAddr>) {
        let bound: Vec<BoundPollPlane> = (0..n)
            .map(|sid| PollPlane::bind(sid, n, "127.0.0.1:0").unwrap())
            .collect();
        let addrs = bound.iter().map(|b| b.local_addr().unwrap()).collect();
        (bound, addrs)
    }

    /// Establish every endpoint concurrently, each through `establish`.
    fn establish_all_with(
        bound: Vec<BoundPollPlane>,
        establish: impl Fn(BoundPollPlane) -> std::io::Result<PollPlane> + Sync,
    ) -> Vec<PollPlane> {
        thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| {
                    let establish = &establish;
                    scope.spawn(move || establish(b).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn establish_all(
        bound: Vec<BoundPollPlane>,
        addrs: &[SocketAddr],
        config: &ResilienceConfig,
    ) -> Vec<PollPlane> {
        establish_all_with(bound, |b| {
            b.establish_resilient(addrs, TIMEOUT, config.clone())
        })
    }

    fn establish_pair(config: &ResilienceConfig) -> (PollPlane, PollPlane) {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_all(bound, &addrs, config);
        let p1 = planes.pop().unwrap();
        (planes.pop().unwrap(), p1)
    }

    /// One endpoint of a 2-server cluster through `supersteps`: broadcast
    /// `[id, s]`, and demand exactly the peer's `[peer, s]` back — once.
    fn exchange(p: &mut dyn BroadcastPlane, supersteps: std::ops::Range<u32>) {
        let id = p.server_id();
        let peer = 1 - id;
        for s in supersteps {
            p.broadcast(s, &[id as u8, s as u8]).unwrap();
            p.end_superstep(s).unwrap();
            let got = p.collect(s).unwrap();
            assert_eq!(got.len(), 1, "server {id} superstep {s}: exactly once");
            assert_eq!(&got[0][..], &[peer as u8, s as u8]);
            p.acknowledge(s).unwrap();
        }
    }

    /// Run both endpoints of a pair through `supersteps` concurrently.
    fn exchange_pair(
        p0: &mut dyn BroadcastPlane,
        p1: &mut dyn BroadcastPlane,
        supersteps: std::ops::Range<u32>,
    ) {
        thread::scope(|scope| {
            let steps = supersteps.clone();
            scope.spawn(move || exchange(p0, steps));
            scope.spawn(move || exchange(p1, supersteps));
        });
    }

    #[test]
    fn config_errors_are_rejected_at_bind() {
        assert!(PollPlane::bind(0, 0, "127.0.0.1:0").is_err());
        assert!(PollPlane::bind(3, 3, "127.0.0.1:0").is_err());
        assert!(PollPlane::bind(0, 1, "127.0.0.1:0").is_ok());
    }

    #[test]
    fn single_server_poll_plane_collects_nothing() {
        let (bound, addrs) = bind_cluster(1);
        let mut plane = bound.into_iter().next().unwrap().establish(&addrs).unwrap();
        plane.end_superstep(0).unwrap();
        assert_eq!(plane.collect(0).unwrap(), Vec::<WireMessage>::new());
    }

    #[test]
    fn all_to_all_delivery_over_the_event_loop() {
        let (bound, addrs) = bind_cluster(3);
        let planes = establish_all_with(bound, |b| b.establish(&addrs));
        let results: Vec<Vec<usize>> = thread::scope(|scope| {
            let handles: Vec<_> = planes
                .into_iter()
                .map(|mut p| {
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for s in 0..4u32 {
                            for _ in 0..=s {
                                p.broadcast(s, &[p.server_id() as u8, s as u8]).unwrap();
                            }
                            p.end_superstep(s).unwrap();
                            let got = p.collect(s).unwrap();
                            assert!(got.iter().all(|w| w.len() == 2 && w[1] == s as u8));
                            p.acknowledge(s).unwrap();
                            seen.push(got.len());
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for seen in results {
            assert_eq!(seen, vec![2, 4, 6, 8]);
        }
    }

    /// Same exchange, poller forced to the portable spin fallback: the
    /// readiness seam (not just the Linux syscall shim) carries the protocol.
    #[test]
    fn all_to_all_delivery_with_the_spin_poller() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_all_with(bound, |b| {
            b.establish_resilient_with(
                &addrs,
                TIMEOUT,
                ResilienceConfig::default(),
                Box::new(SpinPoller::new()),
            )
        });
        let (p0, p1) = planes.split_at_mut(1);
        exchange_pair(&mut p0[0], &mut p1[0], 0..3);
    }

    #[test]
    fn abort_crosses_the_event_loop() {
        let (mut a, mut b) = establish_pair(&ResilienceConfig::default());
        b.abort();
        a.end_superstep(0).unwrap();
        assert_eq!(a.collect(0), Err(PlaneError::Aborted(1)));
    }

    /// A clean exit says goodbye, so the survivor sees it at once — not after
    /// the reconnect deadline a silent death would cost.
    #[test]
    fn dropped_peer_surfaces_as_disconnect() {
        let (mut a, b) = establish_pair(&ResilienceConfig::default());
        let start = Instant::now();
        drop(b); // peer flushes (nothing), says goodbye, half-closes, exits
        assert_eq!(a.collect(0), Err(PlaneError::Disconnected));
        assert!(start.elapsed() < ResilienceConfig::default().reconnect_deadline / 2);
    }

    /// Frames queued before a drop must still reach the peer: a worker that
    /// finishes the run and drops its plane has, by then, broadcast its last
    /// end-of-superstep marker — the loop flushes before half-closing.
    #[test]
    fn drop_flushes_queued_frames_before_closing() {
        let (mut a, mut b) = establish_pair(&ResilienceConfig::default());
        b.broadcast(0, &[42]).unwrap();
        b.end_superstep(0).unwrap();
        drop(b);
        let wires = a.collect(0).unwrap();
        assert_eq!(wires.len(), 1);
        assert_eq!(&wires[0][..], &[42]);
    }

    /// A large broadcast volume must flow even though both sides write
    /// before either reads — the loop's concurrent read/write pumping is
    /// what makes this deadlock-free (a blocking all-write-then-read
    /// design would stall once both TCP buffers filled).
    #[test]
    fn bulk_bidirectional_traffic_does_not_deadlock() {
        let (bound, addrs) = bind_cluster(2);
        let planes = establish_all(bound, &addrs, &ResilienceConfig::default());
        let payload = vec![7u8; 256 * 1024];
        thread::scope(|scope| {
            for mut p in planes {
                let payload = &payload;
                scope.spawn(move || {
                    for s in 0..3u32 {
                        for _ in 0..8 {
                            p.broadcast(s, payload).unwrap();
                        }
                        p.end_superstep(s).unwrap();
                        let got = p.collect(s).unwrap();
                        assert_eq!(got.len(), 8);
                        assert!(got.iter().all(|w| w.len() == payload.len()));
                        p.acknowledge(s).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn missing_peer_times_out_instead_of_hanging() {
        let bound = PollPlane::bind(1, 2, "127.0.0.1:0").unwrap();
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let addrs = vec![dead_addr, bound.local_addr().unwrap()];
        let err = bound
            .establish_with_timeout(&addrs, Duration::from_millis(300))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    // The "exactly one event-loop thread per plane" and clean-shutdown
    // assertions live in `tests/poll_threads.rs`: thread counts are
    // process-wide, so they need a test binary of their own rather than a
    // unit test racing the rest of this crate's parallel suite.

    /// A connection cut at a superstep boundary recovers via redial + replay,
    /// and every superstep still collects exactly once per peer per message.
    #[test]
    fn boundary_cut_recovers_with_exactly_once_delivery() {
        let (p0, mut p1) = establish_pair(&ResilienceConfig::default());
        // Server 0 severs its link to server 1 right after superstep 1 ends:
        // server 1 sees a full superstep then a FIN, redials, and resumes.
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(1, 1)]));
        exchange_pair(&mut p0, &mut p1, 0..5);
    }

    /// Both directions cut at once (a reconnect storm, here at different
    /// supersteps each) still converges to exactly-once delivery.
    #[test]
    fn mutual_cuts_still_converge() {
        let (p0, p1) = establish_pair(&ResilienceConfig::default());
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(1, 1), (2, 1)]));
        let mut p1 = FaultPlane::new(p1, CutPlan::explicit(vec![(1, 0)]));
        exchange_pair(&mut p0, &mut p1, 0..5);
    }

    /// The recovery machinery also rides the portable spin poller — it must
    /// not depend on the Linux `poll(2)` shim (listener readiness degrades to
    /// opportunistic accept attempts).
    #[test]
    fn boundary_cut_recovers_on_the_spin_poller() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_all_with(bound, |b| {
            b.establish_resilient_with(
                &addrs,
                TIMEOUT,
                ResilienceConfig::default(),
                Box::new(SpinPoller::new()),
            )
        });
        let mut p1 = planes.pop().unwrap();
        let p0 = planes.pop().unwrap();
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(0, 1)]));
        exchange_pair(&mut p0, &mut p1, 0..3);
    }

    /// A peer that never comes back is terminal — but only after the
    /// reconnect deadline, not on the first EOF.
    #[test]
    fn dead_peer_is_terminal_only_after_the_deadline() {
        let (mut p0, p1) = establish_pair(&ResilienceConfig {
            reconnect_deadline: Duration::from_millis(200),
            retry_backoff: Duration::from_millis(20),
            ..ResilienceConfig::default()
        });
        let start = Instant::now();
        // Simulate a crash, not a graceful exit: no goodbye ever reaches p0
        // (a killed process sends none) and no self-recovery runs.
        p1.crash();
        p0.end_superstep(0).unwrap();
        assert_eq!(p0.collect(0), Err(PlaneError::Disconnected));
        assert!(
            start.elapsed() >= Duration::from_millis(150),
            "terminal loss must wait out the reconnect deadline"
        );
    }

    /// Sabotaged resume handshakes (torn hello, then dropped hello) are
    /// retried until the fault budget runs out; establishment still succeeds.
    #[test]
    fn torn_and_dropped_handshakes_are_survived() {
        for fault in [HandshakeFault::Torn { bytes: 7 }, HandshakeFault::Drop] {
            let (bound, addrs) = bind_cluster(2);
            // Only server 1 dials, so only its hellos are sabotaged.
            let mut planes = establish_all_with(bound, |b| {
                b.establish_resilient(
                    &addrs,
                    TIMEOUT,
                    ResilienceConfig {
                        handshake_fault: Some(fault),
                        handshake_fault_budget: 2,
                        ..ResilienceConfig::default()
                    },
                )
            });
            let mut p1 = planes.pop().unwrap();
            let mut p0 = planes.pop().unwrap();
            p0.broadcast(0, b"after-chaos").unwrap();
            p0.end_superstep(0).unwrap();
            p1.end_superstep(0).unwrap();
            let got = p1.collect(0).unwrap();
            assert_eq!(&got[0][..], b"after-chaos");
            assert!(p0.collect(0).unwrap().is_empty());
            // Ack like a real worker would: an unacked final superstep makes
            // the last plane to drop linger for its (now absent) peer.
            p1.acknowledge(0).unwrap();
            p0.acknowledge(0).unwrap();
        }
    }

    /// Severing an already-severed (or recovering) link is a harmless no-op.
    #[test]
    fn double_sever_is_idempotent() {
        let (mut p0, mut p1) = establish_pair(&ResilienceConfig::default());
        p0.sever_peer(1);
        p0.sever_peer(1);
        exchange_pair(&mut p0, &mut p1, 0..3);
    }

    /// A connection that says nothing must not freeze a running node: the
    /// listener is a slot of the single event loop, so the wait for a hello
    /// that never comes is capped far below a superstep's patience.
    #[test]
    fn silent_connection_mid_run_does_not_stall_the_loop() {
        let (bound, addrs) = bind_cluster(2);
        let planes = establish_all(bound, &addrs, &ResilienceConfig::default());
        let mut planes = planes.into_iter();
        let (mut p0, mut p1) = (planes.next().unwrap(), planes.next().unwrap());
        exchange_pair(&mut p0, &mut p1, 0..1);
        let silent: Vec<TcpStream> = addrs
            .iter()
            .map(|addr| TcpStream::connect(addr).unwrap())
            .collect();
        let start = Instant::now();
        exchange_pair(&mut p0, &mut p1, 1..3);
        assert!(
            start.elapsed() < 4 * LOOP_HANDSHAKE_CAP,
            "a silent prober held the event loop for {:?}",
            start.elapsed()
        );
        drop(silent);
    }

    /// Discover the book from `seed`, then establish against it.
    fn discover_and_establish(
        b: BoundPollPlane,
        seed: SocketAddr,
        config: ResilienceConfig,
    ) -> PollPlane {
        let view = b.discover(&[seed], TIMEOUT).unwrap();
        let config = ResilienceConfig {
            membership: Some(view.handle),
            ..config
        };
        b.establish_resilient(&view.peer_addrs, TIMEOUT, config)
            .unwrap()
    }

    /// A cluster bootstrapped from one seed address (no static peer table)
    /// converges its address books and reaches all-to-all parity.
    #[test]
    fn seed_discovered_cluster_reaches_parity() {
        let (bound, addrs) = bind_cluster(3);
        let seed = addrs[0];
        let planes = establish_all_with(bound, |b| {
            let view = b.discover(&[seed], TIMEOUT)?;
            assert_eq!(view.incarnation, 0, "fresh bootstrap never bumps");
            let config = ResilienceConfig {
                membership: Some(view.handle),
                ..ResilienceConfig::default()
            };
            b.establish_resilient(&view.peer_addrs, TIMEOUT, config)
        });
        let results: Vec<Vec<usize>> = thread::scope(|scope| {
            let handles: Vec<_> = planes
                .into_iter()
                .map(|mut p| {
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for s in 0..4u32 {
                            p.broadcast(s, &[p.server_id() as u8, s as u8]).unwrap();
                            p.end_superstep(s).unwrap();
                            let got = p.collect(s).unwrap();
                            assert!(got.iter().all(|w| w.len() == 2 && w[1] == s as u8));
                            p.acknowledge(s).unwrap();
                            seen.push(got.len());
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for seen in results {
            assert_eq!(seen, vec![2, 2, 2, 2]);
        }
    }

    /// A peer is killed mid-run and a replacement with the same server id
    /// rejoins **at a different address** via seed discovery. The survivor
    /// learns the fresh address through the `GHHM` exchange on its listener,
    /// its redial consults the gossiped book, and the run finishes
    /// exactly-once.
    #[test]
    fn replacement_at_a_new_address_is_adopted_mid_run() {
        let (bound, addrs) = bind_cluster(2);
        let seed = addrs[0];
        let survivor_config = ResilienceConfig {
            reconnect_deadline: Duration::from_secs(10),
            retry_backoff: Duration::from_millis(10),
            ..ResilienceConfig::default()
        };
        let victim_config = ResilienceConfig {
            reconnect_deadline: Duration::from_millis(300),
            ..survivor_config.clone()
        };
        let mut planes = establish_all_with(bound, |b| {
            let config = if b.id == 0 {
                &survivor_config
            } else {
                &victim_config
            };
            Ok(discover_and_establish(b, seed, config.clone()))
        });
        let mut p1 = planes.pop().unwrap();
        let mut p0 = planes.pop().unwrap();

        const TOTAL: u32 = 6;
        const CRASH_AT: u32 = 3;
        thread::scope(|scope| {
            // The victim crashes only once the survivor has absorbed
            // everything it broadcast pre-crash — the multiprocess driver
            // guarantees the same by killing well after the victim's
            // checkpoint lands. Crashing earlier can destroy queued frames
            // the survivor still needs, which no replacement can replay (its
            // log starts at the resume cursor): that is *correctly* terminal,
            // but it is not this test's scenario.
            let (absorbed_tx, absorbed_rx) = channel::<()>();
            scope.spawn(move || {
                exchange(&mut p0, 0..CRASH_AT);
                absorbed_tx.send(()).unwrap();
                exchange(&mut p0, CRASH_AT..TOTAL);
            });
            scope.spawn(move || {
                exchange(&mut p1, 0..CRASH_AT);
                absorbed_rx.recv().unwrap();
                // Die like a killed process: no goodbye, no linger, no
                // self-recovery — the survivor must hold the door open.
                p1.crash();
                let rb = PollPlane::bind(1, 2, "127.0.0.1:0").unwrap();
                assert_ne!(rb.local_addr().unwrap(), addrs[1]);
                // The replacement runs to a clean goodbye, so it does not
                // need the victim's short crash-linger deadline — and must
                // not have it: if its dial and the survivor's book-guided
                // redial cross, the duplicate-connection re-park plus
                // backoff can outlast 300ms on a loaded machine.
                let config = ResilienceConfig {
                    resume_from: CRASH_AT,
                    ..survivor_config.clone()
                };
                let mut p1 = discover_and_establish(rb, seed, config);
                exchange(&mut p1, CRASH_AT..TOTAL);
            });
        });
    }
}
