//! The TCP backend of the broadcast plane: real multi-process transport,
//! **one readiness loop drives every peer socket**.
//!
//! [`PollPlane`] puts one simulated server in its own OS **process** (the
//! `graphh-node` binary in `graphh-bench` does exactly that): every pair of
//! servers shares one full-duplex TCP connection, opened with the `GHHR`
//! resume hello, and frames travel in the length-prefixed wire encoding of
//! [`crate::frame`]. A thread per peer would cost each process of a
//! `p`-server cluster `p - 1` parked threads, which caps how many servers
//! one host can simulate; `PollPlane` multiplexes all peer connections onto a
//! **single event-loop thread** instead: every stream is `O_NONBLOCK`, a
//! [`ReadinessPoller`] reports which sockets can make progress, and per-peer
//! state carries partial frames ([`crate::frame::FrameDecoder`]), partial
//! handshakes and backpressured write queues across loop iterations. It feeds
//! the same [`SuperstepCollector`] inbox discipline the in-process
//! [`crate::plane::ChannelPlane`] uses — so the executor-facing behaviour
//! (superstep ordering, stashing, abort semantics) is identical and the
//! determinism suites pin `PollPlane` runs bit-identical to the sequential
//! reference (see `docs/WIRE.md` §5 for the conformance contract).
//!
//! ## Threading model
//!
//! ```text
//!  worker thread                   event-loop thread (exactly one)
//!  ─────────────                   ───────────────────────────────────────
//!  broadcast() ─encode─▶ bounded   ┌──────────────────┐      ┌───────────┐
//!  end_superstep()       command   │ commands, frames,│Event │  Fabric   │
//!  acknowledge()         channel ─▶│ hellos, stream   │─────▶│ (fabric.rs│
//!  abort()                + waker  │ ends, ticks      │      │  no I/O)  │
//!       │                          │ poll(fds) · read │Action│           │
//!       ▼                          │ write queues ·   │◀─────│ decides   │
//!  collect() ◀─ inbox channel ◀────│ dial · accept    │      └───────────┘
//!  (SuperstepCollector)            └──────────────────┘
//! ```
//!
//! The worker thread never touches a socket. The event loop never waits on a
//! read: every socket it owns — live stream, dial in flight, accepted
//! connection still short of its hello, announce still short of its snapshot
//! reply — is a non-blocking poller slot, and one that stays silent merely
//! expires at its deadline ([`HANDSHAKE_DEADLINE`]). The one bounded wait
//! left is the `connect` of a dial or an announce (`DIAL_CONNECT_CAP`).
//! Commands travel over a *bounded* channel, so a worker that broadcasts
//! faster than the network drains is throttled (backpressure) instead of
//! buffering without limit; the loop additionally stops accepting commands
//! while any peer's write queue is above its high-water mark.
//!
//! ## One protocol, decided elsewhere
//!
//! Every link speaks the fault-tolerant protocol of `docs/WIRE.md` §9 — there
//! is no other mode — and every decision it calls for is
//! [`crate::fabric::Fabric`]'s: this module turns what the OS reports into
//! [`Event`]s and performs the [`Action`]s that come back, out of one reused
//! buffer. Bringing a link up is the same path at start-up, after a cut and
//! for a replacement process, and discovering the address book from seeds
//! (`docs/WIRE.md` §10) is part of it, so `establish` only starts the loop
//! with every link down and waits for `Established`. The loop is
//! single-threaded, so none of this needs locks or generations: command
//! intake, retention, stream replacement and recovery interleave at
//! loop-iteration granularity, which makes replay gap-free by construction
//! (no frame can be retained between a replay snapshot and the stream's
//! adoption — both are one `Fabric::step`).
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
//! then repeatedly ask which can make progress — [`PollSyscallPoller`]
//! (`poll(2)`, Linux) or the portable [`SpinPoller`], which tests force on
//! every platform ([`BoundPollPlane::establish_resilient_with`]).
//!
//! A dropped [`PollPlane`] flushes its queues, half-closes its streams and
//! joins the loop thread — shutdown is asserted by the thread-count checks in
//! `tests/poll_threads.rs` and `examples/socket_cluster.rs`, not assumed.

use crate::buffer::{BufferPool, PooledBuf};
use crate::chaos::SeverPeer;
use crate::establish::{bind_listener, DEFAULT_ESTABLISH_TIMEOUT, HANDSHAKE_DEADLINE};
use crate::fabric::{Action, Command, Conn, Event, Fabric, HelloBytes, SharedBatch};
use crate::frame::{Frame, FrameDecoder, InboxEvent, PlaneError, SuperstepCollector, WireMessage};
use crate::membership::{
    AddressBook, MembershipMsg, MEMBERSHIP_ENTRY_LEN, MEMBERSHIP_HEADER_LEN, MEMBERSHIP_MAGIC,
};
use crate::plane::BroadcastPlane;
use crate::resume::{ResilienceConfig, RESUME_HELLO_LEN};
use graphh_graph::ids::ServerId;
use graphh_obs::{global_counters, Counter};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one `poll` round may sleep when nothing is ready and no clock is
/// due sooner. Bounds the latency of anything neither a socket, the waker
/// nor a timer announces.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Poller slots for accepted connections that have not finished their
/// handshake, and for announces awaiting their reply. When all are taken the
/// oldest gives way.
const PENDING_SLOTS: usize = 16;

/// Longest one connect may take. The one wait left on the loop thread — and
/// not a read: a live listener answers a SYN at once, a dead host is retried
/// with backoff anyway.
const DIAL_CONNECT_CAP: Duration = Duration::from_millis(100);

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
}

impl LoopCounters {
    fn registered() -> Self {
        let registry = global_counters();
        LoopCounters {
            write_vectored_calls: registry.counter("poll.write_vectored_calls"),
            bytes_written: registry.counter("poll.bytes_written"),
            high_water_stalls: registry.counter("poll.high_water_stalls"),
            queued_bytes_peak: registry.counter("poll.queued_bytes_peak"),
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
    /// reconnect deadline, the resume cursor of a restarted process, the
    /// seeds to discover the address book from — given seeds, `peer_addrs` is
    /// empty and `timeout` bounds discovery and establishment together.
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
    ///
    /// Establishment is the event loop's first job, not a phase before it:
    /// the loop starts with every link down and `timeout` to bring each up
    /// once (and, given seeds, to find out where), and this call only waits
    /// for its verdict.
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
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
        let own_addr = listener.local_addr()?;
        let book = if config.seeds.is_empty() {
            if peer_addrs.len() != num_servers as usize {
                return Err(invalid(format!(
                    "need one address per server: got {} for a {num_servers}-server cluster",
                    peer_addrs.len()
                )));
            }
            AddressBook::complete(id, peer_addrs)
        } else {
            if !peer_addrs.is_empty() {
                return Err(invalid(format!(
                    "a peer table ({} addresses) and seeds ({}) are alternative sources of \
                     the address book: pass one",
                    peer_addrs.len(),
                    config.seeds.len()
                )));
            }
            if own_addr.ip().is_unspecified() {
                return Err(invalid(format!(
                    "cannot advertise wildcard listener address {own_addr}: with seeds the \
                     listener must be bound to an address peers can dial"
                )));
            }
            AddressBook::new(num_servers as usize, id, own_addr)
        };

        // Slot layout: 0 = waker, 1..=peers = peer streams (live, or the dial
        // in flight), then the listener, then PENDING_SLOTS accepted
        // connections still handshaking. A slot without a socket is parked on
        // the waker's descriptor with no interest set.
        let (waker_tx, waker_rx) = waker_pair()?;
        poller.register(&waker_rx)?;
        let registry = global_counters();
        let peer_ids: Vec<ServerId> = (0..num_servers).filter(|&peer| peer != id).collect();
        let mut peers = Vec::with_capacity(peer_ids.len());
        for &peer in &peer_ids {
            poller.register(&waker_rx)?;
            peers.push(Peer {
                id: peer,
                stream: None,
                dialing: None,
                decoder: FrameDecoder::new(),
                outbound: VecDeque::new(),
                queued_bytes: 0,
                write_open: false,
                // Per-peer traffic counters, named here (the only place the
                // name formatting — an allocation — happens).
                frames_in: registry.counter(&format!("poll.s{id}.from{peer}.frames_in")),
                bytes_in: registry.counter(&format!("poll.s{id}.from{peer}.bytes_in")),
            });
        }
        listener.set_nonblocking(true)?;
        poller.register_listener(&listener)?;
        for _ in 0..PENDING_SLOTS {
            poller.register(&waker_rx)?;
        }

        let (command_tx, command_rx) = sync_channel::<Request>(COMMAND_BACKLOG);
        let (inbox_tx, inbox) = channel::<InboxEvent>();
        let (verdict_tx, verdict) = channel::<std::io::Result<AddressBook>>();
        let pool = BufferPool::new();
        let event_loop = EventLoop {
            id,
            fabric: Fabric::new(book, config, timeout, pool.clone()),
            epoch: Instant::now(),
            actions: Vec::new(),
            peers,
            pending: (0..PENDING_SLOTS).map(|_| None).collect(),
            waker_rx,
            listener,
            commands: command_rx,
            inbox: inbox_tx,
            verdict: Some(verdict_tx),
            poller,
            counters: LoopCounters::registered(),
            intake_open: true,
            exiting: false,
            dead: false,
        };
        let event_loop = std::thread::Builder::new()
            .name(format!("graphh-poll-loop-{id}"))
            .spawn(move || event_loop.run())
            .map_err(|e| std::io::Error::other(format!("spawn event-loop thread: {e}")))?;

        // A loop that fails establishment has exited; a loop that died
        // without a verdict dropped its sender.
        let verdict = verdict
            .recv()
            .unwrap_or_else(|_| Err(std::io::Error::other("event loop died while establishing")));
        let book = match verdict {
            Ok(book) => book,
            Err(e) => {
                let _ = event_loop.join();
                return Err(e);
            }
        };
        let batch = pool.checkout();
        Ok(PollPlane {
            id,
            num_servers,
            book,
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
    book: AddressBook,
    /// Peer ids, sorted — the collector's completeness set.
    peer_ids: Vec<ServerId>,
    /// Bounded command channel into the event loop (the backpressure edge).
    commands: SyncSender<Request>,
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

    /// The address book as establishment left it: the static table, or what
    /// was discovered from the seeds (the event loop's own copy goes on
    /// converging by gossip).
    pub fn book(&self) -> &AddressBook {
        &self.book
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
            .send(Request::Do(Command::Broadcast(
                self.batch_superstep,
                Arc::new(full),
            )))
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
        let _ = self.commands.send(Request::Crash);
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
            .send(Request::Do(Command::Ack(superstep, Arc::new(buf))))
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
        let _ = self
            .commands
            .try_send(Request::Do(Command::Abort(Arc::new(full))));
        self.wake();
    }
}

impl SeverPeer for PollPlane {
    fn sever_peer(&mut self, peer: ServerId) {
        let _ = self.commands.send(Request::Sever(peer));
        self.wake();
    }
}

impl Drop for PollPlane {
    fn drop(&mut self) {
        // Ship any still-batched frames (normally none: `end_superstep`
        // flushes), then everything is in the FIFO command channel and the
        // loop flushes it all before half-closing.
        let _ = self.flush_batch();
        let _ = self.commands.send(Request::Do(Command::Shutdown));
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

/// What the plane sends its loop: work for the [`Fabric`], or chaos injection
/// the loop performs on its sockets without the fabric's knowledge (which
/// then sees exactly what a real failure would show it).
enum Request {
    Do(Command),
    /// Cut the live connection to this peer: flush its queue, then close our
    /// write half — the peer sees a full stream then a FIN, exactly like a
    /// real boundary failure.
    Sever(ServerId),
    /// Die like a killed process — close every stream on the spot (queued
    /// bytes included), send no goodbye, serve no linger, attempt no
    /// recovery, and exit the loop immediately.
    Crash,
}

/// A dialed or accepted stream that has not finished its handshake: it sits
/// in a poller slot and accumulates bytes across readiness events — the 16
/// hello bytes or, on a pending stream that opens with the `GHHM` magic, a
/// whole announce or snapshot — until [`HANDSHAKE_DEADLINE`]. Nothing waits
/// on it.
struct Handshake {
    stream: TcpStream,
    /// Where it leads, for refusal messages.
    origin: String,
    /// The source this stream carried an announce to, if that is what it is.
    asked: Option<SocketAddr>,
    expires: Instant,
    /// Bytes so far; never read past the handshake (frames may follow it).
    buf: Vec<u8>,
}

impl Handshake {
    fn new(stream: TcpStream, origin: String, asked: Option<SocketAddr>) -> std::io::Result<Self> {
        // Accepted sockets do not inherit the listener's O_NONBLOCK everywhere.
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Handshake {
            stream,
            origin,
            asked,
            expires: Instant::now() + HANDSHAKE_DEADLINE,
            buf: Vec::with_capacity(RESUME_HELLO_LEN),
        })
    }

    /// Read what has arrived, up to the end of the handshake and not a byte
    /// further; `Ok(true)` once `buf` holds all of it — a hello's 16 bytes,
    /// or a longer `GHHM` message where one may be served (`max_announce`
    /// bounds it; an overlong one is cut there and fails to decode).
    fn pump(&mut self, max_announce: Option<usize>) -> std::io::Result<bool> {
        loop {
            // No GHHM message is shorter than a hello, so reading a hello's
            // worth before the magic shows overshoots nothing.
            let announce = max_announce.filter(|_| self.buf.starts_with(&MEMBERSHIP_MAGIC));
            let want = match (announce, self.buf.first_chunk()) {
                (None, _) => RESUME_HELLO_LEN,
                (Some(_), None) => MEMBERSHIP_HEADER_LEN,
                (Some(max), Some(header)) => MembershipMsg::encoded_len(header).min(max + 1),
            };
            let filled = self.buf.len();
            if filled == want {
                return Ok(true);
            }
            self.buf.resize(want, 0);
            let read = (&self.stream).read(&mut self.buf[filled..]);
            self.buf.truncate(filled + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() != std::io::ErrorKind::Interrupted => return Err(e),
                _ => {}
            }
        }
    }
}

/// One peer's poller slot: the live stream with its partial frames and
/// backpressured write queue, or the dial in flight, or nothing.
struct Peer {
    id: ServerId,
    /// The live link (`None` while the fabric has it down).
    stream: Option<TcpStream>,
    /// The stream we dialed, until its reply hello arrives.
    dialing: Option<Handshake>,
    /// Carries partial frames across loop iterations.
    decoder: FrameDecoder,
    /// Pending outbound (batch, offset-already-written). The batch `Arc` is
    /// shared across all peers' queues and the replay log: one broadcast
    /// batch, one buffer — returned to the plane's pool when the last holder
    /// lets go.
    outbound: VecDeque<(SharedBatch, usize)>,
    queued_bytes: usize,
    /// False once a write failed or the link was severed: nothing more is
    /// queued, and when the queue has drained our write half closes (the
    /// read path notices the cut and reports the stream's end).
    write_open: bool,
    /// Complete frames decoded off this peer's stream.
    frames_in: Counter,
    /// Raw stream bytes read from this peer.
    bytes_in: Counter,
}

impl Peer {
    fn enqueue(&mut self, bytes: SharedBatch, queued_peak: &Counter) {
        if self.write_open {
            self.queued_bytes += bytes.len();
            queued_peak.record_max(self.queued_bytes as u64);
            self.outbound.push_back((bytes, 0));
        }
    }

    /// Close whatever the slot holds on the spot and forget everything
    /// queued or half-decoded (a torn frame tail is re-delivered by replay,
    /// not resumed mid-frame).
    fn close(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.dialing = None;
        self.decoder = FrameDecoder::new();
        self.discard_queue();
    }

    fn discard_queue(&mut self) {
        self.write_open = false;
        self.outbound.clear();
        self.queued_bytes = 0;
    }

    /// Chaos injection: everything queued still goes out (a sever is
    /// deterministic, the peer must receive the full superstep), then only
    /// our write half closes. The peer observes a complete stream followed
    /// by a FIN — exactly a superstep-boundary failure; its recovery then
    /// closes its socket, which our read path observes in turn.
    fn sever(&mut self) {
        self.write_open = false;
        self.finish_flush();
    }

    fn finish_flush(&mut self) {
        if let (false, true, Some(stream)) =
            (self.write_open, self.outbound.is_empty(), &self.stream)
        {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

/// The I/O half of the plane: it moves bytes between sockets and the
/// [`Fabric`] and performs what the fabric decides. No protocol judgement
/// lives here.
struct EventLoop {
    id: ServerId,
    fabric: Fabric,
    /// Time zero of the fabric's clock.
    epoch: Instant,
    /// The one buffer every `step` appends to and `dispatch` drains: a
    /// fault-free superstep allocates nothing here.
    actions: Vec<Action>,
    /// Registered with the poller as slots `1..=peers.len()`.
    peers: Vec<Peer>,
    /// Accepted connections still handshaking and announces awaiting their
    /// reply: the poller's last slots.
    pending: Vec<Option<Handshake>>,
    /// Poller slot 0.
    waker_rx: TcpStream,
    /// The slot after the peers. Kept open for the whole run so cut peers —
    /// or a restarted process — can always dial back in.
    listener: TcpListener,
    commands: Receiver<Request>,
    inbox: Sender<InboxEvent>,
    /// Where `establish` waits; taken by the verdict.
    verdict: Option<Sender<std::io::Result<AddressBook>>>,
    poller: Box<dyn ReadinessPoller>,
    counters: LoopCounters,
    /// Commands are still being taken (no shutdown seen yet).
    intake_open: bool,
    /// The fabric said [`Action::Exit`]: flush, say goodbye, leave.
    exiting: bool,
    /// Establishment failed: leave at once.
    dead: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut read_buf = vec![0u8; READ_CHUNK];
        let listener_slot = 1 + self.peers.len();
        let mut interest = vec![Readiness::default(); listener_slot + 1 + PENDING_SLOTS];
        let mut ready = interest.clone();
        interest[0].readable = true;
        let (mut progressed, mut stopping) = (true, false);
        loop {
            // 1. Commands — but only while below the high-water mark: a slow
            // peer's growing queue stops the intake, the bounded channel
            // fills, and the producer blocks in `broadcast`.
            while self.intake_open {
                if !self.peers.iter().all(|p| p.queued_bytes < WRITE_HIGH_WATER) {
                    // Intake gated: backpressure is reaching the producer.
                    self.counters.high_water_stalls.incr();
                    break;
                }
                match self.commands.try_recv() {
                    // A disconnected sender means the plane was dropped; it
                    // always sends Shutdown first, but be safe either way.
                    Ok(Request::Do(Command::Shutdown)) | Err(TryRecvError::Disconnected) => {
                        self.intake_open = false;
                    }
                    Ok(Request::Do(command)) => self.dispatch(Event::Command(command)),
                    Ok(Request::Sever(peer)) => {
                        if let Some(peer) = self.peers.iter_mut().find(|p| p.id == peer) {
                            peer.sever();
                        }
                    }
                    Ok(Request::Crash) => {
                        // kill -9: queued bytes die with the process.
                        // Returning drops the listener too.
                        self.peers.iter_mut().for_each(Peer::close);
                        return;
                    }
                    Err(TryRecvError::Empty) => break,
                }
                progressed = true;
            }

            // 2. Time: handshakes past their deadline, then the fabric's own
            // clocks (redial, terminal loss, linger, gossip).
            let handshake_due = self.expire_handshakes();
            self.dispatch(Event::Tick);
            if self.dead {
                return;
            }
            if self.exiting && self.peers.iter().all(|p| p.outbound.is_empty()) {
                // Nothing owed, every queue flushed (or its peer
                // unreachable): announce the clean exit so peers treat the
                // coming EOFs as a deliberate close, not a cut to recover
                // from (best-effort: 9 bytes into a drained socket buffer),
                // then half-close so they see a clean EOF after our final
                // bytes.
                let mut goodbye = Vec::new();
                Frame::Goodbye { sender: self.id }.encode(&mut goodbye);
                for peer in &self.peers {
                    if let Some(mut stream) = peer.stream.as_ref() {
                        if peer.write_open {
                            let _ = stream.write_all(&goodbye);
                        }
                        let _ = stream.shutdown(Shutdown::Write);
                    }
                }
                return;
            }

            // 3. Readiness round. Zero timeout while work remains from the
            // previous round, so a burst is serviced without sleeping;
            // otherwise sleep until a socket or the next clock needs us.
            for (slot, peer) in interest[1..].iter_mut().zip(&self.peers) {
                slot.readable = peer.stream.is_some() || peer.dialing.is_some();
                slot.writable = peer.stream.is_some() && !peer.outbound.is_empty();
            }
            interest[listener_slot].readable = !self.exiting;
            for (slot, handshake) in interest[listener_slot + 1..].iter_mut().zip(&self.pending) {
                slot.readable = handshake.is_some();
            }
            let fabric_due = self.fabric.next_timer().map(|t| self.epoch + t);
            let timeout = match handshake_due.into_iter().chain(fabric_due).min() {
                _ if progressed => Duration::ZERO,
                Some(due) => due
                    .saturating_duration_since(Instant::now())
                    .min(POLL_TIMEOUT),
                None => POLL_TIMEOUT,
            };
            if let Err(e) = self.poller.poll(&interest, &mut ready, timeout) {
                // A broken poller cannot drive any stream: fail establishment
                // or report every peer lost, and leave — the plane finds the
                // command channel closed.
                self.conclude(Err(e));
                for peer in &mut self.peers {
                    peer.close();
                    let lost = InboxEvent::PeerLost(peer.id, PlaneError::Disconnected);
                    let _ = self.inbox.send(lost);
                }
                return;
            }

            progressed = false;
            if ready[0].readable {
                progressed |= drain_waker(&self.waker_rx, &mut read_buf);
            }
            for idx in 0..self.peers.len() {
                let state = ready[1 + idx];
                if state.readable && self.peers[idx].dialing.is_some() {
                    progressed |= self.pump_handshake(Conn::Dialed(self.peers[idx].id));
                } else if state.readable {
                    progressed |= self.pump_reads(idx, &mut read_buf);
                }
                let peer = &mut self.peers[idx];
                if state.writable && !peer.outbound.is_empty() {
                    progressed |= pump_writes(peer, &self.counters);
                }
            }
            if ready[listener_slot].readable && !self.exiting {
                progressed |= self.accept_connections();
            }
            for slot in 0..PENDING_SLOTS {
                if ready[listener_slot + 1 + slot].readable && self.pending[slot].is_some() {
                    progressed |= self.pump_handshake(Conn::Accepted(slot));
                }
            }

            // 4. The worker is done. The fabric hears of it only now, after
            // a round that read whatever had already reached this process —
            // a severed or killed peer's EOF, its redial in the backlog — so
            // that "nothing is owed" is judged on what the OS knew, not on
            // what the loop had got around to.
            if !self.intake_open && !std::mem::replace(&mut stopping, true) {
                self.dispatch(Event::Command(Command::Shutdown));
                progressed = true;
            }
        }
    }

    /// Peers are kept by ascending id with this endpoint's own id left out.
    fn slot_of(&self, peer: ServerId) -> usize {
        (if peer < self.id { peer } else { peer - 1 }) as usize
    }

    /// Tell the waiting `establish` how establishment ended (once).
    fn conclude(&mut self, verdict: std::io::Result<AddressBook>) {
        if let Some(waiting) = self.verdict.take() {
            let _ = waiting.send(verdict);
        }
    }

    fn handshake(&mut self, conn: Conn) -> &mut Option<Handshake> {
        match conn {
            Conn::Dialed(peer) => {
                let slot = self.slot_of(peer);
                &mut self.peers[slot].dialing
            }
            Conn::Accepted(slot) => &mut self.pending[slot],
        }
    }

    /// One step of the fabric, performed: the only way the loop changes
    /// protocol state.
    fn dispatch(&mut self, event: Event<'_>) {
        let now = self.epoch.elapsed();
        self.fabric.step(now, event, &mut self.actions);
        while !self.actions.is_empty() {
            let mut actions = std::mem::take(&mut self.actions);
            for action in actions.drain(..) {
                // Performing can raise an event of its own (a dial refused
                // on the spot); what the fabric makes of it runs next round.
                if let Some(event) = self.perform(action) {
                    self.fabric.step(now, event, &mut self.actions);
                }
            }
            if self.actions.is_empty() {
                self.actions = actions; // keep the warmed buffer
            }
        }
    }

    fn perform(&mut self, action: Action) -> Option<Event<'static>> {
        match action {
            Action::Send(peer, batch) => {
                let slot = self.slot_of(peer);
                self.peers[slot].enqueue(batch, &self.counters.queued_bytes_peak);
            }
            Action::Reset(peer) => {
                let slot = self.slot_of(peer);
                self.peers[slot].close();
            }
            Action::Dial(peer, addr, hello) => return self.dial(peer, addr, hello),
            Action::Announce(source, bytes) => return self.announce(source, &bytes),
            Action::Reply(conn, bytes) => {
                // A fresh socket takes these few bytes whole or is not worth
                // keeping; an `Adopt` that follows then finds it gone.
                let handshake = self.handshake(conn);
                let sent = |h: &Handshake| (&h.stream).write_all(&bytes).is_ok();
                if !handshake.as_ref().is_some_and(sent) {
                    *handshake = None;
                }
            }
            Action::Adopt(conn, peer) => {
                let slot = self.slot_of(peer);
                // (A dialed stream already sits in the peer's poller slot.)
                let adopted = self.handshake(conn).take().filter(|h| {
                    matches!(conn, Conn::Dialed(_))
                        || self.poller.reregister(1 + slot, &h.stream).is_ok()
                });
                self.peers[slot].close();
                let Some(adopted) = adopted else {
                    return Some(Event::StreamEnd(peer));
                };
                self.peers[slot].stream = Some(adopted.stream);
                self.peers[slot].write_open = true;
            }
            Action::Close(conn) => *self.handshake(conn) = None,
            // (A dropped plane stops listening; its Shutdown is on the way.)
            Action::Deliver(event) => drop(self.inbox.send(event)),
            Action::Established => self.conclude(Ok(self.fabric.book().clone())),
            Action::EstablishFailed(timed_out, message) => {
                let kind = match timed_out {
                    true => std::io::ErrorKind::TimedOut,
                    false => std::io::ErrorKind::Other,
                };
                self.conclude(Err(std::io::Error::new(kind, message)));
                self.dead = true;
            }
            Action::Exit => self.exiting = true,
        }
        None
    }

    /// One bounded connect (the only kind of call here that may wait, and
    /// not on a read) plus the hello; the reply is awaited in the peer's
    /// poller slot.
    fn dial(
        &mut self,
        peer: ServerId,
        addr: SocketAddr,
        hello: HelloBytes,
    ) -> Option<Event<'static>> {
        let slot = self.slot_of(peer);
        let origin = format!("server {peer} at {addr}");
        let dialed = TcpStream::connect_timeout(&addr, DIAL_CONNECT_CAP).and_then(|stream| {
            (&stream).write_all(&hello)?;
            self.poller.reregister(1 + slot, &stream)?;
            Handshake::new(stream, origin.clone(), None)
        });
        match dialed {
            Ok(handshake) => self.peers[slot].dialing = Some(handshake),
            Err(e) => return Some(Event::DialFailed(peer, format!("{origin}: {e}"))),
        }
        None
    }

    /// One bounded connect plus the announce; the snapshot reply is awaited
    /// in a pending slot, like an accepted connection's hello. (An announce
    /// displaces a stranger, never another announce: that one's failure
    /// would have to be told to the fabric from inside `perform`.)
    fn announce(&mut self, source: SocketAddr, announce: &[u8]) -> Option<Event<'static>> {
        let connected = TcpStream::connect_timeout(&source, DIAL_CONNECT_CAP);
        let sent = connected.and_then(|stream| (&stream).write_all(announce).map(|()| stream));
        if let (Ok(stream), Some(slot)) = (sent, self.pending_slot(false)) {
            self.park(slot, stream, source.to_string(), Some(source));
            if self.pending[slot].is_some() {
                return None;
            }
        }
        Some(Event::AnnounceFailed(source))
    }

    /// The pending slot the next handshake takes: a free one, else the one
    /// that has waited longest gives way — a real peer's hello arrives with
    /// its connect, so a flood of silent strays cannot lock it out.
    fn pending_slot(&self, may_displace_announces: bool) -> Option<usize> {
        let handshake = |slot: &usize| self.pending[*slot].as_ref();
        let usable = |slot: &usize| {
            may_displace_announces || handshake(slot).is_none_or(|h| h.asked.is_none())
        };
        let slots = (0..PENDING_SLOTS).filter(usable);
        slots.min_by_key(|slot| handshake(slot).map(|h| h.expires))
    }

    /// Put `stream` in pending slot `slot` (over whatever stranger held it)
    /// until its handshake is whole.
    fn park(&mut self, slot: usize, stream: TcpStream, origin: String, asked: Option<SocketAddr>) {
        let registered = (self.poller).reregister(2 + self.peers.len() + slot, &stream);
        let handshake = registered.and_then(|()| Handshake::new(stream, origin, asked));
        self.pending[slot] = handshake.ok();
    }

    /// Drain the listener's accept queue into pending slots.
    fn accept_connections(&mut self) -> bool {
        let mut progressed = false;
        // `Err` = WouldBlock or a transient accept error: done for this round.
        while let Ok((stream, from)) = self.listener.accept() {
            progressed = true;
            let slot = self.pending_slot(true).expect("slots exist");
            self.abandon(Conn::Accepted(slot), "gave way to a newer connection");
            self.park(slot, stream, from.to_string(), None);
            // The hello usually arrived with the connect: no need for a round.
            self.pump_handshake(Conn::Accepted(slot));
        }
        progressed
    }

    /// Advance one handshake on readiness and hand whatever it completed to
    /// the fabric, which answers every hello with `Adopt` or `Close`.
    fn pump_handshake(&mut self, conn: Conn) -> bool {
        let pending = matches!(conn, Conn::Accepted(_));
        let book_len = MEMBERSHIP_HEADER_LEN + (self.peers.len() + 1) * MEMBERSHIP_ENTRY_LEN;
        let Some(handshake) = self.handshake(conn) else {
            return false;
        };
        let whole = handshake.pump(pending.then_some(book_len));
        if let Ok(false) = whole {
            return false;
        }
        let (origin, asked) = (handshake.origin.clone(), handshake.asked);
        let bytes = std::mem::take(&mut handshake.buf);
        match (whole, bytes[..].try_into(), asked) {
            (Ok(_), Ok(hello), None) => self.dispatch(Event::Hello(conn, &origin, hello)),
            (Ok(_), Err(_), None) => self.dispatch(Event::Announce(conn, &bytes)),
            (Ok(_), Err(_), Some(source)) => {
                *self.handshake(conn) = None;
                self.dispatch(Event::Snapshot(source, &bytes));
            }
            (Ok(_), Ok(_), Some(_)) => self.abandon(conn, "answered with something else"),
            (Err(e), ..) => {
                let why = "no reply hello (the peer refused ours, or is not up yet)";
                self.abandon(conn, &format!("{why}: {e}"));
            }
        }
        true
    }

    /// A handshake is over without having become anything — failed, expired,
    /// displaced: drop it, and if the connection was one the fabric asked
    /// for, say so.
    fn abandon(&mut self, conn: Conn, why: &str) {
        let Some(handshake) = self.handshake(conn).take() else {
            return;
        };
        match (conn, handshake.asked) {
            (Conn::Dialed(peer), _) => {
                let why = format!("{}: {why}", handshake.origin);
                self.dispatch(Event::DialFailed(peer, why));
            }
            (Conn::Accepted(_), Some(source)) => self.dispatch(Event::AnnounceFailed(source)),
            (Conn::Accepted(_), None) => {}
        }
    }

    /// Abandon every handshake past [`HANDSHAKE_DEADLINE`] and say when the
    /// next one is due.
    fn expire_handshakes(&mut self) -> Option<Instant> {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for slot in 0..PENDING_SLOTS + self.peers.len() {
            let conn = match slot.checked_sub(PENDING_SLOTS) {
                None => Conn::Accepted(slot),
                Some(peer) => Conn::Dialed(self.peers[peer].id),
            };
            let due = self.handshake(conn).as_ref().map(|h| h.expires);
            if due.is_some_and(|due| now < due) {
                next = next.min(due).or(due);
            } else if due.is_some() {
                self.abandon(conn, &format!("no reply within {HANDSHAKE_DEADLINE:?}"));
            }
        }
        next
    }

    /// Read peer `idx`'s socket until it would block, handing every decoded
    /// frame to the fabric. *Any* stream end — EOF, torn frame, corrupt
    /// bytes, I/O error — closes the socket and is reported as such; whether
    /// that is a cut to heal or a clean exit is the fabric's call. Returns
    /// whether anything happened.
    fn pump_reads(&mut self, idx: usize, buf: &mut [u8]) -> bool {
        let id = self.peers[idx].id;
        let mut progressed = false;
        let ended = 'stream: loop {
            let peer = &mut self.peers[idx];
            // The fabric may reset the stream over a frame it just saw.
            let Some(mut stream) = peer.stream.as_ref() else {
                break false;
            };
            let n = match stream.read(buf) {
                Ok(0) => break true,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            };
            progressed = true;
            peer.bytes_in.add(n as u64);
            peer.decoder.push(&buf[..n]);
            while self.peers[idx].stream.is_some() {
                let frame = match self.peers[idx].decoder.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => break 'stream true, // corrupt bytes: a poisoned stream
                };
                self.peers[idx].frames_in.incr();
                self.dispatch(Event::Frame(id, frame));
            }
        };
        if ended {
            self.peers[idx].close();
            self.dispatch(Event::StreamEnd(id));
        }
        progressed || ended
    }
}

/// Write queued bytes to one peer until its socket would block or the queue
/// drains, gathering up to [`MAX_WRITE_VECTORS`] queued batches into a single
/// `write_vectored` call — one syscall moves everything the queue holds,
/// however the batches were produced. A write failure discards the queue and
/// stops queueing — the read path is what reports the stream's end. Returns
/// whether any bytes moved.
fn pump_writes(peer: &mut Peer, counters: &LoopCounters) -> bool {
    let mut progressed = false;
    loop {
        let mut iov = [IoSlice::new(&[]); MAX_WRITE_VECTORS];
        let mut vectors = 0usize;
        for (bytes, offset) in peer.outbound.iter().take(MAX_WRITE_VECTORS) {
            iov[vectors] = IoSlice::new(&bytes[*offset..]);
            vectors += 1;
        }
        let Some(mut stream) = peer.stream.as_ref().filter(|_| vectors > 0) else {
            peer.finish_flush();
            return progressed;
        };
        counters.write_vectored_calls.incr();
        let wrote = match stream.write_vectored(&iov[..vectors]) {
            Ok(n) if n > 0 => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // An error, or a zero-length write on non-empty slices: a dead
            // stream rather than something to spin on.
            Ok(_) | Err(_) => {
                peer.discard_queue();
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

    /// Establish every endpoint concurrently and return the errors of a
    /// cluster that must not come up.
    fn establish_errors(
        bound: Vec<BoundPollPlane>,
        addrs: &[SocketAddr],
        timeout: Duration,
    ) -> Vec<std::io::Error> {
        thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| scope.spawn(move || b.establish_with_timeout(addrs, timeout)))
                .collect();
            let results = handles.into_iter().map(|h| h.join().unwrap());
            results.map(|r| r.unwrap_err()).collect()
        })
    }

    /// One endpoint of a 2-server cluster through `supersteps`: broadcast
    /// `[id, s]`, and demand exactly the peer's `[peer, s]` back — once.
    fn run_supersteps(p: &mut dyn BroadcastPlane, supersteps: std::ops::Range<u32>) {
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
    fn run_pair(
        p0: &mut dyn BroadcastPlane,
        p1: &mut dyn BroadcastPlane,
        supersteps: std::ops::Range<u32>,
    ) {
        thread::scope(|scope| {
            let steps = supersteps.clone();
            scope.spawn(move || run_supersteps(p0, steps));
            scope.spawn(move || run_supersteps(p1, supersteps));
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
        run_pair(&mut p0[0], &mut p1[0], 0..3);
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
        run_pair(&mut p0, &mut p1, 0..5);
    }

    /// Both directions cut at once (a reconnect storm, here at different
    /// supersteps each) still converges to exactly-once delivery.
    #[test]
    fn mutual_cuts_still_converge() {
        let (p0, p1) = establish_pair(&ResilienceConfig::default());
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(1, 1), (2, 1)]));
        let mut p1 = FaultPlane::new(p1, CutPlan::explicit(vec![(1, 0)]));
        run_pair(&mut p0, &mut p1, 0..5);
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
        run_pair(&mut p0, &mut p1, 0..3);
    }

    /// Severing an already-severed (or recovering) link is a harmless no-op.
    #[test]
    fn double_sever_is_idempotent() {
        let (mut p0, mut p1) = establish_pair(&ResilienceConfig::default());
        p0.sever_peer(1);
        p0.sever_peer(1);
        run_pair(&mut p0, &mut p1, 0..3);
    }

    /// Connections that say nothing — or say `GHHM` and then nothing — must
    /// not cost a running node anything: each is a pending slot of the single
    /// event loop, accumulating bytes that never come until its deadline, and
    /// nothing waits on it. (Blocking reads here once held the loop 250 ms
    /// per silent connection and 2 s for the stalled announce.)
    #[test]
    fn silent_connection_mid_run_does_not_stall_the_loop() {
        let (bound, addrs) = bind_cluster(2);
        let seed = addrs[0];
        let planes = establish_all_with(bound, |b| {
            Ok(establish_seeded(b, seed, ResilienceConfig::default()))
        });
        let mut planes = planes.into_iter();
        let (mut p0, mut p1) = (planes.next().unwrap(), planes.next().unwrap());
        run_pair(&mut p0, &mut p1, 0..1);
        let mut silent = Vec::new();
        for addr in &addrs {
            for _ in 0..8 {
                silent.push(TcpStream::connect(addr).unwrap());
            }
            let mut stalled = TcpStream::connect(addr).unwrap();
            stalled.write_all(&MEMBERSHIP_MAGIC).unwrap();
            silent.push(stalled);
        }
        let start = Instant::now();
        run_pair(&mut p0, &mut p1, 1..4);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "silent probers held the event loop for {:?}",
            start.elapsed()
        );
        drop(silent);
    }

    /// The dial-side twin: a lower-id peer whose listener takes connections
    /// into its backlog but never answers (bound, not yet establishing —
    /// exactly a restarted `graphh-node` during its workload build) must not
    /// delay traffic on the survivor's other links. A bare `TcpListener`
    /// stands in for the restarted server 0.
    #[test]
    fn unanswered_dial_does_not_delay_other_links() {
        let backlog_only = TcpListener::bind("127.0.0.1:0").unwrap();
        let b1 = PollPlane::bind(1, 3, "127.0.0.1:0").unwrap();
        let b2 = PollPlane::bind(2, 3, "127.0.0.1:0").unwrap();
        let addrs = vec![
            backlog_only.local_addr().unwrap(),
            b1.local_addr().unwrap(),
            b2.local_addr().unwrap(),
        ];
        // Server 0 never establishes, so neither does the cluster; what the
        // survivors' loops do meanwhile is the point. Their link to each
        // other comes up at once and stays responsive while both dials to
        // server 0 sit unanswered: the establish deadline, not a blocked
        // loop, is what ends the wait.
        let timeout = Duration::from_millis(600);
        let start = Instant::now();
        let errors = establish_errors(vec![b1, b2], &addrs, timeout);
        assert!(start.elapsed() < timeout + Duration::from_millis(400));
        for error in errors {
            assert_eq!(error.kind(), std::io::ErrorKind::TimedOut);
            let text = error.to_string();
            let missing = "dialing servers [0], waiting for servers [] to dial in";
            assert!(text.contains(missing), "only the 1–2 link came up: {text}");
        }
    }

    /// A replacement launched with the wrong `--servers` is refused on every
    /// redial; when the survivor finally gives the peer up, the terminal
    /// error says why instead of a bare disconnect.
    #[test]
    fn terminal_loss_names_the_last_refused_hello() {
        let (bound, addrs) = bind_cluster(2);
        let config = ResilienceConfig {
            reconnect_deadline: Duration::from_millis(400),
            ..ResilienceConfig::default()
        };
        let mut planes = establish_all(bound, &addrs, &config);
        let p1 = planes.pop().unwrap();
        let mut p0 = planes.pop().unwrap();
        p1.crash();
        // The impostor believes in a 3-server cluster.
        let wrong = PollPlane::bind(1, 3, "127.0.0.1:0").unwrap();
        let wrong_addrs = [addrs[0], wrong.local_addr().unwrap(), addrs[0]];
        let refused = wrong.establish_with_timeout(&wrong_addrs, Duration::from_millis(300));
        assert!(refused.is_err());
        p0.end_superstep(0).unwrap();
        match p0.collect(0) {
            Err(PlaneError::Protocol(text)) => {
                assert!(text.starts_with("server 1: "), "{text}");
                assert!(
                    text.contains("peer believes the cluster has 3 servers, this node 2"),
                    "{text}"
                );
            }
            other => panic!("expected an attributed protocol error, got {other:?}"),
        }
    }

    /// Establish from `seed` alone: no peer table, the book is discovered.
    fn establish_seeded(
        b: BoundPollPlane,
        seed: SocketAddr,
        config: ResilienceConfig,
    ) -> PollPlane {
        let seeds = vec![seed];
        let config = ResilienceConfig { seeds, ..config };
        b.establish_resilient(&[], TIMEOUT, config).unwrap()
    }

    /// A cluster started from one seed address (no static peer table)
    /// converges its address books and reaches all-to-all parity.
    #[test]
    fn seed_discovered_cluster_reaches_parity() {
        let (bound, addrs) = bind_cluster(3);
        let seed = addrs[0];
        let planes = establish_all_with(bound, |b| {
            let plane = establish_seeded(b, seed, ResilienceConfig::default());
            let book = plane.book();
            assert_eq!(book.own_incarnation(), 0, "a fresh start never bumps");
            for (id, &addr) in addrs.iter().enumerate() {
                assert_eq!(book.get(id as ServerId).map(|e| e.addr), Some(addr));
            }
            Ok(plane)
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

    /// Strangers that connect to a *discovering* node and say nothing cost
    /// it nothing either: discovery shares the loop's pending slots, so they
    /// sit beside its announces until they expire. (The blocking bootstrap
    /// this replaces served its accept queue one connection at a time under a
    /// 2 s read cap: three strangers, six seconds — for both nodes, since the
    /// seed waits for the other's announce.)
    #[test]
    fn silent_strangers_do_not_delay_a_discovering_node() {
        let (bound, addrs) = bind_cluster(2);
        let strangers: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(addrs[1]).unwrap())
            .collect();
        let start = Instant::now();
        let planes = establish_all_with(bound, |b| {
            Ok(establish_seeded(b, addrs[0], ResilienceConfig::default()))
        });
        assert!(
            start.elapsed() < HANDSHAKE_DEADLINE / 2,
            "establishment waited for strangers: {:?}",
            start.elapsed()
        );
        drop((planes, strangers));
    }

    /// A peer table and seeds are alternative sources of the book, and a
    /// discovering node must have an address to announce.
    #[test]
    fn seeds_exclude_a_peer_table_and_a_wildcard_listener() {
        let (mut bound, addrs) = bind_cluster(2);
        let seeds = vec![addrs[0]];
        let config = ResilienceConfig {
            seeds,
            ..ResilienceConfig::default()
        };
        let mixed = bound.pop().unwrap();
        let err = mixed.establish_resilient(&addrs, TIMEOUT, config.clone());
        assert_eq!(err.unwrap_err().kind(), std::io::ErrorKind::InvalidInput);
        let wildcard = PollPlane::bind(1, 2, "0.0.0.0:0").unwrap();
        let err = wildcard.establish_resilient(&[], TIMEOUT, config);
        assert_eq!(err.unwrap_err().kind(), std::io::ErrorKind::InvalidInput);
    }

    /// A peer is killed mid-run and a replacement with the same server id
    /// rejoins **at a different address** via seed discovery. The survivor
    /// learns the fresh address from the announce it serves on its listener,
    /// the replacement dials in from there, and the run finishes
    /// exactly-once.
    #[test]
    fn replacement_at_a_new_address_is_adopted_mid_run() {
        let (bound, addrs) = bind_cluster(2);
        let seed = addrs[0];
        let survivor_config = ResilienceConfig {
            reconnect_deadline: Duration::from_secs(10),
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
            Ok(establish_seeded(b, seed, config.clone()))
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
                run_supersteps(&mut p0, 0..CRASH_AT);
                absorbed_tx.send(()).unwrap();
                run_supersteps(&mut p0, CRASH_AT..TOTAL);
            });
            scope.spawn(move || {
                run_supersteps(&mut p1, 0..CRASH_AT);
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
                let mut p1 = establish_seeded(rb, seed, config);
                run_supersteps(&mut p1, CRASH_AT..TOTAL);
            });
        });
    }
}
