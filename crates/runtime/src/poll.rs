//! The TCP backend of the broadcast plane: real multi-process transport,
//! **one readiness loop drives every peer socket**.
//!
//! [`PollPlane`] puts one simulated server in its own OS **process** (the
//! `graphh-node` binary in `graphh-bench` does exactly that): every pair of
//! servers shares one full-duplex TCP connection (established by
//! [`crate::establish`]) and frames travel in the length-prefixed wire
//! encoding of [`crate::frame`]. A thread per peer would cost each process of
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
//!  end_superstep()         command   │ drain commands → fan out bytes │
//!  abort()                 channel ─▶│ to per-peer write queues       │
//!       │                   + waker  │ poll(readable/writable fds)    │
//!       ▼                            │  readable → read, FrameDecoder │
//!  collect() ◀── inbox channel ◀─────│  writable → flush write queue  │
//!  (SuperstepCollector)              └────────────────────────────────┘
//! ```
//!
//! The worker thread never touches a socket; the event loop never blocks on
//! one. Commands travel over a *bounded* channel, so a worker that broadcasts
//! faster than the network drains is throttled (backpressure) instead of
//! buffering without limit; the loop additionally stops accepting commands
//! while any peer's write queue is above its high-water mark.
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
//!   Tests force it on every platform ([`BoundPollPlane::establish_with`]).
//!
//! A dropped [`PollPlane`] flushes its queues, half-closes its streams and
//! joins the loop thread — shutdown is asserted by the thread-count checks in
//! `tests/poll_threads.rs` and `examples/socket_cluster.rs`, not assumed.

use crate::buffer::{BufferPool, PooledBuf};
use crate::chaos::SeverPeer;
use crate::establish::{bind_listener, establish_streams, DEFAULT_ESTABLISH_TIMEOUT};
use crate::frame::{
    Frame, FrameDecoder, FrameError, InboxEvent, PlaneError, SuperstepCollector, WireMessage,
};
use crate::plane::BroadcastPlane;
use crate::resume::{
    count_frames, HandshakeFault, ReplayLog, ResilienceConfig, ResumeHello, RESUME_HELLO_LEN,
};
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
    /// Peers whose stream ended (clean or not) — the reconnect-relevant
    /// signal a future fault-tolerance layer would watch.
    peers_lost: Counter,
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

    /// Register a listening socket as the next slot (its `readable` means a
    /// connection is waiting to be accepted). Only the resilient plane needs
    /// this; pollers that cannot watch a listener refuse here, failing
    /// `establish_resilient` loudly instead of never accepting reconnects.
    fn register_listener(&mut self, _listener: &TcpListener) -> std::io::Result<()> {
        Err(std::io::Error::other(
            "this poller cannot watch a listener (resilient mode unsupported)",
        ))
    }

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
    /// [`Self::establish_discovered`] or [`Self::establish_resilient_discovered`].
    pub fn discover(
        &self,
        seeds: &[SocketAddr],
        timeout: Duration,
    ) -> std::io::Result<crate::membership::MembershipView> {
        crate::membership::discover(
            self.id,
            self.num_servers as usize,
            &self.listener,
            seeds,
            timeout,
        )
    }

    /// Connect to every peer and return the ready plane, with the platform's
    /// default poller and the default establish timeout.
    pub fn establish(self, peer_addrs: &[SocketAddr]) -> std::io::Result<PollPlane> {
        self.establish_with(peer_addrs, DEFAULT_ESTABLISH_TIMEOUT, default_poller())
    }

    /// [`Self::establish`] with an explicit timeout.
    pub fn establish_with_timeout(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
    ) -> std::io::Result<PollPlane> {
        self.establish_with(peer_addrs, timeout, default_poller())
    }

    /// [`Self::establish`] with an explicit timeout and poller (tests force
    /// [`SpinPoller`] here so the readiness seam runs on every platform).
    pub fn establish_with(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
        poller: Box<dyn ReadinessPoller>,
    ) -> std::io::Result<PollPlane> {
        self.establish_inner(peer_addrs, timeout, poller, Vec::new(), None)
    }

    /// The address book learned by seed discovery ([`crate::membership::discover`])
    /// replaces the static peer table; early-stashed bootstrap connections
    /// feed the normal accept handling and the listener keeps answering
    /// `GHHM` exchanges for peers still bootstrapping their own books.
    pub fn establish_discovered(
        self,
        view: crate::membership::MembershipView,
        timeout: Duration,
    ) -> std::io::Result<PollPlane> {
        let crate::membership::MembershipView {
            handle,
            peer_addrs,
            early,
            ..
        } = view;
        self.establish_inner(&peer_addrs, timeout, default_poller(), early, Some(&handle))
    }

    fn establish_inner(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
        mut poller: Box<dyn ReadinessPoller>,
        early: Vec<TcpStream>,
        membership: Option<&crate::membership::MembershipState>,
    ) -> std::io::Result<PollPlane> {
        let BoundPollPlane {
            id,
            num_servers,
            listener,
        } = self;
        let streams = establish_streams(
            id,
            num_servers,
            listener,
            peer_addrs,
            timeout,
            early,
            membership,
        )?;

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
                // Per-peer traffic counters, named at establish time (the
                // only place the name formatting — an allocation — happens).
                frames_in: registry.counter(&format!("poll.s{id}.from{peer}.frames_in")),
                bytes_in: registry.counter(&format!("poll.s{id}.from{peer}.bytes_in")),
            });
        }

        let (command_tx, command_rx) = sync_channel::<Command>(COMMAND_BACKLOG);
        let (inbox_tx, inbox) = channel::<InboxEvent>();
        let peer_ids: Vec<ServerId> = peers.iter().map(|p| p.id).collect();
        let event_loop = std::thread::Builder::new()
            .name(format!("graphh-poll-loop-{id}"))
            .spawn(move || {
                EventLoop {
                    peers,
                    waker_rx,
                    commands: command_rx,
                    inbox: inbox_tx,
                    poller,
                    counters: LoopCounters::registered(),
                    resilient: None,
                }
                .run()
            })
            .map_err(|e| std::io::Error::other(format!("spawn event-loop thread: {e}")))?;

        let pool = BufferPool::new();
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
            resilient: false,
            batch_superstep: 0,
        })
    }

    /// Connect to every peer and return a fault-tolerant poll plane: same
    /// event loop and wire protocol, but the handshake is the 16-byte `GHHR`
    /// resume hello (both directions), broadcast batches are retained for
    /// replay until acked, and a mid-run connection loss triggers
    /// reconnect-and-resume inside the loop (redial for lower-id peers, the
    /// kept-open listener for higher-id ones) instead of reporting terminal
    /// peer loss. Only a failure outliving `config.reconnect_deadline` (or a
    /// resume request below the replay floor) surfaces as `PeerLost`.
    pub fn establish_resilient(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
        config: ResilienceConfig,
    ) -> std::io::Result<PollPlane> {
        self.establish_resilient_with(peer_addrs, timeout, config, default_poller())
    }

    /// [`Self::establish_resilient`] against a seed-discovered address book:
    /// installs the membership handle into the config (redials re-consult the
    /// gossiped book; the event loop answers `GHHM` exchanges from late
    /// bootstrappers and replacement processes) and uses the learned peer
    /// table. The view's early-stashed connections are dropped — they carry
    /// `GHHR` dials whose owners retry against the listener, which stays
    /// open with the event loop.
    pub fn establish_resilient_discovered(
        self,
        view: crate::membership::MembershipView,
        timeout: Duration,
        mut config: ResilienceConfig,
    ) -> std::io::Result<PollPlane> {
        let crate::membership::MembershipView {
            handle, peer_addrs, ..
        } = view;
        config.membership = Some(handle);
        self.establish_resilient_with(&peer_addrs, timeout, config, default_poller())
    }

    /// [`Self::establish_resilient`] with an explicit poller.
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
        if peer_addrs.len() != num_servers as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "peer table has {} entries for a {num_servers}-server cluster",
                    peer_addrs.len()
                ),
            ));
        }
        let mut fault_budget = if config.handshake_fault.is_some() {
            config.handshake_fault_budget
        } else {
            0
        };
        let streams = establish_resilient_streams(
            id,
            num_servers,
            &listener,
            peer_addrs,
            timeout,
            &config,
            &mut fault_budget,
        )?;

        let (waker_tx, waker_rx) = waker_pair()?;
        poller.register(&waker_rx)?;
        let registry = global_counters();
        let mut peers = Vec::with_capacity(streams.len());
        // The peers' initial resume_from values are ignored here: this
        // endpoint's replay log is empty at establish time, so there is
        // nothing to replay regardless of where a peer asks to resume (a
        // restarted process re-broadcasts from its checkpoint cursor through
        // the normal worker loop instead).
        for (peer, stream, _peer_resume_from) in streams {
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
                frames_in: registry.counter(&format!("poll.s{id}.from{peer}.frames_in")),
                bytes_in: registry.counter(&format!("poll.s{id}.from{peer}.bytes_in")),
            });
        }
        // The listener stays open for the whole run (slot `peers + 1`) so
        // cut peers — or a restarted process — can always dial back in.
        listener.set_nonblocking(true)?;
        poller.register_listener(&listener)?;

        let resilient = ResilientState {
            id,
            num_servers,
            listener,
            peer_addrs: peer_addrs.to_vec(),
            config: config.clone(),
            fault_budget,
            replay: ReplayLog::resuming_from(num_servers, id, config.resume_from),
            recv_cursor: vec![config.resume_from; num_servers as usize],
            down: (0..peers.len()).map(|_| None).collect(),
            gone: vec![false; peers.len()],
            last_ack: None,
            aborted: false,
            pool: BufferPool::new(),
            reconnects: registry.counter("fabric.reconnects"),
            replayed_frames: registry.counter("fabric.replayed_frames"),
            // The establish itself proves every peer holds a complete book:
            // nothing to gossip until the book moves again.
            last_gossip_version: config.membership.as_ref().map_or(0, |m| m.version()),
        };

        let (command_tx, command_rx) = sync_channel::<Command>(COMMAND_BACKLOG);
        let (inbox_tx, inbox) = channel::<InboxEvent>();
        let peer_ids: Vec<ServerId> = peers.iter().map(|p| p.id).collect();
        let event_loop = std::thread::Builder::new()
            .name(format!("graphh-rpoll-loop-{id}"))
            .spawn(move || {
                EventLoop {
                    peers,
                    waker_rx,
                    commands: command_rx,
                    inbox: inbox_tx,
                    poller,
                    counters: LoopCounters::registered(),
                    resilient: Some(resilient),
                }
                .run()
            })
            .map_err(|e| std::io::Error::other(format!("spawn event-loop thread: {e}")))?;

        let pool = BufferPool::new();
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
            resilient: true,
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
    /// has written it, which returns the allocation here for the next one.
    pool: BufferPool,
    /// Frames encoded since the last flush, shipped to the event loop as one
    /// contiguous buffer (see [`BATCH_FLUSH`]) — the write-coalescing half of
    /// the plane: peers receive whole supersteps in one or two writes
    /// instead of one write per frame.
    batch: PooledBuf,
    /// Batches handed to the event loop (`poll.batch_flushes`).
    batch_flushes: Counter,
    /// True when this plane was built by `establish_resilient`: batches are
    /// shipped retained (replay log) and acks/severs become commands. The
    /// default path never sets this, so fault-free planes behave exactly as
    /// before.
    resilient: bool,
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
    /// returns there once the last peer has written it.
    fn flush_batch(&mut self) -> Result<(), PlaneError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.batch, self.pool.checkout());
        let command = if self.resilient {
            Command::SendRetained {
                superstep: self.batch_superstep,
                batch: Arc::new(full),
            }
        } else {
            Command::Send(Arc::new(full))
        };
        self.commands
            .send(command)
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
        if !self.resilient {
            return Ok(());
        }
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
        // On a resilient plane the batched frames travel unretained here —
        // acceptable, because an abort ends the run for every peer anyway.
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
        if !self.resilient {
            return;
        }
        let _ = self.commands.send(Command::Sever(peer));
        self.wake();
    }
}

impl PollPlane {
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

impl Drop for PollPlane {
    fn drop(&mut self) {
        // Ship any still-batched frames (normally none: `end_superstep`
        // flushes), then everything is in the FIFO command channel and the
        // loop flushes it all before half-closing.
        if !self.batch.is_empty() {
            let full = std::mem::replace(&mut self.batch, self.pool.checkout());
            let _ = self.commands.send(Command::Send(Arc::new(full)));
        }
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
    /// Enqueue this batch of pre-encoded frame bytes to every peer.
    Send(SharedBatch),
    /// Same, but also retain the batch in the replay log under `superstep`
    /// until every peer acks it (resilient planes only — a batch never spans
    /// supersteps because `end_superstep` always flushes).
    SendRetained { superstep: u32, batch: SharedBatch },
    /// An acknowledgement batch: enqueued like [`Command::Send`], but the
    /// superstep is also remembered so a re-established link can repeat the
    /// latest ack (acks travel unretained and die with a cut stream).
    Ack { superstep: u32, batch: SharedBatch },
    /// An abort batch: enqueued like [`Command::Send`], but also marks the
    /// run aborted so shutdown never lingers for stragglers.
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
    /// shared across all peers' queues: one broadcast batch, one buffer —
    /// returned to the plane's pool when the last peer finishes it.
    outbound: VecDeque<(SharedBatch, usize)>,
    queued_bytes: usize,
    /// False once this peer's stream ended and its loss was reported.
    read_open: bool,
    /// False once a write failed; the queue is discarded (reads attribute
    /// the actual loss).
    write_open: bool,
    /// Highest ack superstep queued on this link while writable (`None`
    /// when none). Acks travel unretained, so this is what tells a finished
    /// endpoint whether a down peer might still be waiting on our floor.
    ack_delivered: Option<u32>,
    /// True once the peer sent a `Goodbye`: its next EOF is a deliberate
    /// clean exit, so the cut must not arm recovery and the linger must not
    /// hold the door for it.
    done: bool,
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
}

/// One down peer's recovery clock.
struct DownState {
    /// Past this instant the peer is declared terminally lost.
    deadline: Instant,
    /// Next redial attempt (dial-side recovery only).
    next_retry: Instant,
    /// Deterministic seeded exponential backoff pacing the redials.
    backoff: crate::membership::ReconnectBackoff,
}

/// Everything the event loop needs for reconnect-and-resume, present only on
/// planes built by `establish_resilient`. The loop is single-threaded, so
/// none of this needs locks or generations: command intake, replay appends, stream replacement and recovery all
/// interleave at loop-iteration granularity, which makes replay trivially
/// gap-free (no frame can be appended between a replay snapshot and the
/// stream install — both happen on this thread).
struct ResilientState {
    id: ServerId,
    num_servers: u32,
    /// Kept open (and polled, last slot) for the whole run so peers can
    /// redial at any point — including a restarted process rejoining.
    listener: TcpListener,
    peer_addrs: Vec<SocketAddr>,
    config: ResilienceConfig,
    /// Remaining sabotaged dial attempts (chaos handshake faults).
    fault_budget: u32,
    replay: ReplayLog,
    /// Per-peer count of completed supersteps received (EOS superstep + 1),
    /// indexed by server id: the `resume_from` this endpoint requests when a
    /// link is re-established.
    recv_cursor: Vec<u32>,
    /// Recovery clocks, indexed like `peers` (None = link believed up).
    down: Vec<Option<DownState>>,
    /// Terminally lost peers, indexed like `peers`.
    gone: Vec<bool>,
    /// Highest superstep this endpoint acknowledged; repeated on every
    /// re-established link (acks are unretained — any the peer missed while
    /// down died with the old stream, and it needs the current floor to trim
    /// its own replay log and finish its own linger).
    last_ack: Option<u32>,
    /// Set by [`Command::Abort`]: an aborted run never lingers at shutdown.
    aborted: bool,
    /// Buffers for replay blobs (recycled like broadcast batches).
    pool: BufferPool,
    reconnects: Counter,
    replayed_frames: Counter,
    /// Book version last pushed as a tag-6 gossip frame. The loop is
    /// single-threaded, so the steady-state cadence check in `gossip_tick`
    /// is one u64 compare per iteration — zero allocation until the book
    /// actually moves (never, on a fault-free run).
    last_gossip_version: u64,
}

struct EventLoop {
    /// Registered with the poller as slots `1..=peers.len()`.
    peers: Vec<Peer>,
    /// Poller slot 0.
    waker_rx: TcpStream,
    commands: Receiver<Command>,
    inbox: Sender<InboxEvent>,
    poller: Box<dyn ReadinessPoller>,
    counters: LoopCounters,
    /// Present only on resilient planes; `None` leaves every code path of
    /// the default plane byte-identical.
    resilient: Option<ResilientState>,
}

impl EventLoop {
    fn run(mut self) {
        let mut read_buf = vec![0u8; READ_CHUNK];
        // Slot layout: 0 = waker, 1..=peers = peer streams, and on resilient
        // planes one more for the always-open listener.
        let slots = self.peers.len() + 1 + usize::from(self.resilient.is_some());
        let mut interest = vec![Readiness::none(); slots];
        let mut ready = vec![Readiness::none(); slots];
        let mut shutting_down = false;
        // Armed on the first shutdown iteration that still has unacked
        // retained frames: the graceful-termination linger window.
        let mut linger_deadline: Option<Instant> = None;
        let mut progressed = true;
        loop {
            // 1. Commands — but only while below the high-water mark: a slow
            // peer's growing queue stops the intake, the bounded channel
            // fills, and the producer blocks in `broadcast`.
            loop {
                if !self.peers.iter().all(|p| p.queued_bytes < WRITE_HIGH_WATER) {
                    // Intake gated: backpressure is reaching the producer.
                    self.counters.high_water_stalls.incr();
                    break;
                }
                match self.commands.try_recv() {
                    Ok(Command::Send(bytes)) => {
                        for peer in &mut self.peers {
                            peer.enqueue(&bytes, &self.counters.queued_bytes_peak);
                        }
                        progressed = true;
                    }
                    Ok(Command::SendRetained { superstep, batch }) => {
                        if let Some(r) = self.resilient.as_mut() {
                            // Retain before enqueueing: a frame is replayable
                            // the moment any peer could have missed it.
                            r.replay.append(superstep, &batch, count_frames(&batch));
                        }
                        for peer in &mut self.peers {
                            peer.enqueue(&batch, &self.counters.queued_bytes_peak);
                        }
                        progressed = true;
                    }
                    Ok(Command::Ack { superstep, batch }) => {
                        if let Some(r) = self.resilient.as_mut() {
                            r.last_ack = Some(r.last_ack.map_or(superstep, |s| s.max(superstep)));
                        }
                        for peer in &mut self.peers {
                            peer.enqueue(&batch, &self.counters.queued_bytes_peak);
                            if peer.write_open {
                                // Queued while writable counts as delivered:
                                // the exit path flushes queues before close.
                                peer.ack_delivered = Some(
                                    peer.ack_delivered.map_or(superstep, |s| s.max(superstep)),
                                );
                            }
                        }
                        progressed = true;
                    }
                    Ok(Command::Abort(batch)) => {
                        if let Some(r) = self.resilient.as_mut() {
                            r.aborted = true;
                        }
                        for peer in &mut self.peers {
                            peer.enqueue(&batch, &self.counters.queued_bytes_peak);
                        }
                        progressed = true;
                    }
                    Ok(Command::Sever(peer_id)) => {
                        if let Some(peer) = self.peers.iter_mut().find(|p| p.id == peer_id) {
                            sever_poll_peer(peer);
                        }
                        progressed = true;
                    }
                    Ok(Command::Crash) => {
                        // kill -9: everything closes abruptly — queued bytes
                        // die with the process, no goodbye, no linger, no
                        // recovery served. Returning drops the listener too.
                        for peer in &mut self.peers {
                            let _ = peer.stream.shutdown(Shutdown::Both);
                            peer.read_open = false;
                            peer.write_open = false;
                            peer.outbound.clear();
                            peer.queued_bytes = 0;
                        }
                        return;
                    }
                    Ok(Command::Shutdown) => shutting_down = true,
                    // A disconnected sender means the plane was dropped; it
                    // always sends Shutdown first, but be safe either way.
                    Err(TryRecvError::Disconnected) => shutting_down = true,
                    Err(TryRecvError::Empty) => break,
                }
                if shutting_down {
                    break;
                }
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
            let lingering = shutting_down
                && match self.resilient.as_ref() {
                    Some(r) if !r.aborted => {
                        let replay_needed = r.replay.retained_supersteps() > 0;
                        let owes_a_down_peer =
                            self.peers.iter().zip(&r.down).any(|(peer, down)| {
                                down.is_some()
                                    && (replay_needed
                                        || r.last_ack
                                            .is_some_and(|ack| peer.ack_delivered != Some(ack)))
                            });
                        owes_a_down_peer && {
                            let deadline = *linger_deadline.get_or_insert_with(|| {
                                Instant::now() + r.config.reconnect_deadline
                            });
                            Instant::now() < deadline
                        }
                    }
                    _ => false,
                };

            // 1c. Resilient recovery: declare deadline-expired peers lost and
            // redial lower-id down peers (higher-id ones come back through
            // the listener). Skipped once shutting down past the linger — the
            // run is over.
            if !shutting_down || lingering {
                if let Some(r) = self.resilient.as_mut() {
                    progressed |= recovery_tick(
                        &mut self.peers,
                        r,
                        &self.inbox,
                        self.poller.as_mut(),
                        &self.counters,
                    );
                    progressed |= gossip_tick(&mut self.peers, r, &self.counters);
                }
            }

            // 2. Exit once told to stop, done lingering, and every queue is
            // flushed (or its peer unreachable). Half-close so peers see a
            // clean EOF after our final bytes.
            if shutting_down
                && !lingering
                && self
                    .peers
                    .iter()
                    .all(|p| p.outbound.is_empty() || !p.write_open)
            {
                // Announce the clean exit so peers treat the coming EOFs as
                // a deliberate close, not a cut to recover from. Best-effort
                // (9 bytes into a drained socket buffer).
                if let Some(r) = self.resilient.as_ref() {
                    let mut goodbye = Vec::new();
                    Frame::Goodbye { sender: r.id }.encode(&mut goodbye);
                    for peer in self.peers.iter().filter(|p| p.write_open) {
                        let _ = (&peer.stream).write_all(&goodbye);
                    }
                }
                for peer in &self.peers {
                    let _ = peer.stream.shutdown(Shutdown::Write);
                }
                return;
            }

            // 3. Readiness round. Zero timeout while work remains from the
            // previous round, so a burst is serviced without sleeping.
            interest[0] = Readiness {
                readable: true,
                writable: false,
            };
            for (slot, peer) in interest[1..].iter_mut().zip(&self.peers) {
                slot.readable = peer.read_open;
                slot.writable = peer.write_open && !peer.outbound.is_empty();
            }
            if self.resilient.is_some() {
                interest[1 + self.peers.len()] = Readiness {
                    readable: true,
                    writable: false,
                };
            }
            let timeout = if progressed {
                Duration::ZERO
            } else {
                POLL_TIMEOUT
            };
            if self.poller.poll(&interest, &mut ready, timeout).is_err() {
                // A broken poller cannot drive any stream: report every live
                // peer lost, then park on the command channel until the
                // plane shuts us down (no point spinning on a dead poller).
                for peer in &mut self.peers {
                    if peer.read_open {
                        peer.read_open = false;
                        self.counters.peers_lost.incr();
                        let _ = self
                            .inbox
                            .send(InboxEvent::PeerLost(peer.id, PlaneError::Disconnected));
                    }
                    peer.write_open = false;
                    peer.outbound.clear();
                    peer.queued_bytes = 0;
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
            match self.resilient.as_mut() {
                None => {
                    for (peer, state) in self.peers.iter_mut().zip(&ready[1..]) {
                        if state.readable && peer.read_open {
                            progressed |=
                                pump_reads(peer, &mut read_buf, &self.inbox, &self.counters);
                        }
                        if state.writable && peer.write_open && !peer.outbound.is_empty() {
                            progressed |= pump_writes(peer, &self.counters);
                        }
                    }
                }
                Some(r) => {
                    for (idx, peer) in self.peers.iter_mut().enumerate() {
                        let state = ready[1 + idx];
                        if state.readable && peer.read_open {
                            let (prog, ended) =
                                pump_reads_resilient(peer, &mut read_buf, &self.inbox, r);
                            progressed |= prog;
                            if ended {
                                // A stream end is a *cut*, not a loss: park
                                // the link and start the recovery clock. Only
                                // the reconnect deadline makes it terminal.
                                enter_down(peer, idx, r, &self.inbox);
                                progressed = true;
                            }
                        }
                        if state.writable && peer.write_open && !peer.outbound.is_empty() {
                            progressed |= pump_writes(peer, &self.counters);
                        }
                    }
                    if (!shutting_down || lingering) && ready[1 + self.peers.len()].readable {
                        progressed |= accept_poll_connections(
                            &mut self.peers,
                            r,
                            &self.inbox,
                            self.poller.as_mut(),
                            &self.counters,
                        );
                    }
                }
            }
        }
    }
}

/// How long a resume-handshake read may block the event loop (or an
/// establishment) before the counterpart is written off as a stray.
const RESUME_HANDSHAKE_CAP: Duration = Duration::from_secs(2);

/// Chaos injection on one peer link: flush everything queued (blocking — a
/// sever is deterministic, the peer must receive the full superstep), then
/// close only our write half. The peer observes a complete stream followed by
/// a FIN — exactly a superstep-boundary failure; its recovery then closes its
/// socket, which our read path observes, parking our side of the link too.
fn sever_poll_peer(peer: &mut Peer) {
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

/// Park a peer whose stream ended: close it fully, reset the decoder (a torn
/// frame tail is re-delivered by replay, not resumed mid-frame), and start
/// the recovery clock — unless the peer is already terminally gone or
/// announced a clean exit with a goodbye.
fn enter_down(peer: &mut Peer, idx: usize, r: &mut ResilientState, inbox: &Sender<InboxEvent>) {
    let _ = peer.stream.shutdown(Shutdown::Both);
    peer.read_open = false;
    peer.write_open = false;
    peer.outbound.clear();
    peer.queued_bytes = 0;
    // Anything queued (acks included) may have died with the stream; the
    // reinstall's repeated ack is what re-establishes delivery.
    peer.ack_delivered = None;
    peer.decoder = FrameDecoder::new();
    if r.gone[idx] {
        return;
    }
    if peer.done {
        // Announced clean exit: nothing to recover — no redial clock, no
        // linger obligation — but the collector must still learn the stream
        // is over, with the same benign-after-end-of-superstep semantics as
        // a plain plane's EOF.
        let _ = inbox.send(InboxEvent::PeerLost(peer.id, PlaneError::Disconnected));
        return;
    }
    let now = Instant::now();
    r.down[idx] = Some(DownState {
        deadline: now + r.config.reconnect_deadline,
        next_retry: now,
        backoff: r.config.backoff_for(r.id, peer.id),
    });
}

/// One round of recovery: expire deadlines into terminal `PeerLost`, redial
/// lower-id down peers whose backoff elapsed. Higher-id peers redial us; we
/// only watch their deadline here.
fn recovery_tick(
    peers: &mut [Peer],
    r: &mut ResilientState,
    inbox: &Sender<InboxEvent>,
    poller: &mut dyn ReadinessPoller,
    counters: &LoopCounters,
) -> bool {
    let mut progressed = false;
    for idx in 0..peers.len() {
        let (deadline, next_retry) = match &r.down[idx] {
            Some(d) => (d.deadline, d.next_retry),
            None => continue,
        };
        let now = Instant::now();
        if now >= deadline {
            r.down[idx] = None;
            r.gone[idx] = true;
            r.replay.forget(peers[idx].id);
            counters.peers_lost.incr();
            let _ = inbox.send(InboxEvent::PeerLost(
                peers[idx].id,
                PlaneError::Disconnected,
            ));
            progressed = true;
            continue;
        }
        let peer_id = peers[idx].id;
        if peer_id < r.id && now >= next_retry {
            match dial_poll_link(r, peer_id) {
                Some((stream, peer_resume_from)) => {
                    progressed = true;
                    install_poll_link(
                        peers,
                        idx,
                        stream,
                        peer_resume_from,
                        r,
                        inbox,
                        poller,
                        counters,
                    );
                }
                None => {
                    if let Some(d) = r.down[idx].as_mut() {
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
/// writable peer as an unretained tag-6 frame. Receivers whose merge changes
/// nothing do not bump their own version, so the flood converges. Fault-free
/// runs never get past the version compare — the book only moves when an
/// address changes.
fn gossip_tick(peers: &mut [Peer], r: &mut ResilientState, counters: &LoopCounters) -> bool {
    let Some(membership) = r.config.membership.as_ref() else {
        return false;
    };
    let version = membership.version();
    if version <= r.last_gossip_version {
        return false;
    }
    r.last_gossip_version = version;
    let payload = membership.delta_payload();
    let mut buf = r.pool.checkout();
    Frame::Membership {
        sender: r.id,
        payload: payload.into(),
    }
    .encode(&mut buf);
    let batch = Arc::new(buf);
    for peer in peers.iter_mut() {
        peer.enqueue(&batch, &counters.queued_bytes_peak);
    }
    true
}

/// One bounded redial attempt (connect + resume handshake). The target
/// address comes from the gossiped book when membership is live — a
/// replacement process may have adopted the peer's id at a fresh address.
fn dial_poll_link(r: &mut ResilientState, peer: ServerId) -> Option<(TcpStream, u32)> {
    let addr = r.config.peer_addr(peer, &r.peer_addrs);
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(100)).ok()?;
    resume_dial_handshake(
        stream,
        r.num_servers,
        r.id,
        peer,
        r.recv_cursor[peer as usize],
        r.config.handshake_fault,
        &mut r.fault_budget,
    )
}

/// Dial-side half of the `GHHR` resume handshake: send our hello (or a
/// chaos-sabotaged one, consuming fault budget), read and validate the reply.
/// Returns the stream plus the superstep the peer asks us to resume from.
fn resume_dial_handshake(
    mut stream: TcpStream,
    num_servers: u32,
    id: ServerId,
    peer: ServerId,
    resume_from: u32,
    fault: Option<HandshakeFault>,
    fault_budget: &mut u32,
) -> Option<(TcpStream, u32)> {
    let _ = stream.set_nodelay(true);
    let hello = ResumeHello {
        cluster_size: num_servers,
        sender: id,
        resume_from,
    };
    let encoded = hello.encode();
    if let Some(fault) = fault {
        if *fault_budget > 0 {
            *fault_budget -= 1;
            match fault {
                HandshakeFault::Torn { bytes } => {
                    let cut = bytes.min(RESUME_HELLO_LEN);
                    let _ = stream.write_all(&encoded[..cut]);
                }
                HandshakeFault::Duplicate => {
                    let _ = stream
                        .write_all(&encoded)
                        .and_then(|_| stream.write_all(&encoded));
                }
                HandshakeFault::Drop => {}
            }
            return None; // dropping `stream` closes the sabotaged attempt
        }
    }
    stream.write_all(&encoded).ok()?;
    let _ = stream.set_read_timeout(Some(RESUME_HANDSHAKE_CAP));
    let mut reply = [0u8; RESUME_HELLO_LEN];
    stream.read_exact(&mut reply).ok()?;
    let _ = stream.set_read_timeout(None);
    let reply = ResumeHello::decode(&reply).ok()?;
    reply.check(num_servers, id, Some(peer)).ok()?;
    Some((stream, reply.resume_from))
}

/// Accept-side half of the `GHHR` resume handshake: read and validate the
/// dialer's hello (must come from a higher-id peer — dial direction is
/// fixed), reply with our own cursor for that peer. Any malformed, stale or
/// misdirected hello drops the connection without disturbing the plane.
fn resume_accept_handshake(
    mut stream: TcpStream,
    num_servers: u32,
    id: ServerId,
    cursor_of: &dyn Fn(ServerId) -> u32,
) -> Option<(ServerId, TcpStream, u32)> {
    stream.set_nonblocking(false).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(RESUME_HANDSHAKE_CAP));
    let mut buf = [0u8; RESUME_HELLO_LEN];
    stream.read_exact(&mut buf).ok()?;
    let hello = ResumeHello::decode(&buf).ok()?;
    hello.check(num_servers, id, None).ok()?;
    if hello.sender <= id {
        return None;
    }
    let reply = ResumeHello {
        cluster_size: num_servers,
        sender: id,
        resume_from: cursor_of(hello.sender),
    };
    stream.write_all(&reply.encode()).ok()?;
    let _ = stream.set_read_timeout(None);
    Some((hello.sender, stream, hello.resume_from))
}

/// Drain the listener's accept queue: every valid reconnect supersedes
/// whatever stream its slot holds and is installed with replay.
fn accept_poll_connections(
    peers: &mut [Peer],
    r: &mut ResilientState,
    inbox: &Sender<InboxEvent>,
    poller: &mut dyn ReadinessPoller,
    counters: &LoopCounters,
) -> bool {
    let mut progressed = false;
    loop {
        let stream = match r.listener.accept() {
            Ok((stream, _from)) => stream,
            Err(_) => break, // WouldBlock or a transient accept error
        };
        // Membership dispatch first: a restarted process runs seed discovery
        // before it can resume, and its `GHHM` exchanges land on this same
        // listener. Serving one may teach us a replacement's fresh address;
        // the next `gossip_tick` floods it to the survivors.
        if let Some(m) = r.config.membership.as_ref() {
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            match crate::membership::peek_magic(&stream) {
                Ok(magic) if magic == crate::membership::MEMBERSHIP_MAGIC => {
                    let mut s = stream;
                    let _ = m.serve_stream(&mut s);
                    progressed = true;
                    continue;
                }
                Ok(_) => {}
                Err(_) => continue, // silent or dead stray
            }
        }
        let (sender, stream, peer_resume_from) =
            match resume_accept_handshake(stream, r.num_servers, r.id, &|s| {
                r.recv_cursor[s as usize]
            }) {
                Some(accepted) => accepted,
                None => continue,
            };
        // Higher-id sender (checked above): its slot is `sender - 1`.
        let idx = (sender - 1) as usize;
        if r.gone[idx] {
            continue; // terminally lost peers stay dead
        }
        // Supersede the old stream (cut, or abandoned by the peer). Unread
        // tail bytes on it are torn-tail frames ≥ the cursor we just sent —
        // the peer replays them on the new stream and the collector dedups.
        let _ = peers[idx].stream.shutdown(Shutdown::Both);
        progressed = true;
        install_poll_link(
            peers,
            idx,
            stream,
            peer_resume_from,
            r,
            inbox,
            poller,
            counters,
        );
    }
    progressed
}

/// Adopt a handshaken stream as the live link for slot `idx`: replay what
/// the peer still needs, announce the resume, and rearm the poller slot.
/// Single-threaded, so the replay snapshot and the install are atomic with
/// respect to broadcast intake — replay is gap-free by construction.
#[allow(clippy::too_many_arguments)]
fn install_poll_link(
    peers: &mut [Peer],
    idx: usize,
    stream: TcpStream,
    peer_resume_from: u32,
    r: &mut ResilientState,
    inbox: &Sender<InboxEvent>,
    poller: &mut dyn ReadinessPoller,
    counters: &LoopCounters,
) {
    let peer_id = peers[idx].id;
    let (blob, frames) = match r.replay.replay_from(peer_resume_from) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            // The peer wants frames already trimmed below the replay floor:
            // permanently unrecoverable, not a transient failure.
            r.down[idx] = None;
            r.gone[idx] = true;
            r.replay.forget(peer_id);
            counters.peers_lost.incr();
            let _ = inbox.send(InboxEvent::PeerLost(
                peer_id,
                PlaneError::Protocol(e.to_string()),
            ));
            return;
        }
    };
    if stream.set_nonblocking(true).is_err() || poller.reregister(1 + idx, &stream).is_err() {
        return; // could not adopt the stream; recovery keeps retrying
    }
    let peer = &mut peers[idx];
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
    let _ = inbox.send(InboxEvent::PeerResumed(peer_id));
    r.reconnects.incr();
    if !blob.is_empty() {
        let mut buf = r.pool.checkout();
        buf.extend_from_slice(&blob);
        peer.enqueue(&Arc::new(buf), &counters.queued_bytes_peak);
        r.replayed_frames.add(frames);
    }
    // Repeat our latest ack on the new link: the peer may have missed it
    // while down, and it needs the current floor to trim its own replay log
    // (and finish its own linger at shutdown).
    if let Some(superstep) = r.last_ack {
        let mut buf = r.pool.checkout();
        Frame::Ack {
            sender: r.id,
            superstep,
        }
        .encode(&mut buf);
        peer.enqueue(&Arc::new(buf), &counters.queued_bytes_peak);
    }
    peer.ack_delivered = r.last_ack;
    // A rejoining (restarted) peer is a live participant again.
    peer.done = false;
    r.down[idx] = None;
}

/// Resilient twin of [`pump_reads`]: same decode loop, but acks are
/// intercepted into the replay log, end-of-superstep markers raise the
/// peer's receive cursor, and *any* stream end — EOF, torn frame, corrupt
/// bytes, sender mismatch, I/O error — is reported as `(.., true)` for the
/// caller to park the link instead of declaring the peer lost.
fn pump_reads_resilient(
    peer: &mut Peer,
    buf: &mut [u8],
    inbox: &Sender<InboxEvent>,
    r: &mut ResilientState,
) -> (bool, bool) {
    let mut progressed = false;
    loop {
        match (&peer.stream).read(buf) {
            Ok(0) => return (true, true),
            Ok(n) => {
                progressed = true;
                peer.bytes_in.add(n as u64);
                peer.decoder.push(&buf[..n]);
                loop {
                    match peer.decoder.next_frame() {
                        Ok(Some(frame)) => {
                            if frame.sender() != peer.id {
                                return (true, true); // poisoned stream: cut it
                            }
                            peer.frames_in.incr();
                            match frame {
                                Frame::Ack { sender, superstep } => {
                                    r.replay.ack(sender, superstep);
                                    continue; // transport-level, never forwarded
                                }
                                Frame::Goodbye { .. } => {
                                    // Deliberate clean exit: the EOF that
                                    // follows is not a cut. Never forwarded.
                                    peer.done = true;
                                    continue;
                                }
                                Frame::Membership { ref payload, .. } => {
                                    // Address-book gossip: merge it; the next
                                    // `gossip_tick` pushes any news onward.
                                    // Never forwarded to the collector; a
                                    // malformed payload is dropped (the
                                    // anti-entropy cadence re-converges).
                                    if let Some(m) = r.config.membership.as_ref() {
                                        if let Ok(msg) =
                                            crate::membership::MembershipMsg::decode(payload)
                                        {
                                            let _ = m.merge_msg(&msg);
                                        }
                                    }
                                    continue;
                                }
                                Frame::EndOfSuperstep { superstep, .. } => {
                                    let cursor = &mut r.recv_cursor[peer.id as usize];
                                    *cursor = (*cursor).max(superstep.saturating_add(1));
                                }
                                _ => {}
                            }
                            if inbox.send(InboxEvent::Frame(frame)).is_err() {
                                // Plane dropped; stop decoding, no recovery.
                                peer.read_open = false;
                                return (true, false);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return (true, true),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return (progressed, false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return (true, true),
        }
    }
}

/// Blocking `GHHR` establishment for the resilient poll plane: dial every
/// lower-id peer (retrying — and spending any chaos fault budget — until the
/// deadline), then accept every higher-id peer, exchanging resume hellos in
/// both directions. The listener is borrowed, not consumed: it stays open
/// with the event loop for the whole run.
fn establish_resilient_streams(
    id: ServerId,
    num_servers: u32,
    listener: &TcpListener,
    peer_addrs: &[SocketAddr],
    timeout: Duration,
    config: &ResilienceConfig,
    fault_budget: &mut u32,
) -> std::io::Result<Vec<(ServerId, TcpStream, u32)>> {
    let deadline = Instant::now() + timeout;
    let mut streams: Vec<(ServerId, TcpStream, u32)> = Vec::new();
    for peer in 0..id {
        loop {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("server {id}: timed out dialing server {peer}"),
                ));
            }
            if let Ok(stream) = TcpStream::connect(peer_addrs[peer as usize]) {
                if let Some((stream, resume)) = resume_dial_handshake(
                    stream,
                    num_servers,
                    id,
                    peer,
                    config.resume_from,
                    config.handshake_fault,
                    fault_budget,
                ) {
                    streams.push((peer, stream, resume));
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    listener.set_nonblocking(true)?;
    let needed = (num_servers - id - 1) as usize;
    let mut seen = vec![false; num_servers as usize];
    let mut accepted = 0usize;
    while accepted < needed {
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("server {id}: timed out waiting for higher-id peers to dial in"),
            ));
        }
        match listener.accept() {
            Ok((stream, _from)) => {
                // Peers still finishing their own seed discovery dial `GHHM`
                // exchanges at this listener mid-establishment; serve them so
                // their books converge and they can join.
                if let Some(m) = config.membership.as_ref() {
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    match crate::membership::peek_magic(&stream) {
                        Ok(magic) if magic == crate::membership::MEMBERSHIP_MAGIC => {
                            let mut s = stream;
                            let _ = m.serve_stream(&mut s);
                            continue;
                        }
                        Ok(_) => {}
                        Err(_) => continue,
                    }
                }
                if let Some((sender, stream, resume)) =
                    resume_accept_handshake(stream, num_servers, id, &|_| config.resume_from)
                {
                    if !seen[sender as usize] {
                        seen[sender as usize] = true;
                        accepted += 1;
                        streams.push((sender, stream, resume));
                    }
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    streams.sort_by_key(|&(peer, _, _)| peer);
    Ok(streams)
}

/// Read one peer's socket until it would block, feeding the frame decoder and
/// forwarding complete frames. Any stream end — clean EOF, mid-frame EOF,
/// corruption, I/O error — reports a terminal [`InboxEvent::PeerLost`]
/// attributed to that peer. Returns whether any bytes were consumed.
fn pump_reads(
    peer: &mut Peer,
    buf: &mut [u8],
    inbox: &Sender<InboxEvent>,
    counters: &LoopCounters,
) -> bool {
    let mut progressed = false;
    loop {
        match (&peer.stream).read(buf) {
            Ok(0) => {
                let error = if peer.decoder.is_clean() {
                    PlaneError::Disconnected
                } else {
                    PlaneError::Protocol(format!(
                        "stream from server {} ended inside a frame",
                        peer.id
                    ))
                };
                report_loss(peer, inbox, error, counters);
                return true;
            }
            Ok(n) => {
                progressed = true;
                peer.bytes_in.add(n as u64);
                peer.decoder.push(&buf[..n]);
                loop {
                    match peer.decoder.next_frame() {
                        Ok(Some(frame)) => {
                            if frame.sender() != peer.id {
                                let sender = frame.sender();
                                report_loss(
                                    peer,
                                    inbox,
                                    PlaneError::Protocol(format!(
                                        "stream from server {} carried a frame claiming \
                                         sender {sender}",
                                        peer.id
                                    )),
                                    counters,
                                );
                                return true;
                            }
                            peer.frames_in.incr();
                            if inbox.send(InboxEvent::Frame(frame)).is_err() {
                                // Plane dropped; stop decoding, the loop will
                                // be shut down by the command channel.
                                peer.read_open = false;
                                return true;
                            }
                        }
                        Ok(None) => break,
                        Err(FrameError::Corrupt(m)) => {
                            report_loss(
                                peer,
                                inbox,
                                PlaneError::Protocol(format!(
                                    "corrupt frame from server {}: {m}",
                                    peer.id
                                )),
                                counters,
                            );
                            return true;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                report_loss(peer, inbox, PlaneError::Disconnected, counters);
                return true;
            }
        }
    }
}

fn report_loss(
    peer: &mut Peer,
    inbox: &Sender<InboxEvent>,
    error: PlaneError,
    counters: &LoopCounters,
) {
    peer.read_open = false;
    counters.peers_lost.incr();
    let _ = inbox.send(InboxEvent::PeerLost(peer.id, error));
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
    use std::thread;

    fn bind_cluster(n: u32) -> (Vec<BoundPollPlane>, Vec<SocketAddr>) {
        let bound: Vec<BoundPollPlane> = (0..n)
            .map(|sid| PollPlane::bind(sid, n, "127.0.0.1:0").unwrap())
            .collect();
        let addrs = bound.iter().map(|b| b.local_addr().unwrap()).collect();
        (bound, addrs)
    }

    fn establish_all(bound: Vec<BoundPollPlane>, addrs: &[SocketAddr]) -> Vec<PollPlane> {
        thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| scope.spawn(move || b.establish(addrs).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
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
        let planes = establish_all(bound, &addrs);
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
        let planes: Vec<PollPlane> = thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| {
                    let addrs = &addrs;
                    scope.spawn(move || {
                        b.establish_with(
                            addrs,
                            DEFAULT_ESTABLISH_TIMEOUT,
                            Box::new(SpinPoller::new()),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        thread::scope(|scope| {
            for mut p in planes {
                scope.spawn(move || {
                    for s in 0..3u32 {
                        p.broadcast(s, &[p.server_id() as u8]).unwrap();
                        p.end_superstep(s).unwrap();
                        assert_eq!(p.collect(s).unwrap().len(), 1);
                    }
                });
            }
        });
    }

    #[test]
    fn abort_crosses_the_event_loop() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_all(bound, &addrs).into_iter();
        let mut a = planes.next().unwrap();
        let mut b = planes.next().unwrap();
        b.abort();
        a.end_superstep(0).unwrap();
        assert_eq!(a.collect(0), Err(PlaneError::Aborted(1)));
    }

    #[test]
    fn dropped_peer_surfaces_as_disconnect() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_all(bound, &addrs).into_iter();
        let mut a = planes.next().unwrap();
        let b = planes.next().unwrap();
        drop(b); // peer flushes (nothing), half-closes, exits its loop
        assert_eq!(a.collect(0), Err(PlaneError::Disconnected));
    }

    /// Frames queued before a drop must still reach the peer: a worker that
    /// finishes the run and drops its plane has, by then, broadcast its last
    /// end-of-superstep marker — the loop flushes before half-closing.
    #[test]
    fn drop_flushes_queued_frames_before_closing() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_all(bound, &addrs).into_iter();
        let mut a = planes.next().unwrap();
        let mut b = planes.next().unwrap();
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
        let planes = establish_all(bound, &addrs);
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
}

#[cfg(test)]
mod resilient_tests {
    use super::*;
    use crate::chaos::{CutPlan, FaultPlane};
    use std::thread;

    fn bind_cluster(n: u32) -> (Vec<BoundPollPlane>, Vec<SocketAddr>) {
        let bound: Vec<BoundPollPlane> = (0..n)
            .map(|sid| PollPlane::bind(sid, n, "127.0.0.1:0").unwrap())
            .collect();
        let addrs = bound.iter().map(|b| b.local_addr().unwrap()).collect();
        (bound, addrs)
    }

    fn establish_resilient_all(
        bound: Vec<BoundPollPlane>,
        addrs: &[SocketAddr],
        config: &ResilienceConfig,
    ) -> Vec<PollPlane> {
        thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| {
                    let config = config.clone();
                    scope.spawn(move || {
                        b.establish_resilient(addrs, Duration::from_secs(10), config)
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Fault-free resilient runs behave exactly like the plain poll plane.
    #[test]
    fn resilient_all_to_all_parity_without_faults() {
        let (bound, addrs) = bind_cluster(3);
        let planes = establish_resilient_all(bound, &addrs, &ResilienceConfig::default());
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

    /// A connection cut at a superstep boundary recovers via redial + replay,
    /// and every superstep still collects exactly once per peer per message.
    #[test]
    fn boundary_cut_recovers_with_exactly_once_delivery() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_resilient_all(bound, &addrs, &ResilienceConfig::default());
        let p1 = planes.pop().unwrap();
        let p0 = planes.pop().unwrap();
        // Server 0 severs its link to server 1 right after superstep 1 ends:
        // server 1 sees a full superstep then a FIN, redials, and resumes.
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(1, 1)]));

        let run = |p: &mut dyn BroadcastPlane| {
            let id = p.server_id();
            let peer = 1 - id;
            for s in 0..5u32 {
                p.broadcast(s, &[id as u8, s as u8]).unwrap();
                p.end_superstep(s).unwrap();
                let got = p.collect(s).unwrap();
                assert_eq!(
                    got.len(),
                    1,
                    "server {id} superstep {s}: exactly one message expected"
                );
                assert_eq!(&got[0][..], &[peer as u8, s as u8]);
                p.acknowledge(s).unwrap();
            }
        };
        thread::scope(|scope| {
            let h0 = scope.spawn(move || run(&mut p0));
            let mut p1 = p1;
            let h1 = scope.spawn(move || run(&mut p1));
            h0.join().unwrap();
            h1.join().unwrap();
        });
    }

    /// Both directions cut at once (a reconnect storm, here at different
    /// supersteps each) still converges to exactly-once delivery.
    #[test]
    fn mutual_cuts_still_converge() {
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_resilient_all(bound, &addrs, &ResilienceConfig::default());
        let p1 = planes.pop().unwrap();
        let p0 = planes.pop().unwrap();
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(1, 1), (2, 1)]));
        let mut p1 = FaultPlane::new(p1, CutPlan::explicit(vec![(1, 0)]));

        let run = |p: &mut dyn BroadcastPlane| {
            let id = p.server_id();
            let peer = 1 - id;
            for s in 0..5u32 {
                p.broadcast(s, &[id as u8, s as u8]).unwrap();
                p.end_superstep(s).unwrap();
                let got = p.collect(s).unwrap();
                assert_eq!(got.len(), 1, "server {id} superstep {s}");
                assert_eq!(&got[0][..], &[peer as u8, s as u8]);
                p.acknowledge(s).unwrap();
            }
        };
        thread::scope(|scope| {
            let h0 = scope.spawn(move || run(&mut p0));
            let h1 = scope.spawn(move || run(&mut p1));
            h0.join().unwrap();
            h1.join().unwrap();
        });
    }

    /// The recovery machinery also rides the portable spin poller — the
    /// resilient path must not depend on the Linux `poll(2)` shim (listener
    /// readiness degrades to opportunistic accept attempts).
    #[test]
    fn boundary_cut_recovers_on_the_spin_poller() {
        let (bound, addrs) = bind_cluster(2);
        let planes: Vec<PollPlane> = thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| {
                    let addrs = &addrs;
                    scope.spawn(move || {
                        b.establish_resilient_with(
                            addrs,
                            Duration::from_secs(10),
                            ResilienceConfig::default(),
                            Box::new(SpinPoller::new()),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut planes = planes.into_iter();
        let p0 = planes.next().unwrap();
        let p1 = planes.next().unwrap();
        let mut p0 = FaultPlane::new(p0, CutPlan::explicit(vec![(0, 1)]));
        let run = |p: &mut dyn BroadcastPlane| {
            let id = p.server_id();
            for s in 0..3u32 {
                p.broadcast(s, &[id as u8, s as u8]).unwrap();
                p.end_superstep(s).unwrap();
                let got = p.collect(s).unwrap();
                assert_eq!(got.len(), 1, "server {id} superstep {s}");
                p.acknowledge(s).unwrap();
            }
        };
        thread::scope(|scope| {
            let h0 = scope.spawn(move || run(&mut p0));
            let mut p1 = p1;
            let h1 = scope.spawn(move || run(&mut p1));
            h0.join().unwrap();
            h1.join().unwrap();
        });
    }

    /// A peer that never comes back is terminal — but only after the
    /// reconnect deadline, not on the first EOF.
    #[test]
    fn dead_peer_is_terminal_only_after_the_deadline() {
        let (bound, addrs) = bind_cluster(2);
        let config = ResilienceConfig {
            reconnect_deadline: Duration::from_millis(200),
            retry_backoff: Duration::from_millis(20),
            ..ResilienceConfig::default()
        };
        let mut planes = establish_resilient_all(bound, &addrs, &config);
        let p1 = planes.pop().unwrap();
        let mut p0 = planes.pop().unwrap();
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
            let mut iter = bound.into_iter();
            let b0 = iter.next().unwrap();
            let b1 = iter.next().unwrap();
            let faulty = ResilienceConfig {
                handshake_fault: Some(fault),
                handshake_fault_budget: 2,
                ..ResilienceConfig::default()
            };
            let (mut p0, mut p1) = thread::scope(|scope| {
                let addrs0 = &addrs;
                let h0 = scope.spawn(move || {
                    b0.establish_resilient(
                        addrs0,
                        Duration::from_secs(10),
                        ResilienceConfig::default(),
                    )
                    .unwrap()
                });
                let addrs1 = &addrs;
                let h1 = scope.spawn(move || {
                    b1.establish_resilient(addrs1, Duration::from_secs(10), faulty)
                        .unwrap()
                });
                (h0.join().unwrap(), h1.join().unwrap())
            });
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
        let (bound, addrs) = bind_cluster(2);
        let mut planes = establish_resilient_all(bound, &addrs, &ResilienceConfig::default());
        let p1 = planes.pop().unwrap();
        let mut p0 = planes.pop().unwrap();
        p0.sever_peer(1);
        p0.sever_peer(1);
        let run = |mut p: PollPlane| {
            let id = p.server_id();
            for s in 0..3u32 {
                p.broadcast(s, &[id as u8, s as u8]).unwrap();
                p.end_superstep(s).unwrap();
                assert_eq!(p.collect(s).unwrap().len(), 1, "server {id} superstep {s}");
                p.acknowledge(s).unwrap();
            }
        };
        thread::scope(|scope| {
            let h0 = scope.spawn(move || run(p0));
            let h1 = scope.spawn(move || run(p1));
            h0.join().unwrap();
            h1.join().unwrap();
        });
    }

    /// A cluster bootstrapped from one seed address (no static peer table)
    /// converges its address books and reaches all-to-all parity.
    #[test]
    fn seed_discovered_cluster_reaches_parity() {
        let (bound, addrs) = bind_cluster(3);
        let seed = addrs[0];
        let planes: Vec<PollPlane> = thread::scope(|scope| {
            let handles: Vec<_> = bound
                .into_iter()
                .map(|b| {
                    scope.spawn(move || {
                        let view = b.discover(&[seed], Duration::from_secs(10)).unwrap();
                        assert_eq!(view.incarnation, 0, "fresh bootstrap never bumps");
                        b.establish_resilient_discovered(
                            view,
                            Duration::from_secs(10),
                            ResilienceConfig::default(),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
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

    /// The tentpole scenario on the event-loop backend: a peer is killed
    /// mid-run and a replacement with the same server id rejoins **at a
    /// different address** via seed discovery. The survivor learns the fresh
    /// address through the `GHHM` exchange on its listener, its redial
    /// consults the gossiped book, and the run finishes exactly-once.
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
            retry_backoff: Duration::from_millis(10),
            ..ResilienceConfig::default()
        };
        let (p0, p1) = thread::scope(|scope| {
            let mut iter = bound.into_iter();
            let b0 = iter.next().unwrap();
            let b1 = iter.next().unwrap();
            let c0 = survivor_config.clone();
            let c1 = victim_config.clone();
            let h0 = scope.spawn(move || {
                let view = b0.discover(&[seed], Duration::from_secs(10)).unwrap();
                b0.establish_resilient_discovered(view, Duration::from_secs(10), c0)
                    .unwrap()
            });
            let h1 = scope.spawn(move || {
                let view = b1.discover(&[seed], Duration::from_secs(10)).unwrap();
                b1.establish_resilient_discovered(view, Duration::from_secs(10), c1)
                    .unwrap()
            });
            (h0.join().unwrap(), h1.join().unwrap())
        });

        const TOTAL: u32 = 6;
        const CRASH_AT: u32 = 3;
        // Per-server progress (supersteps fully collected + acked), so the
        // victim can crash only once the survivor has absorbed everything it
        // broadcast pre-crash — the multiprocess driver guarantees the same
        // by killing well after the victim's checkpoint lands. Crashing
        // earlier can destroy queued frames the survivor still needs, which
        // no replacement can replay (its log starts at the resume cursor):
        // that is *correctly* terminal, but it is not this test's scenario.
        let progress = [
            std::sync::atomic::AtomicU32::new(0),
            std::sync::atomic::AtomicU32::new(0),
        ];
        let run = |p: &mut PollPlane, from: u32, to: u32| {
            let id = p.server_id();
            let peer = 1 - id;
            for s in from..to {
                p.broadcast(s, &[id as u8, s as u8]).unwrap();
                p.end_superstep(s).unwrap();
                let got = p.collect(s).unwrap();
                assert_eq!(got.len(), 1, "server {id} superstep {s}");
                assert_eq!(&got[0][..], &[peer as u8, s as u8]);
                p.acknowledge(s).unwrap();
                progress[id as usize].store(s + 1, std::sync::atomic::Ordering::Release);
            }
        };
        thread::scope(|scope| {
            let h0 = scope.spawn(|| {
                let mut p0 = p0;
                run(&mut p0, 0, TOTAL);
            });
            let h1 = scope.spawn(|| {
                let mut p1 = p1;
                run(&mut p1, 0, CRASH_AT);
                while progress[0].load(std::sync::atomic::Ordering::Acquire) < CRASH_AT {
                    thread::sleep(Duration::from_millis(1));
                }
                // Die like a killed process: no goodbye, no linger, no
                // self-recovery — the survivor must hold the door open.
                p1.crash();
                let rb = PollPlane::bind(1, 2, "127.0.0.1:0").unwrap();
                assert_ne!(rb.local_addr().unwrap(), addrs[1]);
                let view = rb.discover(&[seed], Duration::from_secs(10)).unwrap();
                // The replacement runs to a clean goodbye, so it does not
                // need the victim's short crash-linger deadline — and must
                // not have it: if its dial and the survivor's book-guided
                // redial cross, the duplicate-connection re-park plus
                // backoff can outlast 300ms on a loaded machine.
                let config = ResilienceConfig {
                    resume_from: CRASH_AT,
                    ..survivor_config.clone()
                };
                let mut p1 = rb
                    .establish_resilient_discovered(view, Duration::from_secs(10), config)
                    .unwrap();
                run(&mut p1, CRASH_AT, TOTAL);
            });
            h0.join().unwrap();
            h1.join().unwrap();
        });
    }
}
