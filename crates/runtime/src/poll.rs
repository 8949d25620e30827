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
//! **single event-loop thread** instead: every stream is `O_NONBLOCK`, one
//! poller reports which sockets can make progress, and per-peer
//! state carries partial frames ([`crate::frame::FrameDecoder`]), partial
//! handshakes and backpressured write queues across loop iterations. The
//! [`SuperstepCollector`] its worker reads (superstep ordering, stashing,
//! abort semantics) gets one event per peer superstep, and the determinism
//! suites pin `PollPlane` runs bit-identical to the sequential reference (see `docs/WIRE.md` §5 for the conformance contract).
//!
//! ## Threading model
//!
//! ```text
//!  worker thread                   event-loop thread (exactly one)
//!  ─────────────                   ───────────────────────────────────────
//!  broadcast() ─encode─▶ bounded   ┌──────────────────┐      ┌───────────┐
//!  end_superstep()       command   │ commands, frames,│Event │  Fabric   │
//!  send_state()          channel ─▶│ hellos, stream   │─────▶│ (fabric.rs│
//!  abort()                + waker  │ ends, ticks      │      │  no I/O)  │
//!       │                          │ poll(fds) · read │Action│           │
//!       ▼                          │ write queues ·   │◀─────│ decides   │
//!  collect() ◀─ inbox channel ◀────│ dial · accept    │      └───────────┘
//!  (SuperstepCollector)            └──────────────────┘
//! ```
//!
//! The worker thread never touches a socket. The event loop never waits on a
//! read: every socket it owns — live stream, dial in flight, accepted
//! connection still short of its hello — is a non-blocking poller slot, and
//! one that stays silent merely expires at its deadline
//! ([`HANDSHAKE_DEADLINE`]). The one bounded wait left is the `connect` of a
//! dial (`DIAL_CONNECT_CAP`).
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
//! for a replacement process (restarted at the address the peer table gives
//! its id), so `establish` only starts the loop with every link down and
//! waits for `Established`. The loop is
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
//! ## Readiness
//!
//! The loop's thread owns one private poller. On Linux it is `poll(2)` over
//! the raw descriptors each slot holds this round (−1 for an empty slot),
//! plus the read end of a `UnixStream` pair the plane writes one byte to
//! when it hands the loop something. It has no timeout of its own: the loop
//! sleeps until a slot is ready, the waker fires or the deadline its last
//! [`EventLoop::turn`] returned has come — never longer, and with no limit
//! when the turn named none — so every timer the loop and its fabric keep
//! must be in that deadline. Every other target keeps the portable
//! spin: each interesting socket is reported ready, the non-blocking
//! `read`/`write` finds out (`WouldBlock`), and a round that may wait naps
//! at most 1 ms — which is also why it needs no waker.
//!
//! [`BroadcastPlane::finish`] ends a finished run: it says goodbye and holds
//! the links until every peer has said goodbye too or is gone (`docs/WIRE.md`
//! §9.3), handing the worker any state request that comes meanwhile. A
//! dropped [`PollPlane`] leaves at once instead. Either way the
//! loop flushes its queues, half-closes its streams and is joined —
//! shutdown is asserted by the thread-count checks in
//! `tests/poll_threads.rs` and `examples/socket_cluster.rs`, not assumed.
//!
//! ## One loop, two nets
//!
//! [`EventLoop`] reaches the OS only through the [`Net`] seam — accept,
//! connect, read, write, shutdown and the clock — and is stepped one
//! [`EventLoop::turn`] at a time by whoever polls. Its thread runs it over
//! the OS's sockets; `tests/fabric_sim.rs` runs the very same loop, one per
//! simulated process, over a `SimNet` of virtual pipes and a virtual clock,
//! through thousands of seeded cuts, crashes and restarts. Over real
//! sockets, [`PollPlane::crash`] and `graphh-bench`'s multi-process
//! `kill -9` gate check what is left: the OS.

use crate::buffer::{BufferPool, PooledBuf};
use crate::checkpoint::encoded_cursor;
use crate::establish::{bind_listener, DEFAULT_ESTABLISH_TIMEOUT, HANDSHAKE_DEADLINE};
use crate::fabric::{Action, Command, Conn, Event, Fabric, HelloBytes, SharedBatch};
use crate::frame::{Frame, FrameDecoder, InboxEvent, PlaneError, SuperstepCollector, WireMessage};
use crate::plane::BroadcastPlane;
use crate::resume::{ResilienceConfig, RESUME_HELLO_LEN};
use graphh_graph::ids::ServerId;
use graphh_obs::{global_counters, Counter};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller slots for accepted connections that have not finished their
/// handshake. When all are taken the oldest gives way.
pub const PENDING_SLOTS: usize = 16;

/// Longest one connect may take. The one wait left on the loop thread — and
/// not a read: a live listener answers a SYN at once, a dead host is retried
/// with backoff anyway.
const DIAL_CONNECT_CAP: Duration = Duration::from_millis(100);

/// Per-peer write-queue high-water mark: while any peer has more than this
/// many bytes queued, the loop stops draining commands, the bounded command
/// channel fills, and the broadcasting worker blocks — backpressure reaches
/// the producer instead of growing an unbounded buffer.
pub const WRITE_HIGH_WATER: usize = 8 * 1024 * 1024;

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
// The network seam
// ---------------------------------------------------------------------------

/// Every call the event loop makes to the operating system: its sockets and
/// its clock. [`PollPlane`] runs the loop over the OS's own; the fault
/// simulation (`tests/fabric_sim.rs`) runs the same loop over virtual pipes
/// and a virtual clock. Calls are non-blocking — `WouldBlock` means "not
/// now" — and readiness is not the net's business: whoever calls
/// [`EventLoop::turn`] says what is ready.
pub trait Net {
    /// A listening socket.
    type Listener;
    /// A connected, non-blocking stream.
    type Stream;

    /// The oldest connection in the listener's backlog, non-blocking, and
    /// where it comes from.
    fn accept(&self, listener: &Self::Listener) -> std::io::Result<(Self::Stream, SocketAddr)>;
    /// Connect to `addr` — the one call that may wait, and only briefly —
    /// and make the stream non-blocking.
    fn connect(&self, addr: SocketAddr) -> std::io::Result<Self::Stream>;
    /// `read(2)`.
    fn read(&self, stream: &Self::Stream, buf: &mut [u8]) -> std::io::Result<usize>;
    /// A hello, whole: a fresh socket takes those few bytes at once, so
    /// `WouldBlock` fails it like any other error.
    fn write_all(&self, stream: &Self::Stream, buf: &[u8]) -> std::io::Result<()>;
    /// `writev(2)`, of queued frames.
    fn write_vectored(&self, stream: &Self::Stream, bufs: &[IoSlice<'_>])
        -> std::io::Result<usize>;
    /// `shutdown(2)`; a failure changes nothing for a stream being closed.
    fn shutdown(&self, stream: &Self::Stream, how: Shutdown);
    /// Time since the loop was created: the fabric's clock.
    fn now(&self) -> Duration;
    /// Sees each event the loop hands the fabric, before the fabric does.
    fn stepping(&mut self, _event: &Event<'_>) {}
    /// Sees the fabric's answer to that event, before the loop performs it.
    fn stepped(&mut self, _actions: &[Action]) {}
}

/// The operating system's sockets and monotonic clock.
struct OsNet {
    /// When the loop was created.
    origin: Instant,
}

/// A socket the way the loop uses it: non-blocking, without Nagle's delay.
fn nonblocking(stream: TcpStream) -> std::io::Result<TcpStream> {
    // Accepted sockets do not inherit the listener's O_NONBLOCK everywhere.
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

impl Net for OsNet {
    type Listener = TcpListener;
    type Stream = TcpStream;

    fn accept(&self, listener: &TcpListener) -> std::io::Result<(TcpStream, SocketAddr)> {
        let (stream, from) = listener.accept()?;
        Ok((nonblocking(stream)?, from))
    }

    fn connect(&self, addr: SocketAddr) -> std::io::Result<TcpStream> {
        nonblocking(TcpStream::connect_timeout(&addr, DIAL_CONNECT_CAP)?)
    }

    fn read(&self, mut stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
        stream.read(buf)
    }

    fn write_all(&self, mut stream: &TcpStream, buf: &[u8]) -> std::io::Result<()> {
        stream.write_all(buf)
    }

    fn write_vectored(
        &self,
        mut stream: &TcpStream,
        bufs: &[IoSlice<'_>],
    ) -> std::io::Result<usize> {
        stream.write_vectored(bufs)
    }

    fn shutdown(&self, stream: &TcpStream, how: Shutdown) {
        let _ = stream.shutdown(how);
    }

    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

// ---------------------------------------------------------------------------
// Readiness
// ---------------------------------------------------------------------------

/// How long one spin round may nap when it is allowed to wait: the latency
/// of anything the spin would otherwise have been woken for.
#[cfg(not(target_os = "linux"))]
const SPIN_NAP: Duration = Duration::from_millis(1);

/// What one poller slot is ready for, as [`EventLoop::turn`] reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ready {
    /// Reading would make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// Writing would make progress.
    pub writable: bool,
}

/// The socket one poller slot holds (see [`EventLoop::slots`]).
pub enum Socket<'a, N: Net> {
    /// The listener.
    Listener(&'a N::Listener),
    /// A live stream, a dial in flight or an accepted connection.
    Stream(&'a N::Stream),
}

/// The event loop's one poller (see the [module docs](self#readiness)). It
/// may over-report readiness — the loop's non-blocking I/O treats
/// `WouldBlock` as "not actually ready" — but never under-reports it.
struct Poller {
    /// The loop's end of the waker (see [`Waker`]).
    #[cfg(target_os = "linux")]
    waker: std::os::unix::net::UnixStream,
    /// Reused `pollfd` array — `poll` runs once per event-loop round (the
    /// hottest path in the plane), so it must not allocate per call.
    #[cfg(target_os = "linux")]
    pollfds: Vec<sys::PollFd>,
}

/// The plane's end of the waker: one byte makes the loop's `poll` return.
struct Waker {
    #[cfg(target_os = "linux")]
    tx: std::os::unix::net::UnixStream,
}

impl Waker {
    fn wake(&self) {
        // A full socket buffer means the loop already has a wakeup pending;
        // any other failure surfaces through the command channel.
        #[cfg(target_os = "linux")]
        let _ = (&self.tx).write(&[1]);
    }
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

/// One slot of a readiness round: the socket it holds, if any — read
/// whenever there is one — and whether the loop would write to it.
type SlotInterest<'a> = (Option<Socket<'a, OsNet>>, bool);

impl Poller {
    /// A poller and the waker that interrupts it.
    fn new() -> std::io::Result<(Poller, Waker)> {
        #[cfg(target_os = "linux")]
        {
            let (tx, waker) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            waker.set_nonblocking(true)?;
            let pollfds = Vec::new();
            Ok((Poller { waker, pollfds }, Waker { tx }))
        }
        #[cfg(not(target_os = "linux"))]
        Ok((Poller {}, Waker {}))
    }

    /// Find out what each of `slots` is ready for, into `ready`, waiting
    /// while nothing is and the plane does not wake the loop — up to
    /// `timeout`, or for as long as that takes when it is `None`.
    #[cfg(target_os = "linux")]
    fn poll<'a>(
        &mut self,
        slots: impl Iterator<Item = SlotInterest<'a>>,
        ready: &mut Vec<Ready>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        use std::os::unix::io::AsRawFd;
        let pollfd = |fd, readable: bool, writable: bool| {
            let mut events = 0i16;
            if readable {
                events |= sys::POLLIN;
            }
            if writable {
                events |= sys::POLLOUT;
            }
            sys::PollFd {
                fd,
                events,
                revents: 0,
            }
        };
        self.pollfds.clear();
        self.pollfds
            .push(pollfd(self.waker.as_raw_fd(), true, false));
        let slot_fds = slots.map(|(socket, writable)| match socket {
            Some(Socket::Listener(listener)) => pollfd(listener.as_raw_fd(), true, writable),
            Some(Socket::Stream(stream)) => pollfd(stream.as_raw_fd(), true, writable),
            // An empty slot: `poll(2)` ignores a negative descriptor.
            None => pollfd(-1, false, writable),
        });
        self.pollfds.extend(slot_fds);
        // No timeout is −1, no limit; zero stays zero (a deadline already
        // due); anything else is at least 1 ms so a sub-millisecond value
        // does not truncate into a busy loop.
        let timeout_ms = match timeout {
            None => -1,
            Some(t) if t.is_zero() => 0,
            Some(t) => i32::try_from(t.as_millis()).map_or(i32::MAX, |ms| ms.max(1)),
        };
        loop {
            // SAFETY: `pollfds` is a live, initialised array of
            // `repr(C)` `struct pollfd`s of exactly the length passed, which
            // `poll` only reads and writes `revents` of for the duration of
            // the call; the descriptors in it need not stay open (a closed
            // one reports `POLLNVAL`).
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
        ready.clear();
        ready.extend(self.pollfds[1..].iter().map(|pollfd| {
            let r = pollfd.revents;
            // Errors and hangups surface through the read path (a read
            // returns the error or EOF), so they count as readable.
            Ready {
                readable: r & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0,
                writable: r & (sys::POLLOUT | sys::POLLERR) != 0,
            }
        }));
        // Drain the wakeups (their only payload is "wake up"): a read error,
        // `WouldBlock` or EOF all mean there is nothing more to take.
        let mut drain = [0u8; 64];
        while self.pollfds[0].revents != 0 && matches!((&self.waker).read(&mut drain), Ok(1..)) {}
        Ok(())
    }

    /// Report every interesting socket of `slots` ready, into `ready`,
    /// napping at most [`SPIN_NAP`] when the loop may wait; nothing wakes
    /// it sooner.
    #[cfg(not(target_os = "linux"))]
    fn poll<'a>(
        &mut self,
        slots: impl Iterator<Item = SlotInterest<'a>>,
        ready: &mut Vec<Ready>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        ready.clear();
        ready.extend(slots.map(|(socket, writable)| Ready {
            readable: socket.is_some(),
            writable,
        }));
        if timeout != Some(Duration::ZERO) {
            std::thread::sleep(timeout.map_or(SPIN_NAP, |t| t.min(SPIN_NAP)));
        }
        Ok(())
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

    /// [`Self::establish`] with an explicit timeout and recovery policy (the
    /// reconnect deadline).
    ///
    /// A table no cluster can come up from is `InvalidInput` before anything
    /// is dialed: it must hold one dialable address per server, no two the
    /// same, none but this server's own at this listener. Establishment is
    /// the event loop's first job, not a phase before it: the loop starts
    /// with every link down and `timeout` to bring them all up, and this
    /// call only waits for its verdict.
    pub fn establish_resilient(
        self,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
        config: ResilienceConfig,
    ) -> std::io::Result<PollPlane> {
        let BoundPollPlane {
            id,
            num_servers,
            listener,
        } = self;
        let addrs = peer_table(id, num_servers, listener.local_addr()?, peer_addrs)?;
        let (poller, waker) = Poller::new()?;
        let registry = global_counters();
        let peer_ids: Vec<ServerId> = (0..num_servers).filter(|&peer| peer != id).collect();
        listener.set_nonblocking(true)?;
        let pool = BufferPool::new();
        let net = OsNet {
            origin: Instant::now(),
        };
        let (event_loop, ends) =
            EventLoop::new(net, listener, id, addrs, config, timeout, pool.clone());
        let event_loop = std::thread::Builder::new()
            .name(format!("graphh-poll-loop-{id}"))
            .spawn(move || event_loop.run(poller))
            .map_err(|e| std::io::Error::other(format!("spawn event-loop thread: {e}")))?;

        // A loop that fails establishment has exited; a loop that died
        // without a verdict dropped its sender.
        let verdict = ends
            .verdict
            .recv()
            .unwrap_or_else(|_| Err(std::io::Error::other("event loop died while establishing")));
        let restored = match verdict {
            Ok(restored) => restored,
            Err(e) => {
                let _ = event_loop.join();
                return Err(e);
            }
        };
        let batch = pool.checkout();
        Ok(PollPlane {
            id,
            num_servers,
            peer_ids,
            commands: ends.commands,
            waker,
            inbox: ends.inbox,
            collector: SuperstepCollector::new(),
            event_loop: Some(event_loop),
            pool,
            batch,
            batch_flushes: registry.counter("poll.batch_flushes"),
            batch_superstep: 0,
            restored,
            finishing: false,
        })
    }
}

/// The peer table of server `id`, listening at `own` — or the `InvalidInput`
/// [`BoundPollPlane::establish_resilient`] documents. The one check of a
/// peer table (the id and cluster size were checked at bind).
fn peer_table(
    id: ServerId,
    num_servers: u32,
    own: SocketAddr,
    peers: &[SocketAddr],
) -> std::io::Result<Vec<SocketAddr>> {
    let invalid = |m: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, m));
    if peers.len() != num_servers as usize {
        return invalid(format!(
            "need one address per server: got {} for a {num_servers}-server cluster",
            peers.len()
        ));
    }
    for (i, addr) in peers.iter().enumerate() {
        if addr.port() == 0 {
            return invalid(format!("peer {i} address {addr} has port 0 (not dialable)"));
        }
        if let Some(j) = (i + 1..peers.len()).find(|&j| peers[j] == *addr) {
            return invalid(format!(
                "peers {i} and {j} share address {addr}: every server needs its own endpoint"
            ));
        }
        let same_ip = addr.ip() == own.ip() || own.ip().is_unspecified();
        if i != id as usize && same_ip && addr.port() == own.port() {
            return invalid(format!(
                "peer {i} address {addr} is this node's own listen address \
                 (did the table's order slip?)"
            ));
        }
    }
    Ok(peers.to_vec())
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
    commands: SyncSender<Request>,
    /// Interrupts the loop's `poll` after a command.
    waker: Waker,
    /// Frames (and peer-loss events) from the event loop.
    inbox: Receiver<InboxEvent>,
    collector: SuperstepCollector,
    event_loop: Option<JoinHandle<()>>,
    /// Recycles batch buffers: the event loop drops a batch once every peer
    /// has written it and ended the superstep after it, which returns the
    /// allocation here for the next one.
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
    /// The state this endpoint establishes with, until the worker takes it.
    restored: Option<WireMessage>,
    /// [`BroadcastPlane::finish`] has said goodbye.
    finishing: bool,
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
    /// returns there once the replay log lets it go.
    fn flush_batch(&mut self) -> Result<(), PlaneError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.batch, self.pool.checkout());
        self.send(Command::Broadcast(self.batch_superstep, Arc::new(full)))?;
        self.batch_flushes.incr();
        Ok(())
    }

    /// Hand the loop a command (blocking while it is `COMMAND_BACKLOG`
    /// commands behind) and wake it.
    fn send(&mut self, command: Command) -> Result<(), PlaneError> {
        let sent = self.commands.send(Request::Do(command));
        self.waker.wake();
        sent.map_err(|_| PlaneError::Disconnected)
    }

    /// The superstep this new process resumes at, from the state its peers
    /// sent while it established; `None` when it starts at superstep 0.
    pub fn resumes_at(&self) -> Option<u32> {
        self.restored.as_deref().and_then(encoded_cursor)
    }

    /// Tear this endpoint down as a *crash* — the in-process analog of
    /// `kill -9` for tests: the event loop closes every stream on the spot
    /// (queued bytes included) and exits without sending a goodbye, serving
    /// a linger, or attempting recovery, so peers hold the door open for a
    /// replacement.
    pub fn crash(self) {
        let _ = self.commands.send(Request::Crash);
        self.waker.wake();
        // The normal drop runs next: its `Leave` lands on a closed channel
        // (ignored) and it joins the already-exiting event loop.
    }

    /// Ship any still-batched frames (normally none: `end_superstep`
    /// flushes); then `last` — everything is in the FIFO command channel, and
    /// the loop flushes it all before half-closing — and join the loop.
    fn close(&mut self, last: Command) {
        let Some(handle) = self.event_loop.take() else {
            return;
        };
        let _ = self.flush_batch();
        let _ = self.send(last);
        let _ = handle.join();
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

    fn send_state(&mut self, peer: ServerId, state: &[u8]) -> Result<(), PlaneError> {
        let frame = Frame::state(self.id, state);
        let mut buf = self.pool.checkout();
        frame
            .map_err(|e| PlaneError::Protocol(e.to_string()))?
            .encode(&mut buf);
        self.send(Command::State(peer, Arc::new(buf)))
    }

    fn restore_state(&mut self) -> Option<WireMessage> {
        self.restored.take()
    }

    /// Say goodbye, then wait for every peer's goodbye or loss — at most the
    /// reconnect deadline (`docs/WIRE.md` §9.3). Dropping leaves at once.
    fn finish(&mut self) -> Result<(), PlaneError> {
        if !std::mem::replace(&mut self.finishing, true) {
            let _ = self.flush_batch();
            let _ = self.send(Command::Shutdown);
        }
        // The inbox closes when the loop exits; until then only a new
        // process's request for our state needs the worker.
        let inbox = &self.inbox;
        self.collector
            .finish(|| inbox.recv().map_err(|_| PlaneError::Disconnected))?;
        let _ = self.event_loop.take().map(JoinHandle::join);
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
        self.waker.wake();
    }
}

impl Drop for PollPlane {
    /// Leave without waiting for the peers, unless [`BroadcastPlane::finish`]
    /// already did.
    fn drop(&mut self) {
        self.close(Command::Leave);
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

/// What the worker side sends its loop: work for the [`Fabric`], or a crash
/// the loop performs on its sockets without the fabric's knowledge.
pub enum Request {
    /// Hand this to the fabric.
    Do(Command),
    /// Die like a killed process — close every stream on the spot (queued
    /// bytes included), send no goodbye, serve no linger, attempt no
    /// recovery, and exit the loop immediately.
    Crash,
}

/// The worker's ends of an [`EventLoop`]'s channels.
pub struct LoopEnds {
    /// Requests for the loop, `COMMAND_BACKLOG` deep: the backpressure edge.
    pub commands: SyncSender<Request>,
    /// What the fabric hands the worker's collector.
    pub inbox: Receiver<InboxEvent>,
    /// How establishment ended, once: the state this process resumes from,
    /// or why there is none.
    pub verdict: Receiver<std::io::Result<Option<WireMessage>>>,
}

/// A dialed or accepted stream that has not finished its handshake: it sits
/// in a poller slot and accumulates the 16 hello bytes across readiness
/// events until [`HANDSHAKE_DEADLINE`]. Nothing waits on it.
struct Handshake<S> {
    stream: S,
    /// Where it leads, for refusal messages.
    origin: String,
    /// When it expires, on the net's clock.
    expires: Duration,
    /// The hello so far: its first `filled` bytes.
    hello: HelloBytes,
    filled: usize,
}

impl<S> Handshake<S> {
    fn new(stream: S, origin: String, now: Duration) -> Self {
        Handshake {
            stream,
            origin,
            expires: now + HANDSHAKE_DEADLINE,
            hello: [0; RESUME_HELLO_LEN],
            filled: 0,
        }
    }

    /// Read what has arrived of the hello and not a byte further (frames may
    /// follow it); `Ok(true)` once all 16 bytes are in.
    fn pump<N: Net<Stream = S>>(&mut self, net: &N) -> std::io::Result<bool> {
        while self.filled < RESUME_HELLO_LEN {
            match net.read(&self.stream, &mut self.hello[self.filled..]) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// One peer's poller slot: the live stream with its partial frames and
/// backpressured write queue, or the dial in flight, or nothing.
struct Peer<S> {
    id: ServerId,
    /// The live link (`None` while the fabric has it down).
    stream: Option<S>,
    /// The stream we dialed, until its reply hello arrives.
    dialing: Option<Handshake<S>>,
    /// Carries partial frames across loop iterations.
    decoder: FrameDecoder,
    /// Pending outbound (batch, offset-already-written). The batch `Arc` is
    /// shared across all peers' queues and the replay log: one broadcast
    /// batch, one buffer — returned to the plane's pool when the last holder
    /// lets go.
    outbound: VecDeque<(SharedBatch, usize)>,
    queued_bytes: usize,
    /// False once a write failed: nothing more is queued (the read path
    /// notices the cut and reports the stream's end).
    write_open: bool,
    /// Complete frames decoded off this peer's stream.
    frames_in: Counter,
    /// Raw stream bytes read from this peer.
    bytes_in: Counter,
}

impl<S> Peer<S> {
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
    fn close<N: Net<Stream = S>>(&mut self, net: &N) {
        if let Some(stream) = self.stream.take() {
            net.shutdown(&stream, Shutdown::Both);
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
}

/// What the loop needs after a [`EventLoop::turn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Turn {
    /// It made progress: turn again at once, whatever is ready.
    Again,
    /// Turn again once a slot is ready or the plane wakes the loop, or at
    /// this instant of [`Net::now`] if it names one — and never later: every
    /// timer the loop and its fabric keep is in it.
    Wait(Option<Duration>),
    /// The loop is over: the worker side has been told how, and every
    /// stream is closed or half-closed.
    Done,
}

/// The I/O half of the plane: it moves bytes between the net's sockets and
/// the [`Fabric`] and performs what the fabric decides. No protocol judgement
/// lives here. [`PollPlane`] turns one on its own thread over the OS's
/// sockets; the fault simulation turns one per simulated process over its
/// virtual network.
pub struct EventLoop<N: Net> {
    id: ServerId,
    net: N,
    fabric: Fabric,
    /// The one buffer every `step` appends to and `dispatch` drains: a
    /// fault-free superstep allocates nothing here.
    actions: Vec<Action>,
    /// Read scratch, `READ_CHUNK` bytes.
    read_buf: Vec<u8>,
    /// Poller slots `0..peers.len()`.
    peers: Vec<Peer<N::Stream>>,
    /// Accepted connections still handshaking: the poller's last slots.
    pending: Vec<Option<Handshake<N::Stream>>>,
    /// The slot after the peers. Kept open for the whole run so cut peers —
    /// or a restarted process — can always dial back in.
    listener: N::Listener,
    commands: Receiver<Request>,
    inbox: Sender<InboxEvent>,
    /// Where `establish` waits; taken by the verdict.
    verdict: Option<Sender<std::io::Result<Option<WireMessage>>>>,
    counters: LoopCounters,
    /// Commands are still being taken — after the farewell too, for state
    /// answers — until the plane is gone.
    intake_open: bool,
    /// The plane's last command (`Shutdown` or `Leave`), until the fabric
    /// hears of it one readiness round after it arrived.
    farewell: Option<Command>,
    /// Held from [`Action::Restore`] to [`Action::Established`].
    restored: Option<WireMessage>,
    /// The fabric said [`Action::Exit`]: flush, half-close, leave.
    exiting: bool,
    /// Establishment failed: leave at once.
    dead: bool,
}

impl<N: Net> EventLoop<N> {
    /// The loop of server `id` over `net`, listening on `listener`, whose
    /// fabric holds the peer table `addrs` with every link down and
    /// `timeout` to bring them all up; and the worker's ends of its
    /// channels.
    pub fn new(
        net: N,
        listener: N::Listener,
        id: ServerId,
        addrs: Vec<SocketAddr>,
        config: ResilienceConfig,
        timeout: Duration,
        pool: BufferPool,
    ) -> (Self, LoopEnds) {
        let registry = global_counters();
        let peers = (0..addrs.len() as ServerId).filter(|&peer| peer != id);
        let peers = peers
            .map(|peer| Peer {
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
            })
            .collect();
        let (command_tx, commands) = sync_channel::<Request>(COMMAND_BACKLOG);
        let (inbox, inbox_rx) = channel::<InboxEvent>();
        let (verdict, verdict_rx) = channel::<std::io::Result<Option<WireMessage>>>();
        let event_loop = EventLoop {
            id,
            net,
            fabric: Fabric::new(id, addrs, config, timeout, pool),
            actions: Vec::new(),
            read_buf: vec![0u8; READ_CHUNK],
            peers,
            pending: (0..PENDING_SLOTS).map(|_| None).collect(),
            listener,
            commands,
            inbox,
            verdict: Some(verdict),
            counters: LoopCounters::registered(),
            intake_open: true,
            farewell: None,
            restored: None,
            exiting: false,
            dead: false,
        };
        let ends = LoopEnds {
            commands: command_tx,
            inbox: inbox_rx,
            verdict: verdict_rx,
        };
        (event_loop, ends)
    }

    /// The fabric it performs.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The net it runs over.
    pub fn net(&self) -> &N {
        &self.net
    }

    /// The net it runs over, to take what its hooks saw.
    pub fn net_mut(&mut self) -> &mut N {
        &mut self.net
    }

    /// The poller slots of the next turn, in the order it reads their
    /// readiness: the peers (a dial in flight is read before a live stream),
    /// the listener (none while exiting), the pending handshakes. Each comes
    /// with the socket it holds, if any — to be read whenever there is one —
    /// and whether the loop would write to it.
    pub fn slots(&self) -> impl Iterator<Item = (Option<Socket<'_, N>>, bool)> + '_ {
        let peers = self.peers.iter().map(|peer| {
            let dialing = peer.dialing.as_ref().map(|h| &h.stream);
            let writable = peer.stream.is_some() && !peer.outbound.is_empty();
            (
                dialing.or(peer.stream.as_ref()).map(Socket::Stream),
                writable,
            )
        });
        let listener = (!self.exiting).then_some(Socket::Listener(&self.listener));
        let pending = self.pending.iter().map(|h| h.as_ref().map(|h| &h.stream));
        let pending = pending.map(|stream| (stream.map(Socket::Stream), false));
        peers
            .chain(std::iter::once((listener, false)))
            .chain(pending)
    }

    /// One iteration of the loop, given what each of [`Self::slots`] is
    /// ready for (all `false` before the first readiness round): the
    /// readiness, then the worker's farewell, its commands and the clocks.
    pub fn turn(&mut self, ready: &[Ready]) -> Turn {
        let mut read_buf = std::mem::take(&mut self.read_buf);
        let mut progressed = self.pump_ready(ready, &mut read_buf);
        self.read_buf = read_buf;

        // The worker is done. The fabric hears of it only now, after a round
        // that read whatever had already reached this process — a cut or
        // killed peer's EOF, its redial in the backlog — so that the goodbyes
        // go out on the links the OS knew to be up, not on those the loop had
        // not yet found down.
        if let Some(farewell) = self.farewell.take() {
            self.dispatch(Event::Command(farewell));
            progressed = true;
        }

        // Commands — but only while below the high-water mark: a slow peer's
        // growing queue stops the intake, the bounded channel fills, and the
        // producer blocks in `broadcast`.
        while self.intake_open {
            if !self.peers.iter().all(|p| p.queued_bytes < WRITE_HIGH_WATER) {
                // Intake gated: backpressure is reaching the producer.
                self.counters.high_water_stalls.incr();
                break;
            }
            match self.commands.try_recv() {
                Ok(Request::Do(farewell @ (Command::Shutdown | Command::Leave))) => {
                    self.farewell = Some(farewell);
                }
                // A disconnected sender means the plane was dropped; it
                // always says farewell first, but be safe either way.
                Err(TryRecvError::Disconnected) => {
                    self.intake_open = false;
                    self.farewell.get_or_insert(Command::Leave);
                }
                Ok(Request::Do(command)) => self.dispatch(Event::Command(command)),
                Ok(Request::Crash) => {
                    // kill -9: queued bytes die with the process. Dropping
                    // the loop drops the listener too.
                    for peer in &mut self.peers {
                        peer.close(&self.net);
                    }
                    return Turn::Done;
                }
                Err(TryRecvError::Empty) => break,
            }
            progressed = true;
        }

        // Time: handshakes past their deadline, then the fabric's own clocks
        // (redial, terminal loss, linger, exit).
        self.expire_handshakes();
        self.dispatch(Event::Tick);
        if self.dead {
            return Turn::Done;
        }
        if self.exiting && self.peers.iter().all(|p| p.outbound.is_empty()) {
            // Every peer is done with us and every queue flushed (or its peer
            // unreachable) — our goodbyes went out with the rest: half-close
            // so peers see a clean EOF after our final bytes.
            for stream in self.peers.iter().filter_map(|peer| peer.stream.as_ref()) {
                self.net.shutdown(stream, Shutdown::Write);
            }
            return Turn::Done;
        }
        // (Read after the tick: a dial it made has a deadline too.)
        let dials = self.peers.iter().filter_map(|p| p.dialing.as_ref());
        let open = dials.chain(self.pending.iter().flatten());
        let expiries = open.map(|h| h.expires);
        match progressed {
            true => Turn::Again,
            false => Turn::Wait(expiries.chain(self.fabric.next_timer()).min()),
        }
    }

    /// Perform one round's readiness: read, write, accept. Returns whether
    /// anything happened.
    fn pump_ready(&mut self, ready: &[Ready], read_buf: &mut [u8]) -> bool {
        let listener_slot = self.peers.len();
        let mut progressed = false;
        for (idx, state) in ready[..listener_slot].iter().enumerate() {
            if state.readable && self.peers[idx].dialing.is_some() {
                progressed |= self.pump_handshake(Conn::Dialed(self.peers[idx].id));
            } else if state.readable {
                progressed |= self.pump_reads(idx, read_buf);
            }
            let peer = &mut self.peers[idx];
            if state.writable && !peer.outbound.is_empty() {
                progressed |= pump_writes(&self.net, peer, &self.counters);
            }
        }
        if ready[listener_slot].readable {
            progressed |= self.accept_connections();
        }
        for slot in 0..PENDING_SLOTS {
            if ready[listener_slot + 1 + slot].readable && self.pending[slot].is_some() {
                progressed |= self.pump_handshake(Conn::Accepted(slot));
            }
        }
        progressed
    }

    /// Peers are kept by ascending id with this endpoint's own id left out.
    fn slot_of(&self, peer: ServerId) -> usize {
        (if peer < self.id { peer } else { peer - 1 }) as usize
    }

    /// Tell the waiting `establish` how establishment ended (once), with the
    /// state it resumes from.
    fn conclude(&mut self, verdict: std::io::Result<Option<WireMessage>>) {
        if let Some(waiting) = self.verdict.take() {
            let _ = waiting.send(verdict);
        }
    }

    /// The net, and the handshake slot `conn` names.
    fn net_and_handshake(&mut self, conn: Conn) -> (&N, &mut Option<Handshake<N::Stream>>) {
        match conn {
            Conn::Dialed(peer) => {
                let slot = self.slot_of(peer);
                (&self.net, &mut self.peers[slot].dialing)
            }
            Conn::Accepted(slot) => (&self.net, &mut self.pending[slot]),
        }
    }

    fn handshake(&mut self, conn: Conn) -> &mut Option<Handshake<N::Stream>> {
        self.net_and_handshake(conn).1
    }

    /// One step of the fabric, performed: the only way the loop changes
    /// protocol state.
    fn dispatch(&mut self, event: Event<'_>) {
        let now = self.net.now();
        self.step_fabric(now, event);
        while !self.actions.is_empty() {
            let mut actions = std::mem::take(&mut self.actions);
            for action in actions.drain(..) {
                // Performing can raise an event of its own (a dial refused
                // on the spot); what the fabric makes of it runs next round.
                if let Some(event) = self.perform(action) {
                    self.step_fabric(now, event);
                }
            }
            if self.actions.is_empty() {
                self.actions = actions; // keep the warmed buffer
            }
        }
    }

    /// Hand the fabric one event, in the net's sight.
    fn step_fabric(&mut self, now: Duration, event: Event<'_>) {
        self.net.stepping(&event);
        let before = self.actions.len();
        self.fabric.step(now, event, &mut self.actions);
        self.net.stepped(&self.actions[before..]);
    }

    fn perform(&mut self, action: Action) -> Option<Event<'static>> {
        match action {
            Action::Send(peer, batch) => {
                let slot = self.slot_of(peer);
                self.peers[slot].enqueue(batch, &self.counters.queued_bytes_peak);
            }
            Action::Reset(peer) => {
                let slot = self.slot_of(peer);
                self.peers[slot].close(&self.net);
            }
            Action::Dial(peer, addr, hello) => return self.dial(peer, addr, hello),
            Action::Reply(conn, hello) => {
                // A fresh socket takes these few bytes whole or is not worth
                // keeping; an `Adopt` that follows then finds it gone.
                let (net, handshake) = self.net_and_handshake(conn);
                let sent = |h: &Handshake<N::Stream>| net.write_all(&h.stream, &hello).is_ok();
                if !handshake.as_ref().is_some_and(sent) {
                    *handshake = None;
                }
            }
            Action::Adopt(conn, peer) => {
                let slot = self.slot_of(peer);
                let adopted = self.handshake(conn).take();
                self.peers[slot].close(&self.net);
                let Some(adopted) = adopted else {
                    return Some(Event::StreamEnd(peer));
                };
                self.peers[slot].stream = Some(adopted.stream);
                self.peers[slot].write_open = true;
            }
            Action::Close(conn) => *self.handshake(conn) = None,
            // (A dropped plane stops listening; its Shutdown is on the way.)
            Action::Deliver(event) => drop(self.inbox.send(event)),
            Action::Restore(state) => self.restored = Some(state),
            Action::Established => {
                let restored = self.restored.take();
                self.conclude(Ok(restored));
            }
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
        let net = &self.net;
        let dialed = net.connect(addr).and_then(|stream| {
            net.write_all(&stream, &hello)?;
            Ok(stream)
        });
        match dialed {
            Ok(stream) => {
                let handshake = Handshake::new(stream, origin, self.net.now());
                self.peers[slot].dialing = Some(handshake);
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                return Some(Event::DialRefused(peer, format!("{origin}: {e}")));
            }
            Err(e) => return Some(Event::DialFailed(peer, format!("{origin}: {e}"))),
        }
        None
    }

    /// Drain the listener's accept queue into pending slots: a free one, else
    /// the one that has waited longest gives way — a real peer's hello
    /// arrives with its connect, so a flood of silent strays cannot lock it
    /// out.
    fn accept_connections(&mut self) -> bool {
        let mut progressed = false;
        // `Err` = WouldBlock or a transient accept error: done for this round.
        while let Ok((stream, from)) = self.net.accept(&self.listener) {
            progressed = true;
            let waited = |slot: &usize| self.pending[*slot].as_ref().map(|h| h.expires);
            let slot = (0..PENDING_SLOTS).min_by_key(waited).expect("slots exist");
            let handshake = Handshake::new(stream, from.to_string(), self.net.now());
            self.pending[slot] = Some(handshake);
            // The hello usually arrived with the connect: no need for a round.
            self.pump_handshake(Conn::Accepted(slot));
        }
        progressed
    }

    /// Advance one handshake on readiness and hand a whole hello to the
    /// fabric, which answers it with `Adopt` or `Close`.
    fn pump_handshake(&mut self, conn: Conn) -> bool {
        let (net, handshake) = self.net_and_handshake(conn);
        let Some(handshake) = handshake else {
            return false;
        };
        match handshake.pump(net) {
            Ok(false) => return false,
            Ok(true) => {
                let (origin, hello) = (handshake.origin.clone(), handshake.hello);
                self.dispatch(Event::Hello(conn, &origin, hello));
            }
            Err(e) => {
                let why = "no reply hello (the peer refused ours, or is not up yet)";
                self.abandon(conn, &format!("{why}: {e}"));
            }
        }
        true
    }

    /// A handshake is over without having become anything — failed, expired,
    /// displaced: drop it, and if it was a dial, say so.
    fn abandon(&mut self, conn: Conn, why: &str) {
        let Some(handshake) = self.handshake(conn).take() else {
            return;
        };
        if let Conn::Dialed(peer) = conn {
            let why = format!("{}: {why}", handshake.origin);
            self.dispatch(Event::DialFailed(peer, why));
        }
    }

    /// Abandon every handshake past [`HANDSHAKE_DEADLINE`].
    fn expire_handshakes(&mut self) {
        let now = self.net.now();
        for slot in 0..PENDING_SLOTS + self.peers.len() {
            let conn = match slot.checked_sub(PENDING_SLOTS) {
                None => Conn::Accepted(slot),
                Some(peer) => Conn::Dialed(self.peers[peer].id),
            };
            let expires = self.handshake(conn).as_ref().map(|h| h.expires);
            if expires.is_some_and(|at| at <= now) {
                self.abandon(conn, &format!("no reply within {HANDSHAKE_DEADLINE:?}"));
            }
        }
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
            let Some(stream) = peer.stream.as_ref() else {
                break false;
            };
            let n = match self.net.read(stream, buf) {
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
            // A peer that closed only its write half still reads: what is
            // queued for it — a goodbye answered on the way out — goes first.
            pump_writes(&self.net, &mut self.peers[idx], &self.counters);
            self.peers[idx].close(&self.net);
            self.dispatch(Event::StreamEnd(id));
        }
        progressed || ended
    }
}

impl EventLoop<OsNet> {
    /// The loop thread: turn, `poll(2)` the slots until something is ready,
    /// the plane wakes it or the deadline the turn named has come — never
    /// longer, and with no limit when it named none — turn again, until the
    /// loop is done.
    fn run(mut self, mut poller: Poller) {
        let mut ready = vec![Ready::default(); self.slots().count()];
        loop {
            let timeout = match self.turn(&ready) {
                Turn::Done => return,
                Turn::Again => Some(Duration::ZERO),
                Turn::Wait(due) => due.map(|due| due.saturating_sub(self.net.now())),
            };
            if let Err(e) = poller.poll(self.slots(), &mut ready, timeout) {
                // A broken poller cannot drive any stream: fail establishment
                // or report every peer lost, and leave — the plane finds the
                // command channel closed.
                self.conclude(Err(e));
                for peer in &mut self.peers {
                    peer.close(&self.net);
                    let lost = InboxEvent::PeerLost(peer.id, PlaneError::Disconnected);
                    let _ = self.inbox.send(lost);
                }
                return;
            }
        }
    }
}

/// Write queued bytes to one peer until its socket would block or the queue
/// drains, gathering up to [`MAX_WRITE_VECTORS`] queued batches into a single
/// `write_vectored` call — one syscall moves everything the queue holds,
/// however the batches were produced. A write failure discards the queue and
/// stops queueing — the read path is what reports the stream's end. Returns
/// whether any bytes moved.
fn pump_writes<N: Net>(net: &N, peer: &mut Peer<N::Stream>, counters: &LoopCounters) -> bool {
    let mut progressed = false;
    loop {
        let mut iov = [IoSlice::new(&[]); MAX_WRITE_VECTORS];
        let mut vectors = 0usize;
        for (bytes, offset) in peer.outbound.iter().take(MAX_WRITE_VECTORS) {
            iov[vectors] = IoSlice::new(&bytes[*offset..]);
            vectors += 1;
        }
        let Some(stream) = peer.stream.as_ref().filter(|_| vectors > 0) else {
            return progressed;
        };
        counters.write_vectored_calls.incr();
        let wrote = match net.write_vectored(stream, &iov[..vectors]) {
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

#[cfg(test)]
mod tests {
    use super::*;
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
    /// `[id, s]`, and demand exactly the peer's `[peer, s]` back — once. A
    /// new process's request for state is answered with cursor `s`.
    fn run_supersteps(p: &mut dyn BroadcastPlane, supersteps: std::ops::Range<u32>) {
        let id = p.server_id();
        let peer = 1 - id;
        for s in supersteps {
            p.broadcast(s, &[id as u8, s as u8]).unwrap();
            p.end_superstep(s).unwrap();
            let got = loop {
                match p.collect(s) {
                    Err(PlaneError::StateRequested(asker)) => {
                        let state = crate::checkpoint::encode_state(asker, s, &[], &[]);
                        p.send_state(asker, &state).unwrap();
                    }
                    got => break got.unwrap(),
                }
            };
            assert_eq!(got.len(), 1, "server {id} superstep {s}: exactly once");
            assert_eq!(&got[0][..], &[peer as u8, s as u8]);
        }
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
                    }
                });
            }
        });
    }

    /// A loopback address nothing listens at.
    fn unused_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|dead| dead.local_addr())
            .unwrap()
    }

    #[test]
    fn missing_peer_times_out_instead_of_hanging() {
        let bound = PollPlane::bind(1, 2, "127.0.0.1:0").unwrap();
        let addrs = vec![unused_addr(), bound.local_addr().unwrap()];
        let err = bound
            .establish_with_timeout(&addrs, Duration::from_millis(300))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    // The "exactly one event-loop thread per plane" and clean-shutdown
    // assertions live in `tests/poll_threads.rs`: thread counts are
    // process-wide, so they need a test binary of their own rather than a
    // unit test racing the rest of this crate's parallel suite.

    /// A replacement launched with the wrong `--servers` is refused on every
    /// redial; when the survivor finally gives the peer up, the terminal
    /// error says why instead of a bare disconnect.
    #[test]
    fn terminal_loss_names_the_last_refused_hello() {
        let (bound, addrs) = bind_cluster(2);
        let config = ResilienceConfig {
            reconnect_deadline: Duration::from_millis(400),
        };
        let mut planes = establish_all(bound, &addrs, &config);
        let p1 = planes.pop().unwrap();
        let mut p0 = planes.pop().unwrap();
        p1.crash();
        // The impostor believes in a 3-server cluster.
        let wrong = PollPlane::bind(1, 3, "127.0.0.1:0").unwrap();
        let wrong_addrs = [addrs[0], wrong.local_addr().unwrap(), unused_addr()];
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

    /// A static table no cluster can come up from is refused before anything
    /// is dialed — on a loopback listener and on the wildcard address alike:
    /// an entry count that is not the cluster size, a port-0 entry, two
    /// servers at one address, another server's entry at this listener.
    #[test]
    fn bad_peer_tables_are_refused_before_anything_is_dialed() {
        // Server 1 of 3 dials server 0, whose stand-in must see no connection.
        let lower = TcpListener::bind("127.0.0.1:0").unwrap();
        lower.set_nonblocking(true).unwrap();
        let server_0 = lower.local_addr().unwrap();
        let port_0: SocketAddr = "127.0.0.1:0".parse().unwrap();
        for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
            let bound: Vec<_> = (0..4)
                .map(|_| PollPlane::bind(1, 3, listen).unwrap())
                .collect();
            let port = |i: usize| bound[i].local_addr().unwrap().port();
            let own: Vec<_> = (0..4)
                .map(|i| SocketAddr::from(([127, 0, 0, 1], port(i))))
                .collect();
            let tables = [
                (vec![server_0, own[0]], "need one address per server"),
                (vec![server_0, own[1], port_0], "port 0"),
                (vec![server_0, own[2], server_0], "share address"),
                (vec![own[3], server_0, unused_addr()], "own listen address"),
            ];
            for (bound, (table, why)) in bound.into_iter().zip(tables) {
                let err = bound.establish_with_timeout(&table, TIMEOUT).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
                assert!(err.to_string().contains(why), "{listen} {table:?}: {err}");
                let nothing = lower.accept().map(|_| ()).unwrap_err();
                assert_eq!(nothing.kind(), std::io::ErrorKind::WouldBlock, "{table:?}");
            }
        }
    }

    /// A peer is killed mid-run and a replacement with the same server id
    /// rejoins **at the same address**, the one the peer table gives it,
    /// with no cursor of its own: the survivor's state tells it where to
    /// start. Whoever holds the lower id of the link waits for the redial,
    /// the other redials the new process — both directions, one per victim —
    /// and the run finishes exactly-once.
    #[test]
    fn a_replacement_at_the_same_address_rejoins_mid_run() {
        for victim in [0u32, 1] {
            let (bound, addrs) = bind_cluster(2);
            let survivor_config = ResilienceConfig {
                reconnect_deadline: Duration::from_secs(10),
            };
            let victim_config = ResilienceConfig {
                reconnect_deadline: Duration::from_millis(300),
            };
            let mut planes = establish_all_with(bound, |b| {
                let config = if b.id == victim {
                    &victim_config
                } else {
                    &survivor_config
                };
                b.establish_resilient(&addrs, TIMEOUT, config.clone())
            });
            let doomed = planes.remove(victim as usize);
            let mut survivor = planes.pop().unwrap();

            const TOTAL: u32 = 6;
            const CRASH_AT: u32 = 3;
            thread::scope(|scope| {
                // The victim crashes once the survivor has absorbed everything
                // it broadcast before, so the survivor's state is at CRASH_AT.
                let (absorbed_tx, absorbed_rx) = channel::<()>();
                scope.spawn(move || {
                    run_supersteps(&mut survivor, 0..CRASH_AT);
                    absorbed_tx.send(()).unwrap();
                    run_supersteps(&mut survivor, CRASH_AT..TOTAL);
                });
                let (addrs, survivor_config) = (&addrs, &survivor_config);
                scope.spawn(move || {
                    let mut doomed = doomed;
                    run_supersteps(&mut doomed, 0..CRASH_AT);
                    absorbed_rx.recv().unwrap();
                    // Die like a killed process: no goodbye, no linger, no
                    // self-recovery — the survivor must hold the door open.
                    // The crash joins the loop thread, which drops the
                    // listener, so its address is free again.
                    doomed.crash();
                    let at = addrs[victim as usize];
                    let rebound = PollPlane::bind(victim, 2, at).unwrap();
                    // The replacement runs to a clean goodbye, so it does not
                    // need the victim's short crash-linger deadline.
                    let config = survivor_config.clone();
                    let established = rebound.establish_resilient(addrs, TIMEOUT, config);
                    let mut replacement = established.unwrap();
                    let state = replacement.restore_state().expect("the survivor's state");
                    let cursor = crate::checkpoint::encoded_cursor(&state);
                    assert_eq!(cursor, Some(CRASH_AT));
                    assert!(replacement.restore_state().is_none(), "taken once");
                    run_supersteps(&mut replacement, CRASH_AT..TOTAL);
                });
            });
        }
    }
}
