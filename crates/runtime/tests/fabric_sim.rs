//! Deterministic simulation of the GHHR recovery core, with real workers
//! and the production event loop.
//!
//! `N` endpoints run on a **virtual network and a virtual clock**: no socket,
//! no thread, no sleep. Each is what a `graphh-node` process holds — the
//! production [`EventLoop`] of `poll.rs` (its [`Fabric`], frame decoders,
//! handshake slots and write queues), turned over [`SimNet`], this file's
//! implementation of the loop's [`Net`] seam, with the worker side on the
//! loop's own channels: a real [`SuperstepCollector`] and a real
//! [`WorkerStep`] running a registry program on a small partitioned RMAT
//! graph (its marker of superstep `s` acknowledges `s - 1`). A killed server's
//! replacement is a new process: it recovers from its live peers, which
//! answer its hello with their state ([`state_for`], through the fabric's
//! state frames) and their replay, and it resumes from the lowest state
//! ([`restore_state`]) — there is no checkpoint store. A seed picks the
//! program and direction mode and the cluster's schedule — how bytes
//! interleave and how they are chunked, how much a connection holds in
//! flight (so writes are partial and resume), where connections break (at
//! any byte offset: mid-hello, mid-frame), which strangers knock (silent,
//! another protocol's magic, garbage, a hello against the fixed direction, a
//! duplicate dial), which server crashes (at any worker step after
//! establishment) and whether and when it comes back (at the address the
//! peer table gives it) — and every schedule is held to the invariants
//! below. Thousands run per `cargo test`; a failure prints its
//! seed and the `(event → actions)` trace of every fabric, and the same seed
//! reproduces it byte for byte.
//!
//! Invariants, per schedule:
//!
//! * **the sequential answer** — every replica that finishes is bit-identical
//!   to [`SequentialExecutor`]'s, after as many supersteps;
//! * **exactly once, in order** — every `collect(s)` returns, per peer,
//!   exactly the wires that peer's step encoded for `s`, in order, and a
//!   restarted server re-encodes byte-identical wires;
//! * **everyone finishes** — unless a server is gone for good, every worker
//!   completes every superstep (so a finished endpoint held the door for a
//!   restarting one, and a restarted one got its replay);
//! * **the log drains** — once every peer's goodbye or loss is in,
//!   `ReplayLog::bytes_retained() == 0`; in a cluster kept up until everyone
//!   is done, every log holds nothing below the last superstep (every peer's
//!   last marker acknowledged the one before it, a marker lost to a cut was
//!   replayed);
//! * **terminal loss on the deadline** — a terminal `PeerLost` fires at
//!   exactly `reconnect_deadline` of virtual time after the link went down,
//!   never earlier or later, and an establish failure at exactly the
//!   establish timeout; a loss after a refused hello names the refusal;
//! * **no one left waiting** — an endpoint told to stop exits once every
//!   peer has said goodbye or is gone, within `reconnect_deadline`, and
//!   before it unless a server is gone for good;
//! * **announced time** — a loop turns only when one of its slots is ready,
//!   its worker hands it a command (the waker), its last turn asked to turn
//!   again, or at the deadline that turn announced, as its thread's `poll`
//!   would wake it: a loop that needed a turn it never announced breaks one
//!   of the invariants above.
//!
//! And at the seam, per stream and handshake:
//!
//! * **exact bytes** — what the loop writes to a stream is exactly the
//!   batches it queued on it, in order: a resumed write starts at the byte
//!   the last one stopped at;
//! * **bounded queues** — no peer's queued bytes exceed `WRITE_HIGH_WATER`
//!   plus one batch;
//! * **handshakes end** — every dialed or accepted connection is adopted or
//!   dropped within `HANDSHAKE_DEADLINE`, and one displaced for a newcomer
//!   is the oldest of `PENDING_SLOTS`;
//! * **a failed reply drops the handshake** — its adoption reports the
//!   stream's end at once.
//!
//! Beside them, every seeded and explicit schedule checks that each
//! replacement resumed at the lowest count of its predecessor's supersteps
//! a survivor held: from a state at that cursor, or from superstep 0 by
//! plain replay.
//!
//! This file is compiled into two harnesses: `graphh-runtime`'s own tests
//! and (by `#[path]`) the facade crate's tier-1 `cargo test`.

use graphh_cluster::ClusterConfig;
use graphh_core::exec::{ExecutionPlan, WorkerStep};
use graphh_core::registry::{ProgramContext, ProgramOptions, PROGRAMS};
use graphh_core::{DirectionMode, GabProgram, GraphHConfig, GraphHEngine, SequentialExecutor};
use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_graph::{Graph, GraphBuilder};
use graphh_obs::Tracer;
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use graphh_runtime::checkpoint::encoded_cursor;
use graphh_runtime::establish::HANDSHAKE_DEADLINE;
use graphh_runtime::fabric::{Action, Command, Conn, Event};
use graphh_runtime::poll::{
    EventLoop, LoopEnds, Net, Ready, Request, Socket, Turn, PENDING_SLOTS, WRITE_HIGH_WATER,
};
use graphh_runtime::{
    encode_message_into, restore_state, state_for, BufferPool, Frame, FrameDecoder, InboxEvent,
    PlaneError, ResilienceConfig, ResumeHello, SuperstepCollector, WireMessage,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice};
use std::net::{Ipv4Addr, Shutdown, SocketAddr};
use std::rc::Rc;
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Seeded schedules per cluster size (2, 3 and 5 endpoints). A constant, not
/// a knob: tier-1 runs them all.
const SCHEDULES: [(u32, u64); 3] = [(2, 900), (3, 800), (5, 400)];

const RECONNECT_DEADLINE: Duration = Duration::from_secs(20);
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(60);
/// A schedule that has not ended by then is a livelock.
const MAX_STEPS: usize = 200_000;
const WOULD_BLOCK: &str = "sim: inbox empty";

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One registry program under one direction mode it accepts, on a small RMAT
/// graph partitioned for one cluster size, with the sequential executor's
/// run as the reference.
struct Workload {
    name: String,
    config: GraphHConfig,
    partitioned: PartitionedGraph,
    program: Box<dyn GabProgram>,
    plan: ExecutionPlan,
    /// The sequential executor's replica, as bits.
    reference: Vec<u64>,
    /// How many supersteps the run takes.
    supersteps: u32,
}

fn symmetrised(base: &Graph) -> Graph {
    let mut builder = GraphBuilder::new()
        .with_num_vertices(base.num_vertices())
        .symmetric(true);
    for edge in base.edges().iter() {
        builder.add_edge(edge);
    }
    builder.build().expect("a symmetric graph")
}

/// Every registry program under every direction mode it accepts, for a
/// cluster of `servers` (built once per size, shared by every schedule).
fn workloads(servers: u32) -> &'static [Workload] {
    static BY_SIZE: [OnceLock<Vec<Workload>>; 6] = [const { OnceLock::new() }; 6];
    BY_SIZE[servers as usize].get_or_init(|| {
        let directed = RmatGenerator::new(6, 4).generate(2017);
        let symmetric = symmetrised(&directed);
        let mut all = Vec::new();
        for spec in PROGRAMS {
            let graph = if spec.symmetrize_input {
                &symmetric
            } else {
                &directed
            };
            let tiles = SpeConfig::with_tile_count("sim", graph, 2 * servers + 1);
            let partitioned = Spe::partition(graph, &tiles).expect("partition");
            let mut options = ProgramOptions::new();
            for (key, value) in [("supersteps", "4"), ("rounds", "5")] {
                if spec.accepts(key) {
                    options.set(key, value);
                }
            }
            let context = ProgramContext::new(graph.out_degrees());
            let program = spec.build(&context, &options).expect("registry program");
            let mut modes = vec![DirectionMode::Auto, DirectionMode::ForcePull];
            if program.supports_push() {
                modes.push(DirectionMode::ForcePush);
            }
            for mode in modes {
                let program = spec.build(&context, &options).expect("registry program");
                let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers))
                    .with_direction_mode(mode)
                    .with_threads_per_server(1);
                let sequential = GraphHEngine::with_executor(
                    config.clone(),
                    Arc::new(SequentialExecutor::new()),
                )
                .run(&partitioned, program.as_ref())
                .expect("sequential reference");
                let plan =
                    ExecutionPlan::prepare(&config, &partitioned, program.as_ref()).expect("plan");
                all.push(Workload {
                    name: format!("{} ({})", spec.name, mode.as_str()),
                    config,
                    partitioned: partitioned.clone(),
                    program,
                    plan,
                    reference: sequential.values.iter().map(|v| v.to_bits()).collect(),
                    supersteps: sequential.supersteps_run,
                });
            }
        }
        all
    })
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    fn millis(&mut self, max: u64) -> Duration {
        Duration::from_millis(self.below(max + 1))
    }
}

// ---------------------------------------------------------------------------
// The virtual network
// ---------------------------------------------------------------------------

/// Who holds one end of a connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Owner {
    /// A process of server `id`.
    Node(u32),
    /// A stranger: writes its script, never reads.
    Rogue,
}

struct End {
    owner: Owner,
    /// Bytes on their way *to* this end.
    inflight: Vec<u8>,
    /// Bytes that reached this end, for its reads.
    arrived: Vec<u8>,
    /// Bytes this end may still receive before the connection breaks.
    budget: Option<usize>,
    /// Its owner dropped it, or its listener went before accepting it.
    closed: bool,
    /// Its owner closed its write half: what it wrote before arrives, then
    /// the other end sees the stream end; nothing written after arrives.
    shut: bool,
    /// Dialed or accepted at this instant, and not yet adopted or dropped.
    handshaking: Option<Duration>,
    /// What the loop queued on it as a peer's live stream and has not
    /// written yet — nothing more once a write to it failed.
    queued: Vec<u8>,
    write_failed: bool,
}

struct Connection {
    /// `[dialer, acceptor]`.
    ends: [End; 2],
    /// In the listener's backlog: connected, not accepted yet.
    backlog: bool,
    /// Broken by the network: both ends see the stream end once they have
    /// read what still arrived.
    cut: bool,
    /// Bytes that may be in flight to one end before writes to it block.
    room: usize,
    /// Where the dialer connected to.
    target: SocketAddr,
}

/// The network every process's [`SimNet`] shares: pipes, listeners, clock.
struct Network {
    now: Duration,
    conns: Vec<Connection>,
    /// Per server: its listener is bound, and how many connections wait in
    /// its backlog.
    listening: Vec<bool>,
    backlog: Vec<usize>,
    rng: Rng,
    /// Connections still to be dialed that the network will break after so
    /// many bytes: `(dial ordinal, end, bytes)`.
    doomed_dials: Vec<(usize, usize, usize)>,
    dials: usize,
    /// Hellos written to accepted connections that failed, and handshakes
    /// dropped at their deadline.
    failed_replies: usize,
    expired: usize,
    /// Per server: a reply just failed, so its fabric's next event must be
    /// the `StreamEnd` of the adoption that found the handshake gone.
    reply_failed: Vec<bool>,
    /// Per server and peer: the count of completed supersteps its fabrics
    /// saw from that peer (EOS + 1) — what its next hello would ask to
    /// resume at.
    eos_cursor: Vec<Vec<u32>>,
    /// Invariants broken at the seam.
    broken: Vec<String>,
}

type Shared = Rc<RefCell<Network>>;

/// An accepted connection's origin, which names it.
fn origin_of(conn: usize) -> SocketAddr {
    SocketAddr::from((Ipv4Addr::from(0x7f00_0000 | conn as u32), 1))
}

impl Network {
    fn end(&mut self, (conn, end): (usize, usize)) -> &mut End {
        &mut self.conns[conn].ends[end]
    }

    /// A connection into `target`'s backlog.
    fn open(&mut self, owners: [Owner; 2], target: u32, room: usize, budgets: [Option<usize>; 2]) {
        let end = |e: usize| End {
            owner: owners[e],
            inflight: Vec::new(),
            arrived: Vec::new(),
            budget: budgets[e],
            closed: false,
            shut: false,
            handshaking: None,
            queued: Vec::new(),
            write_failed: false,
        };
        self.conns.push(Connection {
            ends: [end(0), end(1)],
            backlog: true,
            cut: false,
            room,
            target: static_addr(target),
        });
        self.backlog[target as usize] += 1;
    }

    /// Whether a read of the end would make progress, and a write to it.
    fn ready(&self, (conn, end): (usize, usize)) -> Ready {
        let c = &self.conns[conn];
        let (this, other) = (&c.ends[end], &c.ends[1 - end]);
        let ended = c.cut || other.closed || other.shut;
        Ready {
            readable: !this.arrived.is_empty() || (this.inflight.is_empty() && ended),
            writable: c.cut || other.closed || this.shut || other.inflight.len() < c.room,
        }
    }

    fn read(&mut self, (conn, end): (usize, usize), buf: &mut [u8]) -> std::io::Result<usize> {
        let (ready, cut) = (self.ready((conn, end)), self.conns[conn].cut);
        let arrived = &mut self.conns[conn].ends[end].arrived;
        let n = arrived.len().min(buf.len());
        buf[..n].copy_from_slice(&arrived[..n]);
        arrived.drain(..n);
        match n {
            0 if !ready.readable => Err(ErrorKind::WouldBlock.into()),
            0 if cut => Err(ErrorKind::ConnectionReset.into()),
            n => Ok(n),
        }
    }

    /// What a write from the end moves into flight to the other one.
    fn write(&mut self, (conn, end): (usize, usize), bytes: &[u8]) -> std::io::Result<usize> {
        let c = &mut self.conns[conn];
        let (cut, room) = (c.cut, c.room);
        let [a, b] = &mut c.ends;
        let (this, other) = if end == 0 { (a, b) } else { (b, a) };
        if cut {
            return Err(ErrorKind::ConnectionReset.into());
        }
        if other.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        if this.shut {
            return Ok(bytes.len());
        }
        let n = bytes.len().min(room.saturating_sub(other.inflight.len()));
        other.inflight.extend_from_slice(&bytes[..n]);
        match n {
            0 => Err(ErrorKind::WouldBlock.into()),
            n => Ok(n),
        }
    }

    /// The end's owner drops it. An accepted connection dropped mid-handshake
    /// — its peer still there, its deadline not reached, its hello not
    /// answered — was displaced by a newcomer: the oldest of a full set.
    fn close(&mut self, (conn, end): (usize, usize)) {
        let (now, c) = (self.now, &self.conns[conn]);
        let (this, other) = (&c.ends[end], &c.ends[1 - end]);
        if let (1, Some(since), Owner::Node(id)) = (end, this.handshaking, this.owner) {
            let live = !(c.cut || other.closed || other.shut);
            if live && now < since + HANDSHAKE_DEADLINE {
                let held = self.conns.iter().map(|c| &c.ends[1]);
                let held = held.filter(|e| e.owner == this.owner && !e.closed);
                let waiting: Vec<_> = held.filter_map(|e| e.handshaking).collect();
                if waiting.len() != PENDING_SLOTS + 1 || waiting.iter().any(|&t| t < since) {
                    let why = format!("n{id} displaced a handshake that was not the oldest");
                    self.broken.push(why);
                }
            }
        }
        let expired = (this.handshaking).is_some_and(|since| now >= since + HANDSHAKE_DEADLINE);
        self.expired += usize::from(expired);
        let this = self.end((conn, end));
        (this.closed, this.handshaking) = (true, None);
        this.inflight.clear();
        this.arrived.clear();
    }

    /// The first `keep` bytes in flight to the end reach it at once; the
    /// rest is lost.
    fn arrive(&mut self, at: (usize, usize), keep: usize) {
        let End {
            inflight, arrived, ..
        } = self.end(at);
        inflight.truncate(keep);
        arrived.append(inflight);
    }
}

/// One end of a connection, as a process's loop holds it.
struct SimStream {
    net: Shared,
    at: (usize, usize),
}

impl Drop for SimStream {
    fn drop(&mut self) {
        self.net.borrow_mut().close(self.at);
    }
}

/// A bound listener: connections to its address wait in its backlog until
/// accepted, and are refused once it is gone.
struct SimListener {
    net: Shared,
    id: u32,
}

impl SimListener {
    fn bind(net: &Shared, id: u32) -> SimListener {
        net.borrow_mut().listening[id as usize] = true;
        SimListener {
            net: net.clone(),
            id,
        }
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        let mut net = self.net.borrow_mut();
        net.listening[self.id as usize] = false;
        net.backlog[self.id as usize] = 0;
        let owner = Owner::Node(self.id);
        for conn in 0..net.conns.len() {
            if net.conns[conn].backlog && net.conns[conn].ends[1].owner == owner {
                net.conns[conn].backlog = false;
                net.close((conn, 1));
            }
        }
    }
}

/// What a process's fabric decided that the world checks, in order.
enum Noted {
    Lost(u32, PlaneError),
    Established,
    EstablishFailed(bool, String),
    Exit,
}

/// What one process's fabric has shown of one peer.
#[derive(Clone, Default)]
struct Seen {
    /// The live stream, as `(connection, end)`.
    live: Option<(usize, usize)>,
    /// When the live link was last lost.
    down_since: Option<Duration>,
    /// The peer said goodbye on its live stream.
    said_goodbye: bool,
    /// Its goodbye or loss is in, so the fabric keeps nothing for it (for
    /// good: the fabric forgets the peer).
    released: bool,
    /// A hello claiming the peer was refused for its cluster size since the
    /// link last came up.
    refused_size: bool,
}

/// One process's view of the [`Network`]: the production loop's [`Net`].
struct SimNet {
    net: Shared,
    id: u32,
    /// Virtual time at which the loop was created.
    epoch: Duration,
    /// Per peer id.
    peers: Vec<Seen>,
    /// Per pending slot: the connection whose hello it handed the fabric.
    accepted: [usize; PENDING_SLOTS],
    noted: Vec<Noted>,
    /// `(event → actions)` lines, when tracing; the first is being built.
    trace: Option<Vec<String>>,
}

impl SimNet {
    /// The connection and end a handshake slot holds.
    fn held(&self, net: &Network, conn: Conn) -> (usize, usize) {
        match conn {
            Conn::Accepted(slot) => (self.accepted[slot], 1),
            Conn::Dialed(peer) => {
                let dialed = |c: &Connection| {
                    c.ends[0].owner == Owner::Node(self.id) && c.target == static_addr(peer)
                };
                let conn = net.conns.iter().rposition(dialed).expect("a dial");
                (conn, 0)
            }
        }
    }
}

impl Net for SimNet {
    type Listener = SimListener;
    type Stream = SimStream;

    fn accept(&self, listener: &SimListener) -> std::io::Result<(SimStream, SocketAddr)> {
        let mut net = self.net.borrow_mut();
        let owner = Owner::Node(listener.id);
        let waiting = |c: &Connection| c.backlog && c.ends[1].owner == owner;
        let conn = net.conns.iter().position(waiting);
        let conn = conn.ok_or(std::io::Error::from(ErrorKind::WouldBlock))?;
        net.backlog[listener.id as usize] -= 1;
        net.conns[conn].backlog = false;
        net.conns[conn].ends[1].handshaking = Some(net.now);
        let stream = SimStream {
            net: self.net.clone(),
            at: (conn, 1),
        };
        Ok((stream, origin_of(conn)))
    }

    fn connect(&self, addr: SocketAddr) -> std::io::Result<SimStream> {
        let mut net = self.net.borrow_mut();
        let servers = net.listening.len() as u32;
        let target = (0..servers).find(|&t| static_addr(t) == addr && net.listening[t as usize]);
        let target = target.ok_or(std::io::Error::from(ErrorKind::ConnectionRefused))?;
        let ordinal = net.dials;
        net.dials += 1;
        let budget = |end: usize| {
            let doomed = net.doomed_dials.iter();
            let doomed = doomed.filter(|&&(nth, e, _)| nth == ordinal && e == end);
            doomed.map(|&(_, _, bytes)| bytes).min()
        };
        let budgets = [budget(0), budget(1)];
        let room = 16 << net.rng.below(12);
        net.open(
            [Owner::Node(self.id), Owner::Node(target)],
            target,
            room,
            budgets,
        );
        let conn = net.conns.len() - 1;
        net.conns[conn].ends[0].handshaking = Some(net.now);
        Ok(SimStream {
            net: self.net.clone(),
            at: (conn, 0),
        })
    }

    fn read(&self, stream: &SimStream, buf: &mut [u8]) -> std::io::Result<usize> {
        self.net.borrow_mut().read(stream.at, buf)
    }

    fn write_all(&self, stream: &SimStream, buf: &[u8]) -> std::io::Result<()> {
        let mut net = self.net.borrow_mut();
        let wrote = net
            .write(stream.at, buf)
            .and_then(|n| match n == buf.len() {
                true => Ok(()),
                false => Err(ErrorKind::WouldBlock.into()),
            });
        if wrote.is_err() && stream.at.1 == 1 {
            net.failed_replies += 1;
            net.reply_failed[self.id as usize] = true;
        }
        wrote
    }

    fn write_vectored(&self, stream: &SimStream, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let bytes = bufs.iter().fold(Vec::new(), |mut all, buf| {
            all.extend_from_slice(buf);
            all
        });
        let mut net = self.net.borrow_mut();
        let wrote = net.write(stream.at, &bytes);
        let end = net.end(stream.at);
        let n = match wrote {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Err(e),
            Err(e) => {
                end.write_failed = true;
                end.queued.clear();
                return Err(e);
            }
        };
        let next = end.queued.get(..n) == Some(&bytes[..n]);
        end.queued.drain(..n.min(end.queued.len()));
        if !next {
            let why = format!("n{} wrote {n} bytes it had not queued next", self.id);
            net.broken.push(why);
        }
        Ok(n)
    }

    fn shutdown(&self, stream: &SimStream, _how: Shutdown) {
        self.net.borrow_mut().end(stream.at).shut = true;
    }

    fn now(&self) -> Duration {
        self.net.borrow().now - self.epoch
    }

    fn stepping(&mut self, event: &Event<'_>) {
        let mut net = self.net.borrow_mut();
        let failed = std::mem::take(&mut net.reply_failed[self.id as usize]);
        if failed && !matches!(event, Event::StreamEnd(_)) {
            let why = format!("n{} adopted a stream its reply failed on", self.id);
            net.broken.push(why);
        }
        match event {
            Event::Frame(peer, Frame::Goodbye { .. }) => {
                let seen = &mut self.peers[*peer as usize];
                (seen.said_goodbye, seen.released) = (true, true);
            }
            Event::StreamEnd(peer) => {
                let seen = &mut self.peers[*peer as usize];
                (seen.live, seen.down_since) = (None, Some(net.now));
            }
            Event::Hello(Conn::Accepted(slot), origin, hello) => {
                let origin: SocketAddr = origin.parse().expect("an origin this net named");
                let SocketAddr::V4(origin) = origin else {
                    unreachable!("named in IPv4")
                };
                self.accepted[*slot] = (u32::from(*origin.ip()) & 0xff_ffff) as usize;
                // A hello refused for its cluster size: the terminal loss
                // that may follow must name it.
                let servers = self.peers.len() as u32;
                if let Ok(hello) = ResumeHello::decode(hello) {
                    let claimed = hello.sender < servers && hello.sender != self.id;
                    if hello.cluster_size != servers && claimed {
                        self.peers[hello.sender as usize].refused_size = true;
                    }
                }
            }
            _ => {}
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(format!("n{} {}", self.id, describe_event(event)));
        }
    }

    fn stepped(&mut self, actions: &[Action]) {
        let mut net = self.net.borrow_mut();
        for action in actions {
            match action {
                Action::Send(peer, batch) => {
                    let Some(live) = self.peers[*peer as usize].live else {
                        continue;
                    };
                    let end = net.end(live);
                    if !end.write_failed {
                        end.queued.extend_from_slice(batch);
                    }
                    if end.queued.len() > WRITE_HIGH_WATER + batch.len() {
                        let why = format!("n{} queued more than the high-water mark", self.id);
                        net.broken.push(why);
                    }
                }
                Action::Reset(peer) => self.peers[*peer as usize].live = None,
                Action::Adopt(conn, peer) => {
                    let held = self.held(&net, *conn);
                    net.end(held).handshaking = None;
                    let seen = &mut self.peers[*peer as usize];
                    seen.live = Some(held);
                    (seen.down_since, seen.said_goodbye, seen.refused_size) = (None, false, false);
                }
                Action::Close(conn) => {
                    let held = self.held(&net, *conn);
                    net.end(held).handshaking = None;
                }
                Action::Deliver(InboxEvent::Superstep {
                    sender, superstep, ..
                }) => {
                    let cursor = &mut net.eos_cursor[self.id as usize][*sender as usize];
                    *cursor = (*cursor).max(superstep + 1);
                }
                Action::Deliver(InboxEvent::PeerLost(peer, error)) => {
                    self.peers[*peer as usize].released = true;
                    self.noted.push(Noted::Lost(*peer, error.clone()));
                }
                Action::Established => self.noted.push(Noted::Established),
                Action::EstablishFailed(timed_out, message) => {
                    let failed = Noted::EstablishFailed(*timed_out, message.clone());
                    self.noted.push(failed);
                }
                Action::Exit => self.noted.push(Noted::Exit),
                _ => {}
            }
        }
        if let Some(line) = self.trace.as_mut().and_then(|trace| trace.last_mut()) {
            let acts: Vec<String> = actions.iter().map(describe_action).collect();
            line.push_str(&format!(" -> [{}]", acts.join(", ")));
            if line.ends_with(" Tick -> []") {
                self.trace.as_mut().map(Vec::pop);
            }
        }
    }
}
// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

/// Where one process's worker is: what `run_worker` would do next with its
/// [`WorkerStep`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Worker {
    /// Established: restore from the state the peers sent, if they sent one.
    Start,
    /// Compute and encode the superstep, and broadcast it.
    Publish(u32),
    Collect(u32),
    /// Apply the collected superstep.
    Apply(u32),
    /// Every superstep applied, the replica checked against the reference.
    Finished,
    /// A collect failed; the run was aborted.
    Failed,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Ended {
    /// `Action::Exit` at this virtual time.
    Exited(Duration),
    /// `Action::EstablishFailed`.
    NeverEstablished(String),
}

/// One running `graphh-node`: the production event loop over its share of
/// the network, the worker side of its channels, and the worker step.
struct Proc {
    /// The loop, until it is done.
    event_loop: Option<EventLoop<SimNet>>,
    ends: LoopEnds,
    /// The loop asked to turn again at once, or at this virtual time.
    again: bool,
    due: Option<Duration>,
    pool: BufferPool,
    /// Virtual time at which the fabric's clock read zero.
    epoch: Duration,
    collector: SuperstepCollector,
    inbox: VecDeque<InboxEvent>,
    /// New inbox events since the last collect attempt that had to wait.
    inbox_grew: bool,
    worker: Worker,
    /// The server's superstep body (`None` once failed; a finished one still
    /// answers requests for its state).
    step: Option<WorkerStep<'static>>,
    /// The state the fabric restored this process from, until the worker
    /// takes it.
    restored: Option<WireMessage>,
    /// Wires handed to the collector whose superstep it has not returned
    /// yet: `(sender, superstep, wire)`, in the order handed.
    handed: Vec<(u32, u32, WireMessage)>,
    /// When `Action::Established` came.
    established: Option<Duration>,
    /// When the worker said `Shutdown`, and when the fabric said `Exit`.
    stopped: Option<Duration>,
    exited: Option<Duration>,
    ended: Option<Ended>,
}

impl Proc {
    fn event_loop(&self) -> &EventLoop<SimNet> {
        self.event_loop.as_ref().expect("a running loop")
    }
}

enum NodeState {
    Running(Box<Proc>),
    /// Listener bound, process not establishing yet (building its workload):
    /// connections pile up in the backlog unanswered.
    Bound(SimListener),
    Dead,
}
struct Node {
    id: u32,
    generation: u32,
    state: NodeState,
    /// What became of earlier processes of this server.
    history: Vec<(Worker, Option<Ended>)>,
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RogueKind {
    Silent,
    /// A magic that is not the hello's, then silence.
    OtherMagic,
    Garbage,
    /// A valid hello from a *lower* id: against the fixed dial direction.
    WrongDirection,
    /// A second, valid hello from a higher id that already holds a link.
    Duplicate,
    /// A hello claiming `victim`'s id in a cluster one server larger.
    WrongSize,
}

#[derive(Clone, Debug)]
enum Fault {
    /// The network drops the live link between two servers, losing a random
    /// part of what is in flight.
    Cut { a: u32, b: u32 },
    /// `a` closes the write half of its live link to `b`: `b` sees the
    /// stream end after what `a` wrote so far, `a` sees nothing until `b`
    /// closes its end in turn.
    Sever { a: u32, b: u32 },
    /// A stranger connects to `target`.
    Rogue { target: u32, kind: RogueKind },
    /// `victim` is killed and is bound again at its address after
    /// `down_for` and establishes after `bound_for` more, a new process that
    /// recovers from its peers.
    CrashRestart {
        victim: u32,
        down_for: Duration,
        bound_for: Duration,
    },
    /// `victim` is killed for good; with `impostor`, a process believing in a
    /// larger cluster then dials the survivors under its id.
    GoneForever { victim: u32, impostor: bool },
    /// These faults, at one instant.
    Together(Vec<Fault>),
}

struct Planned {
    fault: Fault,
    /// Fires once server `when.0`'s worker has reached superstep `when.1`
    /// (the run's superstep count: once it has finished)...
    when: (u32, u32),
    /// ...while none of these servers has reached these supersteps.
    before: Vec<(u32, u32)>,
}

/// A state a server sent: `(from, to, its cursor)`.
type Offered = (u32, u32, u32);

enum Timed {
    Bind {
        victim: u32,
    },
    Start {
        victim: u32,
    },
    /// A fault at an instant instead of at a worker's progress.
    Fire(Fault),
}

struct World {
    rng: Rng,
    now: Duration,
    net: Shared,
    nodes: Vec<Node>,
    workload: &'static Workload,
    supersteps: u32,
    /// Per server and superstep, the wires its step encoded the first time.
    wires: Vec<Vec<Option<Vec<Vec<u8>>>>>,
    /// Keep every endpoint up until all are done (then check every log is
    /// empty) instead of letting each exit on its own.
    hold_until_all_done: bool,
    /// This server reads the reply to a dial of its own only when nothing
    /// else can happen.
    slow_replies: Option<u32>,
    planned: Vec<Planned>,
    timed: Vec<(Duration, Timed)>,
    /// A server is gone for good: survivors may fail instead of finishing.
    fatal: bool,
    /// Every state a server sent, in order.
    offered: Vec<Offered>,
    /// States a finished worker sent for a request its last collect had set
    /// aside.
    answered_after_the_last_collect: usize,
    /// New processes a survivor declared gone because they resumed below
    /// what it still held (more than one server died at once).
    unrecoverable: usize,
    /// Per restore: the server and the cursor it resumed from.
    restores: Vec<(u32, u32)>,
    /// Per replacement that established: its id, and the lowest count of
    /// its predecessor's supersteps a survivor held — where it must resume
    /// (at 0, without a restore).
    lowest_held: Vec<(u32, u32)>,
    /// The drawn faults, for failure reports.
    plan_text: String,
    trace: Option<Vec<String>>,
    steps: usize,
}

#[derive(Clone, Copy, Debug)]
enum Choice {
    Deliver { conn: usize, end: usize },
    Turn { node: usize },
    Work { node: usize },
    Fire { planned: usize },
    Wait,
}

type Check = Result<(), String>;

/// Where server `id` listens: its entry of the peer table, for good.
fn static_addr(id: u32) -> SocketAddr {
    SocketAddr::from(([10, 0, 0, id as u8 + 1], 7000))
}

/// Encoded frames as a readable list, for traces.
fn describe(bytes: &[u8]) -> String {
    let mut decoder = FrameDecoder::new();
    decoder.push(bytes);
    let mut out = Vec::new();
    while let Ok(Some(frame)) = decoder.next_frame() {
        out.push(match frame {
            Frame::Message {
                sender, superstep, ..
            } => format!("M{sender}.{superstep}"),
            Frame::EndOfSuperstep { sender, superstep } => format!("E{sender}.{superstep}"),
            Frame::Abort { sender } => format!("ABORT{sender}"),
            Frame::Goodbye { sender } => format!("BYE{sender}"),
            Frame::State { sender, state } => {
                format!("STATE{sender}@{}", encoded_cursor(&state).unwrap_or(0))
            }
        });
    }
    out.join(" ")
}

fn describe_action(action: &Action) -> String {
    match action {
        Action::Send(peer, batch) => format!("Send({peer}: {})", describe(batch)),
        Action::Reply(conn, bytes) => format!("Reply({conn:?}, {} bytes)", bytes.len()),
        Action::Deliver(InboxEvent::Superstep {
            sender,
            superstep,
            wires,
        }) => format!("Deliver(S{sender}.{superstep}: {} wires)", wires.len()),
        other => format!("{other:?}"),
    }
}

fn describe_event(event: &Event<'_>) -> String {
    match event {
        Event::Command(Command::Broadcast(superstep, batch)) => {
            format!("Broadcast({superstep}: {})", describe(batch))
        }
        Event::Command(Command::Abort(_)) => "Abort".to_string(),
        Event::Command(Command::State(peer, batch)) => {
            format!("State({peer}: {})", describe(batch))
        }
        Event::Frame(peer, frame) => {
            let mut bytes = Vec::new();
            frame.encode(&mut bytes);
            format!("Frame({peer}: {})", describe(&bytes))
        }
        other => format!("{other:?}"),
    }
}

/// What each of a loop's slots is ready for, as `poll(2)` would report it;
/// whether any is.
fn readiness(net: &Network, event_loop: &EventLoop<SimNet>, out: &mut Vec<Ready>) -> bool {
    out.clear();
    out.extend(event_loop.slots().map(|(socket, writable)| match socket {
        None => Ready::default(),
        Some(Socket::Listener(listener)) => Ready {
            readable: net.backlog[listener.id as usize] > 0,
            writable: false,
        },
        Some(Socket::Stream(stream)) => {
            let ready = net.ready(stream.at);
            let writable = writable && ready.writable;
            Ready { writable, ..ready }
        }
    }));
    out.iter().any(|ready| ready.readable || ready.writable)
}

impl World {
    // -- construction -------------------------------------------------------

    fn new(seed: u64, servers: u32, trace: bool) -> World {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        // The seed walks the workloads: every program under every mode.
        let all = workloads(servers);
        let workload = &all[seed as usize % all.len()];
        let supersteps = workload.supersteps;
        let nodes = (0..servers)
            .map(|id| Node {
                id,
                generation: 0,
                state: NodeState::Dead,
                history: Vec::new(),
            })
            .collect();
        let net = Network {
            now: Duration::ZERO,
            conns: Vec::new(),
            listening: vec![false; servers as usize],
            backlog: vec![0; servers as usize],
            rng: Rng(rng.next() | 1),
            doomed_dials: Vec::new(),
            dials: 0,
            failed_replies: 0,
            expired: 0,
            reply_failed: vec![false; servers as usize],
            eos_cursor: vec![vec![0; servers as usize]; servers as usize],
            broken: Vec::new(),
        };
        let mut world = World {
            now: Duration::ZERO,
            net: Rc::new(RefCell::new(net)),
            nodes,
            workload,
            supersteps,
            wires: vec![vec![None; supersteps as usize]; servers as usize],
            hold_until_all_done: rng.chance(1, 2),
            slow_replies: None,
            planned: Vec::new(),
            timed: Vec::new(),
            fatal: false,
            offered: Vec::new(),
            answered_after_the_last_collect: 0,
            unrecoverable: 0,
            restores: Vec::new(),
            lowest_held: Vec::new(),
            plan_text: String::new(),
            trace: trace.then(Vec::new),
            steps: 0,
            rng,
        };
        world.plan(servers);
        let faults: Vec<_> = world.planned.iter().map(|p| (&p.fault, p.when)).collect();
        world.plan_text = format!(
            "{}, {faults:?} doomed dials {:?}",
            workload.name,
            world.net.borrow().doomed_dials
        );
        // Processes start at slightly different times, like real launches.
        for id in 0..servers {
            let at = world.rng.millis(30);
            world.timed.push((at, Timed::Start { victim: id }));
        }
        world
    }

    /// Draw this seed's faults: any number of cuts, strangers and doomed
    /// dials, and at most one crash (the restart precondition below is
    /// reasoned about one victim at a time).
    fn plan(&mut self, servers: u32) {
        let supersteps = self.supersteps;
        let when = |rng: &mut Rng| {
            let server = rng.below(servers as u64) as u32;
            (server, rng.below(supersteps as u64) as u32)
        };
        for _ in 0..self.rng.below(4) {
            let a = self.rng.below(servers as u64) as u32;
            let b = (a + 1 + self.rng.below(servers as u64 - 1) as u32) % servers;
            let fault = match self.rng.below(3) {
                0 => Fault::Cut { a, b },
                1 => {
                    let kind = match self.rng.below(5) {
                        0 => RogueKind::Silent,
                        1 => RogueKind::OtherMagic,
                        2 => RogueKind::Garbage,
                        3 => RogueKind::WrongDirection,
                        _ => RogueKind::Duplicate,
                    };
                    Fault::Rogue { target: a, kind }
                }
                _ => {
                    // Break the n-th dial of the run after a few bytes:
                    // inside a hello (16 bytes) or the first frames after it.
                    let (nth, end) = (self.rng.below(3 * servers as u64), self.rng.below(2));
                    let bytes = self.rng.below(60) as usize;
                    let doomed = (nth as usize, end as usize, bytes);
                    self.net.borrow_mut().doomed_dials.push(doomed);
                    continue;
                }
            };
            let when = when(&mut self.rng);
            let before = Vec::new();
            self.planned.push(Planned {
                fault,
                when,
                before,
            });
        }
        let victim = self.rng.below(servers as u64) as u32;
        let fault = match self.rng.below(10) {
            0..=3 => Fault::CrashRestart {
                victim,
                down_for: self.rng.millis(5_000),
                // Sometimes longer than the handshake deadline: dials then
                // expire unanswered in the restarted server's backlog.
                bound_for: self.rng.millis(4_000),
            },
            4 => Fault::GoneForever {
                victim,
                impostor: self.rng.chance(1, 2),
            },
            _ => return,
        };
        if matches!(fault, Fault::GoneForever { .. }) {
            // Survivors may fail, each in its own time: nobody waits for all.
            self.fatal = true;
            self.hold_until_all_done = false;
        }
        let when = (victim, self.rng.below(supersteps as u64) as u32);
        let before = Vec::new();
        self.planned.push(Planned {
            fault,
            when,
            before,
        });
    }

    fn log(&mut self, line: impl FnOnce() -> String) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(format!("[{:>12?}] {}", self.now, line()));
        }
    }

    /// Server `id`'s process, unless it has left: its fabric has said `Exit`
    /// (its loop may still be flushing) or given up establishing.
    fn proc(&mut self, id: usize) -> Option<&mut Proc> {
        match &mut self.nodes[id].state {
            NodeState::Running(proc) if proc.ended.is_none() && proc.exited.is_none() => Some(proc),
            _ => None,
        }
    }

    /// Server `id`'s process, ended or not.
    fn running(&mut self, id: usize) -> &mut Proc {
        match &mut self.nodes[id].state {
            NodeState::Running(proc) => proc,
            _ => unreachable!("n{id} runs"),
        }
    }

    fn start(&mut self, id: usize) {
        let servers = self.nodes.len();
        let table: Vec<SocketAddr> = (0..servers as u32).map(static_addr).collect();
        let node = &mut self.nodes[id];
        let listener = match std::mem::replace(&mut node.state, NodeState::Dead) {
            NodeState::Bound(listener) => listener,
            _ => SimListener::bind(&self.net, id as u32),
        };
        let config = ResilienceConfig {
            reconnect_deadline: RECONNECT_DEADLINE,
        };
        let w = self.workload;
        let step = WorkerStep::new(
            &w.config,
            &w.plan,
            &w.partitioned,
            w.program.as_ref(),
            id as u32,
            &Tracer::off(),
        );
        let pool = BufferPool::new();
        let net = SimNet {
            net: self.net.clone(),
            id: id as u32,
            epoch: self.now,
            peers: vec![Seen::default(); servers],
            accepted: [0; PENDING_SLOTS],
            noted: Vec::new(),
            trace: self.trace.as_ref().map(|_| Vec::new()),
        };
        let (id32, timeout) = (id as u32, ESTABLISH_TIMEOUT);
        let (event_loop, ends) =
            EventLoop::new(net, listener, id32, table, config, timeout, pool.clone());
        node.state = NodeState::Running(Box::new(Proc {
            event_loop: Some(event_loop),
            ends,
            // Its thread turns a new loop at once.
            again: true,
            due: None,
            pool,
            epoch: self.now,
            collector: SuperstepCollector::new(),
            inbox: VecDeque::new(),
            inbox_grew: false,
            worker: Worker::Start,
            step: Some(step),
            restored: None,
            handed: Vec::new(),
            established: None,
            stopped: None,
            exited: None,
            ended: None,
        }));
        self.log(|| format!("n{id} starts"));
    }

    // -- the production loop, turned ----------------------------------------

    /// Turn server `id`'s loop over what is ready, as its thread would after
    /// a `poll(2)`, then take in what its hooks saw and its inbox got.
    fn turn(&mut self, id: usize) -> Check {
        let NodeState::Running(proc) = &mut self.nodes[id].state else {
            return Ok(());
        };
        let Some(event_loop) = proc.event_loop.as_mut().filter(|_| proc.ended.is_none()) else {
            return Ok(());
        };
        let mut ready = Vec::new();
        readiness(&self.net.borrow(), event_loop, &mut ready);
        let turn = event_loop.turn(&ready);
        (proc.again, proc.due) = match turn {
            Turn::Again => (true, None),
            Turn::Wait(due) => (false, due.map(|due| proc.epoch + due)),
            Turn::Done => (false, None),
        };
        self.absorb(id)?;
        if turn == Turn::Done {
            self.end(id);
        }
        let broken = std::mem::take(&mut self.net.borrow_mut().broken);
        broken.into_iter().next().map_or(Ok(()), Err)
    }

    /// Take in what the loop's hooks saw (in order) and what it delivered.
    fn absorb(&mut self, id: usize) -> Check {
        let now = self.now;
        let proc = self.running(id);
        let net = proc.event_loop.as_mut().expect("a loop").net_mut();
        let noted = std::mem::take(&mut net.noted);
        let lines = net.trace.as_mut().map(std::mem::take).unwrap_or_default();
        if let Some(trace) = self.trace.as_mut() {
            trace.extend(lines.into_iter().map(|line| format!("[{now:>12?}] {line}")));
        }
        for noted in noted {
            self.note(id, noted)?;
        }
        let proc = self.running(id);
        while let Ok(event) = proc.ends.inbox.try_recv() {
            proc.inbox.push_back(event);
            proc.inbox_grew = true;
        }
        self.check_drained(id)
    }

    fn note(&mut self, id: usize, noted: Noted) -> Check {
        let (now, fatal) = (self.now, self.fatal);
        let proc = self.running(id);
        match noted {
            Noted::Lost(peer, error) => self.check_loss(id, peer, &error)?,
            Noted::Established => {
                let verdict = proc.ends.verdict.try_recv();
                proc.restored = verdict.expect("a verdict").expect("established");
                proc.established = Some(now);
                if self.nodes[id].generation > 0 {
                    // Every link is up: what the survivors hold of the dead
                    // process is settled until this one sends.
                    let survivors = (0..self.nodes.len()).filter(|&s| s != id);
                    let survivors: Vec<usize> =
                        survivors.filter(|&s| self.proc(s).is_some()).collect();
                    let net = self.net.borrow();
                    let held = survivors.iter().map(|&s| net.eos_cursor[s][id]);
                    self.lowest_held.push((id as u32, held.min().unwrap_or(0)));
                }
            }
            Noted::EstablishFailed(timed_out, message) => {
                if timed_out && now != proc.epoch + ESTABLISH_TIMEOUT {
                    return Err(format!(
                        "n{id} gave up establishing at {now:?}, not at its timeout: {message}"
                    ));
                }
                proc.ended = Some(Ended::NeverEstablished(message));
                self.leave(id);
            }
            Noted::Exit => {
                let stopped = proc.stopped.expect("exit follows a shutdown");
                // Only a peer gone for good may keep an endpoint waiting out
                // the deadline: everyone else says goodbye before it.
                let late = now > stopped + RECONNECT_DEADLINE;
                if late || (!fatal && now >= stopped + RECONNECT_DEADLINE) {
                    return Err(format!(
                        "n{id} stopped at {stopped:?} but exited at {now:?}, \
                         waiting out the reconnect deadline"
                    ));
                }
                proc.exited = Some(now);
                self.leave(id);
            }
        }
        Ok(())
    }

    /// The process leaves: what it wrote before arrives — the last goodbye
    /// rests on the kernel delivering queued bytes after close, and a
    /// network that fails *then* is beyond any protocol run by the one who
    /// left.
    fn leave(&mut self, id: usize) {
        for conn in &mut self.net.borrow_mut().conns {
            for end in 0..2 {
                if conn.ends[end].owner == Owner::Node(id as u32) && !conn.ends[end].closed {
                    conn.ends[1 - end].budget = None;
                }
            }
        }
    }

    /// The loop is done: every stream it held closes, and its listener goes.
    fn end(&mut self, id: usize) {
        let proc = self.running(id);
        let exited = proc.exited.map(Ended::Exited);
        proc.ended = proc.ended.take().or(exited);
        let event_loop = proc.event_loop.take();
        for conn in &mut self.net.borrow_mut().conns {
            for end in &mut conn.ends {
                if end.owner == Owner::Node(id as u32) {
                    end.handshaking = None;
                }
            }
        }
        drop(event_loop);
    }

    /// A `PeerLost` is on time — once the peer has left after its goodbye,
    /// at exactly the reconnect deadline otherwise — and says what it knows.
    /// A new process that resumed below what this server still holds is lost
    /// the moment it shows it.
    fn check_loss(&mut self, id: usize, peer: u32, error: &PlaneError) -> Check {
        let now = self.now;
        let unrecoverable = format!("new process of server {peer} runs superstep");
        if matches!(error, PlaneError::Protocol(text) if text.starts_with(&unrecoverable)) {
            // On sight, not on a deadline; and only where more than one
            // server may die at once.
            self.unrecoverable += 1;
            return (self.fatal.then_some(()))
                .ok_or(format!("n{id} declared a new process gone: {error:?}"));
        }
        let seen = &self.running(id).event_loop().net().peers[peer as usize];
        let (bye, refused) = (seen.said_goodbye, seen.refused_size);
        let Some(since) = seen.down_since else {
            return Err(format!(
                "n{id} lost server {peer}, whose stream never ended"
            ));
        };
        let due = if bye {
            since
        } else {
            since + RECONNECT_DEADLINE
        };
        if now < due || (!bye && now != due) {
            return Err(format!(
                "n{id} lost server {peer} at {now:?}: down since {since:?} (goodbye: {bye}), \
                 so due at {due:?}"
            ));
        }
        let named = |text: &str| text.starts_with(&format!("server {peer}: "));
        match error {
            PlaneError::Protocol(text) if refused && !bye => {
                let why = text.contains("peer believes the cluster has");
                (named(text) && why)
                    .then_some(())
                    .ok_or(format!("n{id}: unattributed loss: {text}"))
            }
            PlaneError::Disconnected if !refused || bye => Ok(()),
            // Another refused hello (a dial against the direction) may be named.
            PlaneError::Protocol(text) if named(text) && !bye => Ok(()),
            error => Err(format!(
                "n{id} lost server {peer} (goodbye: {bye}, refused: {refused}) with {error:?}"
            )),
        }
    }

    // -- the scheduler ------------------------------------------------------

    fn choices(&mut self, out: &mut Vec<Choice>) {
        out.clear();
        let mut slow = Vec::new();
        let net = self.net.borrow();
        let reading = |id: u32| -> Option<&Proc> {
            match &self.nodes[id as usize].state {
                NodeState::Running(proc) if proc.ended.is_none() => Some(proc),
                _ => None,
            }
        };
        // Per server: a stream its loop holds (not one waiting in a backlog)
        // is ready, as `poll(2)` would say, to read or to take what the loop
        // queued on it.
        let mut ready = vec![false; self.nodes.len()];
        for (c, conn) in net.conns.iter().enumerate() {
            for (e, end) in conn.ends.iter().enumerate() {
                let Owner::Node(id) = end.owner else {
                    continue; // strangers never read
                };
                if end.closed {
                    continue;
                }
                let poll = net.ready((c, e));
                let polled = poll.readable || (poll.writable && !end.queued.is_empty());
                ready[id as usize] |= !conn.backlog && polled;
                let Some(proc) = reading(id).filter(|_| !end.inflight.is_empty()) else {
                    continue;
                };
                let slow_reply = self.slow_replies == Some(id) && e == 0 && {
                    // (The reply to a dial: on a stream not yet live.)
                    let peers = &proc.event_loop().net().peers;
                    !peers.iter().any(|seen| seen.live == Some((c, 0)))
                };
                match slow_reply {
                    true => &mut slow,
                    false => &mut *out,
                }
                .push(Choice::Deliver { conn: c, end: e });
            }
        }
        for id in 0..self.nodes.len() {
            let Some(proc) = reading(id as u32) else {
                continue;
            };
            // (An exiting loop no longer polls its listener.)
            let accepting = net.backlog[id] > 0 && proc.exited.is_none();
            if proc.again || accepting || ready[id] {
                out.push(Choice::Turn { node: id });
            }
            if proc.exited.is_some() {
                continue;
            }
            let asked = || asked(&proc.collector, &proc.inbox).is_some();
            let ready = match proc.worker {
                _ if proc.established.is_none() => false,
                // A finished worker answers requests for its state until
                // its plane is done, as `PollPlane::finish` lets it.
                Worker::Finished if asked() => true,
                _ if proc.stopped.is_some() => false,
                Worker::Collect(_) => proc.inbox_grew,
                Worker::Finished | Worker::Failed => !self.hold_until_all_done,
                _ => true,
            };
            if ready {
                out.push(Choice::Work { node: id });
            }
        }
        drop(net);
        for p in 0..self.planned.len() {
            if self.fires(p) {
                out.push(Choice::Fire { planned: p });
            }
        }
        if out.is_empty() {
            out.append(&mut slow);
        }
    }

    /// Has the planned fault's moment come? A crash that is to be restarted
    /// does not fire once the victim has said goodbye: that lets every peer
    /// leave, and nobody would be left to send its replacement their state.
    fn fires(&mut self, planned: usize) -> bool {
        let at = |world: &mut World, (server, superstep): (u32, u32)| {
            let reached = |worker: Worker| match worker {
                Worker::Start => superstep == 0,
                Worker::Publish(s) | Worker::Collect(s) | Worker::Apply(s) => s >= superstep,
                Worker::Finished | Worker::Failed => true,
            };
            (world.proc(server as usize))
                .is_some_and(|p| p.established.is_some() && reached(p.worker))
        };
        let Planned { when, before, .. } = &self.planned[planned];
        let (when, before) = (*when, before.clone());
        if !at(self, when) || before.into_iter().any(|b| at(self, b)) {
            return false;
        }
        let fault = self.planned[planned].fault.clone();
        self.restartable(&fault)
    }

    /// Every victim the fault restarts is running and has not said goodbye.
    fn restartable(&mut self, fault: &Fault) -> bool {
        match fault {
            Fault::CrashRestart { victim, .. } => {
                (self.proc(*victim as usize)).is_some_and(|p| p.stopped.is_none())
            }
            Fault::Together(faults) => faults.iter().all(|fault| self.restartable(fault)),
            _ => true,
        }
    }

    fn run(&mut self) -> Check {
        let mut choices = Vec::new();
        loop {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err("livelock: the schedule does not end".to_string());
            }
            self.choices(&mut choices);
            let next_timer = self.next_timer();
            // A loop that made progress turns again before time passes, as
            // its `poll` would not wait. Otherwise mostly work; now and then
            // let time pass instead (a delay).
            let turning = self.nodes.iter().any(|node| match &node.state {
                NodeState::Running(proc) => proc.ended.is_none() && proc.again,
                _ => false,
            });
            let wait = !turning
                && (choices.is_empty() || (next_timer.is_some() && self.rng.chance(1, 16)));
            let choice = match (wait, next_timer) {
                (true, Some(_)) => Choice::Wait,
                (true, None) if self.all_over() => return self.verdict(),
                (true, None) if self.hold_until_all_done && self.all_finished() => {
                    self.release()?;
                    continue;
                }
                (true, None) => return Err("stuck: nothing can happen, yet not over".to_string()),
                (false, _) => choices[self.rng.below(choices.len() as u64) as usize],
            };
            match choice {
                Choice::Deliver { conn, end } => self.deliver(conn, end)?,
                Choice::Turn { node } => self.turn(node)?,
                Choice::Work { node } => self.work(node)?,
                Choice::Fire { planned } => {
                    let planned = self.planned.swap_remove(planned);
                    self.fire(planned.fault)?;
                }
                Choice::Wait => self.wait(next_timer.expect("chosen with a timer"))?,
            }
        }
    }

    fn all_over(&self) -> bool {
        self.timed.is_empty()
            && self.nodes.iter().all(|n| match &n.state {
                NodeState::Running(proc) => proc.ended.is_some(),
                // (Nothing is timed: it will never start.)
                NodeState::Bound(_) | NodeState::Dead => true,
            })
    }

    fn all_finished(&self) -> bool {
        self.nodes.iter().all(|n| match &n.state {
            NodeState::Running(p) => p.ended.is_some() || p.worker == Worker::Finished,
            NodeState::Bound(_) => false,
            NodeState::Dead => true,
        })
    }

    /// Everyone is done and the network is silent: every peer's marker of
    /// the last superstep acknowledged the one before it (a marker lost to a
    /// cut was replayed on the healed link), so no log holds anything below
    /// the last superstep. Then everyone may go, and their goodbyes empty
    /// the logs ([`Self::check_drained`]).
    fn release(&mut self) -> Check {
        self.hold_until_all_done = false;
        if self.fatal {
            return Ok(());
        }
        let (last, servers) = (self.supersteps.saturating_sub(1), self.nodes.len());
        for id in 0..servers {
            let Some(proc) = self.proc(id) else {
                continue;
            };
            // All it may hold is what a replay from the last superstep sends
            // (nobody said goodbye yet, so no peer is forgotten).
            let log = proc.event_loop().fabric().replay();
            let peer = (id + 1) % servers;
            let batches = log.replay_from(peer as u32, last).unwrap_or_default();
            let from_last: usize = batches.iter().map(|batch| batch.len()).sum();
            let below = log.bytes_retained() - from_last;
            if below != 0 {
                return Err(format!(
                    "n{id} still retains {below} bytes below superstep {last} with everyone done"
                ));
            }
        }
        Ok(())
    }

    /// The earliest instant anything is due: a loop's clock (its fabric's
    /// or a handshake deadline), a planned bind or start.
    fn next_timer(&self) -> Option<Duration> {
        let loops = self.nodes.iter().filter_map(|n| match &n.state {
            NodeState::Running(p) if p.ended.is_none() => p.due,
            _ => None,
        });
        let timed = self.timed.iter().map(|(at, _)| *at);
        loops.chain(timed).min()
    }

    /// Let time pass: up to the next timer, never beyond it, so everything
    /// due happens at exactly its instant.
    fn wait(&mut self, next_timer: Duration) -> Check {
        let step = self.rng.millis(300);
        self.now = next_timer.min(self.now + step).max(self.now);
        let now = self.now;
        self.net.borrow_mut().now = now;
        while let Some(due) = self.timed.iter().position(|(at, _)| *at <= now) {
            match self.timed.swap_remove(due).1 {
                Timed::Bind { victim } => self.bind(victim as usize),
                Timed::Start { victim } => self.start(victim as usize),
                Timed::Fire(fault) => self.fire(fault)?,
            }
        }
        // Only the loops whose deadline has come: a loop's `poll` sleeps
        // until the deadline its last turn announced, and not past it.
        for id in 0..self.nodes.len() {
            let due = match &self.nodes[id].state {
                NodeState::Running(proc) => proc.due.is_some_and(|due| due <= now),
                _ => false,
            };
            if due {
                self.turn(id)?;
            }
        }
        // Every handshake is adopted or dropped by its deadline.
        let net = self.net.borrow();
        let ends = net.conns.iter().flat_map(|c| &c.ends);
        let mut open = ends.filter_map(|end| end.handshaking);
        let late = open.find(|&since| since + HANDSHAKE_DEADLINE <= now);
        late.map_or(Ok(()), |t| {
            Err(format!("a handshake opened at {t:?} is open at {now:?}"))
        })
    }

    /// Move some of what is in flight to an end — often all of it, often a
    /// fragment ending anywhere — and let its owner's loop turn.
    fn deliver(&mut self, conn: usize, end: usize) -> Check {
        let mut net = self.net.borrow_mut();
        let Owner::Node(id) = net.conns[conn].ends[end].owner else {
            unreachable!("strangers never read");
        };
        let available = net.conns[conn].ends[end].inflight.len();
        let mut take = match self.rng.below(3) {
            0 => 1 + self.rng.below(available as u64) as usize,
            _ => available,
        };
        let mut breaks = false;
        if let Some(budget) = net.conns[conn].ends[end].budget.as_mut() {
            take = take.min(*budget);
            *budget -= take;
            breaks = *budget == 0;
        }
        let to = net.end((conn, end));
        to.arrived.extend_from_slice(&to.inflight[..take]);
        to.inflight.drain(..take);
        if breaks {
            // The network breaks here, mid-whatever this was: what is still
            // on its way, either way, is lost.
            to.inflight.clear();
            net.conns[conn].cut = true;
            net.conns[conn].ends[1 - end].inflight.clear();
        }
        drop(net);
        if breaks {
            self.log(|| format!("network breaks connection {conn}"));
        }
        self.turn(id as usize)
    }

    /// Once every peer's goodbye or loss is in, nothing may be retained.
    fn check_drained(&mut self, id: usize) -> Check {
        let Some(proc) = self.proc(id) else {
            return Ok(());
        };
        let peers = &proc.event_loop().net().peers;
        let released = peers.iter().filter(|seen| seen.released).count();
        let retained = proc.event_loop().fabric().replay().bytes_retained();
        if released + 1 == peers.len() && retained != 0 {
            return Err(format!(
                "n{id} retains {retained} bytes after every peer's goodbye or loss"
            ));
        }
        Ok(())
    }

    // -- the worker: what `run_worker` does, one call at a time -------------

    fn work(&mut self, id: usize) -> Check {
        let now = self.now;
        let w = self.workload;
        let proc = self.proc(id).expect("chosen because it works");
        match proc.worker {
            Worker::Start => {
                let Some(state) = proc.restored.take() else {
                    return self.settle(id);
                };
                let step = proc.step.as_mut().expect("a running step");
                restore_state(step, &w.plan, &state)
                    .map_err(|e| format!("n{id}: restoring: {e}"))?;
                let cursor = step.cursor();
                self.restores.push((id as u32, cursor));
                self.log(|| format!("n{id} restores at superstep {cursor}"));
                self.settle(id)
            }
            Worker::Publish(s) => self.publish(id, s),
            Worker::Collect(s) => self.collect(id, s),
            Worker::Apply(s) => {
                let step = proc.step.as_mut().expect("a running step");
                step.apply()
                    .map_err(|e| format!("n{id}: apply({s}): {e}"))?;
                self.settle(id)
            }
            Worker::Finished
                if proc.stopped.is_some() || asked(&proc.collector, &proc.inbox).is_some() =>
            {
                // What `PollPlane::finish` hands the worker: requests only,
                // first those its last collect set aside.
                let from_inbox = proc.inbox.iter().any(is_request);
                let inbox = &mut proc.inbox;
                let next = || inbox.pop_front().ok_or(PlaneError::Disconnected);
                let Err(PlaneError::StateRequested(peer)) = proc.collector.finish(next) else {
                    unreachable!("asked");
                };
                self.answered_after_the_last_collect += usize::from(!from_inbox);
                self.answer(id, peer)
            }
            Worker::Finished | Worker::Failed => {
                proc.stopped = Some(now);
                self.command(id, Command::Shutdown)
            }
        }
    }

    /// Go on to the next superstep — whose marker will acknowledge the one
    /// applied — or end the run, where the replica must be the sequential
    /// one.
    fn settle(&mut self, id: usize) -> Check {
        let w = self.workload;
        let proc = self.proc(id).expect("working");
        let step = proc.step.as_ref().expect("a running step");
        if let Some(s) = step.next_superstep() {
            proc.worker = Worker::Publish(s);
            return Ok(());
        }
        proc.worker = Worker::Finished;
        let bits: Vec<u64> = step.values().iter().map(|v| v.to_bits()).collect();
        if step.cursor() != w.supersteps || bits != w.reference {
            return Err(format!(
                "n{id} finished {} after {} supersteps, not the sequential replica after {}",
                w.name,
                step.cursor(),
                w.supersteps
            ));
        }
        Ok(())
    }

    /// Answer `peer`'s request with the state the worker holds now, as
    /// `run_worker` does: [`state_for`], framed, to the fabric.
    fn answer(&mut self, id: usize, peer: u32) -> Check {
        let proc = self.proc(id).expect("answering");
        let step = proc.step.as_ref().expect("a step to answer from");
        let state = state_for(step, peer);
        let cursor = step.cursor();
        let mut batch = proc.pool.checkout();
        let frame = Frame::state(id as u32, &state).expect("a small state");
        frame.encode(&mut batch);
        self.offered.push((id as u32, peer, cursor));
        self.command(id, Command::State(peer, Arc::new(batch)))
    }

    /// Compute and encode superstep `s` — byte for byte what an earlier
    /// process of this server encoded for it, if one did — and broadcast
    /// it, ended.
    fn publish(&mut self, id: usize, s: u32) -> Check {
        let proc = self.proc(id).expect("working");
        let step = proc.step.as_mut().expect("a running step");
        step.compute()
            .map_err(|e| format!("n{id}: compute({s}): {e}"))?;
        let wires: Vec<Vec<u8>> = step.encode().map(<[u8]>::to_vec).collect();
        let mut batch = proc.pool.checkout();
        for wire in &wires {
            encode_message_into(id as u32, s, wire, &mut batch).expect("a small wire");
        }
        let sender = id as u32;
        Frame::EndOfSuperstep {
            sender,
            superstep: s,
        }
        .encode(&mut batch);
        proc.worker = Worker::Collect(s);
        match &self.wires[id][s as usize] {
            Some(first) if *first != wires => {
                return Err(format!(
                    "n{id} re-encoded superstep {s} differently after its restart"
                ));
            }
            Some(_) => {}
            None => self.wires[id][s as usize] = Some(wires),
        }
        self.command(id, Command::Broadcast(s, Arc::new(batch)))
    }

    /// `collect(s)` as the plane runs it, except that an empty inbox means
    /// "later" instead of blocking: the attempt runs on a copy of the
    /// collector and is kept only if it came to a verdict. What it returns
    /// must be, per peer, the wires that peer encoded for `s`, once and in
    /// order; they go to the step.
    fn collect(&mut self, id: usize, s: u32) -> Check {
        let servers = self.nodes.len() as u32;
        let fatal = self.fatal;
        let proc = self.proc(id).expect("working");
        let peers: Vec<u32> = (0..servers).filter(|&p| p as usize != id).collect();
        let mut attempt = proc.collector.clone();
        let mut taken = 0;
        let inbox = &proc.inbox;
        let result = attempt.collect(s, &peers, || {
            let event = inbox.get(taken).cloned();
            taken += 1;
            event.ok_or(PlaneError::Protocol(WOULD_BLOCK.to_string()))
        });
        let wires = match result {
            Err(PlaneError::Protocol(text)) if text == WOULD_BLOCK => {
                proc.inbox_grew = false;
                return Ok(());
            }
            Err(PlaneError::StateRequested(peer)) => {
                // The collect keeps what it gathered; the request is answered
                // with the state before `apply(s)`.
                proc.collector = attempt;
                hand(proc, taken);
                return self.answer(id, peer);
            }
            Ok(wires) => wires,
            Err(error) if fatal => {
                // A server is gone for good: abort like `run_worker` does.
                proc.collector = attempt;
                proc.inbox.drain(..taken.min(proc.inbox.len()));
                proc.worker = Worker::Failed;
                proc.step = None;
                let mut batch = proc.pool.checkout();
                Frame::Abort { sender: id as u32 }.encode(&mut batch);
                self.log(|| format!("n{id} aborts: collect({s}) = {error:?}"));
                return self.command(id, Command::Abort(Arc::new(batch)));
            }
            Err(error) => return Err(format!("n{id}: collect({s}) failed: {error:?}")),
        };
        proc.collector = attempt;
        hand(proc, taken);
        let (this, later): (Vec<_>, Vec<_>) = proc
            .handed
            .drain(..)
            .partition(|&(_, superstep, _)| superstep == s);
        proc.handed = later;
        if !this.iter().map(|(_, _, wire)| wire).eq(&wires) {
            return Err(format!(
                "n{id}: collect({s}) returned wires it was not handed"
            ));
        }
        for wire in &wires {
            let step = proc.step.as_mut().expect("a running step");
            step.receive(wire)
                .map_err(|e| format!("n{id}: receive in superstep {s}: {e}"))?;
        }
        proc.worker = Worker::Apply(s);
        for &peer in &peers {
            let got: Vec<&[u8]> = (this.iter())
                .filter(|&&(sender, _, _)| sender == peer)
                .map(|(_, _, wire)| &wire[..])
                .collect();
            let encoded = self.wires[peer as usize][s as usize].as_ref();
            let expected: Vec<&[u8]> = encoded.into_iter().flatten().map(|w| &w[..]).collect();
            if got != expected {
                return Err(format!(
                    "n{id}: collect({s}) got {} wires from server {peer}, which encoded {}",
                    got.len(),
                    expected.len()
                ));
            }
        }
        Ok(())
    }

    /// Hand the loop a command as the plane does, and wake it.
    fn command(&mut self, id: usize, command: Command) -> Check {
        let proc = self.proc(id).expect("a running worker");
        let sent = proc.ends.commands.try_send(Request::Do(command));
        if let Err(TrySendError::Full(_)) = sent {
            return Err(format!("n{id}'s loop is not taking commands"));
        }
        self.turn(id)
    }

    // -- faults -------------------------------------------------------------

    fn fire(&mut self, fault: Fault) -> Check {
        self.log(|| format!("fault: {fault:?}"));
        match fault {
            Fault::Cut { a, b } => {
                // (Not once `b` has left: see `leave`.) What is still in
                // flight either way arrives or is lost at once.
                let live = self.live(a, b).filter(|_| self.proc(b as usize).is_some());
                if let Some((conn, _)) = live {
                    let mut net = self.net.borrow_mut();
                    net.conns[conn].cut = true;
                    for end in 0..2 {
                        let inflight = net.conns[conn].ends[end].inflight.len();
                        let keep = self.rng.below(inflight as u64 + 1) as usize;
                        net.arrive((conn, end), keep);
                    }
                }
            }
            Fault::Sever { a, b } => {
                if let Some((conn, end)) = self.live(a, b) {
                    self.net.borrow_mut().end((conn, end)).shut = true;
                }
            }
            Fault::Rogue { target, kind } => self.knock(target, kind, target)?,
            Fault::CrashRestart {
                victim,
                down_for,
                bound_for,
            } => {
                self.kill(victim as usize);
                let bound = self.now + down_for;
                self.timed.push((bound, Timed::Bind { victim }));
                self.timed
                    .push((bound + bound_for, Timed::Start { victim }));
            }
            Fault::GoneForever { victim, impostor } => {
                self.kill(victim as usize);
                for target in 0..victim {
                    if impostor {
                        self.knock(target, RogueKind::WrongSize, victim)?;
                    }
                }
            }
            Fault::Together(faults) => {
                for fault in faults {
                    self.fire(fault)?;
                }
            }
        }
        Ok(())
    }

    /// Server `a`'s live stream to `b`, if it is running and has one.
    fn live(&mut self, a: u32, b: u32) -> Option<(usize, usize)> {
        self.proc(a as usize)?.event_loop().net().peers[b as usize].live
    }

    /// `kill -9`: the loop is dropped, so every stream closes on the spot;
    /// a random part of what it had sent is lost, the rest arrives at once;
    /// the listener is gone.
    fn kill(&mut self, victim: usize) {
        let mut net = self.net.borrow_mut();
        for conn in 0..net.conns.len() {
            for end in 0..2 {
                let held = &mut net.conns[conn].ends[end];
                if held.owner == Owner::Node(victim as u32) && !held.closed {
                    held.handshaking = None;
                    let sent = net.conns[conn].ends[1 - end].inflight.len();
                    let keep = self.rng.below(sent as u64 + 1) as usize;
                    net.arrive((conn, 1 - end), keep);
                }
            }
        }
        drop(net);
        let node = &mut self.nodes[victim];
        if let NodeState::Running(old) = std::mem::replace(&mut node.state, NodeState::Dead) {
            node.history.push((old.worker, old.ended));
        }
        node.generation += 1;
    }

    /// The killed server's listener is back, at its address.
    fn bind(&mut self, victim: usize) {
        let listener = SimListener::bind(&self.net, victim as u32);
        self.nodes[victim].state = NodeState::Bound(listener);
    }

    /// A stranger connects to `target` and writes its script.
    fn knock(&mut self, target: u32, kind: RogueKind, claims: u32) -> Check {
        let servers = self.nodes.len() as u32;
        let hello = |cluster_size, sender, resume_from| {
            let hello = ResumeHello {
                cluster_size,
                sender,
                resume_from,
            };
            hello.encode().to_vec()
        };
        let script = match kind {
            RogueKind::Silent => Vec::new(),
            RogueKind::OtherMagic => b"GHHX".to_vec(),
            RogueKind::Garbage => b"NOPE, not a GraphH peer at all".to_vec(),
            RogueKind::WrongDirection if target == 0 => Vec::new(),
            RogueKind::WrongDirection => hello(servers, target - 1, 0),
            RogueKind::Duplicate if target + 1 == servers => Vec::new(),
            // After its goodbye the real peer dials only a link it saw go
            // down, and says goodbye again on the new one: a twin then is an
            // impostor, which GHHR cannot tell from the peer (one holding the
            // link of a peer that has left keeps this endpoint waiting out
            // the deadline).
            RogueKind::Duplicate
                if (self.proc(target as usize + 1)).is_none_or(|p| p.stopped.is_some()) =>
            {
                return Ok(());
            }
            RogueKind::Duplicate => {
                // What the real higher-id peer would send if it dialed twice.
                let twin = target + 1;
                hello(
                    servers,
                    twin,
                    self.net.borrow().eos_cursor[twin as usize][target as usize],
                )
            }
            RogueKind::WrongSize => hello(servers + 1, claims, 0),
        };
        if self.proc(target as usize).is_none() {
            return Ok(());
        }
        let mut net = self.net.borrow_mut();
        let owners = [Owner::Rogue, Owner::Node(target)];
        net.open(owners, target, usize::MAX, [None, None]);
        let conn = net.conns.len() - 1;
        net.conns[conn].ends[1].inflight = script;
        if kind == RogueKind::Duplicate {
            // A twin's hello is read at once: its cursor is the real peer's
            // of this instant, and a *stale* cursor below the replay floor
            // is (correctly, WIRE.md §9.2) the end of that peer.
            net.arrive((conn, 1), usize::MAX);
            drop(net);
            return self.turn(target as usize);
        }
        Ok(())
    }

    // -- the verdict --------------------------------------------------------

    /// Everything has ended: did everyone who could finish, finish?
    fn verdict(&mut self) -> Check {
        for node in &self.nodes {
            let last = match &node.state {
                NodeState::Running(proc) => (proc.worker, proc.ended.clone()),
                _ => match node.history.last() {
                    Some(last) => last.clone(),
                    None => continue,
                },
            };
            let gone = matches!(node.state, NodeState::Dead);
            match last {
                (Worker::Finished, Some(Ended::Exited(_))) => {}
                _ if gone => {} // the killed server of a fatal schedule
                (Worker::Failed, Some(Ended::Exited(_))) if self.fatal => {}
                // The victim died before this server's links were all up.
                (_, Some(Ended::NeverEstablished(_))) if self.fatal => {}
                other => return Err(format!("n{} ended as {other:?}", node.id)),
            }
        }
        Ok(())
    }
}
/// The first `taken` inbox events went to the collector: remember the wires
/// they handed it.
fn hand(proc: &mut Proc, taken: usize) {
    for event in proc.inbox.drain(..taken) {
        if let InboxEvent::Superstep {
            sender,
            superstep,
            wires,
        } = event
        {
            let handed = wires.into_iter().map(|wire| (sender, superstep, wire));
            proc.handed.extend(handed);
        }
    }
}

fn is_request(event: &InboxEvent) -> bool {
    matches!(event, InboxEvent::StateRequest(_))
}

/// The request a finished worker would answer next, if any: what
/// [`SuperstepCollector::finish`] finds in the stash or the inbox.
fn asked(collector: &SuperstepCollector, inbox: &VecDeque<InboxEvent>) -> Option<u32> {
    let mut inbox = inbox.iter().cloned();
    match collector
        .clone()
        .finish(|| inbox.next().ok_or(PlaneError::Disconnected))
    {
        Err(PlaneError::StateRequested(peer)) => Some(peer),
        _ => None,
    }
}

/// Run the world `build` makes and `check` what it left, and return it; on
/// failure run it again with tracing and report both.
fn run_world(what: &str, build: &dyn Fn(bool) -> World, check: &dyn Fn(&World) -> Check) -> World {
    let mut world = build(false);
    let Err(failure) = world.run().and_then(|()| check(&world)) else {
        return world;
    };
    let mut traced = build(true);
    let again = traced.run();
    let trace = traced.trace.unwrap_or_default();
    let tail = &trace[trace.len().saturating_sub(400)..];
    panic!(
        "{what} ({} supersteps, faults {:?}) failed: {failure}\n(traced re-run: {again:?})\n\
         --- last {} trace lines ---\n{}",
        world.supersteps,
        world.plan_text,
        tail.len(),
        tail.join("\n")
    );
}

fn run_seed(seed: u64, servers: u32) {
    let what = format!("seed {seed} ({servers} servers)");
    let build = |trace| World::new(seed, servers, trace);
    run_world(&what, &build, &resumed_from_the_lowest);
}

#[test]
fn thousands_of_seeded_schedules_hold_every_invariant() {
    let mut total = 0;
    for (servers, schedules) in SCHEDULES {
        for seed in 0..schedules {
            run_seed(seed, servers);
        }
        total += schedules;
    }
    assert!(total >= 2000);
}

/// The simulation is a function of its seed: two runs, one trace — every
/// `(event → actions)` step the production loops hand their fabrics, as the
/// `Net` hooks see it, between the world's own lines.
#[test]
fn one_seed_one_trace() {
    let trace_of = |seed| {
        let mut world = World::new(seed, 3, true);
        let outcome = world.run();
        (outcome, world.trace.expect("tracing"))
    };
    for seed in [7, 2017] {
        let (first, second) = (trace_of(seed), trace_of(seed));
        assert!(first.1.len() > 20, "a trace worth comparing");
        assert_eq!(first, second, "seed {seed} is not deterministic");
    }
}

// ---------------------------------------------------------------------------
// Explicit schedules
// ---------------------------------------------------------------------------

/// A world with no fault drawn, kept up until all are done (so `release`
/// holds every log to empty) unless `hold` is false — for `arrange` to put
/// its own schedule in.
fn explicit_world(
    seed: u64,
    servers: u32,
    trace: bool,
    hold: bool,
    arrange: &dyn Fn(&mut World),
) -> World {
    let mut world = World::new(seed, servers, trace);
    world.planned.clear();
    world.net.borrow_mut().doomed_dials.clear();
    (world.fatal, world.hold_until_all_done) = (false, hold);
    arrange(&mut world);
    let (planned, timed) = (world.planned.len(), world.timed.len());
    let name = &world.workload.name;
    world.plan_text = format!("{name}, explicit: {planned} planned, {timed} timed");
    world
}

/// The last process of server `id`.
fn last_proc(world: &World, id: usize) -> Result<&Proc, String> {
    match &world.nodes[id].state {
        NodeState::Running(proc) => Ok(proc),
        _ => Err(format!("n{id} is not running at the end")),
    }
}

/// A restarted server comes back at the address the peer table gives it,
/// while the link between the other two is cut again and again: whichever
/// side of each link dials, everyone finishes.
#[test]
fn a_restarted_server_is_redialed_at_its_address_through_a_cut_storm() {
    for seed in 0..300 {
        let victim = (seed % 3) as u32;
        let (a, b) = ((victim + 1) % 3, (victim + 2) % 3);
        let arrange = |world: &mut World| {
            let fault = Fault::CrashRestart {
                victim,
                down_for: Duration::from_millis(500),
                bound_for: Duration::from_millis(200),
            };
            world.planned.push(Planned {
                fault,
                when: (victim, 1),
                before: Vec::new(),
            });
            for k in 0..12 {
                let at = Duration::from_millis(500 + 50 * k);
                world.timed.push((at, Timed::Fire(Fault::Cut { a, b })));
            }
        };
        let build = |trace| explicit_world(seed, 3, trace, true, &arrange);
        run_world(&format!("restart, seed {seed}"), &build, &|_| Ok(()));
    }
}

/// The exit race: once server `a` has finished its run, it severs its link
/// to another server (closes its write half, as a one-sided failure would:
/// the peer sees the stream end, `a` does not) or the network cuts it, while
/// goodbyes, the last acks and the last superstep may be in flight and
/// nobody is held back from leaving. Nobody exits before every peer has said
/// goodbye, so the side that redials finds the other still there, and no one
/// waits out the reconnect deadline (which `note` refuses for a schedule
/// without a permanent loss). A peer's loop that reads the severed stream's
/// end first writes what it still has queued — its answer to that goodbye.
/// Server 0 severing is the shape of the race that cost real-socket runs
/// 30 s; a higher id severing is not checked: its answer to the lower id's
/// goodbye can vanish into the half it closed while its reads still work,
/// and no protocol that adds no bytes can tell.
#[test]
fn a_cut_after_the_final_superstep_costs_no_deadline() {
    for seed in 0..300 {
        let servers = 2 + (seed % 2) as u32;
        let victim = 1 + (seed / 2 % (servers as u64 - 1)) as u32;
        let fault = match seed % 3 {
            0 => Fault::Cut { a: victim, b: 0 },
            1 => Fault::Cut { a: 0, b: victim },
            _ => Fault::Sever { a: 0, b: victim },
        };
        let arrange = |world: &mut World| {
            let finished = world.supersteps;
            let a = match fault {
                Fault::Cut { a, .. } | Fault::Sever { a, .. } => a,
                _ => unreachable!("a link fault"),
            };
            world.planned.push(Planned {
                fault: fault.clone(),
                when: (a, finished),
                before: Vec::new(),
            });
        };
        let build = |trace| explicit_world(seed, servers, trace, false, &arrange);
        let what = format!("{fault:?} after the final superstep, seed {seed}");
        run_world(&what, &build, &|_| Ok(()));
    }
}

/// Strangers that connect and say nothing — or half a hello and then
/// nothing — sit in pending slots until they expire, and nothing waits on
/// them: an establishing node (twenty of them, one a millisecond, so the
/// oldest keep giving way to newcomers, which the seam checks) is
/// established long before the first expires; a running one (eight silent
/// and one half hello at each node, mid-run) finishes its run. Kept up
/// until all are done, each node drops every stranger it still holds at
/// its deadline.
#[test]
fn silent_strangers_do_not_delay_establishment() {
    let knock = |target, kind| Fault::Rogue { target, kind };
    for seed in 0..50 {
        let establishing = seed % 2 == 0;
        let arrange = |world: &mut World| {
            world.timed.clear();
            for (at, victim) in [(0, 1), (5, 0)] {
                let at = Duration::from_millis(at);
                world.timed.push((at, Timed::Start { victim }));
            }
            for target in [0, 1] {
                if establishing {
                    for k in 0..20 {
                        let at = Duration::from_millis(10 + k);
                        let silent = Timed::Fire(knock(target, RogueKind::Silent));
                        world.timed.push((at, silent));
                    }
                    continue;
                }
                let mut strangers = vec![knock(target, RogueKind::Silent); 8];
                strangers.push(knock(target, RogueKind::OtherMagic));
                let (fault, when) = (Fault::Together(strangers), (0, 1));
                let before = Vec::new();
                world.planned.push(Planned {
                    fault,
                    when,
                    before,
                });
            }
        };
        let check = |world: &World| {
            for id in 0..2 {
                let at = last_proc(world, id)?.established.ok_or("not established")?;
                if establishing && at >= HANDSHAKE_DEADLINE {
                    return Err(format!("n{id} was established only at {at:?}"));
                }
            }
            // (Nine per node at least; of twenty, the ones not displaced.)
            let expired = world.net.borrow().expired;
            (expired >= 18)
                .then_some(())
                .ok_or(format!("only {expired} strangers expired"))
        };
        let build = |trace| explicit_world(seed, 2, trace, true, &arrange);
        run_world(&format!("strangers, seed {seed}"), &build, &check);
    }
}

/// The network breaks a dial right after its hello reached the listener:
/// the reply fails, the handshake is dropped and its adoption reports the
/// stream's end at once (the seam checks that), and the dialer redials.
#[test]
fn a_reply_that_fails_drops_its_handshake() {
    let mut failed = 0;
    for seed in 0..50 {
        let arrange = |world: &mut World| world.net.borrow_mut().doomed_dials.push((0, 1, 16));
        let build = |trace| explicit_world(seed, 2, trace, seed % 2 == 0, &arrange);
        let world = run_world(&format!("a failed reply, seed {seed}"), &build, &|_| Ok(()));
        failed += world.net.borrow().failed_replies;
    }
    assert!(failed >= 50, "only {failed} replies failed");
}

/// Server 0's listener is bound but it never establishes (a restarted
/// `graphh-node` still building its workload), so every dial to it sits
/// unanswered until its handshake deadline. The other two bring their own
/// link up at once and give up at their establish timeout, naming only
/// server 0.
#[test]
fn an_unanswered_dial_does_not_hold_up_the_other_links() {
    for seed in 0..10 {
        let arrange = |world: &mut World| {
            let at = Duration::from_millis(5);
            world.timed = vec![(at, Timed::Bind { victim: 0 })];
            world.timed.push((at, Timed::Start { victim: 1 }));
            world.timed.push((at * 2, Timed::Start { victim: 2 }));
            world.fatal = true;
        };
        let check = |world: &World| {
            for id in 1..3 {
                match &last_proc(world, id)?.ended {
                    Some(Ended::NeverEstablished(why))
                        if why.contains("dialing servers [0], waiting for servers [] to") => {}
                    other => return Err(format!("n{id} ended as {other:?}")),
                }
            }
            Ok(())
        };
        let build = |trace| explicit_world(seed, 3, trace, false, &arrange);
        run_world(&format!("an unanswered dial, seed {seed}"), &build, &check);
    }
}

/// Every restart resumed where the lowest-holding survivor needs it: from
/// that survivor's count of the victim's supersteps, with a state at that
/// cursor, or from superstep 0 with none.
fn resumed_from_the_lowest(world: &World) -> Check {
    for &(victim, lowest) in &world.lowest_held {
        let restored: Vec<u32> = (world.restores.iter())
            .filter(|&&(id, _)| id == victim)
            .map(|&(_, cursor)| cursor)
            .collect();
        let expected: &[u32] = if lowest == 0 { &[] } else { &[lowest] };
        if restored != expected {
            return Err(format!(
                "n{victim} restored at {restored:?}, the lowest survivor held {lowest}"
            ));
        }
    }
    Ok(())
}

/// A crash-restart of `victim` once `when`, while none of `before`.
fn crash_when(victim: u32, when: (u32, u32), before: Vec<(u32, u32)>) -> Planned {
    let fault = Fault::CrashRestart {
        victim,
        down_for: Duration::from_millis(300),
        bound_for: Duration::from_millis(100),
    };
    Planned {
        fault,
        when,
        before,
    }
}

/// Three servers: the victim dies once one survivor has applied superstep
/// `s` and the other has not. The survivors are a superstep apart, and the
/// replacement resumes at the lower one's cursor — the one that still needs
/// the victim's part of `s`. In some schedules the two offer different
/// cursors; the restore is always at the lowest.
#[test]
fn a_restart_between_two_survivors_a_superstep_apart_resumes_at_the_lower() {
    let (mut apart, mut fired) = (0, 0);
    for seed in 0..240 {
        let victim = (seed % 3) as u32;
        let (ahead, behind) = ((victim + 1) % 3, (victim + 2) % 3);
        let s = 1;
        let arrange = |world: &mut World| {
            let crash = crash_when(victim, (ahead, s + 1), vec![(behind, s + 1)]);
            world.planned.push(crash);
        };
        let build = |trace| explicit_world(seed, 3, trace, seed % 2 == 0, &arrange);
        let check = |world: &World| {
            if world.supersteps <= s + 1 {
                return Ok(()); // the run ends before the survivors can drift
            }
            resumed_from_the_lowest(world)
        };
        let world = run_world(&format!("survivors apart, seed {seed}"), &build, &check);
        fired += world.lowest_held.len();
        let cursors: Vec<u32> = (world.offered.iter())
            .filter(|&&(_, to, _)| to == victim)
            .map(|&(_, _, cursor)| cursor)
            .collect();
        if cursors.windows(2).any(|pair| pair[0] != pair[1]) {
            apart += 1;
        }
    }
    assert!(fired > 60, "the crash fired in only {fired} schedules");
    assert!(
        apart > 0,
        "no schedule had the survivors offer different cursors"
    );
}

/// Two servers: the victim dies in superstep 0, before either has applied
/// (and so acknowledged) anything. The replacement replays from superstep
/// 0, unless the survivor already held the victim's first superstep.
#[test]
fn a_restart_before_any_ack_replays_from_superstep_zero() {
    let mut fired = 0;
    for seed in 0..120 {
        let (victim, other) = ((seed % 2) as u32, (1 - seed % 2) as u32);
        let arrange = |world: &mut World| {
            let crash = crash_when(victim, (victim, 0), vec![(victim, 1), (other, 1)]);
            world.planned.push(crash);
        };
        let build = |trace| explicit_world(seed, 2, trace, seed % 3 == 0, &arrange);
        let check = |world: &World| {
            let held = world.lowest_held.iter().map(|&(_, held)| held);
            if held.clone().any(|held| held > 1) {
                return Err(format!(
                    "a survivor held {held:?} supersteps before any ack",
                    held = held.collect::<Vec<_>>()
                ));
            }
            resumed_from_the_lowest(world)
        };
        let world = run_world(&format!("before any ack, seed {seed}"), &build, &check);
        fired += world.lowest_held.len();
    }
    assert!(fired > 100, "the crash fired in only {fired} schedules");
}

/// Two servers: the victim dies at every superstep of the run in turn
/// (while it is in it), and once it has finished without saying goodbye.
/// Every replacement resumes from its peer and finishes.
#[test]
fn a_restart_at_every_superstep_recovers_from_the_peer() {
    let mut fired = vec![0; 8];
    for seed in 0..60 {
        let victim = (seed % 2) as u32;
        let supersteps = World::new(seed, 2, false).supersteps;
        for k in 0..=supersteps {
            let arrange = |world: &mut World| {
                let before = if k < supersteps {
                    vec![(victim, k + 1)]
                } else {
                    Vec::new()
                };
                world.planned.push(crash_when(victim, (victim, k), before));
            };
            let build = |trace| explicit_world(seed, 2, trace, seed % 2 == 0, &arrange);
            let what = format!("restart at superstep {k}, seed {seed}");
            let world = run_world(&what, &build, &resumed_from_the_lowest);
            fired[k as usize] += world.lowest_held.len();
        }
    }
    // Supersteps 0 to 3 exist in every workload.
    assert!(
        fired[..4].iter().all(|&n| n > 20),
        "crashes fired per superstep: {fired:?}"
    );
}

/// Three servers: the victim dies once it has sent its last marker, and the
/// link between the survivors is cut at that moment, so they are still
/// collecting the last superstep from each other when the replacement's
/// hellos arrive. A request from the victim, whose last marker a survivor
/// already holds, is set aside for a later collect; there is none, so the
/// finished worker answers it, with the state after the last superstep.
#[test]
fn a_request_set_aside_by_the_last_collect_is_answered_after_it() {
    let mut answered = 0;
    for seed in 0..360 {
        let victim = (seed % 3) as u32;
        let (a, b) = ((victim + 1) % 3, (victim + 2) % 3);
        let arrange = |world: &mut World| {
            let last = world.supersteps - 1;
            let crash = Fault::CrashRestart {
                victim,
                down_for: Duration::ZERO,
                bound_for: Duration::ZERO,
            };
            world.planned.push(Planned {
                fault: Fault::Together(vec![crash, Fault::Cut { a, b }]),
                when: (victim, last),
                before: vec![(a, last + 1), (b, last + 1)],
            });
        };
        let build = |trace| explicit_world(seed, 3, trace, seed % 2 == 0, &arrange);
        let what = format!("restart after the last marker, seed {seed}");
        let world = run_world(&what, &build, &resumed_from_the_lowest);
        answered += world.answered_after_the_last_collect;
    }
    assert!(
        answered > 10,
        "only {answered} requests waited out the last collect"
    );
}

/// Three servers: two die at once and both come back. Each replacement
/// takes the other's hello (a new process's 0) for the lowest offer and
/// starts at superstep 0. Where the survivor still retains its frames from
/// superstep 0 on, plain replay recovers the run and every replica is the
/// sequential one; where it has trimmed them, it declares the replacements
/// gone, naming why, and every process ends by its deadlines instead of
/// waiting for frames no one holds.
#[test]
fn two_of_three_restarting_at_once_recover_or_fail_on_time() {
    let (mut recovered, mut refused) = (0, 0);
    for seed in 0..120 {
        let survivor = (seed % 3) as u32;
        let victims = [(survivor + 1) % 3, (survivor + 2) % 3];
        let superstep = 1 + (seed / 3 % 2) as u32;
        let arrange = |world: &mut World| {
            let crashes = victims.map(|victim| crash_when(victim, (0, 0), Vec::new()).fault);
            world.planned.push(Planned {
                fault: Fault::Together(crashes.to_vec()),
                when: (survivor, superstep),
                before: Vec::new(),
            });
            world.fatal = true;
        };
        let build = |trace| explicit_world(seed, 3, trace, false, &arrange);
        let check = |world: &World| {
            if world.now > ESTABLISH_TIMEOUT + RECONNECT_DEADLINE {
                return Err(format!("the run ended only at {:?}", world.now));
            }
            if world.unrecoverable > 0 {
                return Ok(());
            }
            for id in 0..3 {
                let worker = last_proc(world, id)?.worker;
                if worker != Worker::Finished {
                    return Err(format!(
                        "n{id} ended as {worker:?}, declared gone by no one"
                    ));
                }
            }
            Ok(())
        };
        let what = format!("two restarting at once, seed {seed}");
        let world = run_world(&what, &build, &check);
        match world.unrecoverable {
            0 => recovered += 1,
            _ => refused += 1,
        }
    }
    assert!(
        recovered > 0 && refused > 0,
        "recovered {recovered}, refused {refused}"
    );
}

/// Three servers: the victim, server 0, dies once it has applied a
/// superstep `s` that one survivor has not, and both survivors dial its
/// replacement. The other reads the replacement's reply hello only when
/// nothing else can happen, so it adopts the link last. The replacement
/// must not run a superstep before it has heard from that survivor: the
/// survivor behind would apply `s` and acknowledge it, and the late one,
/// holding the victim's ack of `s` too, would trim its part of `s` before
/// its replay to the replacement began. (Without the wait, seeds 23, 241,
/// 304 and 352 fail.)
#[test]
fn a_replacement_waits_for_a_survivor_that_has_not_adopted_its_link() {
    let mut fired = 0;
    for seed in 0..400 {
        let (victim, late, behind) = (0, 1, 2);
        let s = (seed % 3) as u32;
        let arrange = |world: &mut World| {
            let crash = crash_when(victim, (victim, s + 1), vec![(behind, s + 1)]);
            world.planned.push(crash);
            world.slow_replies = Some(late);
        };
        let build = |trace| explicit_world(seed, 3, trace, seed % 2 == 0, &arrange);
        let what = format!("a late adopter, seed {seed}");
        let world = run_world(&what, &build, &resumed_from_the_lowest);
        fired += world.lowest_held.len();
    }
    assert!(fired > 100, "the crash fired in only {fired} schedules");
}
