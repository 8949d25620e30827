//! Deterministic simulation of the GHHR recovery core.
//!
//! `N` real [`Fabric`]s, `N` real [`SuperstepCollector`]s and a scripted
//! worker per endpoint run on a **virtual network and a virtual clock**: no
//! socket, no thread, no sleep. A seed picks the cluster's schedule — how
//! bytes interleave and how they are chunked, where connections break (at any
//! byte offset: mid-hello, mid-frame), which strangers knock (silent, a bare
//! `GHHM`, garbage, a hello against the fixed direction, a duplicate dial),
//! which server crashes and whether, when and *where* it comes back (same
//! address, or a new one the gossiped book must spread), who exits while a
//! peer is still away — and every schedule is held to the invariants below.
//! Every other schedule starts from **seeds** instead of a peer table: each
//! fabric then discovers the address book itself, through announces this
//! network carries like any other connection, and a restarted server is told
//! of one live member only.
//! Thousands run per `cargo test`; a failure prints its seed and the
//! `(event → actions)` trace of every fabric, and the same seed reproduces
//! it byte for byte.
//!
//! Invariants, per schedule:
//!
//! * **exactly once, in order** — every `collect(s)` returns, per peer,
//!   exactly the messages that peer published for `s`, in order;
//! * **everyone finishes** — unless a server is gone for good, every worker
//!   completes every superstep (so a finished endpoint held the door for a
//!   restarting one, and a restarted one got its replay);
//! * **the log drains** — once every peer's ack of the last superstep is in,
//!   `ReplayLog::bytes_retained() == 0`; in a cluster kept up until everyone
//!   is done, every log is empty at the end (a lost ack was repeated);
//! * **terminal loss on the deadline** — a terminal `PeerLost` fires at
//!   exactly `reconnect_deadline` of virtual time after the link went down,
//!   never earlier or later, and an establish failure at exactly the
//!   establish timeout; a loss after a refused hello names the refusal;
//! * **bounded linger** — an endpoint told to stop exits at once when it
//!   owes nothing and within `reconnect_deadline` otherwise;
//! * **converged books** — started from seeds, every endpoint that lived to
//!   the end knows every other's final address, and none was established
//!   before its own book was complete.
//!
//! This file is compiled into two harnesses: `graphh-runtime`'s own tests
//! and (by `#[path]`) the facade crate's tier-1 `cargo test`.

use graphh_runtime::establish::HANDSHAKE_DEADLINE;
use graphh_runtime::fabric::{Action, Command, Conn, Event, Fabric, RETRY_BACKOFF_CAP};
use graphh_runtime::{
    encode_message_into, AddressBook, BufferPool, Frame, FrameDecoder, InboxEvent, MembershipKind,
    MembershipMsg, PlaneError, ResilienceConfig, ResumeHello, SuperstepCollector, MEMBERSHIP_MAGIC,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Seeded schedules per cluster size (2, 3 and 5 endpoints); every other one
/// starts from seeds. A constant, not a knob: tier-1 runs them all.
const SCHEDULES: [(u32, u64); 3] = [(2, 900), (3, 800), (5, 400)];

const RECONNECT_DEADLINE: Duration = Duration::from_secs(20);
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(60);
/// A schedule that has not ended by then is a livelock.
const MAX_STEPS: usize = 200_000;
const WOULD_BLOCK: &str = "sim: inbox empty";

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
    /// Process `generation` of server `id`.
    Node { id: u32, generation: u32 },
    /// A stranger: writes its script, never reads.
    Rogue,
}

enum EndState {
    /// In the listener's backlog: connected, not yet accepted.
    Backlog,
    /// Accepted, handshake incomplete (the driver's pending slot).
    Pending {
        slot: usize,
        buf: Vec<u8>,
        expires: Duration,
    },
    /// Dialed, reply hello incomplete.
    Dialing {
        peer: u32,
        buf: Vec<u8>,
        expires: Duration,
    },
    /// Announced to `source`, snapshot reply incomplete.
    Asking {
        source: SocketAddr,
        buf: Vec<u8>,
        expires: Duration,
    },
    /// Adopted: `peer`'s live stream.
    Live {
        peer: u32,
        decoder: FrameDecoder,
    },
    Closed,
}

struct End {
    owner: Owner,
    state: EndState,
    /// Bytes on their way *to* this end.
    inbound: VecDeque<u8>,
    /// Bytes this end may still receive before the connection breaks.
    budget: Option<usize>,
}

struct Connection {
    /// `[dialer, acceptor]`.
    ends: [End; 2],
    /// Broken by the network: both ends see the stream end once they have
    /// drained what still arrived.
    cut: bool,
    /// Where the dialer connected to (for traces and refusal origins).
    target: SocketAddr,
}

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Worker {
    Publish(u32),
    Collect(u32),
    Ack(u32),
    /// Every superstep collected and acknowledged.
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

/// One running `graphh-node`: fabric, collector, worker script and the
/// driver state `poll.rs` keeps per process.
struct Proc {
    fabric: Fabric,
    pool: BufferPool,
    /// Virtual time at which the fabric's clock read zero.
    epoch: Duration,
    collector: SuperstepCollector,
    inbox: VecDeque<InboxEvent>,
    /// New inbox events since the last collect attempt that had to wait.
    inbox_grew: bool,
    worker: Worker,
    /// When `Action::Established` came.
    established: Option<Duration>,
    /// Announces this process has sent.
    announces: usize,
    /// When the worker said `Shutdown`, and whether a link was down then.
    stopped: Option<(Duration, bool)>,
    ended: Option<Ended>,
    /// Per peer id: index of the connection that is its live stream.
    live: Vec<Option<usize>>,
    /// Per peer id: index of the connection being dialed.
    dialing: Vec<Option<usize>>,
    /// Per peer id: when the live link was last lost.
    down_since: Vec<Option<Duration>>,
    /// Per peer id: the peer said goodbye on its live stream.
    said_goodbye: Vec<bool>,
    /// Per peer id: acks of the final superstep seen.
    final_acks: Vec<bool>,
    /// Per peer id: a hello claiming this peer was refused for its cluster
    /// size since the link last came up.
    refused_size: Vec<bool>,
    next_slot: usize,
    actions: Vec<Action>,
}

enum NodeState {
    Running(Box<Proc>),
    /// Listener bound, process not establishing yet (building its workload):
    /// connections pile up in the backlog unanswered.
    Bound,
    Dead,
}

struct Node {
    id: u32,
    generation: u32,
    addr: SocketAddr,
    state: NodeState,
    /// What the server is launched with in place of a peer table, if anything.
    seeds: Vec<SocketAddr>,
    /// Per peer id: count of completed supersteps this server's fabrics saw
    /// from that peer (EOS + 1) — what its next hello would ask to resume at.
    eos_cursor: Vec<u32>,
    /// What became of earlier processes of this server.
    history: Vec<(Worker, Option<Ended>)>,
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RogueKind {
    Silent,
    GhhmOnly,
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
    /// A stranger connects to `target`.
    Rogue { target: u32, kind: RogueKind },
    /// `victim` is killed; it is bound again after `down_for` (at a new
    /// address if it `moves`) and establishes after `bound_for` more.
    CrashRestart {
        victim: u32,
        down_for: Duration,
        bound_for: Duration,
        moves: Moves,
    },
    /// `victim` is killed for good; with `impostor`, a process believing in a
    /// larger cluster then dials the survivors under its id.
    GoneForever { victim: u32, impostor: bool },
}

/// Where a restarted server listens. Books break an incarnation tie in
/// favour of the larger address, so only a move to a *lower* one makes the
/// replacement claim its id twice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Moves {
    No,
    Higher,
    Lower,
}

struct Planned {
    fault: Fault,
    /// Fires once server `when.0`'s worker has reached superstep `when.1`.
    when: (u32, u32),
}

enum Timed {
    Bind {
        victim: u32,
        moves: Moves,
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
    nodes: Vec<Node>,
    conns: Vec<Connection>,
    supersteps: u32,
    /// Servers are launched with seeds, not a peer table.
    seeded: bool,
    /// Keep every endpoint up until all are done (then check every log is
    /// empty and the books agree) instead of letting each exit on its own.
    hold_until_all_done: bool,
    planned: Vec<Planned>,
    timed: Vec<(Duration, Timed)>,
    /// Connections still to be dialed that the network will break after so
    /// many bytes: `(dial ordinal, end, bytes)`.
    doomed_dials: Vec<(usize, usize, usize)>,
    dials: usize,
    /// A server is gone for good: survivors may fail instead of finishing.
    fatal: bool,
    /// The drawn faults, for failure reports.
    plan_text: String,
    trace: Option<Vec<String>>,
    steps: usize,
}

#[derive(Clone, Copy, Debug)]
enum Choice {
    Deliver { conn: usize, end: usize },
    StreamEnd { conn: usize, end: usize },
    Work { node: usize },
    Fire { planned: usize },
    Wait,
}

type Check = Result<(), String>;

fn static_addr(id: u32) -> SocketAddr {
    SocketAddr::from(([10, 0, 0, id as u8 + 1], 7000))
}

fn moved_addr(id: u32, generation: u32, moves: Moves) -> SocketAddr {
    match moves {
        Moves::No => static_addr(id),
        Moves::Higher => SocketAddr::from(([10, 0, 1, id as u8 + 1], 7000 + generation as u16)),
        Moves::Lower => SocketAddr::from(([10, 0, 0, id as u8 + 1], 6000 + generation as u16)),
    }
}

/// How many messages `id` publishes in superstep `s`, each `[id, s, k]`.
fn messages_of(id: u32, s: u32) -> u32 {
    1 + (id + s) % 2
}

/// How long the handshake in `buf` is, as far as its bytes tell: a hello's
/// 16, or — where a `GHHM` message may come (an announce to serve, the reply
/// to one) — its header and then the length that header declares.
fn handshake_len(buf: &[u8], ghhm: bool) -> usize {
    match (
        ghhm && buf.starts_with(&MEMBERSHIP_MAGIC),
        buf.first_chunk(),
    ) {
        (false, _) => 16,
        (true, None) => 23,
        (true, Some(header)) => MembershipMsg::encoded_len(header),
    }
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
            Frame::Ack { sender, superstep } => format!("A{sender}.{superstep}"),
            Frame::Goodbye { sender } => format!("BYE{sender}"),
            Frame::Membership { sender, .. } => format!("GOSSIP{sender}"),
        });
    }
    out.join(" ")
}

fn describe_action(action: &Action) -> String {
    match action {
        Action::Send(peer, batch) => format!("Send({peer}: {})", describe(batch)),
        Action::Reply(conn, bytes) => format!("Reply({conn:?}, {} bytes)", bytes.len()),
        Action::Announce(source, bytes) => format!("Announce({source}, {} bytes)", bytes.len()),
        Action::Deliver(InboxEvent::Frame(frame)) => {
            let mut bytes = Vec::new();
            frame.encode(&mut bytes);
            format!("Deliver({})", describe(&bytes))
        }
        other => format!("{other:?}"),
    }
}

fn describe_event(event: &Event<'_>) -> String {
    match event {
        Event::Command(Command::Broadcast(superstep, batch)) => {
            format!("Broadcast({superstep}: {})", describe(batch))
        }
        Event::Command(Command::Ack(superstep, _)) => format!("Ack({superstep})"),
        Event::Command(Command::Abort(_)) => "Abort".to_string(),
        Event::Frame(peer, frame) => {
            let mut bytes = Vec::new();
            frame.encode(&mut bytes);
            format!("Frame({peer}: {})", describe(&bytes))
        }
        Event::Announce(conn, bytes) => format!("Announce({conn:?}, {} bytes)", bytes.len()),
        Event::Snapshot(source, bytes) => format!("Snapshot({source}, {} bytes)", bytes.len()),
        other => format!("{other:?}"),
    }
}

impl World {
    // -- construction -------------------------------------------------------

    fn new(seed: u64, servers: u32, seeded: bool, trace: bool) -> World {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let supersteps = 3 + rng.below(3) as u32;
        let nodes = (0..servers)
            .map(|id| Node {
                id,
                generation: 0,
                addr: static_addr(id),
                state: NodeState::Dead,
                seeds: Vec::new(),
                eos_cursor: vec![0; servers as usize],
                history: Vec::new(),
            })
            .collect();
        let mut world = World {
            now: Duration::ZERO,
            nodes,
            conns: Vec::new(),
            supersteps,
            seeded,
            hold_until_all_done: rng.chance(1, 2),
            planned: Vec::new(),
            timed: Vec::new(),
            doomed_dials: Vec::new(),
            dials: 0,
            fatal: false,
            plan_text: String::new(),
            trace: trace.then(Vec::new),
            steps: 0,
            rng,
        };
        world.plan(servers);
        let faults: Vec<_> = world.planned.iter().map(|p| (&p.fault, p.when)).collect();
        world.plan_text = format!("{faults:?} doomed dials {:?}", world.doomed_dials);
        if seeded {
            // One command line for all: a seed list that names one member,
            // now and then two.
            let mut seeds = vec![static_addr(world.rng.below(servers as u64) as u32)];
            if world.rng.chance(1, 3) {
                seeds.push(static_addr(world.rng.below(servers as u64) as u32));
            }
            world.nodes.iter_mut().for_each(|n| n.seeds = seeds.clone());
        }
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
                        1 => RogueKind::GhhmOnly,
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
                    self.doomed_dials.push((nth as usize, end as usize, bytes));
                    continue;
                }
            };
            let when = when(&mut self.rng);
            self.planned.push(Planned { fault, when });
        }
        let victim = self.rng.below(servers as u64) as u32;
        let fault = match self.rng.below(10) {
            0..=3 => Fault::CrashRestart {
                victim,
                down_for: self.rng.millis(5_000),
                // Sometimes longer than the handshake deadline: dials then
                // expire unanswered in the restarted server's backlog.
                bound_for: self.rng.millis(4_000),
                moves: match self.rng.below(4) {
                    0 if self.seeded => Moves::Higher,
                    1 if self.seeded => Moves::Lower,
                    _ => Moves::No,
                },
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
        self.planned.push(Planned { fault, when });
    }

    fn log(&mut self, line: impl FnOnce() -> String) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(format!("[{:>12?}] {}", self.now, line()));
        }
    }

    fn proc(&mut self, id: usize) -> Option<&mut Proc> {
        match &mut self.nodes[id].state {
            NodeState::Running(proc) if proc.ended.is_none() => Some(proc),
            _ => None,
        }
    }

    fn owner_of(&self, id: usize) -> Owner {
        Owner::Node {
            id: id as u32,
            generation: self.nodes[id].generation,
        }
    }

    fn start(&mut self, id: usize) {
        let servers = self.nodes.len();
        let statics: Vec<SocketAddr> = (0..servers as u32).map(static_addr).collect();
        // Whoever restarts a server names one live member to it, no more:
        // the rest of the book, and the rest of the cluster, is gossip's.
        let live: Vec<usize> = (0..servers).filter(|&n| self.proc(n).is_some()).collect();
        let restarted = !self.nodes[id].history.is_empty();
        if self.seeded && restarted && !live.is_empty() {
            let member = live[self.rng.below(live.len() as u64) as usize];
            self.nodes[id].seeds = vec![self.nodes[member].addr];
        }
        let node = &mut self.nodes[id];
        if let NodeState::Running(old) = std::mem::replace(&mut node.state, NodeState::Dead) {
            node.history.push((old.worker, old.ended));
        }
        let first_superstep = node.history.last().map_or(0, |_| node.eos_cursor[id]);
        let config = ResilienceConfig {
            reconnect_deadline: RECONNECT_DEADLINE,
            resume_from: first_superstep,
            seeds: node.seeds.clone(),
        };
        let book = match node.seeds.is_empty() {
            true => AddressBook::complete(id as u32, &statics),
            false => AddressBook::new(servers, id as u32, node.addr),
        };
        let pool = BufferPool::new();
        let fabric = Fabric::new(book, config, ESTABLISH_TIMEOUT, pool.clone());
        node.state = NodeState::Running(Box::new(Proc {
            fabric,
            pool,
            epoch: self.now,
            collector: SuperstepCollector::new(),
            inbox: VecDeque::new(),
            inbox_grew: false,
            // A checkpoint at cursor `s` stands for the ack of `s - 1`, which
            // may have died with the process that sent it: `run_worker`
            // repeats it before anything else, even with nothing left to run.
            worker: match first_superstep.checked_sub(1) {
                Some(durable) => Worker::Ack(durable),
                None => Worker::Publish(0),
            },
            established: None,
            announces: 0,
            stopped: None,
            ended: None,
            live: vec![None; servers],
            dialing: vec![None; servers],
            down_since: vec![None; servers],
            said_goodbye: vec![false; servers],
            final_acks: vec![false; servers],
            refused_size: vec![false; servers],
            next_slot: 0,
            actions: Vec::new(),
        }));
        self.log(|| format!("n{id} starts at superstep {first_superstep}"));
    }

    // -- the driver: what poll.rs does with sockets, done with pipes --------

    /// One fabric step of server `id`, performed; then whatever the
    /// performing raised.
    fn feed(&mut self, id: usize, event: Event<'_>) -> Check {
        let now = self.now;
        let tracing = self.trace.is_some();
        let Some(proc) = self.proc(id) else {
            return Ok(());
        };
        let described = tracing.then(|| describe_event(&event));
        let mut actions = std::mem::take(&mut proc.actions);
        proc.fabric.step(now - proc.epoch, event, &mut actions);
        if let Some(described) = described {
            let acts: Vec<String> = actions.iter().map(describe_action).collect();
            if described != "Tick" || !acts.is_empty() {
                self.log(|| format!("n{id} {described} -> [{}]", acts.join(", ")));
            }
        }
        let mut raised = Vec::new();
        for action in actions.drain(..) {
            if let Some(event) = self.perform(id, action)? {
                raised.push(event);
            }
        }
        if let Some(proc) = self.proc(id) {
            proc.actions = actions;
        }
        for event in raised {
            self.feed(id, event)?;
        }
        Ok(())
    }

    /// An event and then the tick the loop's next iteration would run.
    fn feed_and_tick(&mut self, id: usize, event: Event<'_>) -> Check {
        self.feed(id, event)?;
        self.feed(id, Event::Tick)
    }

    fn conn_of(&mut self, id: usize, conn: Conn) -> Option<(usize, usize)> {
        let owner = self.owner_of(id);
        match conn {
            Conn::Dialed(peer) => self.proc(id)?.dialing[peer as usize].map(|c| (c, 0)),
            Conn::Accepted(wanted) => self.conns.iter().enumerate().find_map(|(c, conn)| {
                let end = &conn.ends[1];
                let held = matches!(end.state, EndState::Pending { slot, .. } if slot == wanted);
                (end.owner == owner && held).then_some((c, 1))
            }),
        }
    }

    fn write(&mut self, conn: usize, from_end: usize, bytes: &[u8]) {
        let conn = &mut self.conns[conn];
        if !conn.cut && !matches!(conn.ends[1 - from_end].state, EndState::Closed) {
            conn.ends[1 - from_end].inbound.extend(bytes);
        }
    }

    fn close_end(&mut self, conn: usize, end: usize) {
        let end = &mut self.conns[conn].ends[end];
        end.state = EndState::Closed;
        end.inbound.clear();
    }

    fn perform(&mut self, id: usize, action: Action) -> Result<Option<Event<'static>>, String> {
        let now = self.now;
        match action {
            Action::Send(peer, batch) => {
                let live = self.proc(id).and_then(|p| p.live[peer as usize]);
                if let Some(conn) = live {
                    let end = self.end_of(conn, id);
                    self.write(conn, end, &batch);
                }
            }
            Action::Reset(peer) => {
                let proc = self.proc(id).expect("acting");
                let held = [
                    proc.live[peer as usize].take(),
                    proc.dialing[peer as usize].take(),
                ];
                for conn in held.into_iter().flatten() {
                    let end = self.end_of(conn, id);
                    self.close_end(conn, end);
                }
            }
            Action::Dial(peer, addr, hello) => return Ok(self.dial(id, peer, addr, &hello)),
            Action::Announce(source, announce) => return Ok(self.ask(id, source, &announce)),
            Action::Reply(conn, bytes) => {
                if let Some((conn, end)) = self.conn_of(id, conn) {
                    self.write(conn, end, &bytes);
                }
            }
            Action::Adopt(conn, peer) => {
                let Some((conn, end)) = self.conn_of(id, conn) else {
                    return Ok(Some(Event::StreamEnd(peer)));
                };
                let proc = self.proc(id).expect("acting");
                proc.dialing[peer as usize] = None;
                proc.down_since[peer as usize] = None;
                proc.said_goodbye[peer as usize] = false;
                proc.refused_size[peer as usize] = false;
                let superseded = proc.live[peer as usize].replace(conn);
                if let Some(old) = superseded.filter(|&old| old != conn) {
                    let old_end = self.end_of(old, id);
                    self.close_end(old, old_end);
                }
                self.conns[conn].ends[end].state = EndState::Live {
                    peer,
                    decoder: FrameDecoder::new(),
                };
            }
            Action::Close(conn) => {
                if let Conn::Dialed(peer) = conn {
                    self.proc(id).expect("acting").dialing[peer as usize] = None;
                }
                if let Some((conn, end)) = self.conn_of(id, conn) {
                    self.close_end(conn, end);
                }
            }
            Action::Deliver(event) => {
                match &event {
                    InboxEvent::Frame(Frame::EndOfSuperstep { sender, superstep }) => {
                        let cursor = &mut self.nodes[id].eos_cursor[*sender as usize];
                        *cursor = (*cursor).max(superstep + 1);
                    }
                    InboxEvent::PeerLost(peer, error) => self.check_loss(id, *peer, error)?,
                    _ => {}
                }
                let proc = self.proc(id).expect("acting");
                proc.inbox.push_back(event);
                proc.inbox_grew = true;
            }
            Action::Established => {
                let proc = self.proc(id).expect("acting");
                proc.established = Some(now);
                if !proc.fabric.book().is_complete() {
                    return Err(format!("n{id} is established on an incomplete book"));
                }
            }
            Action::EstablishFailed(timed_out, message) => {
                let proc = self.proc(id).expect("acting");
                if timed_out && now != proc.epoch + ESTABLISH_TIMEOUT {
                    return Err(format!(
                        "n{id} gave up establishing at {now:?}, not at its timeout: {message}"
                    ));
                }
                proc.ended = Some(Ended::NeverEstablished(message));
                self.close_all(id, false);
            }
            Action::Exit => {
                let proc = self.proc(id).expect("acting");
                let (stopped, owed) = proc.stopped.expect("exit follows a shutdown");
                let late = now > stopped + RECONNECT_DEADLINE;
                if late || (!owed && now != stopped) {
                    return Err(format!(
                        "n{id} stopped at {stopped:?} (link down: {owed}) but exited at {now:?}"
                    ));
                }
                proc.ended = Some(Ended::Exited(now));
                self.close_all(id, true);
            }
        }
        Ok(None)
    }

    fn end_of(&self, conn: usize, id: usize) -> usize {
        let owner = self.owner_of(id);
        (0..2)
            .find(|&e| self.conns[conn].ends[e].owner == owner)
            .expect("a connection of this process")
    }

    /// A `PeerLost` is on time — at once after a goodbye, at exactly the
    /// reconnect deadline otherwise — and says what it knows.
    fn check_loss(&mut self, id: usize, peer: u32, error: &PlaneError) -> Check {
        let now = self.now;
        let proc = self.proc(id).expect("acting");
        let (bye, refused) = (
            proc.said_goodbye[peer as usize],
            proc.refused_size[peer as usize],
        );
        let Some(since) = proc.down_since[peer as usize] else {
            return Err(format!(
                "n{id} lost server {peer}, whose stream never ended"
            ));
        };
        let due = if bye {
            since
        } else {
            since + RECONNECT_DEADLINE
        };
        if now != due {
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

    /// The process is over: with a goodbye on every live stream (a clean
    /// exit) or without (a failed establishment, a kill).
    fn close_all(&mut self, id: usize, goodbye: bool) {
        let owner = self.owner_of(id);
        let mut bye = Vec::new();
        Frame::Goodbye { sender: id as u32 }.encode(&mut bye);
        for conn in 0..self.conns.len() {
            for end in 0..2 {
                if self.conns[conn].ends[end].owner == owner {
                    if goodbye && matches!(self.conns[conn].ends[end].state, EndState::Live { .. })
                    {
                        self.write(conn, end, &bye);
                    }
                    self.close_end(conn, end);
                    // What a process wrote before it left arrives: "up links
                    // owe nothing" rests on the kernel delivering queued
                    // bytes after close, and a network that fails *then* is
                    // beyond any protocol run by the one who left.
                    self.conns[conn].ends[1 - end].budget = None;
                }
            }
        }
    }

    fn dial(
        &mut self,
        id: usize,
        peer: u32,
        target: SocketAddr,
        hello: &[u8],
    ) -> Option<Event<'static>> {
        let dialing = EndState::Dialing {
            peer,
            buf: Vec::new(),
            expires: self.now + HANDSHAKE_DEADLINE,
        };
        let Some(conn) = self.connect(id, target, dialing) else {
            let why = format!("server {peer} at {target}: connection refused");
            return Some(Event::DialFailed(peer, why));
        };
        self.proc(id).expect("acting").dialing[peer as usize] = Some(conn);
        self.write(conn, 0, hello);
        None
    }

    fn ask(&mut self, id: usize, source: SocketAddr, announce: &[u8]) -> Option<Event<'static>> {
        let asking = EndState::Asking {
            source,
            buf: Vec::new(),
            expires: self.now + HANDSHAKE_DEADLINE,
        };
        let Some(conn) = self.connect(id, source, asking) else {
            return Some(Event::AnnounceFailed(source));
        };
        self.proc(id).expect("acting").announces += 1;
        self.write(conn, 0, announce);
        None
    }

    /// A connection from server `id` into the backlog of whoever listens at
    /// `target` — a bound server's process that has not exited — or `None`:
    /// connection refused.
    fn connect(&mut self, id: usize, target: SocketAddr, dialer: EndState) -> Option<usize> {
        let listener = self.nodes.iter().position(|n| match &n.state {
            NodeState::Running(proc) => n.addr == target && proc.ended.is_none(),
            NodeState::Bound => n.addr == target,
            NodeState::Dead => false,
        })?;
        let ordinal = self.dials;
        self.dials += 1;
        let budget = |end: usize| {
            let doomed = self.doomed_dials.iter();
            doomed
                .filter(|&&(nth, e, _)| nth == ordinal && e == end)
                .map(|&(_, _, bytes)| bytes)
                .min()
        };
        let end = |owner, state, budget| End {
            owner,
            state,
            inbound: VecDeque::new(),
            budget,
        };
        self.conns.push(Connection {
            ends: [
                end(self.owner_of(id), dialer, budget(0)),
                end(self.owner_of(listener), EndState::Backlog, budget(1)),
            ],
            cut: false,
            target,
        });
        Some(self.conns.len() - 1)
    }

    // -- the scheduler ------------------------------------------------------

    fn choices(&mut self, out: &mut Vec<Choice>) {
        out.clear();
        // Servers with something still to read.
        let mut unread = vec![false; self.nodes.len()];
        // Servers with a hello waiting in an older accepted connection: a
        // listener's backlog is first in, first out, and the loop pumps its
        // pending slots in order, so of two hellos that both already sit
        // there (a dial abandoned at its deadline, then its retry) the older
        // is vetted first — the retry supersedes the stale one, not the
        // other way round.
        let mut hello_waiting = vec![false; self.nodes.len()];
        for (c, conn) in self.conns.iter().enumerate() {
            for e in 0..2 {
                let end = &conn.ends[e];
                let Owner::Node { id, generation } = end.owner else {
                    continue; // strangers never read
                };
                let node = &self.nodes[id as usize];
                let reading = node.generation == generation
                    && matches!(&node.state, NodeState::Running(p) if p.ended.is_none());
                if !reading || matches!(end.state, EndState::Closed) {
                    continue;
                }
                let other_closed = matches!(conn.ends[1 - e].state, EndState::Closed);
                let handshaking = matches!(end.state, EndState::Backlog | EndState::Pending { .. });
                if !end.inbound.is_empty() && handshaking {
                    if !std::mem::replace(&mut hello_waiting[id as usize], true) {
                        out.push(Choice::Deliver { conn: c, end: e });
                    }
                } else if !end.inbound.is_empty() {
                    out.push(Choice::Deliver { conn: c, end: e });
                } else if conn.cut || other_closed {
                    out.push(Choice::StreamEnd { conn: c, end: e });
                } else {
                    continue;
                }
                unread[id as usize] = true;
            }
        }
        for (id, unread) in unread.into_iter().enumerate() {
            let hold = self.hold_until_all_done;
            let Some(proc) = self.proc(id) else {
                continue;
            };
            let ready = match proc.worker {
                _ if proc.established.is_none() || proc.stopped.is_some() => false,
                Worker::Collect(_) => proc.inbox_grew,
                // The one fairness assumption: a process reads what has
                // already reached it — a killed peer's EOF included — before
                // it gets around to exiting; `poll.rs` runs one readiness
                // round between the worker's shutdown and telling the fabric
                // for exactly this. (One that exits first believes the link
                // up, owes it nothing, and is gone when the peer restarts: a
                // race no protocol on one side can close.)
                Worker::Finished | Worker::Failed => !hold && !unread,
                _ => true,
            };
            if ready {
                out.push(Choice::Work { node: id });
            }
        }
        for p in 0..self.planned.len() {
            if self.fires(p) {
                out.push(Choice::Fire { planned: p });
            }
        }
    }

    /// Has the planned fault's moment come? A crash additionally waits until
    /// every survivor holds everything the victim acknowledged — the
    /// multi-process drivers guarantee the same by killing well after the
    /// victim's checkpoint lands. Crashing earlier can destroy frames a
    /// survivor still needs and no replacement can replay (its log starts at
    /// its resume cursor): that is *correctly* terminal, and not what these
    /// schedules are about.
    fn fires(&mut self, planned: usize) -> bool {
        let (server, superstep) = self.planned[planned].when;
        let reached = |worker: Worker| match worker {
            Worker::Publish(s) | Worker::Collect(s) | Worker::Ack(s) => s >= superstep,
            Worker::Finished | Worker::Failed => true,
        };
        if !self
            .proc(server as usize)
            .is_some_and(|p| p.established.is_some() && reached(p.worker))
        {
            return false;
        }
        let victim = match self.planned[planned].fault {
            Fault::CrashRestart { victim, .. } | Fault::GoneForever { victim, .. } => {
                victim as usize
            }
            _ => return true,
        };
        let resume = self.nodes[victim].eos_cursor[victim];
        (0..self.nodes.len()).all(|id| {
            id == victim || self.proc(id).is_none() || self.nodes[id].eos_cursor[victim] >= resume
        })
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
            // Mostly work; now and then let time pass instead (a delay).
            let wait = choices.is_empty() || (next_timer.is_some() && self.rng.chance(1, 16));
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
                Choice::StreamEnd { conn, end } => self.stream_end(conn, end)?,
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
                NodeState::Bound => false,
                NodeState::Dead => true,
            })
    }

    fn all_finished(&self) -> bool {
        self.nodes.iter().all(|n| match &n.state {
            NodeState::Running(p) => p.ended.is_some() || p.worker == Worker::Finished,
            NodeState::Bound => false,
            NodeState::Dead => true,
        })
    }

    /// Everyone is done and the network is silent: every log must be empty
    /// (a lost ack was repeated on the healed link) and the books agree.
    /// Then everyone may go.
    fn release(&mut self) -> Check {
        self.hold_until_all_done = false;
        if self.fatal {
            return Ok(());
        }
        let addrs: Vec<SocketAddr> = self.nodes.iter().map(|n| n.addr).collect();
        for id in 0..self.nodes.len() {
            let Some(proc) = self.proc(id) else {
                continue;
            };
            let retained = proc.fabric.replay().bytes_retained();
            if retained != 0 {
                return Err(format!(
                    "n{id} still retains {retained} bytes with everyone done"
                ));
            }
            let book = proc.fabric.book();
            for (peer, &addr) in addrs.iter().enumerate() {
                if book.get(peer as u32).map(|e| e.addr) != Some(addr) {
                    return Err(format!(
                        "n{id}'s book has server {peer} elsewhere than {addr}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The earliest instant anything is due: a fabric clock, a handshake
    /// deadline, a planned bind or start.
    fn next_timer(&self) -> Option<Duration> {
        let fabrics = self.nodes.iter().filter_map(|n| match &n.state {
            NodeState::Running(p) if p.ended.is_none() => {
                p.fabric.next_timer().map(|t| p.epoch + t)
            }
            _ => None,
        });
        let handshakes = self.conns.iter().flat_map(|c| &c.ends).filter_map(|e| {
            let alive = matches!(e.owner, Owner::Node { id, generation }
                if self.nodes[id as usize].generation == generation);
            match e.state {
                EndState::Pending { expires, .. }
                | EndState::Dialing { expires, .. }
                | EndState::Asking { expires, .. }
                    if alive =>
                {
                    Some(expires)
                }
                _ => None,
            }
        });
        let timed = self.timed.iter().map(|(at, _)| *at);
        fabrics.chain(handshakes).chain(timed).min()
    }

    /// Let time pass: up to the next timer, never beyond it, so everything
    /// due happens at exactly its instant.
    fn wait(&mut self, next_timer: Duration) -> Check {
        let step = self.rng.millis(300);
        self.now = next_timer.min(self.now + step).max(self.now);
        let now = self.now;
        while let Some(due) = self.timed.iter().position(|(at, _)| *at <= now) {
            match self.timed.swap_remove(due).1 {
                Timed::Bind { victim, moves } => self.bind(victim as usize, moves),
                Timed::Start { victim } => self.start(victim as usize),
                Timed::Fire(fault) => self.fire(fault)?,
            }
        }
        for conn in 0..self.conns.len() {
            for end in 0..2 {
                let Owner::Node { id, .. } = self.conns[conn].ends[end].owner else {
                    continue;
                };
                if self.owner_of(id as usize) != self.conns[conn].ends[end].owner {
                    continue;
                }
                match self.conns[conn].ends[end].state {
                    EndState::Pending { expires, .. } if now >= expires => {
                        self.close_end(conn, end);
                    }
                    EndState::Dialing { expires, peer, .. } if now >= expires => {
                        self.close_end(conn, end);
                        let target = self.conns[conn].target;
                        if let Some(proc) = self.proc(id as usize) {
                            proc.dialing[peer as usize] = None;
                        }
                        let why = format!("server {peer} at {target}: no reply hello in time");
                        self.feed(id as usize, Event::DialFailed(peer, why))?;
                    }
                    EndState::Asking {
                        expires, source, ..
                    } if now >= expires => {
                        self.close_end(conn, end);
                        self.feed(id as usize, Event::AnnounceFailed(source))?;
                    }
                    _ => {}
                }
            }
        }
        for id in 0..self.nodes.len() {
            self.feed(id, Event::Tick)?;
        }
        Ok(())
    }

    /// Server `id`'s listener accepts `conn` into a pending slot.
    fn accept(&mut self, id: usize, conn: usize) {
        let now = self.now;
        let proc = self.proc(id).expect("a running process accepts");
        let slot = proc.next_slot;
        proc.next_slot += 1;
        self.conns[conn].ends[1].state = EndState::Pending {
            slot,
            buf: Vec::new(),
            expires: now + HANDSHAKE_DEADLINE,
        };
    }

    /// Move some of what is in flight to an end and let its owner read it —
    /// often all of it, often a fragment ending anywhere.
    fn deliver(&mut self, conn: usize, end: usize) -> Check {
        let Owner::Node { id, .. } = self.conns[conn].ends[end].owner else {
            unreachable!("strangers never read");
        };
        let id = id as usize;
        if matches!(self.conns[conn].ends[end].state, EndState::Backlog) {
            self.accept(id, conn);
        }
        let available = self.conns[conn].ends[end].inbound.len();
        let mut take = match self.rng.below(3) {
            0 => 1 + self.rng.below(available as u64) as usize,
            _ => available,
        };
        let state = &self.conns[conn].ends[end].state;
        if let EndState::Pending { buf, .. }
        | EndState::Dialing { buf, .. }
        | EndState::Asking { buf, .. } = state
        {
            // Never past the handshake: frames may follow it.
            let ghhm = !matches!(state, EndState::Dialing { .. });
            take = take.min(handshake_len(buf, ghhm) - buf.len());
        }
        if let Some(budget) = self.conns[conn].ends[end].budget.as_mut() {
            take = take.min(*budget);
            *budget -= take;
            if *budget == 0 {
                // The network breaks here, mid-whatever this was.
                let broken = &mut self.conns[conn];
                broken.cut = true;
                broken.ends[1 - end].inbound.clear();
                broken.ends[end].inbound.truncate(take);
                self.log(|| format!("network breaks connection {conn}"));
            }
        }
        let bytes: Vec<u8> = self.conns[conn].ends[end].inbound.drain(..take).collect();
        let target = self.conns[conn].target;
        match &mut self.conns[conn].ends[end].state {
            EndState::Pending { buf, slot, .. } => {
                buf.extend_from_slice(&bytes);
                let conn_id = Conn::Accepted(*slot);
                let announce = buf.starts_with(&MEMBERSHIP_MAGIC);
                let whole = buf.len() == handshake_len(buf, true);
                if whole && announce {
                    let bytes = std::mem::take(buf);
                    let event = Event::Announce(conn_id, &bytes);
                    self.feed_and_tick(id, event)?;
                } else if whole {
                    let bytes = buf[..].try_into().expect("16 bytes");
                    let origin = format!("stranger to {target}");
                    let event = Event::Hello(conn_id, &origin, bytes);
                    self.note_refusals(id, &bytes);
                    self.feed_and_tick(id, event)?;
                }
            }
            EndState::Dialing { buf, peer, .. } => {
                buf.extend_from_slice(&bytes);
                if buf.len() == 16 {
                    let (peer, bytes) = (*peer, buf[..].try_into().expect("16 bytes"));
                    let origin = format!("server {peer} at {target}");
                    let event = Event::Hello(Conn::Dialed(peer), &origin, bytes);
                    self.feed_and_tick(id, event)?;
                }
            }
            EndState::Asking { buf, source, .. } => {
                buf.extend_from_slice(&bytes);
                if buf.len() == handshake_len(buf, true) {
                    let (source, reply) = (*source, std::mem::take(buf));
                    self.close_end(conn, end);
                    let event = match reply.starts_with(&MEMBERSHIP_MAGIC) {
                        true => Event::Snapshot(source, &reply),
                        false => Event::AnnounceFailed(source),
                    };
                    self.feed_and_tick(id, event)?;
                }
            }
            EndState::Live { decoder, .. } => {
                decoder.push(&bytes);
                // (The fabric may reset the stream over a frame it saw.)
                while let EndState::Live { decoder, peer } = &mut self.conns[conn].ends[end].state {
                    let peer = *peer;
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            match frame {
                                Frame::Ack { superstep, .. } => self.note_ack(id, peer, superstep),
                                Frame::Goodbye { .. } => {
                                    self.proc(id).expect("reading").said_goodbye[peer as usize] =
                                        true
                                }
                                _ => {}
                            }
                            self.feed(id, Event::Frame(peer, frame))?;
                            self.check_drained(id)?;
                        }
                        Ok(None) => break,
                        Err(_) => return self.lose_stream(id, conn, end, peer),
                    }
                }
                self.feed(id, Event::Tick)?;
            }
            EndState::Backlog | EndState::Closed => unreachable!("not readable"),
        }
        Ok(())
    }

    /// Remember a hello that will be refused for its cluster size, so the
    /// terminal loss that may follow can be held to naming it.
    fn note_refusals(&mut self, id: usize, hello: &[u8; 16]) {
        let servers = self.nodes.len() as u32;
        let Ok(hello) = ResumeHello::decode(hello) else {
            return;
        };
        let claimed = hello.sender < servers && hello.sender as usize != id;
        if hello.cluster_size != servers && claimed {
            self.proc(id).expect("reading").refused_size[hello.sender as usize] = true;
        }
    }

    fn note_ack(&mut self, id: usize, peer: u32, superstep: u32) {
        if superstep + 1 == self.supersteps {
            self.proc(id).expect("reading").final_acks[peer as usize] = true;
        }
    }

    /// After the last ack of the last superstep nothing may be retained.
    fn check_drained(&mut self, id: usize) -> Check {
        let proc = self.proc(id).expect("reading");
        let acks = proc.final_acks.iter().filter(|&&acked| acked).count();
        let retained = proc.fabric.replay().bytes_retained();
        if acks + 1 == proc.final_acks.len() && retained != 0 {
            return Err(format!(
                "n{id} retains {retained} bytes after every peer's last ack"
            ));
        }
        Ok(())
    }

    fn lose_stream(&mut self, id: usize, conn: usize, end: usize, peer: u32) -> Check {
        self.log(|| format!("n{id}'s stream on connection {conn} ends"));
        self.close_end(conn, end);
        let now = self.now;
        let proc = self.proc(id).expect("reading");
        if proc.live[peer as usize] == Some(conn) {
            proc.live[peer as usize] = None;
            proc.down_since[peer as usize] = Some(now);
        }
        self.feed_and_tick(id, Event::StreamEnd(peer))
    }

    /// An end has drained everything that will ever reach it.
    fn stream_end(&mut self, conn: usize, end: usize) -> Check {
        let Owner::Node { id, .. } = self.conns[conn].ends[end].owner else {
            unreachable!("strangers never read");
        };
        let id = id as usize;
        let target = self.conns[conn].target;
        match self.conns[conn].ends[end].state {
            EndState::Live { peer, .. } => self.lose_stream(id, conn, end, peer),
            EndState::Dialing { peer, .. } => {
                self.close_end(conn, end);
                self.proc(id).expect("reading").dialing[peer as usize] = None;
                let why = format!("server {peer} at {target}: closed before a reply hello");
                self.feed_and_tick(id, Event::DialFailed(peer, why))
            }
            EndState::Asking { source, .. } => {
                self.close_end(conn, end);
                self.feed_and_tick(id, Event::AnnounceFailed(source))
            }
            _ => {
                self.close_end(conn, end);
                Ok(())
            }
        }
    }

    // -- the worker script --------------------------------------------------

    fn work(&mut self, id: usize) -> Check {
        let supersteps = self.supersteps;
        let now = self.now;
        let proc = self.proc(id).expect("chosen because it works");
        match proc.worker {
            Worker::Publish(s) => {
                let mut batch = proc.pool.checkout();
                for k in 0..messages_of(id as u32, s) {
                    encode_message_into(id as u32, s, &[id as u8, s as u8, k as u8], &mut batch)
                        .expect("tiny payload");
                }
                Frame::EndOfSuperstep {
                    sender: id as u32,
                    superstep: s,
                }
                .encode(&mut batch);
                proc.worker = Worker::Collect(s);
                let command = Command::Broadcast(s, Arc::new(batch));
                self.feed_and_tick(id, Event::Command(command))
            }
            Worker::Collect(s) => self.collect(id, s),
            Worker::Ack(s) => {
                let mut batch = proc.pool.checkout();
                Frame::Ack {
                    sender: id as u32,
                    superstep: s,
                }
                .encode(&mut batch);
                proc.worker = if s + 1 < supersteps {
                    Worker::Publish(s + 1)
                } else {
                    Worker::Finished
                };
                // What this server durably holds: where a restart resumes.
                self.nodes[id].eos_cursor[id] = s + 1;
                let command = Command::Ack(s, Arc::new(batch));
                self.feed_and_tick(id, Event::Command(command))
            }
            Worker::Finished | Worker::Failed => {
                let down = proc.down_since.iter().any(Option::is_some);
                proc.stopped = Some((now, down));
                self.feed_and_tick(id, Event::Command(Command::Shutdown))
            }
        }
    }

    /// `collect(s)` as the plane runs it, except that an empty inbox means
    /// "later" instead of blocking: the attempt runs on a copy of the
    /// collector and is kept only if it came to a verdict.
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
            Ok(wires) => wires,
            Err(error) if fatal => {
                // A server is gone for good: abort like `run_worker` does.
                proc.collector = attempt;
                proc.inbox.drain(..taken.min(proc.inbox.len()));
                proc.worker = Worker::Failed;
                let mut batch = proc.pool.checkout();
                Frame::Abort { sender: id as u32 }.encode(&mut batch);
                self.log(|| format!("n{id} aborts: collect({s}) = {error:?}"));
                return self.feed_and_tick(id, Event::Command(Command::Abort(Arc::new(batch))));
            }
            Err(error) => return Err(format!("n{id}: collect({s}) failed: {error:?}")),
        };
        proc.collector = attempt;
        proc.inbox.drain(..taken);
        proc.worker = Worker::Ack(s);
        for &peer in &peers {
            let got: Vec<&[u8]> = (wires.iter().map(|w| &w[..]))
                .filter(|w| w[0] as u32 == peer)
                .collect();
            let expected: Vec<[u8; 3]> = (0..messages_of(peer, s))
                .map(|k| [peer as u8, s as u8, k as u8])
                .collect();
            if got != expected.iter().map(|e| &e[..]).collect::<Vec<_>>() {
                return Err(format!(
                    "n{id}: collect({s}) got {got:?} from server {peer}, expected {expected:?}"
                ));
            }
        }
        Ok(())
    }

    // -- faults -------------------------------------------------------------

    fn fire(&mut self, fault: Fault) -> Check {
        self.log(|| format!("fault: {fault:?}"));
        match fault {
            Fault::Cut { a, b } => {
                let live = self.proc(a as usize).and_then(|p| p.live[b as usize]);
                // (Not once `b` has left: see `close_all`.)
                if let Some(conn) = live.filter(|_| self.proc(b as usize).is_some()) {
                    let broken = &mut self.conns[conn];
                    broken.cut = true;
                    for end in &mut broken.ends {
                        let keep = self.rng.below(end.inbound.len() as u64 + 1) as usize;
                        end.inbound.truncate(keep);
                    }
                }
            }
            Fault::Rogue { target, kind } => self.knock(target, kind, target)?,
            Fault::CrashRestart {
                victim,
                down_for,
                bound_for,
                moves,
            } => {
                self.kill(victim as usize);
                let bound = self.now + down_for;
                self.timed.push((bound, Timed::Bind { victim, moves }));
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
        }
        Ok(())
    }

    /// `kill -9`: every stream closes on the spot, a random part of what
    /// was in flight is lost, the listener is gone.
    fn kill(&mut self, victim: usize) {
        let owner = self.owner_of(victim);
        for conn in 0..self.conns.len() {
            for end in 0..2 {
                if self.conns[conn].ends[end].owner == owner {
                    self.close_end(conn, end);
                    let sent = &mut self.conns[conn].ends[1 - end].inbound;
                    let keep = self.rng.below(sent.len() as u64 + 1) as usize;
                    sent.truncate(keep);
                }
            }
        }
        let node = &mut self.nodes[victim];
        if let NodeState::Running(old) = std::mem::replace(&mut node.state, NodeState::Dead) {
            node.history.push((old.worker, old.ended));
        }
        node.generation += 1;
    }

    /// The killed server's listener is back, at a fresh address if it moves.
    fn bind(&mut self, victim: usize, moves: Moves) {
        let node = &mut self.nodes[victim];
        node.addr = moved_addr(node.id, node.generation, moves);
        node.state = NodeState::Bound;
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
            RogueKind::GhhmOnly => b"GHHM".to_vec(),
            RogueKind::Garbage => b"NOPE, not a GraphH peer at all".to_vec(),
            RogueKind::WrongDirection if target == 0 => Vec::new(),
            RogueKind::WrongDirection => hello(servers, target - 1, 0),
            RogueKind::Duplicate if target + 1 == servers => Vec::new(),
            RogueKind::Duplicate => {
                // What the real higher-id peer would send if it dialed twice.
                let twin = target + 1;
                hello(
                    servers,
                    twin,
                    self.nodes[twin as usize].eos_cursor[target as usize],
                )
            }
            RogueKind::WrongSize => hello(servers + 1, claims, 0),
        };
        if self.proc(target as usize).is_none() {
            return Ok(());
        }
        let end = |owner, state| End {
            owner,
            state,
            inbound: VecDeque::new(),
            budget: None,
        };
        self.conns.push(Connection {
            ends: [
                end(Owner::Rogue, EndState::Backlog),
                end(self.owner_of(target as usize), EndState::Backlog),
            ],
            cut: false,
            target: self.nodes[target as usize].addr,
        });
        let conn = self.conns.len() - 1;
        self.write(conn, 0, &script);
        if kind == RogueKind::Silent {
            // Nothing will ever make it readable: the listener's readiness
            // is what gets it accepted, to sit in a slot until it expires.
            self.accept(target as usize, conn);
        }
        // A twin's hello is read at once: its cursor is the real peer's of
        // this instant, and a *stale* cursor below the replay floor is
        // (correctly, WIRE.md §9.2) the end of that peer.
        while kind == RogueKind::Duplicate && !self.conns[conn].ends[1].inbound.is_empty() {
            self.deliver(conn, 1)?;
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

/// Run the world `build` makes and `check` what it left; on failure run it
/// again with tracing and report both.
fn run_world(what: &str, build: &dyn Fn(bool) -> World, check: &dyn Fn(&World) -> Check) {
    let mut world = build(false);
    let Err(failure) = world.run().and_then(|()| check(&world)) else {
        return;
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

fn run_seed(seed: u64, servers: u32, seeded: bool) {
    let what = format!("seed {seed} ({servers} servers, seeded {seeded})");
    let build = |trace| World::new(seed, servers, seeded, trace);
    run_world(&what, &build, &|_| Ok(()));
}

#[test]
fn thousands_of_seeded_schedules_hold_every_invariant() {
    let mut total = 0;
    for (servers, schedules) in SCHEDULES {
        for seed in 0..schedules {
            run_seed(seed, servers, seed % 2 == 1);
        }
        total += schedules;
    }
    assert!(total >= 2000);
}

/// The simulation is a function of its seed: two runs, one trace.
#[test]
fn one_seed_one_trace() {
    let trace_of = |seed| {
        let mut world = World::new(seed, 3, true, true);
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
// Discovery, driven by the fabrics themselves: explicit seeded schedules
// ---------------------------------------------------------------------------

/// A world of seeded endpoints with no fault drawn, everyone started from
/// `seeds` and kept up until all are done (so `release` holds every book to
/// every final address) — for `arrange` to put its own schedule in.
fn seeded_world(
    seed: u64,
    servers: u32,
    seeds: &[u32],
    trace: bool,
    arrange: &dyn Fn(&mut World),
) -> World {
    let mut world = World::new(seed, servers, true, trace);
    world.planned.clear();
    world.doomed_dials.clear();
    (world.fatal, world.hold_until_all_done) = (false, true);
    let seeds: Vec<SocketAddr> = seeds.iter().map(|&s| static_addr(s)).collect();
    world.nodes.iter_mut().for_each(|n| n.seeds = seeds.clone());
    arrange(&mut world);
    let (planned, timed) = (world.planned.len(), world.timed.len());
    world.plan_text = format!("explicit: {planned} planned, {timed} timed");
    world
}

/// The last process of server `id`.
fn last_proc(world: &World, id: usize) -> Result<&Proc, String> {
    match &world.nodes[id].state {
        NodeState::Running(proc) => Ok(proc),
        _ => Err(format!("n{id} is not running at the end")),
    }
}

fn restart(victim: u32, moves: Moves, at_superstep: u32) -> Planned {
    let fault = Fault::CrashRestart {
        victim,
        down_for: Duration::from_millis(500),
        bound_for: Duration::from_millis(200),
        moves,
    };
    Planned {
        fault,
        when: (victim, at_superstep),
    }
}

/// A fresh start from a seed list that names one member only: everyone
/// finishes, every book is every address (`release`), nobody bumped.
#[test]
fn one_seed_is_enough_and_nobody_bumps() {
    for seed in 0..100 {
        let check = |world: &World| {
            for id in 0..3 {
                let proc = last_proc(world, id)?;
                let book = proc.fabric.book();
                if book.own_incarnation() != 0 || !book.is_complete() {
                    return Err(format!("n{id} ended with {book:?}"));
                }
            }
            Ok(())
        };
        let build = |trace| seeded_world(seed, 3, &[(seed % 3) as u32], trace, &|_| {});
        run_world(&format!("one seed, seed {seed}"), &build, &check);
    }
}

/// The only seed is not bound yet when the others start: they ask it again
/// (each on its backoff) until it is, and the cluster comes up then.
#[test]
fn the_only_seed_may_be_the_last_to_start() {
    const LATE: Duration = Duration::from_secs(3);
    for seed in 0..100 {
        let late = (seed % 3) as usize;
        let arrange = |world: &mut World| {
            for (at, timed) in &mut world.timed {
                if matches!(timed, Timed::Start { victim } if *victim as usize == late) {
                    *at = LATE;
                }
            }
        };
        let check = |world: &World| {
            for id in 0..3 {
                let at = last_proc(world, id)?.established.ok_or("not established")?;
                if at < LATE || at > LATE + 3 * RETRY_BACKOFF_CAP {
                    return Err(format!("n{id} was established at {at:?}"));
                }
            }
            Ok(())
        };
        let build = |trace| seeded_world(seed, 3, &[late as u32], trace, &arrange);
        run_world(&format!("late seed, seed {seed}"), &build, &check);
    }
}

/// A replacement at a moved address announces itself to the one live member
/// it was told of, then to everyone in the book that member sends back, while
/// the link between the survivors is cut again and again: every book ends at
/// the new address, everyone finishes.
#[test]
fn a_moved_replacement_is_found_by_everyone() {
    for seed in 0..300 {
        let arrange = |world: &mut World| {
            world.planned.push(restart(1, Moves::Higher, 1));
            for k in 0..12 {
                let at = Duration::from_millis(500 + 50 * k);
                let cut = Fault::Cut { a: 0, b: 2 };
                world.timed.push((at, Timed::Fire(cut)));
            }
        };
        let build = |trace| seeded_world(seed, 3, &[0], trace, &arrange);
        run_world(&format!("moved, seed {seed}"), &build, &|_| Ok(()));
    }
}

/// The gossip gap, closed. A book change used to be flooded once, to the
/// links up at that tick; a peer down just then never heard of it from this
/// endpoint. Now every link remembers the version it was last sent, and one
/// that comes (back) up behind the book is sent it there and then.
#[test]
fn a_peer_that_was_down_when_the_book_changed_is_told_when_its_link_is_back() {
    let config = ResilienceConfig {
        reconnect_deadline: RECONNECT_DEADLINE,
        resume_from: 0,
        seeds: vec![static_addr(1)],
    };
    let book = AddressBook::new(3, 0, static_addr(0));
    let mut fabric = Fabric::new(book, config, ESTABLISH_TIMEOUT, BufferPool::new());
    let (now, mut out) = (Duration::ZERO, Vec::new());
    let arrives = |fabric: &mut Fabric, id: u32, at: SocketAddr, out: &mut Vec<Action>| {
        let announce = AddressBook::new(3, id, at).msg(MembershipKind::Announce);
        let hello = ResumeHello {
            cluster_size: 3,
            sender: id,
            resume_from: 0,
        };
        let (asking, dialing) = (Conn::Accepted(0), Conn::Accepted(1));
        fabric.step(now, Event::Announce(asking, &announce.encode()), out);
        fabric.step(now, Event::Hello(dialing, "test", hello.encode()), out);
        fabric.step(now, Event::Tick, out);
    };
    // What `peer` has been sent of where server 1 listens, latest last.
    let told = |out: &[Action], peer: u32| -> Vec<SocketAddr> {
        let sent = out.iter().filter_map(|action| match action {
            Action::Send(to, batch) if *to == peer => Some(batch),
            _ => None,
        });
        let mut addrs = Vec::new();
        for batch in sent {
            let mut decoder = FrameDecoder::new();
            decoder.push(batch);
            while let Ok(Some(frame)) = decoder.next_frame() {
                if let Frame::Membership { payload, .. } = frame {
                    let msg = MembershipMsg::decode(&payload).expect("own gossip");
                    addrs.extend(msg.entries.iter().filter(|e| e.id == 1).map(|e| e.addr));
                }
            }
        }
        addrs
    };
    arrives(&mut fabric, 1, static_addr(1), &mut out);
    arrives(&mut fabric, 2, static_addr(2), &mut out);
    assert!(out.iter().any(|a| matches!(a, Action::Established)));
    // Both links break; server 1 comes back from elsewhere while 2 is away.
    fabric.step(now, Event::StreamEnd(1), &mut out);
    fabric.step(now, Event::StreamEnd(2), &mut out);
    out.clear();
    let moved = moved_addr(1, 1, Moves::Higher);
    arrives(&mut fabric, 1, moved, &mut out);
    assert_eq!(fabric.book().get(1).map(|e| e.addr), Some(moved));
    assert_eq!(
        told(&out, 2),
        [],
        "server 2 is down: nothing can be sent to it"
    );
    // Server 2's link is back: it is told now, once.
    out.clear();
    arrives(&mut fabric, 2, static_addr(2), &mut out);
    fabric.step(now, Event::Tick, &mut out);
    assert_eq!(told(&out, 2), [moved]);
}

/// Strangers that connect to a discovering node and say nothing sit in
/// pending slots beside its announces until they expire: establishment is
/// over long before the first of them does, however many they are. (Served
/// one after the other under a 2 s read cap, eight would have cost 16 s.)
#[test]
fn silent_strangers_do_not_delay_a_discovering_node() {
    for seed in 0..50 {
        let arrange = |world: &mut World| {
            world.timed.clear();
            for (at, victim) in [(0, 1), (5, 0)] {
                let at = Duration::from_millis(at);
                world.timed.push((at, Timed::Start { victim }));
            }
            for _ in 0..8 {
                let (target, kind) = (1, RogueKind::Silent);
                let knock = Timed::Fire(Fault::Rogue { target, kind });
                world.timed.push((Duration::from_millis(1), knock));
            }
        };
        let check = |world: &World| {
            for id in 0..2 {
                let at = last_proc(world, id)?.established.ok_or("not established")?;
                if at >= HANDSHAKE_DEADLINE {
                    return Err(format!("n{id} was established only at {at:?}"));
                }
            }
            Ok(())
        };
        let build = |trace| seeded_world(seed, 2, &[0], trace, &arrange);
        run_world(&format!("strangers, seed {seed}"), &build, &check);
    }
}

/// A replacement whose new address loses the tie against its predecessor's
/// finds its own id bound elsewhere in the first snapshot it is sent, claims
/// it again one incarnation up, and pushes that — by a second announce where
/// nobody can dial it before (server 0), by gossip on the link it dials
/// itself otherwise. The survivor's book ends at the new address either way.
#[test]
fn a_reply_that_outranks_the_claim_makes_the_node_claim_again() {
    for seed in 0..100 {
        let victim = (seed % 2) as usize;
        let arrange =
            |world: &mut World| world.planned.push(restart(victim as u32, Moves::Lower, 1));
        let check = |world: &World| {
            let (replacement, survivor) =
                (last_proc(world, victim)?, last_proc(world, 1 - victim)?);
            let moved = world.nodes[victim].addr;
            let (own, seen) = (replacement.fabric.book(), survivor.fabric.book());
            let adopted = seen.get(victim as u32).is_some_and(|e| e.addr == moved);
            let twice = victim == 1 || replacement.announces >= 2;
            if own.own_incarnation() != 1 || seen.own_incarnation() != 0 || !adopted || !twice {
                let announces = replacement.announces;
                return Err(format!("{announces} announces left {own:?} and {seen:?}"));
            }
            Ok(())
        };
        let build = |trace| seeded_world(seed, 2, &[0], trace, &arrange);
        run_world(&format!("outranked, seed {seed}"), &build, &check);
    }
}
