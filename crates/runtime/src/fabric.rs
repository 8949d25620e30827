//! The link life-cycle of the TCP plane, decided in one **I/O-free** place.
//!
//! Everything `docs/WIRE.md` §2 and §9 make an endpoint *decide* lives
//! here and nowhere else: when a link is down, when to redial it and how long
//! to back off, whether a hello is acceptable and what to answer, what to
//! retain, replay and trim, what the worker's collector may see, when a
//! finished endpoint may stop holding the door (ordered goodbyes, linger),
//! and when a peer is lost for good. It is the only reader of
//! end-of-superstep markers: a peer's marker of `s` delivers that superstep
//! whole, once ([`InboxEvent::Superstep`]), and acknowledges `s - 1`, which
//! the peer applied before publishing `s`; its goodbye releases the rest.
//! [`Fabric`] touches no socket, spawns nothing, shares no state with another
//! thread and never looks at a clock: it is a step function in the shape of
//! SNIPPETS.md's gossip-glomers `Node::step(input, output)` —
//! `Fabric::step(now, Event, &mut Vec<Action>)` — driven by [`crate::poll`]'s
//! event loop — over real sockets and time, and in `tests/fabric_sim.rs`
//! over a seeded virtual network and clock (real workers, thousands of
//! fault schedules per `cargo test`). `now` is the time since the fabric was
//! created; every deadline is kept on that scale.
//!
//! A link has exactly one way up, whether the cluster is starting, a cut is
//! healing or a replacement process is taking over an id: it is *down* — at
//! birth, with the establish timeout as its deadline — the higher id dials
//! ([`Action::Dial`]) with seeded exponential backoff, at the address the
//! peer table gives the peer, the lower id answers the hello
//! ([`Action::Reply`]), and the vetted stream is adopted with replay
//! ([`Action::Adopt`], [`Action::Send`]). A new process taking over from a
//! dead one resumes from its peers' state ([`Action::Restore`],
//! `docs/WIRE.md` §9.4).
//!
//! The peer table is the only address book: one address per server, fixed
//! for the run, so a replacement process restarts at the address the table
//! gives its id. Establishment is only this machine's first transition:
//! [`Action::Established`] fires when every link is up (and a new process
//! has heard from its survivors and holds the state it resumes from); its
//! last is [`Action::Exit`], once every peer has said goodbye or is gone
//! (`docs/WIRE.md` §9.3). The state × event → action table is
//! `docs/WIRE.md` §9.5.

use crate::buffer::{BufferPool, PooledBuf};
use crate::checkpoint::encoded_cursor;
use crate::establish::Refusal;
use crate::frame::{Frame, InboxEvent, PlaneError, WireMessage};
use crate::resume::{count_frames, ReplayLog, ResilienceConfig, ResumeHello, RESUME_HELLO_LEN};
use graphh_graph::ids::ServerId;
use graphh_obs::{global_counters, Counter};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Frame bytes shared by every peer's queue and the replay log: one pooled
/// buffer per broadcast batch, returned to the pool by its last holder.
pub type SharedBatch = Arc<PooledBuf>;

/// A hello as it travels (`docs/WIRE.md` §2).
pub type HelloBytes = [u8; RESUME_HELLO_LEN];

/// First pause between redials of one link; attempt `k` waits a jittered
/// `min(RETRY_BACKOFF · 2^k, RETRY_BACKOFF_CAP)`.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// Ceiling of the redial backoff (itself clamped to the reconnect deadline).
pub const RETRY_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// A connection that has not finished its handshake yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conn {
    /// The stream this endpoint dialed to (lower-id) `peer`.
    Dialed(ServerId),
    /// A stream the listener accepted, by the driver's own numbering.
    Accepted(usize),
}

/// What the worker asks of the fabric.
#[derive(Debug)]
pub enum Command {
    /// Send this batch of whole frames to every peer and retain it under the
    /// superstep until every peer is past it (batches never span supersteps).
    Broadcast(u32, SharedBatch),
    /// Send this (unretained) abort batch; an aborted run never lingers.
    Abort(SharedBatch),
    /// The worker's answer to an [`InboxEvent::StateRequest`]: a state frame.
    State(ServerId, SharedBatch),
    /// The run is over: say goodbye, and [`Action::Exit`] once every peer
    /// has said goodbye or is gone (`docs/WIRE.md` §9.3).
    Shutdown,
    /// Leave now, before the run is over or without waiting for it to be:
    /// say goodbye on every live stream and [`Action::Exit`], like an
    /// aborted run.
    Leave,
}

/// What happened, as far as the driver can tell without judging it.
#[derive(Debug)]
pub enum Event<'a> {
    /// The worker asked for something.
    Command(Command),
    /// A pending connection produced its 16 hello bytes (unvetted). The
    /// string says where it leads, for refusal messages: an address, or
    /// "server 0 at 127.0.0.1:4750".
    Hello(Conn, &'a str, HelloBytes),
    /// The dial to this peer died before a reply hello — early close,
    /// handshake deadline, unreachable — for this (origin-prefixed) reason.
    DialFailed(ServerId, String),
    /// Nothing listens at the peer's address: the connect was refused.
    DialRefused(ServerId, String),
    /// A peer's live stream decoded a frame.
    Frame(ServerId, Frame),
    /// A peer's live stream ended: EOF, torn frame, corrupt bytes, I/O error.
    /// The driver has already closed it.
    StreamEnd(ServerId),
    /// Time passed (see [`Fabric::next_timer`]).
    Tick,
}

/// What the driver must do, in order.
#[derive(Debug)]
pub enum Action {
    /// Queue the batch on the peer's live stream.
    Send(ServerId, SharedBatch),
    /// Drop whatever socket the peer's slot holds (live stream or dial in
    /// flight) and everything queued on it.
    Reset(ServerId),
    /// Connect to the peer at this address, send the hello, report the reply
    /// as [`Event::Hello`] on [`Conn::Dialed`] or the failure as
    /// [`Event::DialFailed`].
    Dial(ServerId, SocketAddr, HelloBytes),
    /// Write this hello to a pending connection.
    Reply(Conn, HelloBytes),
    /// The connection finished its handshake: it is the peer's live stream
    /// from now on, superseding any older one. If it died since, say
    /// [`Event::StreamEnd`].
    Adopt(Conn, ServerId),
    /// Drop a pending connection.
    Close(Conn),
    /// Hand this to the worker's [`crate::frame::SuperstepCollector`].
    Deliver(InboxEvent),
    /// The state this new process resumes from; right before
    /// [`Action::Established`].
    Restore(WireMessage),
    /// Every link is up, and the state to resume from is in: `establish`
    /// may return the plane.
    Established,
    /// Establishment is over and failed — by its deadline, or (`false`) on a
    /// protocol error; the message is for the operator. The fabric is dead.
    EstablishFailed(bool, String),
    /// Every peer has said goodbye or is gone (or the endpoint is leaving,
    /// or the linger ran out): flush what is queued and close. The fabric
    /// ignores every later event.
    Exit,
}

#[derive(Debug)]
enum LinkState {
    /// No stream: see [`Down`].
    Down(Down),
    /// A vetted stream carries frames.
    Up,
    /// The peer said goodbye and left: nothing to recover, though a
    /// restarted process may still dial back in.
    Closed,
    /// Terminally lost: never dialed, never accepted again.
    Gone,
}

/// A link without a stream. Lower-id peers are redialed — never before
/// `next_retry`, never twice at once — higher-id peers dial in. Past
/// `deadline` the peer is given up.
#[derive(Debug)]
struct Down {
    deadline: Duration,
    next_retry: Duration,
    backoff: ReconnectBackoff,
    dialing: bool,
}

#[derive(Debug)]
struct Link {
    peer: ServerId,
    state: LinkState,
    /// The link has been up: a later adoption is a reconnect.
    ever_up: bool,
    /// The peer's goodbye arrived since the link was last adopted: it has
    /// finished its run (see [`Fabric::settled`]).
    done: bool,
    /// The last hello under this peer's id that was refused (by us or by it)
    /// since the link was last up: what a terminal loss is attributed to.
    refusal: Option<String>,
    /// The receive cursor this endpoint announced when it adopted the
    /// stream: messages and markers below it are replayed duplicates of
    /// supersteps already delivered.
    floor: u32,
    /// The stream's messages since its last end-of-superstep marker, held
    /// back until the marker arrives (or dropped with the stream, when the
    /// next one is adopted): a worker sees a peer's superstep whole or not
    /// at all. While establishing, markers wait here too.
    held: Vec<Frame>,
    /// For a new process: the superstep this endpoint's replay to it began
    /// at. Our frames below it were trimmed, so it can never finish a
    /// superstep below it.
    served_from: u32,
    /// While establishing, the peer's offer (`docs/WIRE.md` §9.4): the
    /// cursor its hello announced, and the state it sent.
    offer: (u32, Option<WireMessage>),
    /// A frame has come on the stream since it was adopted, so the peer has
    /// adopted it too: where its replay to us begins is settled.
    heard: bool,
}

impl Link {
    /// A link to `peer` in `state`, never up yet.
    fn new(peer: ServerId, state: LinkState) -> Link {
        Link {
            peer,
            state,
            ever_up: false,
            done: false,
            refusal: None,
            floor: 0,
            held: Vec::new(),
            served_from: 0,
            offer: (0, None),
            heard: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Establishing,
    Running,
    Stopping,
    Exited,
}

/// The recovery core of one endpoint. See the [module docs](self).
#[derive(Debug)]
pub struct Fabric {
    id: ServerId,
    num_servers: u32,
    config: ResilienceConfig,
    /// The peer table: where every server listens, by id.
    addrs: Vec<SocketAddr>,
    /// One per other server, by ascending id.
    links: Vec<Link>,
    phase: Phase,
    establish_deadline: Duration,
    /// Armed by the shutdown: the latest exit.
    linger_until: Option<Duration>,
    replay: ReplayLog,
    /// Per-server count of completed supersteps received (EOS superstep + 1):
    /// the `resume_from` of every hello this endpoint sends, and the floor
    /// of every stream it adopts.
    recv_cursor: Vec<u32>,
    /// The run aborted, or the endpoint leaves without finishing it: no
    /// linger, goodbyes to everyone.
    leaving: bool,
    /// The most recent failed handshake of any link, for the establish error.
    last_refusal: Option<String>,
    /// For the one frame the fabric itself encodes (the goodbye).
    pool: BufferPool,
    peers_lost: Counter,
    reconnects: Counter,
    replayed_frames: Counter,
}

impl Fabric {
    /// The fabric of server `id` of the cluster whose peer table is `addrs`
    /// (one address per server, by id), created at time zero with every link
    /// down and `establish_timeout` to bring each up once.
    pub fn new(
        id: ServerId,
        addrs: Vec<SocketAddr>,
        config: ResilienceConfig,
        establish_timeout: Duration,
        pool: BufferPool,
    ) -> Self {
        let num_servers = addrs.len() as u32;
        let peers = (0..num_servers).filter(|&peer| peer != id);
        let links = peers.map(|peer| {
            let down = down_until(&config, id, peer, Duration::ZERO, establish_timeout);
            Link::new(peer, down)
        });
        let registry = global_counters();
        Fabric {
            id,
            num_servers,
            addrs,
            links: links.collect(),
            phase: Phase::Establishing,
            establish_deadline: establish_timeout,
            linger_until: None,
            replay: ReplayLog::new(num_servers, id),
            recv_cursor: vec![0; num_servers as usize],
            leaving: false,
            last_refusal: None,
            config,
            pool,
            peers_lost: registry.counter("poll.peers_lost"),
            reconnects: registry.counter("fabric.reconnects"),
            replayed_frames: registry.counter("fabric.replayed_frames"),
        }
    }

    /// The retention log (tests assert it drains).
    pub fn replay(&self) -> &ReplayLog {
        &self.replay
    }

    /// The earliest instant at which an [`Event::Tick`] would do something,
    /// if any. Ticking more often is harmless. An exit made due since the
    /// last tick — by a goodbye, or by a dial refused inside that very tick —
    /// is due now: `Some(Duration::ZERO)`.
    pub fn next_timer(&self) -> Option<Duration> {
        let links = self.links.iter().filter_map(|link| match &link.state {
            // (A link this endpoint dials.)
            LinkState::Down(down) if !down.dialing && link.peer < self.id => {
                Some(down.deadline.min(down.next_retry))
            }
            LinkState::Down(down) => Some(down.deadline),
            _ => None,
        });
        let establishing = self.phase == Phase::Establishing;
        let deadlines = establishing.then_some(self.establish_deadline);
        let exit = self.may_exit().then_some(Duration::ZERO);
        let timers = links.chain(deadlines).chain(self.linger_until).chain(exit);
        timers.min().filter(|_| self.phase != Phase::Exited)
    }

    /// Advance the machine by one event at time `now`, appending what the
    /// driver must do to `out`.
    pub fn step(&mut self, now: Duration, event: Event<'_>, out: &mut Vec<Action>) {
        if self.phase == Phase::Exited {
            return;
        }
        match event {
            Event::Command(command) => self.command(now, command, out),
            Event::Hello(conn, origin, bytes) => match self.vet(conn, &bytes) {
                Ok(hello) => self.link_up(conn, hello, out),
                Err(refusal) => {
                    out.push(Action::Close(conn));
                    if let Refusal::Rejected { sender, why } = refusal {
                        let text = format!("{origin}: {why}");
                        if let Some(idx) = sender.and_then(|s| self.index_of(s)) {
                            self.links[idx].refusal = Some(text.clone());
                        }
                        self.last_refusal = Some(text);
                    }
                    if let Conn::Dialed(peer) = conn {
                        self.dial_over(now, peer);
                    }
                }
            },
            Event::DialFailed(peer, why) => {
                self.last_refusal = Some(why);
                self.dial_over(now, peer);
            }
            Event::DialRefused(peer, why) => {
                // Refused after its goodbye, a lower-id peer has left: it
                // leaves only once our goodbye arrived (`docs/WIRE.md` §9.3).
                let idx = self.index_of(peer);
                match idx.filter(|&idx| self.links[idx].done) {
                    Some(idx) => self.close(idx, out),
                    None => {
                        self.last_refusal = Some(why);
                        self.dial_over(now, peer);
                    }
                }
            }
            Event::Frame(peer, frame) => self.frame(now, peer, frame, out),
            Event::StreamEnd(peer) => {
                if let Some(idx) = self.index_of(peer) {
                    self.enter_down(now, idx, out);
                }
            }
            Event::Tick => self.tick(now, out),
        }
        // All at once: each peer has sent what it retains before any can be
        // acknowledged past where this endpoint resumes.
        let all_up = self.links.iter().all(|l| matches!(l.state, LinkState::Up));
        if self.phase == Phase::Establishing && all_up {
            self.start(out);
        }
    }

    /// Establishment is over once a new process has a state to resume from,
    /// at exactly the lowest cursor a peer offered (every server's state
    /// there is the same), or the lowest is 0, and every peer that offered a
    /// cursor has been heard from. Every receive cursor and link floor
    /// starts at the restored cursor; what the links held is received.
    fn start(&mut self, out: &mut Vec<Action>) {
        // A peer that dialed us adopts the stream only when our reply
        // arrives. Until then its replay to us has no start, and a superstep
        // we ran could let the others acknowledge, and it trim, what we need.
        if self.links.iter().any(|l| l.offer.0 > 0 && !l.heard) {
            return;
        }
        let lowest = self.links.iter().map(|l| l.offer.0).min().unwrap_or(0);
        let at = |state: &WireMessage| encoded_cursor(state) == Some(lowest);
        let mut states = self.links.iter_mut().filter_map(|l| l.offer.1.take());
        let restore = match states.find(at) {
            None if lowest > 0 => return,
            restore => restore,
        };
        self.phase = Phase::Running;
        if let Some(state) = restore {
            // (Both are still 0: the links held every marker.)
            self.recv_cursor.fill(lowest);
            self.links.iter_mut().for_each(|l| l.floor = lowest);
            out.push(Action::Restore(state));
        }
        for idx in 0..self.links.len() {
            for frame in std::mem::take(&mut self.links[idx].held) {
                self.receive(idx, frame, out);
            }
        }
        out.push(Action::Established);
    }

    /// Links are kept by ascending peer id with this endpoint's own left out.
    fn index_of(&self, peer: ServerId) -> Option<usize> {
        let known = peer != self.id && peer < self.num_servers;
        known.then_some((peer - u32::from(peer > self.id)) as usize)
    }

    fn command(&mut self, now: Duration, command: Command, out: &mut Vec<Action>) {
        let batch = match command {
            Command::Broadcast(superstep, batch) => {
                // Retain before sending: a frame is replayable the moment any
                // peer could have missed it.
                self.replay.append(superstep, Arc::clone(&batch));
                batch
            }
            Command::Abort(batch) => {
                self.leaving = true;
                batch
            }
            // (On a link that went down since the request, it is dropped
            // with the stream: the next stream asks again.)
            Command::State(peer, batch) => return out.push(Action::Send(peer, batch)),
            Command::Leave => {
                self.leaving = true;
                self.command(now, Command::Shutdown, out);
                return;
            }
            Command::Shutdown => {
                self.phase = Phase::Stopping;
                self.linger_until = Some(now + self.config.reconnect_deadline);
                for idx in 0..self.links.len() {
                    let link = &self.links[idx];
                    if matches!(link.state, LinkState::Up) && self.says_goodbye_first(link) {
                        out.push(Action::Send(link.peer, self.goodbye()));
                    }
                }
                return;
            }
        };
        self.send_to_all(&batch, out);
    }

    fn send_to_all(&self, batch: &SharedBatch, out: &mut Vec<Action>) {
        let up = |l: &&Link| matches!(l.state, LinkState::Up);
        let sends = self.links.iter().filter(up);
        out.extend(sends.map(|l| Action::Send(l.peer, Arc::clone(batch))));
    }

    /// Judge a hello (`docs/WIRE.md` §2): the reply of the peer we dialed, or
    /// the opening of a peer dialing in — which must have a higher id (the
    /// dial direction is fixed), must not be terminally gone, and during
    /// establishment must not already hold a live link.
    fn vet(&self, conn: Conn, bytes: &HelloBytes) -> Result<ResumeHello, Refusal> {
        let rejected = |sender, why| Refusal::Rejected { sender, why };
        let dialed = match conn {
            Conn::Dialed(peer) => Some(peer),
            Conn::Accepted(_) => None,
        };
        let hello = ResumeHello::decode(bytes).map_err(|why| match dialed {
            Some(_) => rejected(dialed, why),
            None => Refusal::Stray,
        })?;
        let sender = Some(hello.sender);
        hello
            .check(self.num_servers, self.id, dialed)
            .map_err(|why| rejected(sender, why))?;
        if dialed.is_none() && hello.sender < self.id {
            let why = "dialed against the fixed direction (higher ids dial lower ones)";
            return Err(rejected(sender, format!("server {} {why}", hello.sender)));
        }
        let link = &self.links[self.index_of(hello.sender).expect("checked: a peer id")];
        match link.state {
            LinkState::Gone => Err(Refusal::Stray),
            LinkState::Up if self.phase == Phase::Establishing => {
                let why = format!("duplicate hello from server {}", hello.sender);
                Err(rejected(None, why))
            }
            _ => Ok(hello),
        }
    }

    /// Adopt a vetted connection as `hello.sender`'s live stream: answer (if
    /// it dialed in) and replay what it still needs, our markers among it.
    /// What an older stream still held is dropped with it, and the new one
    /// starts at the cursor our hello announced.
    ///
    /// A hello for superstep 0 from a peer whose supersteps we received is a
    /// new process of that peer (or, rarely, a live one cut before our first
    /// marker reached it): it gets everything retained, and the worker is
    /// asked for our state (`docs/WIRE.md` §9.4). While establishing, the
    /// cursor a hello announces is the peer's offer.
    fn link_up(&mut self, conn: Conn, hello: ResumeHello, out: &mut Vec<Action>) {
        let (peer, asked) = (hello.sender, hello.resume_from);
        let idx = self.index_of(peer).expect("vetted: a peer id");
        let new_process = asked == 0 && self.recv_cursor[peer as usize] > 0;
        let from = if new_process {
            self.replay.floor()
        } else {
            asked
        };
        let served_from = if new_process { from } else { 0 };
        let Some(batches) = self.replay.replay_from(peer, from) else {
            // A live peer wants frames trimmed after its own ack: terminal.
            let floor = self.replay.floor();
            let why = format!(
                "peer asked to resume from superstep {asked} but frames below {floor} \
                 were trimmed after acknowledgement"
            );
            out.push(Action::Close(conn));
            return self.declare_gone(idx, PlaneError::Protocol(why), out);
        };
        if let Conn::Accepted(_) = conn {
            let reply = ResumeHello {
                cluster_size: self.num_servers,
                sender: self.id,
                resume_from: self.recv_cursor[peer as usize],
            };
            out.push(Action::Reply(conn, reply.encode()));
        }
        out.push(Action::Adopt(conn, peer));
        if self.links[idx].ever_up {
            self.reconnects.incr();
        }
        self.links[idx] = Link {
            ever_up: true,
            floor: self.recv_cursor[peer as usize],
            served_from,
            offer: (asked, None),
            ..Link::new(peer, LinkState::Up)
        };
        if new_process {
            out.push(Action::Deliver(InboxEvent::StateRequest(peer)));
        }
        for batch in batches {
            self.replayed_frames.add(count_frames(&batch));
            out.push(Action::Send(peer, batch));
        }
        if self.phase == Phase::Stopping && self.says_goodbye_first(&self.links[idx]) {
            // So may our goodbye; a lower-id peer repeats its own first.
            out.push(Action::Send(peer, self.goodbye()));
        }
    }

    /// Goodbyes go in a fixed order on each link (`docs/WIRE.md` §9.3): the
    /// lower id says it at shutdown, the higher id answers once the lower
    /// one's has arrived — so its goodbye proves the lower id has ours. An
    /// endpoint that is leaving says goodbye to everyone at once.
    fn says_goodbye_first(&self, link: &Link) -> bool {
        link.peer > self.id || link.done || self.leaving
    }

    fn goodbye(&self) -> SharedBatch {
        let mut buf = self.pool.checkout();
        Frame::Goodbye { sender: self.id }.encode(&mut buf);
        Arc::new(buf)
    }

    /// May a stopping endpoint leave this peer behind? A gone peer, yes; a
    /// peer that left after saying goodbye, yes; a live one once its goodbye
    /// is in — a higher id's proves it has ours, and a lower id's was
    /// answered on this stream the moment it arrived.
    fn settled(link: &Link) -> bool {
        match link.state {
            LinkState::Gone | LinkState::Closed => true,
            LinkState::Up => link.done,
            LinkState::Down(_) => false,
        }
    }

    /// A dial ended without a link: back off before the next.
    fn dial_over(&mut self, now: Duration, peer: ServerId) {
        let state = self.index_of(peer).map(|idx| &mut self.links[idx].state);
        if let Some(LinkState::Down(down)) = state {
            down.dialing = false;
            down.next_retry = now + down.backoff.next_delay();
        }
    }

    /// A goodbye marks the peer done and releases what was retained for it,
    /// a state is kept as an offer while establishing (and dropped after),
    /// an abort goes to the worker at once. A frame claiming another sender
    /// poisons the stream. Messages and markers wait while establishing.
    fn frame(&mut self, now: Duration, peer: ServerId, frame: Frame, out: &mut Vec<Action>) {
        let Some(idx) = self.index_of(peer) else {
            return;
        };
        if !matches!(self.links[idx].state, LinkState::Up) {
            return;
        }
        if frame.sender() != peer {
            out.push(Action::Reset(peer));
            return self.enter_down(now, idx, out);
        }
        let link = &mut self.links[idx];
        link.heard = true;
        match frame {
            Frame::Goodbye { .. } => {
                link.done = true;
                self.replay.forget(peer);
                if self.phase == Phase::Stopping && peer < self.id && !self.leaving {
                    out.push(Action::Send(peer, self.goodbye()));
                }
            }
            Frame::State { state, .. } => {
                link.offer.1 = (self.phase == Phase::Establishing).then_some(state);
            }
            Frame::Abort { .. } => out.push(Action::Deliver(InboxEvent::Aborted(peer))),
            _ if self.phase == Phase::Establishing => link.held.push(frame),
            _ => self.receive(idx, frame, out),
        }
    }

    /// A message or marker of an up link. Below the stream's floor they are
    /// replayed duplicates and end here. Messages are held until the peer's
    /// end-of-superstep marker, which acknowledges the superstep before it and
    /// delivers them as one superstep — unless the stream ended it already or
    /// they belong to another: the peer is lost for that.
    ///
    /// A new process that runs a superstep below where our replay to it
    /// began resumed below what any live peer holds — more than one server
    /// died at once — and is declared gone (`docs/WIRE.md` §9.4).
    fn receive(&mut self, idx: usize, frame: Frame, out: &mut Vec<Action>) {
        let link = &mut self.links[idx];
        match frame {
            Frame::Message { superstep, .. } | Frame::EndOfSuperstep { superstep, .. }
                if superstep < link.served_from =>
            {
                let (peer, from) = (link.peer, link.served_from);
                let why = format!(
                    "new process of server {peer} runs superstep {superstep}, but this \
                     server's frames below {from} were trimmed after acknowledgement: \
                     no live peer holds what it resumed from (more than one server died \
                     at once)"
                );
                self.declare_gone(idx, PlaneError::Protocol(why), out);
            }
            Frame::Message { superstep, .. } | Frame::EndOfSuperstep { superstep, .. }
                if superstep < link.floor => {}
            Frame::EndOfSuperstep { superstep, .. } => {
                let peer = link.peer;
                let ours = |f| matches!(f, &Frame::Message { superstep: s, .. } if s == superstep);
                if superstep < self.recv_cursor[peer as usize] || !link.held.iter().all(ours) {
                    let why = format!("server {peer} ended superstep {superstep} out of order");
                    return self.declare_gone(idx, PlaneError::Protocol(why), out);
                }
                self.recv_cursor[peer as usize] = superstep.saturating_add(1);
                if let Some(applied) = superstep.checked_sub(1) {
                    self.replay.ack(peer, applied);
                }
                let wires = link.held.drain(..).filter_map(Frame::into_wire).collect();
                let ended = InboxEvent::Superstep {
                    sender: peer,
                    superstep,
                    wires,
                };
                out.push(Action::Deliver(ended));
            }
            _ => link.held.push(frame),
        }
    }

    /// A live stream ended, and with it the superstep it held: a link that is
    /// not up delivers nothing, and adopting the next stream discards it.
    /// After a higher id's goodbye that is a clean exit — it had ours — and
    /// [`Self::close`]s the link. Otherwise it is a *cut*, not a loss: the
    /// recovery clock starts, the peer re-sends the held superstep whole on
    /// its next stream, and only the reconnect deadline makes it terminal. A
    /// lower id that said goodbye may be waiting for ours, lost in the cut,
    /// or may have left with it: the redial tells, refused or answered.
    fn enter_down(&mut self, now: Duration, idx: usize, out: &mut Vec<Action>) {
        let link = &mut self.links[idx];
        if !matches!(link.state, LinkState::Up) {
            return;
        }
        if link.done && link.peer > self.id {
            self.close(idx, out);
        } else {
            let patience = self.config.reconnect_deadline;
            link.state = down_until(&self.config, self.id, link.peer, now, patience);
        }
    }

    /// The peer left after its goodbye: the collector learns the (benign)
    /// end of stream, nothing is recovered.
    fn close(&mut self, idx: usize, out: &mut Vec<Action>) {
        let link = &mut self.links[idx];
        link.state = LinkState::Closed;
        let lost = InboxEvent::PeerLost(link.peer, PlaneError::Disconnected);
        out.push(Action::Deliver(lost));
    }

    /// Give up on a peer for good: it stops gating retention (its markers can
    /// never arrive) and the collector learns the terminal `error`.
    fn declare_gone(&mut self, idx: usize, error: PlaneError, out: &mut Vec<Action>) {
        let (id, peer) = (self.id, self.links[idx].peer);
        self.links[idx].state = LinkState::Gone;
        self.replay.forget(peer);
        self.peers_lost.incr();
        out.push(Action::Reset(peer));
        if self.phase == Phase::Establishing {
            self.phase = Phase::Exited;
            let message = format!("server {id}: lost server {peer} while establishing: {error}");
            out.push(Action::EstablishFailed(false, message));
        } else {
            out.push(Action::Deliver(InboxEvent::PeerLost(peer, error)));
        }
    }

    /// A stopping endpoint is free to go: it is leaving, or it has served
    /// every peer until that peer was done with it ([`Self::settled`]).
    fn may_exit(&self) -> bool {
        self.phase == Phase::Stopping && (self.leaving || self.links.iter().all(Self::settled))
    }

    fn tick(&mut self, now: Duration, out: &mut Vec<Action>) {
        // The exit is decided here, not at the goodbye that makes it due: the
        // loop steps all one read returned, a goodbye and the stream end
        // behind it, before its next tick (`docs/WIRE.md` §9.3). The linger
        // (armed by `Shutdown` only) is bounded by the reconnect deadline.
        let late = self.linger_until.is_some_and(|until| now >= until);
        if self.may_exit() || late {
            self.phase = Phase::Exited;
            return out.push(Action::Exit);
        }
        if self.phase == Phase::Establishing && now >= self.establish_deadline {
            return self.establish_timed_out(out);
        }
        for idx in 0..self.links.len() {
            if self.phase == Phase::Exited {
                return; // a loss while establishing ends the fabric
            }
            let link = &mut self.links[idx];
            let LinkState::Down(down) = &mut link.state else {
                continue;
            };
            if now >= down.deadline {
                let error = match link.refusal.take() {
                    Some(why) => PlaneError::Protocol(format!("server {}: {why}", link.peer)),
                    None => PlaneError::Disconnected,
                };
                self.declare_gone(idx, error, out);
            } else if !down.dialing && now >= down.next_retry && link.peer < self.id {
                let peer = link.peer;
                down.dialing = true;
                let hello = ResumeHello {
                    cluster_size: self.num_servers,
                    sender: self.id,
                    resume_from: self.recv_cursor[peer as usize],
                };
                let at = self.addrs[peer as usize];
                out.push(Action::Dial(peer, at, hello.encode()));
            }
        }
    }

    /// A refused handshake is never fatal by itself, but it is usually *why*
    /// the deadline expires (mismatched `--servers`, a slipped `--peers`
    /// order), so the error carries the last one.
    fn establish_timed_out(&mut self, out: &mut Vec<Action>) {
        // Links never up are named apart from links that went down again
        // (the peer's own establishment may have failed first).
        let down = |ever_up| {
            let down = move |l: &&Link| l.ever_up == ever_up && !matches!(l.state, LinkState::Up);
            self.links.iter().filter(down).map(|l| l.peer)
        };
        let (dial, wait): (Vec<ServerId>, Vec<ServerId>) = down(false).partition(|&p| p < self.id);
        let again: Vec<ServerId> = down(true).collect();
        let mut why = String::new();
        if !again.is_empty() {
            why += &format!("; links to servers {again:?} went down again");
        } else if dial.is_empty() && wait.is_empty() {
            why += "; every link up, still waiting for a peer's first frame or the state at \
                    the lowest cursor announced";
        }
        if let Some(refusal) = &self.last_refusal {
            why += &format!("; last refused handshake: {refusal}");
        }
        let message = format!(
            "server {}: timed out dialing servers {dial:?}, waiting for servers {wait:?} \
             to dial in{why}",
            self.id
        );
        self.phase = Phase::Exited;
        out.push(Action::EstablishFailed(true, message));
    }
}

/// A link going down at `now` with `patience` to come back: first dial at
/// once, then backoff.
fn down_until(
    config: &ResilienceConfig,
    own: ServerId,
    peer: ServerId,
    now: Duration,
    patience: Duration,
) -> LinkState {
    LinkState::Down(Down {
        deadline: now + patience,
        next_retry: now,
        backoff: backoff(config, own, peer),
        dialing: false,
    })
}

/// Seeded exponential backoff per link, so a cluster's redial storms do not
/// synchronise and chaos schedules reproduce.
fn backoff(config: &ResilienceConfig, own: ServerId, peer: ServerId) -> ReconnectBackoff {
    let cap = RETRY_BACKOFF_CAP.min(config.reconnect_deadline);
    ReconnectBackoff::seeded_for(RETRY_BACKOFF, cap, own, peer)
}

/// Exponential redial backoff with deterministic, seeded jitter.
///
/// Attempt `k` waits a uniform-ish draw from `[d/2, d]` where
/// `d = min(base · 2^k, cap)` — exponential growth keeps a dead peer from
/// being hammered, the jitter keeps a whole cluster's redial storms from
/// synchronizing, and the deterministic (xorshift64, seeded from the two
/// server ids) draw keeps chaos schedules reproducible. The overall redial
/// window is still bounded by the caller's reconnect deadline.
#[derive(Debug, Clone)]
struct ReconnectBackoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl ReconnectBackoff {
    /// Exponent past which `base · 2^k` is always past any sane cap;
    /// growth stops here to avoid overflow.
    const MAX_SHIFT: u32 = 20;

    /// The canonical schedule for the link `own → peer`, starting at `base`
    /// and capped at `cap`: every link in the cluster jitters differently,
    /// but the same link always jitters the same way.
    fn seeded_for(base: Duration, cap: Duration, own: ServerId, peer: ServerId) -> Self {
        let seed = 0x9e37_79b9_7f4a_7c15u64
            ^ ((own as u64) << 32)
            ^ (peer as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        ReconnectBackoff {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base).max(Duration::from_millis(1)),
            attempt: 0,
            rng: seed | 1, // xorshift64 must not start at 0
        }
    }

    /// The delay before the next redial attempt (advances the schedule).
    fn next_delay(&mut self) -> Duration {
        let shift = self.attempt.min(Self::MAX_SHIFT);
        let uncapped = self
            .base
            .checked_mul(1u32 << shift)
            .unwrap_or(Duration::MAX);
        let d = uncapped.min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let half = d / 2;
        let jitter_nanos = (half.as_nanos() as u64).saturating_add(1);
        half + Duration::from_nanos(self.rng % jitter_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SuperstepCollector;
    use std::collections::VecDeque;

    /// Server 0 of 3 with both links up, and a worker's collector behind it:
    /// what `Fabric::step` delivers is all `collect` sees.
    struct Endpoint {
        fabric: Fabric,
        inbox: VecDeque<InboxEvent>,
        collector: SuperstepCollector,
    }

    impl Endpoint {
        fn new() -> Endpoint {
            let addrs: Vec<SocketAddr> = (0..3)
                .map(|id| SocketAddr::from(([127, 0, 0, 1], 4750 + id)))
                .collect();
            let config = ResilienceConfig::default();
            let timeout = Duration::from_secs(10);
            let fabric = Fabric::new(0, addrs, config, timeout, BufferPool::new());
            let (inbox, collector) = (VecDeque::new(), SuperstepCollector::new());
            let mut endpoint = Endpoint {
                fabric,
                inbox,
                collector,
            };
            endpoint.dials_in(1, 0);
            endpoint.dials_in(2, 0);
            endpoint
        }

        /// Step the fabric; deliveries go to the inbox, the other actions
        /// are returned.
        fn step(&mut self, event: Event<'_>) -> Vec<Action> {
            let mut out = Vec::new();
            self.fabric.step(Duration::ZERO, event, &mut out);
            let (delivered, others): (Vec<_>, Vec<_>) =
                (out.into_iter()).partition(|action| matches!(action, Action::Deliver(_)));
            for action in delivered {
                if let Action::Deliver(event) = action {
                    self.inbox.push_back(event);
                }
            }
            others
        }

        /// `peer` dials in asking to resume from `resume_from` and its stream
        /// is adopted (a live peer that redials after this endpoint heard
        /// from it asks for more than 0, or it would be taken for a new
        /// process); the actions, as [`Self::step`] returns them.
        fn dials_in(&mut self, peer: ServerId, resume_from: u32) -> Vec<Action> {
            let (cluster_size, sender) = (3, peer);
            let hello = ResumeHello {
                cluster_size,
                sender,
                resume_from,
            };
            self.step(Event::Hello(Conn::Accepted(0), "test", hello.encode()))
        }

        /// The stream from `peer` is cut, and `peer` dials back in.
        fn cut(&mut self, peer: ServerId) {
            self.step(Event::StreamEnd(peer));
            self.dials_in(peer, 1);
        }

        fn msg(&mut self, sender: ServerId, superstep: u32, byte: u8) {
            let wire = vec![byte].into();
            let frame = Frame::Message {
                sender,
                superstep,
                wire,
            };
            self.step(Event::Frame(sender, frame));
        }

        fn eos(&mut self, sender: ServerId, superstep: u32) {
            let frame = Frame::EndOfSuperstep { sender, superstep };
            self.step(Event::Frame(sender, frame));
        }

        /// `collect(superstep)` over what was delivered, as the payloads'
        /// bytes.
        fn collect(&mut self, superstep: u32) -> Result<Vec<u8>, PlaneError> {
            let inbox = &mut self.inbox;
            let next = || (inbox.pop_front()).ok_or(PlaneError::Protocol("inbox empty".into()));
            let wires = self.collector.collect(superstep, &[1, 2], next)?;
            Ok(wires.iter().map(|wire| wire[0]).collect())
        }
    }

    /// A superstep torn by a cut never reaches the collector — not even
    /// stashed for a later collect: the peer's full re-send on the next
    /// stream is what counts, once.
    #[test]
    fn a_torn_superstep_is_dropped_with_its_stream() {
        let mut e = Endpoint::new();
        e.msg(1, 0, 10);
        e.eos(1, 0);
        e.msg(2, 0, 20);
        e.eos(2, 0);
        e.msg(1, 1, 99); // superstep 1, torn by the cut below
        assert_eq!(e.collect(0), Ok(vec![10, 20]));
        e.cut(1);
        e.msg(1, 1, 42);
        e.eos(1, 1);
        e.eos(2, 1);
        assert_eq!(e.collect(1), Ok(vec![42]));
    }

    /// A cut inside the superstep being collected takes what the torn stream
    /// had sent of it along, so the full re-send is not doubled.
    #[test]
    fn a_cut_inside_the_collected_superstep_does_not_double_it() {
        let mut e = Endpoint::new();
        e.msg(1, 0, 9);
        e.cut(1);
        e.msg(1, 0, 9); // the full re-send of superstep 0
        e.eos(1, 0);
        e.msg(2, 0, 20);
        e.eos(2, 0);
        assert_eq!(e.collect(0), Ok(vec![9, 20]));
    }

    /// A restarted peer re-executing from an older checkpoint re-sends
    /// supersteps this endpoint already delivered: below the cursor it
    /// announced when it adopted the stream they are dropped — no double
    /// apply, no second marker.
    #[test]
    fn replays_below_the_announced_cursor_are_dropped() {
        let mut e = Endpoint::new();
        e.msg(1, 0, 7);
        e.eos(1, 0);
        e.eos(2, 0);
        assert_eq!(e.collect(0), Ok(vec![7]));
        e.cut(1);
        e.msg(1, 0, 7);
        e.eos(1, 0);
        e.msg(1, 1, 8);
        e.eos(1, 1);
        e.eos(2, 1);
        assert_eq!(e.collect(1), Ok(vec![8]));
    }

    /// A peer that completed the superstep before the cut keeps its
    /// contribution, once, however much of it the new stream replays.
    #[test]
    fn a_superstep_completed_before_the_cut_counts_once() {
        let mut e = Endpoint::new();
        e.msg(1, 0, 5);
        e.eos(1, 0);
        e.cut(1);
        e.msg(1, 0, 5);
        e.eos(1, 0);
        e.msg(2, 0, 6);
        e.eos(2, 0);
        assert_eq!(e.collect(0), Ok(vec![5, 6]));
    }

    /// Another peer's resume changes nothing for a peer whose stream was
    /// never cut: its past-superstep frame is still a protocol violation.
    #[test]
    fn past_superstep_strictness_survives_unrelated_resumes() {
        let mut e = Endpoint::new();
        e.eos(1, 0);
        e.eos(2, 0);
        assert_eq!(e.collect(0), Ok(vec![]));
        e.cut(2);
        e.msg(1, 0, 1);
        e.eos(1, 1);
        assert!(matches!(e.collect(1), Err(PlaneError::Protocol(_))));
    }

    /// The floor is the cursor announced at adoption, not the live one: on
    /// the stream a fresh start adopted, a frame of a superstep already
    /// collected is still judged, as the violation it is — the peer is lost
    /// for it, and the collect that needs it fails naming it.
    #[test]
    fn a_past_superstep_frame_on_a_fresh_stream_is_a_protocol_error() {
        let mut e = Endpoint::new();
        e.msg(1, 0, 1);
        e.eos(1, 0);
        e.eos(2, 0);
        assert_eq!(e.collect(0), Ok(vec![1]));
        e.msg(1, 0, 1);
        e.eos(1, 1);
        let past = |m: &str| m.contains("server 1 ended superstep 1 out of order");
        assert!(matches!(e.collect(1), Err(PlaneError::Protocol(m)) if past(&m)));
    }

    /// A marker the stream has already passed is never a second delivery:
    /// the peer is lost for it.
    #[test]
    fn a_repeated_marker_is_a_protocol_error() {
        let mut e = Endpoint::new();
        e.eos(1, 0);
        e.eos(1, 0);
        e.eos(2, 0);
        let again = |m: &str| m.contains("server 1 ended superstep 0 out of order");
        assert!(matches!(e.collect(0), Ok(ref w) if w.is_empty()));
        assert!(matches!(e.collect(1), Err(PlaneError::Protocol(m)) if again(&m)));
    }

    /// Server 0 is the lower id of both its links: it says goodbye at
    /// shutdown and exits only once both peers have answered, each goodbye
    /// a `Send` like any frame.
    #[test]
    fn a_finished_endpoint_exits_once_every_peer_has_answered_its_goodbye() {
        let mut e = Endpoint::new();
        let goodbye_to = |actions: &[Action]| -> Vec<ServerId> {
            let goodbye = |batch: &SharedBatch| {
                let mut decoder = crate::frame::FrameDecoder::new();
                decoder.push(batch);
                matches!(decoder.next_frame(), Ok(Some(Frame::Goodbye { sender: 0 })))
            };
            let sends = actions.iter().filter_map(|action| match action {
                Action::Send(peer, batch) if goodbye(batch) => Some(*peer),
                _ => None,
            });
            sends.collect()
        };
        let exits = |actions: &[Action]| actions.iter().any(|a| matches!(a, Action::Exit));
        assert_eq!(
            goodbye_to(&e.step(Event::Command(Command::Shutdown))),
            [1, 2]
        );
        assert!(!exits(&e.step(Event::Tick)));
        e.step(Event::Frame(1, Frame::Goodbye { sender: 1 }));
        assert!(!exits(&e.step(Event::Tick)), "server 2 has not answered");
        e.step(Event::Frame(2, Frame::Goodbye { sender: 2 }));
        assert!(exits(&e.step(Event::Tick)));
    }

    /// Server 1 of 2 whose lower peer said goodbye and then its stream
    /// ended: the link is down and done. After its own shutdown, the tick's
    /// redial is refused — the peer has left — which settles the link inside
    /// that tick. The exit that makes due is announced as due now, not at
    /// the linger deadline.
    #[test]
    fn an_exit_made_due_inside_a_tick_is_due_now() {
        let addrs: Vec<SocketAddr> = (0..2)
            .map(|id| SocketAddr::from(([127, 0, 0, 1], 4760 + id)))
            .collect();
        let (config, timeout) = (ResilienceConfig::default(), Duration::from_secs(10));
        let mut fabric = Fabric::new(1, addrs, config, timeout, BufferPool::new());
        let now = Duration::from_secs(1);
        let mut step = |event: Event<'_>| {
            let mut out = Vec::new();
            fabric.step(now, event, &mut out);
            (out, fabric.next_timer())
        };
        let dials = |out: &[Action]| out.iter().any(|a| matches!(a, Action::Dial(0, ..)));
        assert!(dials(&step(Event::Tick).0));
        let hello = ResumeHello {
            cluster_size: 2,
            sender: 0,
            resume_from: 0,
        };
        let (out, _) = step(Event::Hello(Conn::Dialed(0), "test", hello.encode()));
        assert!(out.iter().any(|a| matches!(a, Action::Established)));
        step(Event::Frame(0, Frame::Goodbye { sender: 0 }));
        step(Event::StreamEnd(0));
        step(Event::Command(Command::Shutdown));
        let (out, _) = step(Event::Tick);
        assert!(dials(&out), "the down link is redialed");
        let (_, next) = step(Event::DialRefused(0, "refused".into()));
        assert!(
            next.is_some_and(|at| at <= now),
            "exit due at {next:?}, not now"
        );
        let (out, _) = step(Event::Tick);
        assert!(out.iter().any(|a| matches!(a, Action::Exit)));
    }

    /// The tags of the frames in a run of encoded frame bytes.
    fn tags(mut bytes: &[u8]) -> Vec<u8> {
        let mut tags = Vec::new();
        while bytes.len() > 4 {
            let body = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            tags.push(bytes[4]);
            bytes = &bytes[4 + body..];
        }
        tags
    }

    /// Every peer's marker of `s + 1` trims this endpoint's log through `s`
    /// — one peer's alone trims nothing — and every peer's goodbye empties
    /// it. Through broadcasts, a cut and its re-adoption, and the shutdown,
    /// nothing the fabric sends is a tag-4 frame: there is no ack frame.
    #[test]
    fn a_marker_acknowledges_the_superstep_before_it_and_a_goodbye_releases_the_log() {
        let mut e = Endpoint::new();
        let mut sent = Vec::new();
        for superstep in 0..3 {
            let end = Frame::EndOfSuperstep {
                sender: 0,
                superstep,
            };
            sent.extend(e.step(Event::Command(Command::Broadcast(superstep, encoded(&end)))));
        }
        let floor = |e: &Endpoint| e.fabric.replay().floor();
        for peer in [1, 2] {
            e.eos(peer, 0);
        }
        assert_eq!(floor(&e), 0, "a marker of superstep 0 acknowledges nothing");
        e.eos(1, 1);
        assert_eq!(floor(&e), 0, "server 2 has not applied superstep 0 yet");
        e.eos(2, 1);
        assert_eq!(floor(&e), 1, "every peer applied superstep 0");
        for (peer, resume_from) in [(1, 1), (2, 2)] {
            sent.extend(e.step(Event::StreamEnd(peer)));
            sent.extend(e.dials_in(peer, resume_from));
        }
        for peer in [1, 2] {
            e.eos(peer, 2);
        }
        assert_eq!(floor(&e), 2);
        assert!(
            e.fabric.replay().bytes_retained() > 0,
            "superstep 2 is retained"
        );
        sent.extend(e.step(Event::Command(Command::Shutdown)));
        sent.extend(e.step(Event::Frame(1, Frame::Goodbye { sender: 1 })));
        assert!(
            e.fabric.replay().bytes_retained() > 0,
            "server 2 may still need it"
        );
        sent.extend(e.step(Event::Frame(2, Frame::Goodbye { sender: 2 })));
        assert_eq!(e.fabric.replay().bytes_retained(), 0);
        let batches = sent.iter().filter_map(|action| match action {
            Action::Send(_, batch) => Some(batch),
            _ => None,
        });
        let tags: Vec<u8> = batches.flat_map(|batch| tags(batch)).collect();
        assert!(
            tags.contains(&2) && tags.contains(&5),
            "markers and goodbyes: {tags:?}"
        );
        assert!(!tags.contains(&4), "a tag-4 frame was sent: {tags:?}");
    }

    fn state_frame(sender: ServerId, to: ServerId, cursor: u32) -> Frame {
        let state = crate::checkpoint::encode_state(to, cursor, &[], &[]).into();
        Frame::State { sender, state }
    }

    fn encoded(frame: &Frame) -> SharedBatch {
        let mut buf = BufferPool::new().checkout();
        frame.encode(&mut buf);
        Arc::new(buf)
    }

    /// What the actions send to `peer`, as frames.
    fn sent_to(actions: &[Action], peer: ServerId) -> Vec<Frame> {
        let mut decoder = crate::frame::FrameDecoder::new();
        for action in actions {
            if let Action::Send(to, batch) = action {
                if *to == peer {
                    decoder.push(batch);
                }
            }
        }
        std::iter::from_fn(|| decoder.next_frame().unwrap()).collect()
    }

    /// A hello for 0 from a peer whose supersteps this endpoint has received
    /// is a new process: it gets everything retained, and the worker is
    /// asked for our state, which goes out when it answers.
    #[test]
    fn a_new_process_gets_the_replay_and_a_state_request() {
        let mut e = Endpoint::new();
        let batch = encoded(&Frame::EndOfSuperstep {
            sender: 0,
            superstep: 0,
        });
        e.step(Event::Command(Command::Broadcast(0, Arc::clone(&batch))));
        e.eos(1, 0);
        e.step(Event::StreamEnd(1));
        let hello = ResumeHello {
            cluster_size: 3,
            sender: 1,
            resume_from: 0,
        };
        let adopted = e.step(Event::Hello(Conn::Accepted(0), "test", hello.encode()));
        let frames = sent_to(&adopted, 1);
        assert!(matches!(
            frames[..],
            [Frame::EndOfSuperstep { superstep: 0, .. }]
        ));
        assert!(matches!(e.inbox.back(), Some(InboxEvent::StateRequest(1))));
        let state = encoded(&state_frame(0, 1, 1));
        let answer = e.step(Event::Command(Command::State(1, state)));
        assert!(matches!(
            sent_to(&answer, 1)[..],
            [Frame::State { sender: 0, .. }]
        ));
    }

    /// A new process that runs a superstep below where our replay to it
    /// began can never finish it — our frames for it were trimmed — and is
    /// declared gone, naming why, instead of waiting for frames no one
    /// holds. At the replay's start it is served.
    #[test]
    fn a_new_process_below_the_replay_floor_is_declared_gone() {
        let mut e = Endpoint::new();
        for superstep in 0..2 {
            let batch = encoded(&Frame::EndOfSuperstep {
                sender: 0,
                superstep,
            });
            e.step(Event::Command(Command::Broadcast(superstep, batch)));
        }
        for peer in [1, 2] {
            e.eos(peer, 0);
            e.eos(peer, 1);
        }
        assert_eq!(e.fabric.replay().floor(), 1);
        e.step(Event::StreamEnd(1));
        e.dials_in(1, 0);
        e.msg(1, 1, 5);
        assert!(!e
            .inbox
            .iter()
            .any(|ev| matches!(ev, InboxEvent::PeerLost(..))));
        let gone = e.step(Event::Frame(
            1,
            Frame::EndOfSuperstep {
                sender: 1,
                superstep: 0,
            },
        ));
        assert!(gone.iter().any(|a| matches!(a, Action::Reset(1))));
        match e.inbox.back() {
            Some(InboxEvent::PeerLost(1, PlaneError::Protocol(why))) => {
                assert!(
                    why.contains("runs superstep 0") && why.contains("below 1"),
                    "{why}"
                );
            }
            other => panic!("not declared gone: {other:?}"),
        }
    }

    /// A state frame that reaches a running endpoint is dropped: it holds its
    /// own state, and the worker never sees one.
    #[test]
    fn a_running_endpoint_drops_a_state_frame() {
        let mut e = Endpoint::new();
        e.step(Event::Frame(1, state_frame(1, 0, 2)));
        assert!(e.inbox.is_empty());
        e.eos(1, 0);
        e.eos(2, 0);
        assert_eq!(e.collect(0), Ok(vec![]));
    }

    /// A new process resumes at the lowest cursor its peers' hellos
    /// announce, once a state at exactly that cursor has come — states at
    /// others are no use — and what the peers sent meanwhile is received from
    /// that cursor on.
    #[test]
    fn a_new_process_resumes_at_the_lowest_announced_cursor() {
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|id| SocketAddr::from(([127, 0, 0, 1], 4750 + id)))
            .collect();
        let config = ResilienceConfig::default();
        let timeout = Duration::from_secs(10);
        let mut fabric = Fabric::new(0, addrs, config, timeout, BufferPool::new());
        let mut out = Vec::new();
        for (peer, resume_from) in [(1, 3), (2, 2)] {
            let hello = ResumeHello {
                cluster_size: 3,
                sender: peer,
                resume_from,
            };
            let hello = Event::Hello(Conn::Accepted(0), "t", hello.encode());
            fabric.step(Duration::ZERO, hello, &mut out);
        }
        let established = |out: &[Action]| out.iter().any(|a| matches!(a, Action::Established));
        let frames = [
            Frame::EndOfSuperstep {
                sender: 1,
                superstep: 1,
            },
            Frame::EndOfSuperstep {
                sender: 1,
                superstep: 2,
            },
            state_frame(1, 0, 3),
        ];
        for frame in frames {
            fabric.step(Duration::ZERO, Event::Frame(1, frame), &mut out);
        }
        assert!(!established(&out), "no state at cursor 2 yet");
        fabric.step(
            Duration::ZERO,
            Event::Frame(2, state_frame(2, 0, 2)),
            &mut out,
        );
        let restored = out.iter().find_map(|a| match a {
            Action::Restore(state) => crate::checkpoint::encoded_cursor(state),
            _ => None,
        });
        assert_eq!(restored, Some(2));
        assert!(established(&out));
        let delivered: Vec<u32> = (out.iter())
            .filter_map(|a| match a {
                Action::Deliver(InboxEvent::Superstep { superstep, .. }) => Some(*superstep),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [2], "superstep 1 is below the restored cursor");
    }

    /// A peer whose hello asks for nothing of us has none of our
    /// predecessor's supersteps: the new process starts from 0 whatever the
    /// others offer.
    #[test]
    fn one_peer_without_an_offer_means_superstep_zero() {
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|id| SocketAddr::from(([127, 0, 0, 1], 4750 + id)))
            .collect();
        let timeout = Duration::from_secs(10);
        let config = ResilienceConfig::default();
        let mut fabric = Fabric::new(0, addrs, config, timeout, BufferPool::new());
        let mut out = Vec::new();
        for (peer, resume_from) in [(1, 1), (2, 0)] {
            let hello = ResumeHello {
                cluster_size: 3,
                sender: peer,
                resume_from,
            };
            fabric.step(
                Duration::ZERO,
                Event::Hello(Conn::Accepted(0), "t", hello.encode()),
                &mut out,
            );
        }
        fabric.step(
            Duration::ZERO,
            Event::Frame(1, state_frame(1, 0, 1)),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(a, Action::Established)));
        assert!(!out.iter().any(|a| matches!(a, Action::Restore(_))));
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut a = ReconnectBackoff::seeded_for(base, cap, 0, 2);
        let mut b = ReconnectBackoff::seeded_for(base, cap, 0, 2);
        let mut c = ReconnectBackoff::seeded_for(base, cap, 1, 2);
        let mut saw_different = false;
        for k in 0..12 {
            let da = a.next_delay();
            let db = b.next_delay();
            // Same link, same seed: identical schedule.
            assert_eq!(da, db, "attempt {k} diverged on the same link");
            // Jitter stays inside [d/2, d] for d = min(base·2^k, cap).
            let d = base
                .checked_mul(1u32 << k.min(20))
                .unwrap_or(Duration::MAX)
                .min(cap);
            assert!(da >= d / 2, "attempt {k}: {da:?} below {:?}", d / 2);
            assert!(da <= d, "attempt {k}: {da:?} above cap {d:?}");
            saw_different |= c.next_delay() != da;
        }
        // Different links jitter differently (somewhere in 12 draws).
        assert!(saw_different, "distinct links produced identical schedules");
    }
}
