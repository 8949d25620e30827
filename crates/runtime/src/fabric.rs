//! The link life-cycle of the TCP plane, decided in one **I/O-free** place.
//!
//! Everything `docs/WIRE.md` §2 and §9–§10 make an endpoint *decide* lives
//! here and nowhere else: when a link is down, when to redial it and how long
//! to back off, whether a hello is acceptable and what to answer, what to
//! retain, replay, trim and re-acknowledge, when a finished endpoint may stop
//! holding the door (goodbye / linger), when a peer is lost for good, whom to
//! ask for the address book and whom to tell of it. [`Fabric`] touches no
//! socket, spawns nothing, shares no state with another thread and never
//! looks at a clock: it is a step
//! function in the shape of SNIPPETS.md's gossip-glomers `Node::step(input,
//! output)` — `Fabric::step(now, Event, &mut Vec<Action>)` — driven by
//! [`crate::poll`]'s event loop (real sockets, real time) and by
//! `tests/fabric_sim.rs` (a seeded virtual network and clock, thousands of
//! fault schedules per `cargo test`). `now` is the time since the fabric was
//! created; every deadline is kept on that scale.
//!
//! A link has exactly one way up, whether the cluster is starting, a cut is
//! healing or a replacement process is taking over an id: it is *down* — at
//! birth, with the establish timeout as its deadline — the higher id dials
//! ([`Action::Dial`]) with seeded exponential backoff, at the address the
//! [`AddressBook`] holds for the peer (no address yet, no dial), the lower id
//! answers the hello ([`Action::Reply`]), and the vetted stream is adopted
//! with replay and a repeated ack ([`Action::Adopt`], [`Action::Send`]).
//!
//! The book is the fabric's own. A static peer table pre-fills it; given
//! seeds instead (`docs/WIRE.md` §10) it starts with the own claim only, and
//! for as long as it is establishing the fabric announces itself
//! ([`Action::Announce`]) to the seeds and every address it learns — under
//! the same establish deadline, beside the dials. Establishment is only this
//! machine's first transition: [`Action::Established`] fires when every link
//! has been up once and the book is complete. The state × event → action
//! table is `docs/WIRE.md` §9.5.

use crate::buffer::{BufferPool, PooledBuf};
use crate::establish::Refusal;
use crate::frame::{Frame, InboxEvent, PlaneError};
use crate::membership::{AddressBook, MembershipKind, MembershipMsg, ReconnectBackoff};
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
/// `min(RETRY_BACKOFF · 2^k, RETRY_BACKOFF_CAP)` ([`ReconnectBackoff`]).
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
    /// superstep until every peer acks it (batches never span supersteps).
    Broadcast(u32, SharedBatch),
    /// Send this (unretained) ack batch and remember the superstep: acks die
    /// with a cut stream, so every re-established link repeats the latest.
    Ack(u32, SharedBatch),
    /// Send this (unretained) abort batch; an aborted run never lingers.
    Abort(SharedBatch),
    /// The run is over: linger while a down peer is owed something, then
    /// [`Action::Exit`].
    Shutdown,
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
    /// An accepted connection produced a whole `GHHM` message instead.
    Announce(Conn, &'a [u8]),
    /// The source at this address answered [`Action::Announce`] with a whole
    /// `GHHM` message (unvetted).
    Snapshot(SocketAddr, &'a [u8]),
    /// The announce to this source died unanswered: connect refused, early
    /// close, handshake deadline.
    AnnounceFailed(SocketAddr),
    /// The dial to this peer died before a reply hello — connect refused,
    /// early close, handshake deadline — for this (origin-prefixed) reason.
    DialFailed(ServerId, String),
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
    /// Connect to this address, send these bytes (a `GHHM` announce), report
    /// the reply as [`Event::Snapshot`] or the failure as
    /// [`Event::AnnounceFailed`], close.
    Announce(SocketAddr, Vec<u8>),
    /// Write these bytes (a hello, a `GHHM` snapshot) to a pending connection.
    Reply(Conn, Vec<u8>),
    /// The connection finished its handshake: it is the peer's live stream
    /// from now on, superseding any older one. If it died since, say
    /// [`Event::StreamEnd`].
    Adopt(Conn, ServerId),
    /// Drop a pending connection.
    Close(Conn),
    /// Hand this to the worker's [`crate::frame::SuperstepCollector`].
    Deliver(InboxEvent),
    /// Every link has been up once: `establish` may return the plane.
    Established,
    /// Establishment is over and failed — by its deadline, or (`false`) on a
    /// protocol error; the message is for the operator. The fabric is dead.
    EstablishFailed(bool, String),
    /// Nothing is owed any more: flush what is queued, say goodbye on every
    /// live stream, close. The fabric ignores every later event.
    Exit,
}

#[derive(Debug)]
enum LinkState {
    /// No stream: see [`Down`].
    Down(Down),
    /// A vetted stream carries frames.
    Up,
    /// The peer said goodbye and closed: nothing to recover, though a
    /// restarted process may still dial back in.
    Closed,
    /// Terminally lost: never dialed, never accepted again.
    Gone,
}

/// A link without a stream. Lower-id peers are redialed — never before
/// `next_retry`, never twice at once, never without an address in the book —
/// higher-id peers dial in. Past `deadline` the peer is given up.
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
    /// Establishment waits for this on every link.
    ever_up: bool,
    /// A goodbye arrived: the coming stream end is a clean exit.
    done: bool,
    /// The last hello under this peer's id that was refused (by us or by it)
    /// since the link was last up: what a terminal loss is attributed to.
    refusal: Option<String>,
    /// The book version last sent on this stream (none yet: 0).
    gossiped: u64,
}

/// Somewhere an establishing endpoint announces itself: a seed, or an
/// address the book has held. Asked again — answered or not — only after its
/// own seeded backoff, never twice at once.
#[derive(Debug)]
struct Source {
    addr: SocketAddr,
    next_retry: Duration,
    backoff: ReconnectBackoff,
    asking: bool,
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
    /// Where every server listens, as far as this one knows.
    book: AddressBook,
    /// Discovery's address list; empty without seeds.
    sources: Vec<Source>,
    /// One per other server, by ascending id.
    links: Vec<Link>,
    phase: Phase,
    establish_deadline: Duration,
    /// Armed by the first `Stopping` tick that still owes a down peer.
    linger_until: Option<Duration>,
    replay: ReplayLog,
    /// Per-server count of completed supersteps received (EOS superstep + 1):
    /// the `resume_from` of every hello this endpoint sends.
    recv_cursor: Vec<u32>,
    last_ack: Option<u32>,
    aborted: bool,
    /// The most recent failed handshake of any link, for the establish error.
    last_refusal: Option<String>,
    /// For the few frames the fabric itself encodes (acks, gossip).
    pool: BufferPool,
    peers_lost: Counter,
    reconnects: Counter,
    replayed_frames: Counter,
    /// `membership.*`: announces served, deltas sent, the book's version
    /// (a gauge), peers adopted at a new address.
    announces: Counter,
    gossip_deltas: Counter,
    book_version: Counter,
    adoptions: Counter,
}

impl Fabric {
    /// The fabric of the server that owns `book` — complete
    /// ([`AddressBook::complete`]) or, with `config.seeds`, to be discovered
    /// ([`AddressBook::new`]) — created at time zero with every link down and
    /// `establish_timeout` to bring each up once.
    pub fn new(
        book: AddressBook,
        config: ResilienceConfig,
        establish_timeout: Duration,
        pool: BufferPool,
    ) -> Self {
        let (id, num_servers) = (book.own_id(), book.num_servers() as u32);
        let peers = (0..num_servers).filter(|&peer| peer != id);
        let links = peers.map(|peer| Link {
            peer,
            state: down_until(&config, id, peer, Duration::ZERO, establish_timeout),
            ever_up: false,
            done: false,
            refusal: None,
            gossiped: 0,
        });
        let registry = global_counters();
        Fabric {
            id,
            num_servers,
            book,
            sources: Vec::new(),
            links: links.collect(),
            phase: Phase::Establishing,
            establish_deadline: establish_timeout,
            linger_until: None,
            replay: ReplayLog::resuming_from(num_servers, id, config.resume_from),
            recv_cursor: vec![config.resume_from; num_servers as usize],
            last_ack: None,
            aborted: false,
            last_refusal: None,
            config,
            pool,
            peers_lost: registry.counter("poll.peers_lost"),
            reconnects: registry.counter("fabric.reconnects"),
            replayed_frames: registry.counter("fabric.replayed_frames"),
            announces: registry.counter("membership.announces"),
            gossip_deltas: registry.counter("membership.gossip_deltas"),
            book_version: registry.counter("membership.book_version"),
            adoptions: registry.counter("membership.adoptions"),
        }
    }

    /// The address book as it stands.
    pub fn book(&self) -> &AddressBook {
        &self.book
    }

    /// The retention log (tests assert it drains).
    pub fn replay(&self) -> &ReplayLog {
        &self.replay
    }

    /// The earliest instant at which an [`Event::Tick`] would do something,
    /// if any. Ticking more often is harmless.
    pub fn next_timer(&self) -> Option<Duration> {
        // (A link this endpoint dials, once the book says where.)
        let dialed = |peer| peer < self.id && self.book.get(peer).is_some();
        let links = self.links.iter().filter_map(|link| match &link.state {
            LinkState::Down(down) if !down.dialing && dialed(link.peer) => {
                Some(down.deadline.min(down.next_retry))
            }
            LinkState::Down(down) => Some(down.deadline),
            _ => None,
        });
        let establishing = self.phase == Phase::Establishing;
        let resting = |s: &&Source| establishing && !s.asking;
        let asks = self.sources.iter().filter(resting).map(|s| s.next_retry);
        let deadlines = establishing.then_some(self.establish_deadline);
        let timers = links.chain(asks).chain(deadlines).chain(self.linger_until);
        timers.min().filter(|_| self.phase != Phase::Exited)
    }

    /// Advance the machine by one event at time `now`, appending what the
    /// driver must do to `out`.
    pub fn step(&mut self, now: Duration, event: Event<'_>, out: &mut Vec<Action>) {
        if self.phase == Phase::Exited {
            return;
        }
        match event {
            Event::Command(command) => self.command(command, out),
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
            Event::Announce(conn, bytes) => {
                // Serve a discovering (or replacement) node's announce; what
                // it changed in the book is gossiped by the next tick.
                if self.merge(bytes, MembershipKind::Announce) {
                    self.announces.incr();
                    let snapshot = self.book.msg(MembershipKind::Snapshot);
                    out.push(Action::Reply(conn, snapshot.encode()));
                }
                out.push(Action::Close(conn));
            }
            Event::Snapshot(source, bytes) => {
                self.merge(bytes, MembershipKind::Snapshot);
                self.asked(now, source);
            }
            Event::AnnounceFailed(source) => self.asked(now, source),
            Event::DialFailed(peer, why) => {
                self.last_refusal = Some(why);
                self.dial_over(now, peer);
            }
            Event::Frame(peer, frame) => self.frame(now, peer, frame, out),
            Event::StreamEnd(peer) => {
                if let Some(idx) = self.index_of(peer) {
                    self.enter_down(now, idx, out);
                }
            }
            Event::Tick => self.tick(now, out),
        }
        // (A static table is a complete book from the start.)
        let all_up = || self.links.iter().all(|l| l.ever_up);
        if self.phase == Phase::Establishing && all_up() && self.book.is_complete() {
            self.phase = Phase::Running;
            out.push(Action::Established);
        }
    }

    /// Links are kept by ascending peer id with this endpoint's own left out.
    fn index_of(&self, peer: ServerId) -> Option<usize> {
        let known = peer != self.id && peer < self.num_servers;
        known.then_some((peer - u32::from(peer > self.id)) as usize)
    }

    fn command(&mut self, command: Command, out: &mut Vec<Action>) {
        let batch = match command {
            Command::Broadcast(superstep, batch) => {
                // Retain before sending: a frame is replayable the moment any
                // peer could have missed it.
                self.replay.append(superstep, Arc::clone(&batch));
                batch
            }
            Command::Ack(superstep, batch) => {
                self.last_ack = Some(self.last_ack.map_or(superstep, |s| s.max(superstep)));
                batch
            }
            Command::Abort(batch) => {
                self.aborted = true;
                batch
            }
            Command::Shutdown => return self.phase = Phase::Stopping,
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
    /// it dialed in), replay what it still needs, repeat our latest ack.
    fn link_up(&mut self, conn: Conn, hello: ResumeHello, out: &mut Vec<Action>) {
        let peer = hello.sender;
        let idx = self.index_of(peer).expect("vetted: a peer id");
        let batches = match self.replay.replay_from(hello.resume_from) {
            Ok(batches) => batches,
            Err(e) => {
                // The peer wants frames already trimmed below the replay
                // floor: permanently unrecoverable, not a transient failure.
                out.push(Action::Close(conn));
                return self.declare_gone(idx, PlaneError::Protocol(e.to_string()), out);
            }
        };
        if let Conn::Accepted(_) = conn {
            let reply = ResumeHello {
                cluster_size: self.num_servers,
                sender: self.id,
                resume_from: self.recv_cursor[peer as usize],
            };
            out.push(Action::Reply(conn, reply.encode().to_vec()));
        }
        out.push(Action::Adopt(conn, peer));
        let link = &mut self.links[idx];
        if link.ever_up {
            // The resume event precedes everything the new stream delivers:
            // the collector purges the old torn tail at the event, then
            // dedups whatever the replay below makes the peer re-deliver.
            out.push(Action::Deliver(InboxEvent::PeerResumed(peer)));
            self.reconnects.incr();
        }
        *link = Link {
            peer,
            state: LinkState::Up,
            ever_up: true,
            done: false,
            refusal: None,
            gossiped: 0,
        };
        for batch in batches {
            self.replayed_frames.add(count_frames(&batch));
            out.push(Action::Send(peer, batch));
        }
        if let Some(superstep) = self.last_ack {
            // The peer may have missed it while down, and needs the current
            // floor to trim its own log and finish its own linger.
            let mut buf = self.pool.checkout();
            let sender = self.id;
            Frame::Ack { sender, superstep }.encode(&mut buf);
            out.push(Action::Send(peer, Arc::new(buf)));
        }
        // The peer may have been down when the book last changed.
        self.gossip(idx, out);
    }

    /// A dial ended without a link: back off before the next.
    fn dial_over(&mut self, now: Duration, peer: ServerId) {
        let state = self.index_of(peer).map(|idx| &mut self.links[idx].state);
        if let Some(LinkState::Down(down)) = state {
            down.dialing = false;
            down.next_retry = now + down.backoff.next_delay();
        }
    }

    /// Transport-level frames end here — acks trim the log, a goodbye marks
    /// the peer done, gossip merges into the book — end-of-superstep markers
    /// raise the receive cursor, and everything else is the collector's. A
    /// frame claiming another sender poisons the stream.
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
        match frame {
            Frame::Ack { sender, superstep } => return self.replay.ack(sender, superstep),
            Frame::Goodbye { .. } => return self.links[idx].done = true,
            Frame::Membership { ref payload, .. } => {
                // A malformed payload is dropped; anti-entropy re-converges.
                self.merge(payload, MembershipKind::Delta);
                return;
            }
            Frame::EndOfSuperstep { superstep, .. } => {
                let cursor = &mut self.recv_cursor[peer as usize];
                *cursor = (*cursor).max(superstep.saturating_add(1));
            }
            Frame::Message { .. } | Frame::Abort { .. } => {}
        }
        out.push(Action::Deliver(InboxEvent::Frame(frame)));
    }

    /// A live stream ended. After a goodbye that is a clean exit — the
    /// collector learns the (benign) end of stream, nothing is recovered.
    /// Otherwise it is a *cut*, not a loss: the recovery clock starts and
    /// only the reconnect deadline makes it terminal.
    fn enter_down(&mut self, now: Duration, idx: usize, out: &mut Vec<Action>) {
        let link = &mut self.links[idx];
        if !matches!(link.state, LinkState::Up) {
            return;
        }
        if link.done {
            link.state = LinkState::Closed;
            let lost = InboxEvent::PeerLost(link.peer, PlaneError::Disconnected);
            out.push(Action::Deliver(lost));
        } else {
            let patience = self.config.reconnect_deadline;
            link.state = down_until(&self.config, self.id, link.peer, now, patience);
        }
    }

    /// Give up on a peer for good: it stops gating retention (its acks can
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

    fn tick(&mut self, now: Duration, out: &mut Vec<Action>) {
        if self.phase == Phase::Stopping {
            // A finished endpoint keeps serving while a *down* peer might
            // still need something only it can give: retained frames, or its
            // latest ack (unretained, so one lost to a cut leaves the peer
            // unable to trim its own log). Up links owe nothing — queued
            // bytes reach the peer after close — gone peers cannot return,
            // an aborted run never lingers, and the reconnect deadline
            // bounds the wait.
            let owes = (self.replay.retained_supersteps() > 0 || self.last_ack.is_some())
                && (self.links.iter()).any(|l| matches!(l.state, LinkState::Down(_)));
            let until = self.config.reconnect_deadline;
            if self.aborted || !owes || now >= *self.linger_until.get_or_insert(now + until) {
                self.phase = Phase::Exited;
                return out.push(Action::Exit);
            }
        }
        if self.phase == Phase::Establishing && now >= self.establish_deadline {
            return self.establish_timed_out(out);
        }
        for idx in 0..self.links.len() {
            self.gossip(idx, out);
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
            } else if !down.dialing && now >= down.next_retry {
                let peer = link.peer;
                let Some(at) = self.book.get(peer).filter(|_| peer < self.id) else {
                    continue; // it dials in, or the book has no address yet
                };
                down.dialing = true;
                let hello = ResumeHello {
                    cluster_size: self.num_servers,
                    sender: self.id,
                    resume_from: self.recv_cursor[peer as usize],
                };
                out.push(Action::Dial(peer, at.addr, hello.encode()));
            }
        }
        if self.phase == Phase::Establishing && !self.config.seeds.is_empty() {
            self.announce(now, out);
        }
    }

    /// Anti-entropy push: an up link that has not been sent this version of
    /// the book is sent the book, as an unretained tag-6 frame. A merge that
    /// changes nothing bumps no version, so the flood converges; without
    /// seeds nothing of §10 is spoken, and a fault-free run never gets past
    /// the compare.
    fn gossip(&mut self, idx: usize, out: &mut Vec<Action>) {
        let link = &mut self.links[idx];
        let behind = matches!(link.state, LinkState::Up) && link.gossiped < self.book.version();
        if self.config.seeds.is_empty() || !behind {
            return;
        }
        link.gossiped = self.book.version();
        self.gossip_deltas.incr();
        let mut buf = self.pool.checkout();
        let payload = self.book.msg(MembershipKind::Delta).encode().into();
        let sender = self.id;
        Frame::Membership { sender, payload }.encode(&mut buf);
        out.push(Action::Send(link.peer, Arc::new(buf)));
    }

    /// Merge a `GHHM` message of the expected kind into the book. False —
    /// nothing merged — when it is malformed, of another kind or for another
    /// cluster size, and when this endpoint was given no seeds and so speaks
    /// nothing of §10.
    fn merge(&mut self, bytes: &[u8], kind: MembershipKind) -> bool {
        let spoken = |m: &MembershipMsg| m.kind == kind && !self.config.seeds.is_empty();
        let msg = MembershipMsg::decode(bytes).ok().filter(spoken);
        let Some(Ok(adopted)) = msg.map(|m| self.book.merge_msg(&m)) else {
            return false;
        };
        if adopted {
            self.adoptions.incr();
        }
        self.book_version.record_max(self.book.version());
        true
    }

    /// Discovery (`docs/WIRE.md` §10.3): announce the book to every known
    /// source — the seeds and every address learnt so far, bar the own — that
    /// is not being asked already and has rested since it last was. It goes
    /// on for as long as this endpoint is establishing, not only while its
    /// own book has gaps: a server whose book is complete may be the only
    /// one that knows where a higher id, which must dial it, can be told.
    fn announce(&mut self, now: Duration, out: &mut Vec<Action>) {
        let learnt = self.book.wire_entries();
        let known = (self.config.seeds.iter().copied()).chain(learnt.iter().map(|e| e.addr));
        for addr in known.filter(|&addr| addr != self.book.own_addr()) {
            if !self.sources.iter().any(|s| s.addr == addr) {
                let nth = self.sources.len() as ServerId;
                self.sources.push(Source {
                    addr,
                    next_retry: now,
                    backoff: backoff(&self.config, self.id, nth),
                    asking: false,
                });
            }
        }
        let rested = |s: &&mut Source| !s.asking && now >= s.next_retry;
        for source in self.sources.iter_mut().filter(rested) {
            source.asking = true;
            let announce = self.book.msg(MembershipKind::Announce);
            out.push(Action::Announce(source.addr, announce.encode()));
        }
    }

    /// The announce to `source` is over, answered or not: the source rests
    /// before it is asked again.
    fn asked(&mut self, now: Duration, source: SocketAddr) {
        if let Some(source) = self.sources.iter_mut().find(|s| s.addr == source) {
            source.asking = false;
            source.next_retry = now + source.backoff.next_delay();
        }
    }

    /// A refused handshake is never fatal by itself, but it is usually *why*
    /// the deadline expires (mismatched `--servers`, a slipped `--peers`
    /// order), so the error carries the last one.
    fn establish_timed_out(&mut self, out: &mut Vec<Action>) {
        let missing = self.links.iter().filter(|l| !l.ever_up).map(|l| l.peer);
        let (dial, wait): (Vec<ServerId>, Vec<ServerId>) = missing.partition(|&p| p < self.id);
        let why = match &self.last_refusal {
            Some(refusal) => format!("; last refused handshake: {refusal}"),
            None => String::new(),
        };
        let known: Vec<ServerId> = self.book.wire_entries().iter().map(|e| e.id).collect();
        let learnt = match self.config.seeds.len() {
            0 => String::new(),
            seeds => format!(
                "; seed discovery from {seeds} seeds learnt addresses for servers {known:?} of {}",
                self.num_servers
            ),
        };
        let message = format!(
            "server {}: timed out dialing servers {dial:?}, waiting for servers {wait:?} \
             to dial in{learnt}{why}",
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

/// Seeded exponential backoff, per link and per discovery source (its `nth`),
/// so a cluster's redial storms do not synchronise and chaos schedules
/// reproduce.
fn backoff(config: &ResilienceConfig, own: ServerId, nth: ServerId) -> ReconnectBackoff {
    let cap = RETRY_BACKOFF_CAP.min(config.reconnect_deadline);
    ReconnectBackoff::seeded_for(RETRY_BACKOFF, cap, own, nth)
}
