//! The link life-cycle of the TCP plane, decided in one **I/O-free** place.
//!
//! Everything `docs/WIRE.md` §2 and §9–§10 make an endpoint *decide* lives
//! here and nowhere else: when a link is down, when to redial it and how long
//! to back off, whether a hello is acceptable and what to answer, what to
//! retain, replay, trim and re-acknowledge, when a finished endpoint may stop
//! holding the door (goodbye / linger), when a peer is lost for good, how the
//! gossiped address book moves. [`Fabric`] touches no socket, spawns nothing,
//! owns no queue between threads and never looks at a clock: it is a step
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
//! ([`Action::Dial`]) with seeded exponential backoff, the lower id answers
//! the hello ([`Action::Reply`]), and the vetted stream is adopted with
//! replay and a repeated ack ([`Action::Adopt`], [`Action::Send`]).
//! Establishment is only this machine's first transition;
//! [`Action::Established`] fires when every link has been up once. The
//! state × event → action table is `docs/WIRE.md` §9.5.

use crate::buffer::{BufferPool, PooledBuf};
use crate::establish::Refusal;
use crate::frame::{Frame, InboxEvent, PlaneError};
use crate::membership::{MembershipMsg, ReconnectBackoff};
use crate::resume::{count_frames, ReplayLog, ResilienceConfig, ResumeHello, RESUME_HELLO_LEN};
use graphh_graph::ids::ServerId;
use graphh_obs::{global_counters, Counter};
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
    /// Connect to the peer (at [`ResilienceConfig::peer_addr`]), send the
    /// hello, report the reply as [`Event::Hello`] on [`Conn::Dialed`] or the
    /// failure as [`Event::DialFailed`].
    Dial(ServerId, HelloBytes),
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
/// `next_retry`, never twice at once — higher-id peers dial in. Past
/// `deadline` the peer is given up or, never up yet, establishment fails.
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
    /// One per other server, by ascending id.
    links: Vec<Link>,
    phase: Phase,
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
    /// Book version last flooded as a tag-6 frame.
    last_gossip_version: u64,
    /// For the few frames the fabric itself encodes (acks, gossip).
    pool: BufferPool,
    peers_lost: Counter,
    reconnects: Counter,
    replayed_frames: Counter,
}

impl Fabric {
    /// The fabric of server `id`, created at time zero with every link down
    /// and `establish_timeout` to bring each up once.
    pub fn new(
        id: ServerId,
        num_servers: u32,
        config: ResilienceConfig,
        establish_timeout: Duration,
        pool: BufferPool,
    ) -> Self {
        let peers = (0..num_servers).filter(|&peer| peer != id);
        let links = peers.map(|peer| Link {
            peer,
            state: down_until(&config, id, peer, Duration::ZERO, establish_timeout),
            ever_up: false,
            done: false,
            refusal: None,
        });
        let registry = global_counters();
        Fabric {
            id,
            num_servers,
            links: links.collect(),
            phase: Phase::Establishing,
            linger_until: None,
            replay: ReplayLog::resuming_from(num_servers, id, config.resume_from),
            recv_cursor: vec![config.resume_from; num_servers as usize],
            last_ack: None,
            aborted: false,
            last_refusal: None,
            last_gossip_version: config.membership.as_ref().map_or(0, |m| m.version()),
            config,
            pool,
            peers_lost: registry.counter("poll.peers_lost"),
            reconnects: registry.counter("fabric.reconnects"),
            replayed_frames: registry.counter("fabric.replayed_frames"),
        }
    }

    /// The policy this fabric runs (the driver resolves dial addresses with it).
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The retention log (tests assert it drains).
    pub fn replay(&self) -> &ReplayLog {
        &self.replay
    }

    /// The earliest instant at which an [`Event::Tick`] would do something,
    /// if any. Ticking more often is harmless.
    pub fn next_timer(&self) -> Option<Duration> {
        let links = self.links.iter().filter_map(|link| match &link.state {
            LinkState::Down(down) if link.peer < self.id && !down.dialing => {
                Some(down.deadline.min(down.next_retry))
            }
            LinkState::Down(down) => Some(down.deadline),
            _ => None,
        });
        let timers = links.chain(self.linger_until).min();
        timers.filter(|_| self.phase != Phase::Exited)
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
                // Serve a bootstrapping (or replacement) node's announce; a
                // changed book is flooded by the next tick.
                let membership = self.config.membership.as_ref();
                let announce = MembershipMsg::decode(bytes).ok();
                let served = membership.zip(announce).map(|(m, a)| m.serve_announce(&a));
                if let Some(Ok(snapshot)) = served {
                    out.push(Action::Reply(conn, snapshot));
                }
                out.push(Action::Close(conn));
            }
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
        if self.phase == Phase::Establishing && self.links.iter().all(|l| l.ever_up) {
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
                if let Some(m) = self.config.membership.as_ref() {
                    if let Ok(msg) = MembershipMsg::decode(payload) {
                        let _ = m.merge_msg(&msg);
                    }
                }
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
        for idx in 0..self.links.len() {
            let link = &mut self.links[idx];
            let LinkState::Down(down) = &mut link.state else {
                continue;
            };
            if now >= down.deadline && !link.ever_up {
                return self.establish_timed_out(out);
            } else if now >= down.deadline {
                let error = match link.refusal.take() {
                    Some(why) => PlaneError::Protocol(format!("server {}: {why}", link.peer)),
                    None => PlaneError::Disconnected,
                };
                self.declare_gone(idx, error, out);
            } else if link.peer < self.id && !down.dialing && now >= down.next_retry {
                down.dialing = true;
                let hello = ResumeHello {
                    cluster_size: self.num_servers,
                    sender: self.id,
                    resume_from: self.recv_cursor[link.peer as usize],
                };
                out.push(Action::Dial(link.peer, hello.encode()));
            }
        }
        // Anti-entropy push: if the address book moved past what this
        // endpoint last gossiped, flood it to every live link as an
        // unretained tag-6 frame. A merge that changes nothing bumps no
        // version, so the flood converges; a fault-free run never gets past
        // the version compare.
        let Some(membership) = self.config.membership.as_ref() else {
            return;
        };
        if membership.version() > self.last_gossip_version {
            self.last_gossip_version = membership.version();
            let mut buf = self.pool.checkout();
            let (sender, payload) = (self.id, membership.delta_payload().into());
            Frame::Membership { sender, payload }.encode(&mut buf);
            self.send_to_all(&Arc::new(buf), out);
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
/// once, then seeded exponential backoff (per link, so a cluster's redial
/// storms do not synchronise and chaos schedules reproduce).
fn down_until(
    config: &ResilienceConfig,
    own: ServerId,
    peer: ServerId,
    now: Duration,
    patience: Duration,
) -> LinkState {
    let cap = RETRY_BACKOFF_CAP.min(config.reconnect_deadline);
    LinkState::Down(Down {
        deadline: now + patience,
        next_retry: now,
        backoff: ReconnectBackoff::seeded_for(RETRY_BACKOFF, cap, own, peer),
        dialing: false,
    })
}
