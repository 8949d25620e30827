//! The broadcast plane: how `graphh-node` processes exchange encoded
//! broadcast messages.
//!
//! A [`BroadcastPlane`] is one server's endpoint on an all-to-all message
//! fabric. The contract mirrors the paper's superstep broadcast (§IV-C): a
//! server publishes any number of wire-encoded messages during a superstep,
//! marks the superstep finished, and [`BroadcastPlane::collect`] blocks until
//! *every* peer has finished that superstep, returning everything they sent.
//! The end-of-superstep markers are what make the plane BSP: a peer's
//! superstep reaches the worker whole, once its marker is in, and no worker
//! gets past `collect(s)` before every peer's `s` arrived.
//!
//! The framing protocol itself — [`Frame`], its length-prefixed wire codec and
//! the [`SuperstepCollector`] inbox discipline — is transport-agnostic and
//! lives in [`crate::frame`] (normative spec: `docs/WIRE.md`). Two backends
//! implement the trait on top of it:
//!
//! * [`crate::poll::PollPlane`] — multi-process, over TCP: frames travel
//!   length-prefix-encoded and a single readiness-loop thread multiplexes all
//!   peer sockets (non-blocking I/O, incremental decoding, backpressured
//!   write queues) into the same inbox discipline,
//! * [`ChannelPlane`] — in-process, over `std::sync::mpsc`. No executor uses
//!   it: in-process servers exchange wires with no plane at all
//!   (`graphh_core::exec::sequential`). It stays only because the
//!   benchmark's layer pass probes its superstep latency, and goes when that
//!   probe does.

pub use crate::frame::{Frame, PlaneError, WireMessage};
use crate::frame::{InboxEvent, SuperstepCollector};
use graphh_graph::ids::ServerId;
use std::sync::mpsc::{channel, Receiver, Sender};

/// One server's endpoint on the all-to-all broadcast fabric.
///
/// The BSP shape in miniature — publish, mark the superstep done, collect
/// everything the peers published:
///
/// ```
/// use graphh_runtime::{BroadcastPlane, ChannelPlane};
///
/// let mut planes = ChannelPlane::connect(2);
/// let mut b = planes.pop().unwrap();
/// let mut a = planes.pop().unwrap();
///
/// a.broadcast(0, b"hello").unwrap();
/// a.end_superstep(0).unwrap();
/// b.end_superstep(0).unwrap();
///
/// // `b` sees `a`'s message; `a` sees nothing — `b` published nothing.
/// let received = b.collect(0).unwrap();
/// assert_eq!(&received[0][..], b"hello");
/// assert!(a.collect(0).unwrap().is_empty());
/// ```
///
/// The TCP backend ([`crate::poll::PollPlane`]) has the same shape after its
/// two-phase bind/establish; `docs/WIRE.md` §5 spells out the full conformance
/// contract a new backend must satisfy.
pub trait BroadcastPlane: Send {
    /// Total servers on the plane.
    fn num_servers(&self) -> u32;

    /// This endpoint's server id.
    fn server_id(&self) -> ServerId;

    /// Publish one wire message to every other server.
    fn broadcast(&mut self, superstep: u32, wire: &[u8]) -> Result<(), PlaneError>;

    /// Mark `superstep` finished on this server.
    fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError>;

    /// Block until every peer has ended `superstep`; returns their wire
    /// messages in arrival order. (Arrival order is nondeterministic across
    /// peers — consumers must not depend on it; the engine sorts updates
    /// before applying them.) [`PlaneError::StateRequested`] interrupts it:
    /// answer with [`Self::send_state`] and collect again.
    fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError>;

    /// A no-op, kept only because the benchmark's plane probe calls it, and
    /// deleted with that call: no plane needs to be told what was applied,
    /// for a peer's end-of-superstep marker of `s` acknowledges `s - 1`
    /// (`docs/WIRE.md` §9.2).
    fn acknowledge(&mut self, _superstep: u32) -> Result<(), PlaneError> {
        Ok(())
    }

    /// Answer `peer`'s [`PlaneError::StateRequested`] with `state`, this
    /// server's `GHHC` bytes addressed to it (`docs/WIRE.md` §9.4).
    fn send_state(&mut self, peer: ServerId, _state: &[u8]) -> Result<(), PlaneError> {
        Err(PlaneError::Protocol(format!(
            "server {peer} asked for state"
        )))
    }

    /// Once, for a new process taking over from a dead one: the state its
    /// peers sent it to resume from (`docs/WIRE.md` §9.4).
    fn restore_state(&mut self) -> Option<WireMessage> {
        None
    }

    /// The run is over here: return once the peers are done with this
    /// server — interrupted, like [`Self::collect`], by state requests.
    fn finish(&mut self) -> Result<(), PlaneError> {
        Ok(())
    }

    /// Tell every peer this server is aborting (best effort, never blocks).
    fn abort(&mut self);
}

/// In-process broadcast plane over `std::sync::mpsc` channels.
///
/// No executor uses it — in-process servers need no plane — and the
/// benchmark's layer pass (`runtime.channel_superstep_us`) is its only
/// caller; it is deleted together with that probe.
pub struct ChannelPlane {
    id: ServerId,
    num_servers: u32,
    /// Peer ids, sorted — the collector's completeness set, computed once.
    peer_ids: Vec<ServerId>,
    /// Sender handle into every *other* server's inbox, ordered by server id.
    peers: Vec<Sender<InboxEvent>>,
    /// This server's inbox.
    inbox: Receiver<InboxEvent>,
    /// The wires published since the last `end_superstep`, which sends them
    /// to every peer as one superstep.
    outbox: Vec<WireMessage>,
    /// The shared BSP inbox discipline (stash + superstep ordering).
    collector: SuperstepCollector,
}

impl ChannelPlane {
    /// Build a fully-connected plane for `num_servers` servers, returning one
    /// endpoint per server (ordered by server id).
    pub fn connect(num_servers: u32) -> Vec<ChannelPlane> {
        assert!(num_servers > 0);
        let (senders, inboxes): (Vec<Sender<InboxEvent>>, Vec<_>) =
            (0..num_servers).map(|_| channel()).unzip();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(sid, inbox)| {
                let sid = sid as ServerId;
                let peer_ids: Vec<ServerId> = (0..num_servers).filter(|&p| p != sid).collect();
                ChannelPlane {
                    id: sid,
                    num_servers,
                    peers: peer_ids
                        .iter()
                        .map(|&p| senders[p as usize].clone())
                        .collect(),
                    peer_ids,
                    inbox,
                    outbox: Vec::new(),
                    collector: SuperstepCollector::new(),
                }
            })
            .collect()
    }
}

impl BroadcastPlane for ChannelPlane {
    fn num_servers(&self) -> u32 {
        self.num_servers
    }

    fn server_id(&self) -> ServerId {
        self.id
    }

    fn broadcast(&mut self, _superstep: u32, wire: &[u8]) -> Result<(), PlaneError> {
        // One shared allocation for all peers instead of a copy per peer.
        self.outbox.push(wire.into());
        Ok(())
    }

    fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError> {
        let wires = std::mem::take(&mut self.outbox);
        for tx in &self.peers {
            let (sender, wires) = (self.id, wires.clone());
            let ended = InboxEvent::Superstep {
                sender,
                superstep,
                wires,
            };
            tx.send(ended).map_err(|_| PlaneError::Disconnected)?;
        }
        Ok(())
    }

    fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
        let inbox = &self.inbox;
        self.collector.collect(superstep, &self.peer_ids, || {
            // A recv failure means *every* sender is gone (a single dead peer
            // keeps the channel open through the other clones), so it is
            // fatal rather than peer-attributed.
            inbox.recv().map_err(|_| PlaneError::Disconnected)
        })
    }

    fn abort(&mut self) {
        for tx in &self.peers {
            let _ = tx.send(InboxEvent::Aborted(self.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_server_collects_nothing() {
        let mut planes = ChannelPlane::connect(1);
        let mut p = planes.pop().unwrap();
        p.end_superstep(0).unwrap();
        assert_eq!(p.collect(0).unwrap(), Vec::<WireMessage>::new());
    }

    #[test]
    fn all_to_all_delivery_respects_superstep_framing() {
        let planes = ChannelPlane::connect(3);
        let results: Vec<Vec<usize>> = thread::scope(|scope| {
            let handles: Vec<_> = planes
                .into_iter()
                .map(|mut p| {
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for s in 0..4u32 {
                            // Each server sends s+1 messages tagged with its id.
                            for _ in 0..=s {
                                p.broadcast(s, &[p.server_id() as u8]).unwrap();
                            }
                            p.end_superstep(s).unwrap();
                            let got = p.collect(s).unwrap();
                            seen.push(got.len());
                            // Every peer sent s+1 one-byte messages.
                            assert!(got.iter().all(|w| w.len() == 1));
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
    fn abort_is_observed_by_peers() {
        let mut planes = ChannelPlane::connect(2);
        let mut b = planes.pop().unwrap();
        let mut a = planes.pop().unwrap();
        b.abort();
        a.end_superstep(0).unwrap();
        assert_eq!(a.collect(0), Err(PlaneError::Aborted(1)));
    }

    #[test]
    fn dropped_peer_surfaces_as_disconnect() {
        let mut planes = ChannelPlane::connect(2);
        let b = planes.pop().unwrap();
        let mut a = planes.pop().unwrap();
        drop(b);
        assert_eq!(a.collect(0), Err(PlaneError::Disconnected));
    }
}
