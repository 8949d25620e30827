//! The broadcast plane: how worker threads exchange encoded broadcast messages.
//!
//! A [`BroadcastPlane`] is one server's endpoint on an all-to-all message
//! fabric. The contract mirrors the paper's superstep broadcast (§IV-C): a
//! server publishes any number of wire-encoded messages during a superstep,
//! marks the superstep finished, and [`BroadcastPlane::collect`] blocks until
//! *every* peer has finished that superstep, returning everything they sent.
//! The end-of-superstep markers are what make the plane BSP: no frame from
//! superstep `s + 1` can be observed before every frame of `s`.
//!
//! The framing protocol itself — [`Frame`], its length-prefixed wire codec and
//! the [`SuperstepCollector`] inbox discipline — is transport-agnostic and
//! lives in [`crate::frame`] (normative spec: `docs/WIRE.md`). Two backends
//! implement the trait on top of it:
//!
//! * [`ChannelPlane`] — in-process, over `std::sync::mpsc` (one MPSC inbox per
//!   server, a sender handle per peer); frames travel as values, no bytes are
//!   copied,
//! * [`crate::poll::PollPlane`] — multi-process, over TCP: frames travel
//!   length-prefix-encoded and a single readiness-loop thread multiplexes all
//!   peer sockets (non-blocking I/O, incremental decoding, backpressured
//!   write queues) into the same inbox discipline.

pub use crate::frame::{Frame, PlaneError, WireMessage};
use crate::frame::{InboxEvent, SuperstepCollector};
use graphh_graph::ids::ServerId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

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
    /// before applying them.)
    fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError>;

    /// Declare that this server durably holds all state through `superstep`
    /// (applied in memory, or checkpointed when the worker persists state) —
    /// so peers may discard their retained replay frames for it. Resilient
    /// transports forward this as an `Ack` frame and trim their own replay
    /// logs on the acks they receive; for everything else durability is moot
    /// and the default is a no-op, keeping the fault-free wire byte stream
    /// and allocation profile unchanged.
    fn acknowledge(&mut self, _superstep: u32) -> Result<(), PlaneError> {
        Ok(())
    }

    /// Tell every peer this server is aborting (best effort, never blocks).
    fn abort(&mut self);
}

/// In-process broadcast plane over `std::sync::mpsc` channels.
pub struct ChannelPlane {
    id: ServerId,
    num_servers: u32,
    /// Peer ids, sorted — the collector's completeness set, computed once.
    peer_ids: Vec<ServerId>,
    /// Sender handle into every *other* server's inbox, ordered by server id.
    peers: Vec<(ServerId, Sender<Frame>)>,
    /// This server's inbox.
    inbox: Receiver<Frame>,
    /// The shared BSP inbox discipline (stash + superstep ordering).
    collector: SuperstepCollector,
}

impl ChannelPlane {
    /// Build a fully-connected plane for `num_servers` servers, returning one
    /// endpoint per server (ordered by server id).
    pub fn connect(num_servers: u32) -> Vec<ChannelPlane> {
        assert!(num_servers > 0);
        let (senders, inboxes): (Vec<Sender<Frame>>, Vec<Receiver<Frame>>) =
            (0..num_servers).map(|_| channel()).unzip();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(sid, inbox)| {
                let peers: Vec<(ServerId, Sender<Frame>)> = senders
                    .iter()
                    .enumerate()
                    .filter(|&(peer, _)| peer != sid)
                    .map(|(peer, tx)| (peer as ServerId, tx.clone()))
                    .collect();
                ChannelPlane {
                    id: sid as ServerId,
                    num_servers,
                    peer_ids: peers.iter().map(|&(p, _)| p).collect(),
                    peers,
                    inbox,
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

    fn broadcast(&mut self, superstep: u32, wire: &[u8]) -> Result<(), PlaneError> {
        // One shared allocation for all peers instead of a copy per peer.
        let wire: WireMessage = wire.into();
        for (_, tx) in &self.peers {
            tx.send(Frame::Message {
                sender: self.id,
                superstep,
                wire: Arc::clone(&wire),
            })
            .map_err(|_| PlaneError::Disconnected)?;
        }
        Ok(())
    }

    fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError> {
        for (_, tx) in &self.peers {
            tx.send(Frame::EndOfSuperstep {
                sender: self.id,
                superstep,
            })
            .map_err(|_| PlaneError::Disconnected)?;
        }
        Ok(())
    }

    fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
        let inbox = &self.inbox;
        self.collector.collect(superstep, &self.peer_ids, || {
            // A recv failure means *every* sender is gone (a single dead peer
            // keeps the channel open through the other clones), so it is
            // fatal rather than peer-attributed.
            inbox
                .recv()
                .map(InboxEvent::Frame)
                .map_err(|_| PlaneError::Disconnected)
        })
    }

    fn abort(&mut self) {
        for (_, tx) in &self.peers {
            let _ = tx.send(Frame::Abort { sender: self.id });
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
