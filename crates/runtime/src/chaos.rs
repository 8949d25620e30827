//! The chaos harness: deterministic fault injection over any broadcast plane.
//!
//! Fault tolerance that is not *tested* against real failures is decoration.
//! This module makes failure injection a first-class subsystem: a
//! [`FaultPlane`] wraps any [`BroadcastPlane`] whose transport can sever a
//! live peer connection ([`SeverPeer`]) and cuts connections at exact
//! superstep boundaries according to a [`CutPlan`]. Plans are either explicit
//! (`cut peer 2 at superstep 3`) or derived from a seed by a fixed xorshift
//! generator — either way the fault schedule is a pure function of its
//! inputs, so a chaos test that fails replays byte-identically from its seed.
//!
//! Cuts are injected immediately after [`BroadcastPlane::end_superstep`]
//! returns: every frame of the superstep is queued on the stream before the
//! cut, which exercises the hard case — the peer may observe a torn tail of
//! the in-flight superstep and must recover it from replay (see the frames
//! a [`crate::fabric::Fabric`] link holds back, and
//! `crate::resume::ReplayLog`).
//!
//! Handshake-level faults (torn, duplicated, dropped, misdirected hellos)
//! happen below the plane API: `tests/fabric_sim.rs` injects them, on a
//! virtual network, into the I/O-free [`crate::fabric::Fabric`].

use crate::frame::{PlaneError, WireMessage};
use crate::plane::BroadcastPlane;
use graphh_graph::ids::ServerId;

/// A transport that can sever its live connection to one peer on demand —
/// simulating a transient network failure from this side. The severed link
/// must look to both sides exactly like a real mid-run TCP failure (EOF /
/// reset), and the transport's recovery machinery (redial, resume handshake,
/// replay) must then bring it back without help.
pub trait SeverPeer {
    /// Cut the live connection to `peer`. A no-op if the link is already
    /// down; never panics and never aborts the run by itself.
    fn sever_peer(&mut self, peer: ServerId);
}

/// A deterministic schedule of connection cuts: `(superstep, peer)` pairs
/// meaning "after ending `superstep`, sever `peer`".
#[derive(Debug, Clone, Default)]
pub struct CutPlan {
    cuts: Vec<(u32, ServerId)>,
}

impl CutPlan {
    /// No faults at all (the wrapper then delegates transparently).
    pub fn none() -> Self {
        Self::default()
    }

    /// An explicit schedule of `(superstep, peer)` cuts.
    pub fn explicit(cuts: Vec<(u32, ServerId)>) -> Self {
        Self { cuts }
    }

    /// A seed-derived schedule: `count` cuts, each at a superstep in
    /// `0..max_superstep` against one of `peers`, drawn from a fixed
    /// xorshift64 stream. The same `(seed, max_superstep, peers, count)`
    /// always yields the same plan on every platform.
    pub fn seeded(seed: u64, max_superstep: u32, peers: &[ServerId], count: usize) -> Self {
        if peers.is_empty() || max_superstep == 0 {
            return Self::none();
        }
        // xorshift64 (Marsaglia): small, portable, and plenty for schedules.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cuts = (0..count)
            .map(|_| {
                let superstep = (next() % u64::from(max_superstep)) as u32;
                let peer = peers[(next() % peers.len() as u64) as usize];
                (superstep, peer)
            })
            .collect();
        Self { cuts }
    }

    /// The peers scheduled to be cut right after `superstep` ends.
    pub fn cuts_after(&self, superstep: u32) -> impl Iterator<Item = ServerId> + '_ {
        self.cuts
            .iter()
            .filter(move |&&(s, _)| s == superstep)
            .map(|&(_, p)| p)
    }

    /// Every scheduled cut, in plan order.
    pub fn cuts(&self) -> &[(u32, ServerId)] {
        &self.cuts
    }
}

/// A [`BroadcastPlane`] wrapper that injects the [`CutPlan`]'s connection
/// cuts into the inner plane at superstep boundaries. Everything else
/// delegates untouched, so a `FaultPlane` with an empty plan is
/// behavior-identical to the inner plane.
pub struct FaultPlane<P: BroadcastPlane + SeverPeer> {
    inner: P,
    plan: CutPlan,
}

impl<P: BroadcastPlane + SeverPeer> FaultPlane<P> {
    /// Wrap `inner`, cutting connections per `plan`.
    pub fn new(inner: P, plan: CutPlan) -> Self {
        Self { inner, plan }
    }

    /// The wrapped plane (e.g. to inspect transport state after a run).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap, discarding the plan.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: BroadcastPlane + SeverPeer> BroadcastPlane for FaultPlane<P> {
    fn num_servers(&self) -> u32 {
        self.inner.num_servers()
    }

    fn server_id(&self) -> ServerId {
        self.inner.server_id()
    }

    fn broadcast(&mut self, superstep: u32, wire: &[u8]) -> Result<(), PlaneError> {
        self.inner.broadcast(superstep, wire)
    }

    fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError> {
        self.inner.end_superstep(superstep)?;
        // Cut *after* the superstep's frames (including the end marker) are
        // queued: the victim link carries a full superstep that may tear
        // anywhere in flight, which is exactly what recovery must survive.
        for peer in self.plan.cuts_after(superstep) {
            self.inner.sever_peer(peer);
        }
        Ok(())
    }

    fn collect(&mut self, superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
        self.inner.collect(superstep)
    }

    fn acknowledge(&mut self, superstep: u32) -> Result<(), PlaneError> {
        self.inner.acknowledge(superstep)
    }

    fn abort(&mut self) {
        self.inner.abort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let peers = [0, 2, 3];
        let a = CutPlan::seeded(2017, 8, &peers, 16);
        let b = CutPlan::seeded(2017, 8, &peers, 16);
        assert_eq!(a.cuts(), b.cuts(), "same seed, same plan");
        assert_eq!(a.cuts().len(), 16);
        for &(s, p) in a.cuts() {
            assert!(s < 8);
            assert!(peers.contains(&p));
        }
        let c = CutPlan::seeded(2018, 8, &peers, 16);
        assert_ne!(a.cuts(), c.cuts(), "different seed, different plan");
        assert!(CutPlan::seeded(1, 0, &peers, 4).cuts().is_empty());
        assert!(CutPlan::seeded(1, 8, &[], 4).cuts().is_empty());
    }

    #[test]
    fn cuts_fire_at_their_superstep_only() {
        let plan = CutPlan::explicit(vec![(1, 2), (1, 0), (3, 2)]);
        assert_eq!(plan.cuts_after(0).count(), 0);
        assert_eq!(plan.cuts_after(1).collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(plan.cuts_after(3).collect::<Vec<_>>(), vec![2]);
    }
}
