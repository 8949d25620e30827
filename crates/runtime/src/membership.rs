//! The data of the membership plane: the `GHHM` wire format, the
//! [`AddressBook`] every endpoint keeps, and the seeded redial backoff —
//! values only. No socket, no clock, no lock: *when* a book is announced,
//! served, merged or gossiped is [`crate::fabric::Fabric`]'s decision (CI
//! greps this file like `fabric.rs`).
//!
//! Instead of a hand-enumerated static `--peers` table, a node may start with
//! one or more **seed** addresses: its fabric announces itself to every
//! source it knows and learns the full `server id → address` book from the
//! `GHHM` snapshot replies. After that the book keeps converging through
//! anti-entropy gossip (tag-6 [`crate::frame::Frame`] deltas on live links),
//! so a *replacement* process started with the same `--server-id` on a **fresh
//! address** can announce itself with a bumped incarnation and the survivors'
//! redials go to the new address — no operator surgery.
//!
//! ## The `GHHM` message
//!
//! One fixed-header, variable-entry encoding serves three roles (announce,
//! snapshot reply, gossip delta) and two carriers: raw on a fresh TCP
//! connection while discovering (magic-first, so listeners can dispatch
//! between `GHHR` and `GHHM` on the first four bytes), and verbatim as the
//! payload of a tag-6 frame on an established link.
//!
//! ```text
//! b"GHHM" | u8 kind | u32 LE cluster_size | u32 LE sender |
//! u64 LE book_version | u16 LE count | count × entry
//!   kind 1 announce  : "merge my book, reply with yours"
//!   kind 2 snapshot  : the reply to an announce
//!   kind 3 delta     : gossip on an established link (no reply)
//!   entry (27 bytes) : u32 LE id | u32 LE incarnation | u8 family (4|6) |
//!                      16B ip (v4 in the first 4 bytes) | u16 LE port
//! ```
//!
//! ## Incarnations
//!
//! Every book entry is `(addr, incarnation)`. Merges are last-writer-wins on
//! incarnation; at equal incarnation the numerically larger address wins — an
//! arbitrary but *commutative* tie-break, so every merge order converges on
//! the same book. A replacement claims its id by re-announcing its own
//! address with an incarnation strictly above whatever the cluster currently
//! holds for that id (every [`AddressBook::merge_msg`] ends by re-asserting
//! the own claim).
//!
//! The byte-level layout and the adoption sequence are specified normatively
//! in `docs/WIRE.md` §10; this module is the reference implementation.

use graphh_graph::ids::ServerId;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use std::time::Duration;

/// First bytes of every membership message; listeners read these four
/// bytes to dispatch between the `GHHR` and `GHHM` families.
pub const MEMBERSHIP_MAGIC: [u8; 4] = *b"GHHM";

/// Fixed header: magic (4) + kind (1) + cluster_size (4) + sender (4) +
/// book_version (8) + entry count (2).
pub const MEMBERSHIP_HEADER_LEN: usize = 23;

/// One address-book entry on the wire: id (4) + incarnation (4) +
/// family (1) + ip (16) + port (2).
pub const MEMBERSHIP_ENTRY_LEN: usize = 27;

const KIND_ANNOUNCE: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
const KIND_DELTA: u8 = 3;

/// What a membership message is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipKind {
    /// "Here is my book; merge it and reply with yours." Sent by a
    /// discovering node on a fresh connection.
    Announce,
    /// The full-book reply to an announce.
    Snapshot,
    /// A gossip push on an established link (tag-6 frame payload); no reply.
    Delta,
}

impl MembershipKind {
    fn to_wire(self) -> u8 {
        match self {
            MembershipKind::Announce => KIND_ANNOUNCE,
            MembershipKind::Snapshot => KIND_SNAPSHOT,
            MembershipKind::Delta => KIND_DELTA,
        }
    }
}

/// One `server id → (address, incarnation)` binding as carried by a
/// membership message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEntry {
    /// The server id the binding is for.
    pub id: ServerId,
    /// Last-writer-wins version of the binding.
    pub incarnation: u32,
    /// Where that server's listener accepts connections.
    pub addr: SocketAddr,
}

/// A decoded membership message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipMsg {
    /// What the message is for.
    pub kind: MembershipKind,
    /// The sender's `num_servers`; receivers reject a mismatch.
    pub cluster_size: u32,
    /// The sending server.
    pub sender: ServerId,
    /// The sender's book version when the message was built (diagnostic;
    /// versions are per-node counters, not comparable across nodes).
    pub book_version: u64,
    /// The bindings the sender knows.
    pub entries: Vec<WireEntry>,
}

impl MembershipMsg {
    /// Append the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MEMBERSHIP_MAGIC);
        out.push(self.kind.to_wire());
        out.extend_from_slice(&self.cluster_size.to_le_bytes());
        out.extend_from_slice(&self.sender.to_le_bytes());
        out.extend_from_slice(&self.book_version.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        for entry in &self.entries {
            out.extend_from_slice(&entry.id.to_le_bytes());
            out.extend_from_slice(&entry.incarnation.to_le_bytes());
            let mut ip = [0u8; 16];
            match entry.addr.ip() {
                IpAddr::V4(v4) => {
                    out.push(4);
                    ip[..4].copy_from_slice(&v4.octets());
                }
                IpAddr::V6(v6) => {
                    out.push(6);
                    ip.copy_from_slice(&v6.octets());
                }
            }
            out.extend_from_slice(&ip);
            out.extend_from_slice(&entry.addr.port().to_le_bytes());
        }
    }

    /// The wire encoding as a fresh vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(MEMBERSHIP_HEADER_LEN + self.entries.len() * MEMBERSHIP_ENTRY_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Decode a complete membership message.
    ///
    /// Rejects (never panics on) every malformed input: wrong magic, unknown
    /// kind, a length that disagrees with the entry count, out-of-range ids,
    /// duplicate ids, a bad address family, or a zero port.
    pub fn decode(bytes: &[u8]) -> Result<MembershipMsg, String> {
        if bytes.len() < MEMBERSHIP_HEADER_LEN {
            return Err(format!(
                "membership message of {} bytes is shorter than the {MEMBERSHIP_HEADER_LEN}-byte header",
                bytes.len()
            ));
        }
        if bytes[..4] != MEMBERSHIP_MAGIC {
            return Err(format!(
                "bad membership magic {:02x?} (expected {:02x?})",
                &bytes[..4],
                MEMBERSHIP_MAGIC
            ));
        }
        let kind = match bytes[4] {
            KIND_ANNOUNCE => MembershipKind::Announce,
            KIND_SNAPSHOT => MembershipKind::Snapshot,
            KIND_DELTA => MembershipKind::Delta,
            other => return Err(format!("unknown membership kind {other}")),
        };
        let cluster_size = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
        let sender = ServerId::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
        let book_version = u64::from_le_bytes([
            bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19], bytes[20],
        ]);
        let count = u16::from_le_bytes([bytes[21], bytes[22]]) as usize;
        if cluster_size == 0 {
            return Err("membership message claims a zero-server cluster".into());
        }
        if sender >= cluster_size {
            return Err(format!(
                "membership sender {sender} out of range for a {cluster_size}-server cluster"
            ));
        }
        if count > cluster_size as usize {
            return Err(format!(
                "membership message carries {count} entries for a {cluster_size}-server cluster"
            ));
        }
        let expected = MEMBERSHIP_HEADER_LEN + count * MEMBERSHIP_ENTRY_LEN;
        if bytes.len() != expected {
            return Err(format!(
                "membership message with {count} entries must be {expected} bytes, got {}",
                bytes.len()
            ));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = MEMBERSHIP_HEADER_LEN + i * MEMBERSHIP_ENTRY_LEN;
            let e = &bytes[at..at + MEMBERSHIP_ENTRY_LEN];
            let id = ServerId::from_le_bytes([e[0], e[1], e[2], e[3]]);
            let incarnation = u32::from_le_bytes([e[4], e[5], e[6], e[7]]);
            if id >= cluster_size {
                return Err(format!(
                    "membership entry for server {id} out of range for a {cluster_size}-server cluster"
                ));
            }
            if entries.iter().any(|w: &WireEntry| w.id == id) {
                return Err(format!("membership message repeats server {id}"));
            }
            let ip: [u8; 16] = e[9..25].try_into().expect("sliced to 16 bytes");
            let ip = match e[8] {
                4 => {
                    if ip[4..] != [0u8; 12] {
                        return Err("v4 membership entry has nonzero padding".into());
                    }
                    IpAddr::V4(Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]))
                }
                6 => IpAddr::V6(Ipv6Addr::from(ip)),
                other => return Err(format!("unknown membership address family {other}")),
            };
            let port = u16::from_le_bytes([e[25], e[26]]);
            if port == 0 {
                return Err(format!("membership entry for server {id} has port 0"));
            }
            entries.push(WireEntry {
                id,
                incarnation,
                addr: SocketAddr::new(ip, port),
            });
        }
        Ok(MembershipMsg {
            kind,
            cluster_size,
            sender,
            book_version,
            entries,
        })
    }

    /// The length of the whole message a complete fixed header announces
    /// (unvetted: callers bound it before allocating).
    pub fn encoded_len(header: &[u8; MEMBERSHIP_HEADER_LEN]) -> usize {
        let count = u16::from_le_bytes([header[21], header[22]]) as usize;
        MEMBERSHIP_HEADER_LEN + count * MEMBERSHIP_ENTRY_LEN
    }
}

/// One slot of the [`AddressBook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BookEntry {
    /// Where the server's listener accepts connections.
    pub addr: SocketAddr,
    /// Last-writer-wins version of the binding.
    pub incarnation: u32,
}

/// The versioned `server id → (address, incarnation)` table of one node, which
/// owns it: the own slot always binds the own address.
///
/// Merges are last-writer-wins on incarnation with a commutative tie-break
/// (at equal incarnation the numerically larger address wins), so the book is
/// a state-based CRDT: any merge order over any gossip topology converges on
/// the same table. `version` is a **local** change counter — it bumps once
/// per changed binding and exists so the fabric can ask "anything this link
/// has not been sent?" with one integer compare; it is never compared across
/// nodes.
#[derive(Debug, Clone)]
pub struct AddressBook {
    own: ServerId,
    own_addr: SocketAddr,
    entries: Vec<Option<BookEntry>>,
    version: u64,
}

impl AddressBook {
    /// The book of server `own` (`< num_servers`), listening at `own_addr`,
    /// holding nothing but that claim: what seed discovery starts from.
    pub fn new(num_servers: usize, own: ServerId, own_addr: SocketAddr) -> Self {
        let mut book = AddressBook {
            own,
            own_addr,
            entries: vec![None; num_servers],
            version: 0,
        };
        book.claim_own();
        book
    }

    /// The complete book that a static `--peers` table (one address per
    /// server, `own` among them) is: every binding at incarnation 0.
    pub fn complete(own: ServerId, addrs: &[SocketAddr]) -> Self {
        let mut book = Self::new(addrs.len(), own, addrs[own as usize]);
        for (id, &addr) in addrs.iter().enumerate() {
            book.observe(WireEntry {
                id: id as ServerId,
                incarnation: 0,
                addr,
            });
        }
        book
    }

    /// Number of slots (the cluster size).
    pub fn num_servers(&self) -> usize {
        self.entries.len()
    }

    /// The server this book belongs to.
    pub fn own_id(&self) -> ServerId {
        self.own
    }

    /// The address this node advertises (its listener address).
    pub fn own_addr(&self) -> SocketAddr {
        self.own_addr
    }

    /// This node's current incarnation (> 0: it took its id over from a
    /// predecessor at another address).
    pub fn own_incarnation(&self) -> u32 {
        self.get(self.own).map_or(0, |e| e.incarnation)
    }

    /// Local change counter; bumps once per binding that changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The binding for `id`, if known.
    pub fn get(&self, id: ServerId) -> Option<BookEntry> {
        self.entries.get(id as usize).copied().flatten()
    }

    /// True once every slot is bound.
    pub fn is_complete(&self) -> bool {
        self.entries.iter().all(|e| e.is_some())
    }

    /// Would `(addr, incarnation)` replace the current binding for `id`?
    /// Last-writer-wins on incarnation; at equal incarnation the larger
    /// address wins (commutative tie-break), and an identical binding is not
    /// a change.
    fn wins(&self, e: WireEntry) -> bool {
        match self.entries[e.id as usize] {
            None => true,
            Some(cur) => {
                e.incarnation > cur.incarnation
                    || (e.incarnation == cur.incarnation && e.addr > cur.addr)
            }
        }
    }

    /// Merge one entry; returns true (and bumps the version) when the
    /// binding changed.
    pub fn observe(&mut self, e: WireEntry) -> bool {
        if e.id as usize >= self.entries.len() || !self.wins(e) {
            return false;
        }
        self.entries[e.id as usize] = Some(BookEntry {
            addr: e.addr,
            incarnation: e.incarnation,
        });
        self.version += 1;
        true
    }

    /// Merge a received message, then re-assert the own claim: a stale echo
    /// of a predecessor must never stick, so the own binding comes back with
    /// an incarnation above it — a change like any other, which the owner's
    /// next announce or gossip delta carries, or the cluster keeps believing
    /// the old address. `Ok(true)` when the merge was an *adoption*: the
    /// sender moved its own id to a new address over a known binding. Errors
    /// on a message for a cluster of another size.
    pub fn merge_msg(&mut self, msg: &MembershipMsg) -> Result<bool, String> {
        if msg.cluster_size as usize != self.entries.len() {
            return Err(format!(
                "membership message for a {}-server cluster, this cluster has {}",
                msg.cluster_size,
                self.entries.len()
            ));
        }
        let mut adopted = false;
        for &e in &msg.entries {
            let moved = self.get(e.id).is_some_and(|p| p.addr != e.addr);
            adopted |= self.observe(e) && e.id == msg.sender && moved;
        }
        self.claim_own();
        Ok(adopted)
    }

    /// Bind the own slot to the own address, above whatever holds it (a dead
    /// predecessor at another address, or a stale gossip echo of one).
    fn claim_own(&mut self) {
        let slot = &mut self.entries[self.own as usize];
        let incarnation = match *slot {
            Some(cur) if cur.addr == self.own_addr => return,
            Some(cur) => cur.incarnation.saturating_add(1),
            None => 0,
        };
        *slot = Some(BookEntry {
            addr: self.own_addr,
            incarnation,
        });
        self.version += 1;
    }

    /// Every bound slot as wire entries, in id order.
    pub fn wire_entries(&self) -> Vec<WireEntry> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(id, e)| {
                e.map(|e| WireEntry {
                    id: id as ServerId,
                    incarnation: e.incarnation,
                    addr: e.addr,
                })
            })
            .collect()
    }

    /// The whole book as a message of the given kind from this node.
    pub fn msg(&self, kind: MembershipKind) -> MembershipMsg {
        MembershipMsg {
            kind,
            cluster_size: self.entries.len() as u32,
            sender: self.own,
            book_version: self.version,
            entries: self.wire_entries(),
        }
    }
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
pub struct ReconnectBackoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl ReconnectBackoff {
    /// Exponent past which `base · 2^k` is always past any sane cap;
    /// growth stops here to avoid overflow.
    const MAX_SHIFT: u32 = 20;

    /// A backoff schedule starting at `base`, capped at `cap`, seeded
    /// arbitrarily (use [`Self::seeded_for`] for the canonical per-link
    /// seed).
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        ReconnectBackoff {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base).max(Duration::from_millis(1)),
            attempt: 0,
            rng: seed | 1, // xorshift64 must not start at 0
        }
    }

    /// The canonical schedule for the link `own → peer`: every link in the
    /// cluster jitters differently, but the same link always jitters the
    /// same way.
    pub fn seeded_for(base: Duration, cap: Duration, own: ServerId, peer: ServerId) -> Self {
        let seed = 0x9e37_79b9_7f4a_7c15u64
            ^ ((own as u64) << 32)
            ^ (peer as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        Self::new(base, cap, seed)
    }

    /// The delay before the next redial attempt (advances the schedule).
    pub fn next_delay(&mut self) -> Duration {
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

    /// Restart the schedule (the link came back up).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), port)
    }

    fn entry(id: ServerId, incarnation: u32, port: u16) -> WireEntry {
        WireEntry {
            id,
            incarnation,
            addr: addr(port),
        }
    }

    #[test]
    fn membership_message_roundtrips() {
        let msg = MembershipMsg {
            kind: MembershipKind::Snapshot,
            cluster_size: 4,
            sender: 2,
            book_version: 77,
            entries: vec![
                entry(0, 0, 9000),
                entry(1, 3, 9001),
                WireEntry {
                    id: 3,
                    incarnation: 1,
                    addr: SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), 9003),
                },
            ],
        };
        let bytes = msg.encode();
        assert_eq!(
            bytes.len(),
            MEMBERSHIP_HEADER_LEN + 3 * MEMBERSHIP_ENTRY_LEN
        );
        assert_eq!(MembershipMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn empty_book_roundtrips() {
        let msg = MembershipMsg {
            kind: MembershipKind::Announce,
            cluster_size: 3,
            sender: 0,
            book_version: 0,
            entries: vec![],
        };
        assert_eq!(MembershipMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let good = MembershipMsg {
            kind: MembershipKind::Delta,
            cluster_size: 3,
            sender: 1,
            book_version: 5,
            entries: vec![entry(0, 0, 9000), entry(1, 1, 9001)],
        }
        .encode();

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(MembershipMsg::decode(&bad).is_err());
        // Unknown kind.
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(MembershipMsg::decode(&bad).is_err());
        // Truncated and extended.
        assert!(MembershipMsg::decode(&good[..good.len() - 1]).is_err());
        let mut bad = good.clone();
        bad.push(0);
        assert!(MembershipMsg::decode(&bad).is_err());
        // Sender out of range.
        let mut bad = good.clone();
        bad[9] = 7;
        assert!(MembershipMsg::decode(&bad).is_err());
        // Entry id out of range.
        let mut bad = good.clone();
        bad[MEMBERSHIP_HEADER_LEN] = 200;
        assert!(MembershipMsg::decode(&bad).is_err());
        // Duplicate entry id.
        let mut bad = good.clone();
        bad[MEMBERSHIP_HEADER_LEN] = 1;
        assert!(MembershipMsg::decode(&bad).is_err());
        // Bad address family.
        let mut bad = good.clone();
        bad[MEMBERSHIP_HEADER_LEN + 8] = 5;
        assert!(MembershipMsg::decode(&bad).is_err());
        // Zero port.
        let mut bad = good.clone();
        bad[MEMBERSHIP_HEADER_LEN + 25] = 0;
        bad[MEMBERSHIP_HEADER_LEN + 26] = 0;
        assert!(MembershipMsg::decode(&bad).is_err());
        // Zero-server cluster.
        let mut bad = good.clone();
        bad[5..9].copy_from_slice(&0u32.to_le_bytes());
        assert!(MembershipMsg::decode(&bad).is_err());
    }

    /// Mirror of the resume-hello fuzz: no mutation of a valid encoding may
    /// panic, and every decode returns cleanly (`Ok` only for the pristine
    /// bytes).
    #[test]
    fn membership_decode_fuzz_errors_never_panics() {
        let good = MembershipMsg {
            kind: MembershipKind::Snapshot,
            cluster_size: 5,
            sender: 4,
            book_version: u64::MAX,
            entries: vec![
                entry(0, 7, 9000),
                entry(2, 0, 9002),
                WireEntry {
                    id: 4,
                    incarnation: u32::MAX,
                    addr: SocketAddr::new(IpAddr::V6(Ipv6Addr::UNSPECIFIED), 1),
                },
            ],
        }
        .encode();

        // Every truncation.
        for len in 0..good.len() {
            let slice = good[..len].to_vec();
            let res = std::panic::catch_unwind(|| MembershipMsg::decode(&slice));
            assert!(res.expect("decode must not panic").is_err());
        }
        // Doubled.
        let mut doubled = good.clone();
        doubled.extend_from_slice(&good);
        assert!(MembershipMsg::decode(&doubled).is_err());
        // Randomized corruptions: flip 1–4 bytes at xorshift positions.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let mut bytes = good.clone();
            let flips = 1 + (rand() % 4) as usize;
            for _ in 0..flips {
                let at = (rand() % bytes.len() as u64) as usize;
                bytes[at] ^= (rand() % 255 + 1) as u8;
            }
            if bytes == good {
                continue;
            }
            let res = std::panic::catch_unwind(|| MembershipMsg::decode(&bytes));
            let decoded = res.expect("corrupt membership bytes must never panic");
            // A flip confined to the incarnation/version/address fields can
            // still be a *valid* (different) message; what matters is that
            // decode returns instead of panicking and never fabricates
            // out-of-contract values.
            if let Ok(msg) = decoded {
                assert!(msg.sender < msg.cluster_size);
                assert!(msg.entries.len() <= msg.cluster_size as usize);
            }
        }
    }

    /// A book owned by the last of `n` servers, at a port no test entry uses.
    fn book(n: usize) -> AddressBook {
        AddressBook::new(n, n as ServerId - 1, addr(9999))
    }

    #[test]
    fn book_merge_is_last_writer_wins_on_incarnation() {
        let mut book = book(3);
        assert!(book.observe(entry(1, 0, 9001)));
        assert_eq!(book.get(1).unwrap().addr, addr(9001));
        // Same incarnation, same addr: no change.
        assert!(!book.observe(entry(1, 0, 9001)));
        // Higher incarnation wins.
        assert!(book.observe(entry(1, 2, 9100)));
        assert_eq!(book.get(1).unwrap().addr, addr(9100));
        assert_eq!(book.get(1).unwrap().incarnation, 2);
        // Lower incarnation loses.
        assert!(!book.observe(entry(1, 1, 9200)));
        assert_eq!(book.get(1).unwrap().addr, addr(9100));
        // Out-of-range id is ignored.
        assert!(!book.observe(entry(9, 0, 9999)));
    }

    #[test]
    fn equal_incarnation_tie_break_is_commutative() {
        let a = entry(0, 1, 9001);
        let b = entry(0, 1, 9002);
        let mut ab = book(2);
        ab.observe(a);
        ab.observe(b);
        let mut ba = book(2);
        ba.observe(b);
        ba.observe(a);
        assert_eq!(ab.get(0), ba.get(0));
        assert_eq!(ab.get(0).unwrap().addr, addr(9002)); // larger addr wins
    }

    #[test]
    fn merge_order_converges_to_the_same_book() {
        let updates = [
            entry(0, 0, 9000),
            entry(1, 0, 9001),
            entry(1, 1, 9101),
            entry(2, 0, 9002),
            entry(2, 0, 9102),
            entry(0, 2, 9200),
        ];
        // Apply in two different orders; the final tables must agree.
        let (mut fwd, mut rev) = (book(4), book(4));
        for (&e, &r) in updates.iter().zip(updates.iter().rev()) {
            fwd.observe(e);
            rev.observe(r);
        }
        for id in 0..4 {
            assert_eq!(fwd.get(id), rev.get(id), "server {id} diverged");
        }
    }

    #[test]
    fn version_bumps_only_on_change() {
        let mut book = book(3);
        assert_eq!(book.version(), 1, "the own claim");
        book.observe(entry(0, 0, 9000));
        assert_eq!(book.version(), 2);
        book.observe(entry(0, 0, 9000)); // no change
        assert_eq!(book.version(), 2);
        assert!(!book.is_complete());
        book.observe(entry(1, 0, 9001));
        assert_eq!(book.version(), 3);
        assert!(book.is_complete());
    }

    #[test]
    fn a_static_table_is_a_complete_book_at_incarnation_zero() {
        let book = AddressBook::complete(1, &[addr(9000), addr(9001), addr(9002)]);
        assert!(book.is_complete());
        assert_eq!((book.own_id(), book.own_addr()), (1, addr(9001)));
        for id in 0..3 {
            let expected = BookEntry {
                addr: addr(9000 + id as u16),
                incarnation: 0,
            };
            assert_eq!(book.get(id), Some(expected));
        }
    }

    fn msg(kind: MembershipKind, n: u32, sender: ServerId, entries: &[WireEntry]) -> MembershipMsg {
        MembershipMsg {
            kind,
            cluster_size: n,
            sender,
            book_version: 1,
            entries: entries.to_vec(),
        }
    }

    #[test]
    fn merge_msg_reports_adoptions_and_reclaims_the_own_slot() {
        let mut book = AddressBook::new(3, 0, addr(9000));
        assert_eq!(book.own_incarnation(), 0, "a fresh claim");
        // Peer 1 announces itself and peer 2: news, not an adoption.
        let both = [entry(1, 0, 9001), entry(2, 0, 9002)];
        let announce = msg(MembershipKind::Announce, 3, 1, &both);
        assert_eq!(book.merge_msg(&announce), Ok(false));
        assert!(book.is_complete());
        // A replacement for server 1 announces from a new address.
        let moved = msg(MembershipKind::Announce, 3, 1, &[entry(1, 1, 9101)]);
        assert_eq!(book.merge_msg(&moved), Ok(true));
        assert_eq!(book.get(1).unwrap().addr, addr(9101));
        // Hearing of it again, or second-hand, adopts nothing.
        assert_eq!(book.merge_msg(&moved), Ok(false));
        let hearsay = msg(MembershipKind::Delta, 3, 2, &[entry(1, 2, 9201)]);
        assert_eq!(book.merge_msg(&hearsay), Ok(false));
        // A stale echo trying to move *our* id is taken back, strictly above
        // it (a predecessor's binding with a higher incarnation included).
        let version = book.version();
        let echo = msg(MembershipKind::Delta, 3, 2, &[entry(0, 3, 9900)]);
        assert_eq!(book.merge_msg(&echo), Ok(false));
        assert_eq!(book.get(0).unwrap().addr, addr(9000));
        assert_eq!(book.own_incarnation(), 4);
        assert!(book.version() > version);
        // Merging what is already known changes nothing: gossip converges.
        let version = book.version();
        let own = book.msg(MembershipKind::Snapshot);
        assert_eq!(book.merge_msg(&own), Ok(false));
        assert_eq!(book.version(), version);
        // Cluster-size mismatch is rejected.
        let alien = msg(MembershipKind::Delta, 4, 1, &[]);
        assert!(book.merge_msg(&alien).is_err());
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
            assert_eq!(da, db, "attempt {k} diverged between equal seeds");
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
        assert!(saw_different, "distinct seeds produced identical schedules");
        // Reset restarts the exponential schedule at the base.
        a.reset();
        assert!(a.next_delay() <= base);
    }
}
