//! The membership plane: seed discovery, gossiped address books, and
//! replacement-node adoption.
//!
//! PR 9 made a crashed worker able to resume **at the same address**; this
//! module removes the "same address" constraint. Instead of a hand-enumerated
//! static `--peers` table, a node starts with one or more **seed** addresses,
//! dials any live seed, and learns the full `server id → address` book via a
//! push–pull exchange of `GHHM` membership messages. After bootstrap the book
//! keeps converging through anti-entropy gossip (tag-6 [`crate::frame::Frame`]
//! deltas piggybacked on the fabric's ack cadence), so a
//! *replacement* process started with the same `--server-id` on a **fresh
//! address** can announce itself with a bumped incarnation and the survivors'
//! reconnect loops redial the new address — no operator surgery.
//!
//! ## The `GHHM` message
//!
//! One fixed-header, variable-entry encoding serves three roles (announce,
//! snapshot reply, gossip delta) and two carriers: raw on a fresh TCP
//! connection during bootstrap (magic-first, so listeners can dispatch
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
//! holds for that id ([`AddressBook::claim_own`]).
//!
//! The byte-level layout and the adoption sequence are specified normatively
//! in `docs/WIRE.md` §10; this module is the reference implementation.

use graphh_graph::ids::ServerId;
use graphh_obs::{global_counters, Counter};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// Read-timeout cap for one membership exchange leg; a stalled or hostile
/// peer must not pin the bootstrap loop.
const EXCHANGE_READ_CAP: Duration = Duration::from_secs(2);

/// Connect timeout for one bootstrap dial; dead seeds are normal and must
/// fail fast so the loop can try the next source.
const EXCHANGE_CONNECT_CAP: Duration = Duration::from_millis(250);

/// What a membership message is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipKind {
    /// "Here is my book; merge it and reply with yours." Sent by the
    /// bootstrap dialer on a fresh connection.
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

    /// Read one membership message from a blocking stream: the magic first
    /// (anything else — a faster peer's `GHHR` dial, which then waits for a
    /// reply — is refused at once, not read to a timeout), the rest of the
    /// fixed header, then exactly `count` entries.
    pub fn read_from<R: Read>(reader: &mut R) -> io::Result<MembershipMsg> {
        let mut header = [0u8; MEMBERSHIP_HEADER_LEN];
        reader.read_exact(&mut header[..4])?;
        if header[..4] != MEMBERSHIP_MAGIC {
            return Err(io::ErrorKind::InvalidData.into());
        }
        reader.read_exact(&mut header[4..])?;
        let mut bytes = header.to_vec();
        bytes.resize(Self::encoded_len(&header), 0);
        reader.read_exact(&mut bytes[MEMBERSHIP_HEADER_LEN..])?;
        Self::decode(&bytes).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
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

/// The versioned `server id → (address, incarnation)` table every node keeps.
///
/// Merges are last-writer-wins on incarnation with a commutative tie-break
/// (at equal incarnation the numerically larger address wins), so the book is
/// a state-based CRDT: any merge order over any gossip topology converges on
/// the same table. `version` is a **local** change counter — it bumps once
/// per mutating call and exists so gossip emitters can compare "anything new
/// since I last pushed?" with one atomic load; it is never compared across
/// nodes.
#[derive(Debug, Clone)]
pub struct AddressBook {
    entries: Vec<Option<BookEntry>>,
    version: u64,
}

impl AddressBook {
    /// An empty book with `num_servers` slots.
    pub fn new(num_servers: usize) -> Self {
        AddressBook {
            entries: vec![None; num_servers],
            version: 0,
        }
    }

    /// Number of slots (the cluster size).
    pub fn num_servers(&self) -> usize {
        self.entries.len()
    }

    /// Local change counter; bumps once per mutating call that changed
    /// anything.
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

    /// Merge a batch of entries; returns true when anything changed.
    pub fn merge(&mut self, entries: &[WireEntry]) -> bool {
        let mut changed = false;
        for &e in entries {
            changed |= self.observe(e);
        }
        changed
    }

    /// Ensure this node's own slot binds `addr`, bumping the incarnation
    /// above any conflicting binding (a dead predecessor at another address,
    /// or a stale gossip echo of one). Returns true when the slot changed —
    /// the caller must then re-announce, or the cluster keeps believing the
    /// old address.
    pub fn claim_own(&mut self, id: ServerId, addr: SocketAddr) -> bool {
        match self.entries[id as usize] {
            Some(cur) if cur.addr == addr => false,
            Some(cur) => {
                self.entries[id as usize] = Some(BookEntry {
                    addr,
                    incarnation: cur.incarnation + 1,
                });
                self.version += 1;
                true
            }
            None => {
                self.entries[id as usize] = Some(BookEntry {
                    addr,
                    incarnation: 0,
                });
                self.version += 1;
                true
            }
        }
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

    /// The complete `id → addr` table, in id order. Errors while any slot is
    /// still unbound.
    pub fn peer_addrs(&self) -> Result<Vec<SocketAddr>, String> {
        self.entries
            .iter()
            .enumerate()
            .map(|(id, e)| {
                e.map(|e| e.addr)
                    .ok_or_else(|| format!("address book has no entry for server {id}"))
            })
            .collect()
    }
}

/// The shared, thread-safe membership state of one node: the address book
/// plus the counters the observability plane exports.
///
/// The `version` atomic mirrors the book's version so steady-state cadence
/// checks ("anything to gossip?") are one relaxed load — no lock, no
/// allocation — keeping the fault-free event loop inside the
/// zero-allocation budget.
pub struct MembershipState {
    id: ServerId,
    num_servers: usize,
    own_addr: SocketAddr,
    book: Mutex<AddressBook>,
    version: AtomicU64,
    announces: Counter,
    gossip_deltas: Counter,
    book_version: Counter,
    adoptions: Counter,
}

impl std::fmt::Debug for MembershipState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipState")
            .field("id", &self.id)
            .field("num_servers", &self.num_servers)
            .field("own_addr", &self.own_addr)
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A cheap, cloneable handle to one node's [`MembershipState`].
#[derive(Debug, Clone)]
pub struct MembershipHandle(pub Arc<MembershipState>);

impl std::ops::Deref for MembershipHandle {
    type Target = MembershipState;
    fn deref(&self) -> &MembershipState {
        &self.0
    }
}

impl MembershipHandle {
    /// Fresh state with an empty book except this node's own claim.
    pub fn new(id: ServerId, num_servers: usize, own_addr: SocketAddr) -> MembershipHandle {
        let registry = global_counters();
        let mut book = AddressBook::new(num_servers);
        book.claim_own(id, own_addr);
        let version = book.version();
        let state = MembershipState {
            id,
            num_servers,
            own_addr,
            book: Mutex::new(book),
            version: AtomicU64::new(version),
            announces: registry.counter("membership.announces"),
            gossip_deltas: registry.counter("membership.gossip_deltas"),
            book_version: registry.counter("membership.book_version"),
            adoptions: registry.counter("membership.adoptions"),
        };
        state.book_version.record_max(version);
        MembershipHandle(Arc::new(state))
    }
}

impl MembershipState {
    /// This node's server id.
    pub fn own_id(&self) -> ServerId {
        self.id
    }

    /// The address this node advertises (its listener address).
    pub fn own_addr(&self) -> SocketAddr {
        self.own_addr
    }

    /// This node's current incarnation (bumps when it claims its id over a
    /// predecessor's binding).
    pub fn own_incarnation(&self) -> u32 {
        self.lock_book().get(self.id).map_or(0, |e| e.incarnation)
    }

    /// Current book version — one relaxed atomic load, safe on the
    /// steady-state hot path.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// The recorded address for `peer`, if known.
    pub fn peer_addr(&self, peer: ServerId) -> Option<SocketAddr> {
        self.lock_book().get(peer).map(|e| e.addr)
    }

    fn lock_book(&self) -> MutexGuard<'_, AddressBook> {
        match self.book.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    /// Build a full-book message of the given kind.
    pub fn snapshot_msg(&self, kind: MembershipKind) -> MembershipMsg {
        let book = self.lock_book();
        MembershipMsg {
            kind,
            cluster_size: self.num_servers as u32,
            sender: self.id,
            book_version: book.version(),
            entries: book.wire_entries(),
        }
    }

    /// The encoded tag-6 gossip payload (a full-book delta). Only called
    /// when the version moved, so the allocation never lands on the
    /// fault-free steady-state path.
    pub fn delta_payload(&self) -> Vec<u8> {
        self.gossip_deltas.incr();
        self.snapshot_msg(MembershipKind::Delta).encode()
    }

    /// Merge a received message into the book. Re-claims this node's own
    /// binding afterwards (a stale echo of a predecessor must never stick),
    /// counts adoptions (the sender moved its *own* id to a new address over
    /// a live binding), and returns [`MergeOutcome`] flags the caller uses
    /// to decide whether to re-gossip or re-announce.
    pub fn merge_msg(&self, msg: &MembershipMsg) -> Result<MergeOutcome, String> {
        if msg.cluster_size as usize != self.num_servers {
            return Err(format!(
                "membership message for a {}-server cluster, this cluster has {}",
                msg.cluster_size, self.num_servers
            ));
        }
        let mut book = self.lock_book();
        let mut adopted = false;
        let mut changed = false;
        for &e in &msg.entries {
            let previous = book.get(e.id);
            if book.observe(e) {
                changed = true;
                if e.id == msg.sender && previous.is_some_and(|p| p.addr != e.addr) {
                    adopted = true;
                }
            }
        }
        let reclaimed = book.claim_own(self.id, self.own_addr);
        let version = book.version();
        drop(book);
        self.version.store(version, Ordering::Relaxed);
        self.book_version.record_max(version);
        if adopted {
            self.adoptions.incr();
        }
        Ok(MergeOutcome {
            changed: changed || reclaimed,
            reclaimed,
        })
    }

    /// Serve one bootstrap announce: merge it and return the encoded snapshot
    /// of the merged book to reply with.
    pub fn serve_announce(&self, msg: &MembershipMsg) -> Result<Vec<u8>, String> {
        if msg.kind != MembershipKind::Announce {
            return Err(format!(
                "expected a membership announce, got {:?}",
                msg.kind
            ));
        }
        self.merge_msg(msg)?;
        self.announces.incr();
        Ok(self.snapshot_msg(MembershipKind::Snapshot).encode())
    }

    /// [`Self::serve_announce`] over a blocking stream (seed discovery, before
    /// any event loop exists). The stream is closed by the caller dropping it.
    fn serve_stream(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(EXCHANGE_READ_CAP))?;
        let msg = MembershipMsg::read_from(stream)?;
        let reply = self
            .serve_announce(&msg)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
        stream.write_all(&reply)?;
        stream.flush()
    }

    /// Dial `src` and run one push–pull exchange: announce the full book,
    /// merge the snapshot reply.
    fn exchange(&self, src: SocketAddr) -> io::Result<MergeOutcome> {
        let mut stream = TcpStream::connect_timeout(&src, EXCHANGE_CONNECT_CAP)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(EXCHANGE_READ_CAP))?;
        let announce = self.snapshot_msg(MembershipKind::Announce);
        stream.write_all(&announce.encode())?;
        stream.flush()?;
        let reply = MembershipMsg::read_from(&mut stream)?;
        if reply.kind != MembershipKind::Snapshot {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a membership snapshot, got {:?}", reply.kind),
            ));
        }
        self.merge_msg(&reply)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }
}

/// What a merge did, for the caller's re-gossip / re-announce decision.
#[derive(Debug, Clone, Copy)]
pub struct MergeOutcome {
    /// The book changed (including by the post-merge own-claim): gossip
    /// emitters should push a delta.
    pub changed: bool,
    /// The merge tried to overwrite this node's own binding and the claim
    /// was re-asserted with a bumped incarnation: the node must re-announce.
    pub reclaimed: bool,
}

/// What seed discovery hands to the establish phase.
#[derive(Debug)]
pub struct MembershipView {
    /// The live membership state; set it as
    /// [`crate::resume::ResilienceConfig::membership`] so redials consult the
    /// book and gossip keeps it converging.
    pub handle: MembershipHandle,
    /// The complete `id → addr` table learned from the seeds, in id order
    /// (this node's own slot included) — a drop-in replacement for the
    /// static `--peers` table.
    pub peer_addrs: Vec<SocketAddr>,
    /// This node's incarnation after bootstrap (> 0 means it adopted its id
    /// from a dead predecessor at another address).
    pub incarnation: u32,
}

/// Bootstrap the address book from seed nodes.
///
/// Loops until the book is complete *and* this node's latest own-claim has
/// been pushed to at least one live source: serve inbound `GHHM` exchanges
/// on `listener` (any other connection is a faster peer's `GHHR` dial — it
/// is dropped, and its owner redials once this node establishes), dial
/// every known source (the seeds plus every learned peer address) with a
/// push–pull exchange, and re-assert the own claim after every merge. A
/// replacement node discovers its predecessor's binding in the first
/// snapshot it pulls, re-claims with a bumped incarnation, and the forced
/// re-announce spreads the adoption.
///
/// `listener` is left in nonblocking mode (the establish phases set their
/// own modes). Sources equal to this node's own address are skipped, so a
/// node may be (or list) its own seed.
pub fn discover(
    id: ServerId,
    num_servers: usize,
    listener: &TcpListener,
    seeds: &[SocketAddr],
    timeout: Duration,
) -> io::Result<MembershipView> {
    if seeds.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "seed discovery needs at least one --seed address",
        ));
    }
    let own_addr = listener.local_addr()?;
    if own_addr.ip().is_unspecified() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "cannot advertise wildcard listener address {own_addr}; \
                 --listen must be a peer-dialable address when using --seed"
            ),
        ));
    }
    listener.set_nonblocking(true)?;
    let handle = MembershipHandle::new(id, num_servers, own_addr);
    let mut needs_push = true;
    let deadline = Instant::now() + timeout;
    loop {
        // Serve whoever is dialing us right now.
        loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    // Accepted sockets inherit O_NONBLOCK on some platforms.
                    let _ = stream.set_nonblocking(false);
                    let _ = handle.serve_stream(&mut stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }

        {
            let book = handle.lock_book();
            if book.is_complete() && !needs_push {
                let peer_addrs = book.peer_addrs().map_err(io::Error::other)?;
                let incarnation = book.get(id).map_or(0, |e| e.incarnation);
                drop(book);
                return Ok(MembershipView {
                    handle,
                    peer_addrs,
                    incarnation,
                });
            }
        }

        // Dial every known source once: the seeds, plus every address the
        // book already learned (a seed may only know part of the cluster).
        let mut sources: Vec<SocketAddr> = seeds.to_vec();
        {
            let book = handle.lock_book();
            sources.extend(book.wire_entries().iter().map(|e| e.addr));
        }
        sources.sort();
        sources.dedup();
        sources.retain(|&s| s != own_addr);
        for src in sources {
            if let Ok(outcome) = handle.exchange(src) {
                needs_push = outcome.reclaimed;
            }
        }

        if Instant::now() >= deadline {
            let book = handle.lock_book();
            let known: Vec<ServerId> = book.wire_entries().iter().map(|e| e.id).collect();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "seed discovery for server {id} timed out after {timeout:?}; \
                     learned addresses for servers {known:?} of {num_servers}"
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Exponential redial backoff with deterministic, seeded jitter.
///
/// Attempt `k` sleeps a uniform-ish draw from `[d/2, d]` where
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

    #[test]
    fn book_merge_is_last_writer_wins_on_incarnation() {
        let mut book = AddressBook::new(3);
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
        let mut ab = AddressBook::new(1);
        ab.observe(a);
        ab.observe(b);
        let mut ba = AddressBook::new(1);
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
        let mut fwd = AddressBook::new(3);
        fwd.merge(&updates);
        let mut rev = AddressBook::new(3);
        let mut reversed = updates;
        reversed.reverse();
        rev.merge(&reversed);
        for id in 0..3 {
            assert_eq!(fwd.get(id), rev.get(id), "server {id} diverged");
        }
    }

    #[test]
    fn claim_own_bumps_over_a_predecessor() {
        let mut book = AddressBook::new(2);
        // Fresh claim starts at incarnation 0.
        assert!(book.claim_own(1, addr(9001)));
        assert_eq!(book.get(1).unwrap().incarnation, 0);
        // Re-claiming the same address is a no-op.
        assert!(!book.claim_own(1, addr(9001)));
        // A predecessor's binding arrives with a higher incarnation…
        assert!(book.observe(entry(1, 4, 9500)));
        // …and the claim takes it back with a strictly higher one.
        assert!(book.claim_own(1, addr(9001)));
        let e = book.get(1).unwrap();
        assert_eq!(e.addr, addr(9001));
        assert_eq!(e.incarnation, 5);
    }

    #[test]
    fn version_bumps_only_on_change() {
        let mut book = AddressBook::new(2);
        assert_eq!(book.version(), 0);
        book.observe(entry(0, 0, 9000));
        assert_eq!(book.version(), 1);
        book.observe(entry(0, 0, 9000)); // no change
        assert_eq!(book.version(), 1);
        book.observe(entry(1, 0, 9001));
        assert_eq!(book.version(), 2);
        assert!(book.is_complete());
    }

    #[test]
    fn merge_msg_counts_adoptions_and_reclaims_own_slot() {
        let state = MembershipHandle::new(0, 3, addr(9000));
        // Peer 1 announces itself and peer 2.
        let out = state
            .merge_msg(&MembershipMsg {
                kind: MembershipKind::Announce,
                cluster_size: 3,
                sender: 1,
                book_version: 1,
                entries: vec![entry(1, 0, 9001), entry(2, 0, 9002)],
            })
            .unwrap();
        assert!(out.changed);
        assert!(!out.reclaimed);
        // A replacement for server 1 announces from a new address.
        let out = state
            .merge_msg(&MembershipMsg {
                kind: MembershipKind::Announce,
                cluster_size: 3,
                sender: 1,
                book_version: 2,
                entries: vec![entry(1, 1, 9101)],
            })
            .unwrap();
        assert!(out.changed);
        assert_eq!(state.peer_addr(1), Some(addr(9101)));
        // A stale echo trying to move *our* id is re-claimed with a bump.
        let out = state
            .merge_msg(&MembershipMsg {
                kind: MembershipKind::Delta,
                cluster_size: 3,
                sender: 2,
                book_version: 9,
                entries: vec![entry(0, 3, 9900)],
            })
            .unwrap();
        assert!(out.reclaimed);
        assert_eq!(state.peer_addr(0), Some(addr(9000)));
        assert_eq!(state.own_incarnation(), 4);
        // Cluster-size mismatch is rejected.
        assert!(state
            .merge_msg(&MembershipMsg {
                kind: MembershipKind::Delta,
                cluster_size: 4,
                sender: 1,
                book_version: 1,
                entries: vec![],
            })
            .is_err());
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

    #[test]
    fn discover_converges_a_three_node_cluster_from_one_seed() {
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let seed = listeners[0].local_addr().unwrap();
        let expected: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let views: Vec<MembershipView> = std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .iter()
                .enumerate()
                .map(|(id, listener)| {
                    scope.spawn(move || {
                        discover(
                            id as ServerId,
                            3,
                            listener,
                            &[seed],
                            Duration::from_secs(10),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for view in &views {
            assert_eq!(view.peer_addrs, expected);
            assert_eq!(view.incarnation, 0);
        }
    }

    #[test]
    fn discover_adopts_a_dead_id_at_a_new_address() {
        // A standing "survivor" serving GHHM on its listener, already
        // holding a complete 2-server book with the dead predecessor's
        // address for server 1.
        let survivor_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let survivor_addr = survivor_listener.local_addr().unwrap();
        let survivor = MembershipHandle::new(0, 2, survivor_addr);
        survivor
            .merge_msg(&MembershipMsg {
                kind: MembershipKind::Announce,
                cluster_size: 2,
                sender: 1,
                book_version: 1,
                // The dead predecessor's port is above the ephemeral range,
                // so the equal-incarnation tie-break favors it and the
                // replacement is forced down the bump-and-re-announce path.
                entries: vec![entry(1, 0, 65535)],
            })
            .unwrap();
        survivor_listener.set_nonblocking(true).unwrap();

        let replacement_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let replacement_addr = replacement_listener.local_addr().unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let view = std::thread::scope(|scope| {
            let survivor = &survivor;
            let survivor_listener = &survivor_listener;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match survivor_listener.accept() {
                        Ok((mut stream, _)) => {
                            let _ = survivor.serve_stream(&mut stream);
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            });
            let view = discover(
                1,
                2,
                &replacement_listener,
                &[survivor_addr],
                Duration::from_secs(10),
            )
            .unwrap();
            stop.store(true, Ordering::Relaxed);
            view
        });
        // The replacement bumped over the predecessor's incarnation 0…
        assert_eq!(view.incarnation, 1);
        assert_eq!(view.peer_addrs, vec![survivor_addr, replacement_addr]);
        // …and the survivor's book now records the new address.
        assert_eq!(survivor.peer_addr(1), Some(replacement_addr));
        assert_eq!(survivor.own_incarnation(), 0);
    }
}
