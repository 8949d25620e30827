//! Reconnect-and-resume machinery of the TCP plane.
//!
//! Three pieces, all transport-agnostic and unit-testable without sockets:
//!
//! * [`ResumeHello`] — the 16-byte `GHHR` handshake an endpoint exchanges on
//!   *every* connection (initial establish and reconnect alike). The hello
//!   flows in both directions: each side tells the other the superstep it
//!   wants the peer's stream to resume from, so each side can replay its
//!   retained frames.
//! * [`ReplayLog`] — the sender-side retention buffer. Every broadcast batch
//!   written to the fabric is also retained here (shared, not copied), keyed
//!   by superstep; on reconnect the log replays everything from the peer's
//!   requested cursor, and incoming [`crate::frame::Frame::Ack`]s trim the
//!   prefix every peer has durably applied.
//! * [`ResilienceConfig`] — the three values of recovery policy a caller can
//!   set: reconnect deadline, resume cursor, discovery seeds.
//!
//! The normative byte spec lives in `docs/WIRE.md` §9; this module is the
//! reference implementation.

use crate::buffer::PooledBuf;
use graphh_graph::ids::ServerId;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Magic prefix of the resume handshake.
pub const RESUME_MAGIC: [u8; 4] = *b"GHHR";

/// Encoded size of a [`ResumeHello`].
pub const RESUME_HELLO_LEN: usize = 16;

/// The connection handshake: `b"GHHR" | u32 LE cluster size | u32 LE
/// sender id | u32 LE resume-from superstep`.
///
/// `resume_from` is the first superstep the *sender of the hello* still
/// needs: the receiving side must replay every retained frame with a
/// superstep `>= resume_from` before sending anything new on the stream.
/// On an initial connection it is 0 (nothing sent yet, nothing to replay);
/// a restarted server sends its checkpoint cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeHello {
    /// Total servers in the cluster (must agree on both ends).
    pub cluster_size: u32,
    /// The server sending this hello.
    pub sender: ServerId,
    /// First superstep the sender wants replayed.
    pub resume_from: u32,
}

impl ResumeHello {
    /// Encode to the 16-byte wire form.
    pub fn encode(&self) -> [u8; RESUME_HELLO_LEN] {
        let mut out = [0u8; RESUME_HELLO_LEN];
        out[0..4].copy_from_slice(&RESUME_MAGIC);
        out[4..8].copy_from_slice(&self.cluster_size.to_le_bytes());
        out[8..12].copy_from_slice(&self.sender.to_le_bytes());
        out[12..16].copy_from_slice(&self.resume_from.to_le_bytes());
        out
    }

    /// Decode a received hello. Errors (never panics) on any length other
    /// than exactly [`RESUME_HELLO_LEN`] or a wrong magic — truncated,
    /// duplicated, or torn hellos all land here.
    pub fn decode(bytes: &[u8]) -> Result<ResumeHello, String> {
        if bytes.len() != RESUME_HELLO_LEN {
            return Err(format!(
                "resume hello must be {RESUME_HELLO_LEN} bytes, got {}",
                bytes.len()
            ));
        }
        if bytes[0..4] != RESUME_MAGIC {
            return Err(format!(
                "bad resume-hello magic {:02x?} (expected {:02x?})",
                &bytes[0..4],
                RESUME_MAGIC
            ));
        }
        Ok(ResumeHello {
            cluster_size: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            sender: ServerId::from_le_bytes(bytes[8..12].try_into().unwrap()),
            resume_from: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        })
    }

    /// Validate a decoded hello against this endpoint's view of the cluster:
    /// the advertised size must match and the sender must be a real, other
    /// server. `expected` pins the sender when the dialed address implies one.
    pub fn check(
        &self,
        num_servers: u32,
        own_id: ServerId,
        expected: Option<ServerId>,
    ) -> Result<(), String> {
        if self.cluster_size != num_servers {
            return Err(format!(
                "peer believes the cluster has {} servers, this node {num_servers}",
                self.cluster_size
            ));
        }
        if self.sender >= num_servers {
            return Err(format!(
                "hello from server id {} outside the {num_servers}-server cluster",
                self.sender
            ));
        }
        if self.sender == own_id {
            return Err(format!("hello claims this node's own id {own_id}"));
        }
        if let Some(expected) = expected {
            if self.sender != expected {
                return Err(format!(
                    "expected hello from server {expected}, got {}",
                    self.sender
                ));
            }
        }
        Ok(())
    }
}

/// Could a resume request be satisfied from the retained frames?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The requested cursor was already trimmed away: the peer acknowledged
    /// past it and later asked for it again (it lost durable state it had
    /// claimed). Unrecoverable — the caller falls back to the terminal
    /// peer-lost path.
    BelowFloor {
        /// The superstep the peer asked to resume from.
        requested: u32,
        /// The first superstep still retained.
        floor: u32,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BelowFloor { requested, floor } => write!(
                f,
                "peer asked to resume from superstep {requested} but frames below {floor} \
                 were trimmed after acknowledgement"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// One retained broadcast batch: the buffer the event loop already shares
/// across its peers' write queues, held here too until every peer acks its
/// superstep — retention costs a reference count, not a copy.
#[derive(Debug)]
struct ReplayEntry {
    superstep: u32,
    batch: Arc<PooledBuf>,
}

/// Sender-side frame retention for reconnect replay.
///
/// Every batch of frames an endpoint broadcasts (messages *and* end-of-
/// superstep markers) is retained here in superstep order. Retention is
/// bounded by acknowledgements: `Ack(s)` from a peer means that peer durably
/// holds its state through superstep `s` (its process applied `s`, and — when
/// checkpointing — wrote the checkpoint covering it), so once **every** peer
/// has acknowledged `s`, frames `<= s` can never be requested again and are
/// trimmed (their buffers return to the pool). A resume request below the
/// trim floor is the peer violating its own acknowledgement and is rejected
/// as unrecoverable.
#[derive(Debug)]
pub struct ReplayLog {
    /// Retained batches in stream order; supersteps ascend (a superstep may
    /// span several batches) and none lies below `trimmed_until`.
    entries: VecDeque<ReplayEntry>,
    /// Supersteps strictly below this were trimmed (0 = nothing trimmed).
    trimmed_until: u32,
    /// Highest superstep each server acknowledged (`None` = never acked).
    /// The own slot is ignored by the trim rule.
    acked: Vec<Option<u32>>,
    /// This endpoint's id (its `acked` slot never gates trimming).
    own: ServerId,
    /// Total retained payload bytes, for observability.
    bytes_retained: usize,
}

impl ReplayLog {
    /// An empty log for a `num_servers`-cluster endpoint with id `own`.
    pub fn new(num_servers: u32, own: ServerId) -> Self {
        Self::resuming_from(num_servers, own, 0)
    }

    /// An empty log for an endpoint resuming at superstep `resume_from`: the
    /// floor starts there, because nothing below it can ever be replayed —
    /// those frames belonged to the dead predecessor, and any of them still
    /// unflushed when it was killed are gone for good. A peer whose hello
    /// asks below this floor is therefore rejected as unrecoverable
    /// ([`ReplayError::BelowFloor`]) instead of silently receiving an empty
    /// replay and waiting forever for frames no one holds.
    pub fn resuming_from(num_servers: u32, own: ServerId, resume_from: u32) -> Self {
        Self {
            entries: VecDeque::new(),
            trimmed_until: resume_from,
            acked: vec![None; num_servers as usize],
            own,
            bytes_retained: 0,
        }
    }

    /// Retain `batch`, whole frames broadcast for `superstep`.
    /// Appends must come in non-decreasing superstep order — the broadcast
    /// path is serial per endpoint, so they do.
    ///
    /// A superstep below the floor is not retained, for nobody can ever ask
    /// for it: a restarted server re-executing from its checkpoint
    /// re-broadcasts supersteps every peer has long acknowledged (their
    /// repeated acks raise the floor on reconnect), and once every peer is
    /// forgotten the floor is past everything.
    pub fn append(&mut self, superstep: u32, batch: Arc<PooledBuf>) {
        if superstep < self.trimmed_until {
            return;
        }
        debug_assert!(self
            .entries
            .back()
            .is_none_or(|last| last.superstep <= superstep));
        self.bytes_retained += batch.len();
        self.entries.push_back(ReplayEntry { superstep, batch });
    }

    /// Record `Ack(superstep)` from `peer` and trim every superstep that all
    /// peers have now acknowledged.
    pub fn ack(&mut self, peer: ServerId, superstep: u32) {
        let Some(slot) = self.acked.get_mut(peer as usize) else {
            return; // hostile sender id: ignore rather than panic
        };
        *slot = Some(slot.map_or(superstep, |s| s.max(superstep)));
        self.trim();
    }

    /// Stop counting `peer` toward the retention floor: the peer is
    /// terminally lost, so its acks can never arrive and holding frames for
    /// it would pin the log (and a lingering drop) forever.
    pub fn forget(&mut self, peer: ServerId) {
        let Some(slot) = self.acked.get_mut(peer as usize) else {
            return;
        };
        *slot = Some(u32::MAX);
        self.trim();
    }

    /// Drop every retained superstep at or below the minimum acknowledgement
    /// across all peers other than ourselves.
    fn trim(&mut self) {
        let floor = self
            .acked
            .iter()
            .enumerate()
            .filter(|&(id, _)| id as ServerId != self.own)
            .map(|(_, a)| *a)
            .min()
            .flatten();
        if let Some(floor) = floor {
            while self.entries.front().is_some_and(|e| e.superstep <= floor) {
                let gone = self.entries.pop_front().unwrap();
                self.bytes_retained -= gone.batch.len();
            }
            self.trimmed_until = self.trimmed_until.max(floor.saturating_add(1));
        }
    }

    /// Every batch retained from `resume_from` on, in stream order (shared,
    /// not copied — the caller enqueues them as they are) — or
    /// [`ReplayError::BelowFloor`] when the cursor was already trimmed.
    pub fn replay_from(&self, resume_from: u32) -> Result<Vec<Arc<PooledBuf>>, ReplayError> {
        if resume_from < self.trimmed_until {
            return Err(ReplayError::BelowFloor {
                requested: resume_from,
                floor: self.trimmed_until,
            });
        }
        Ok(self
            .entries
            .iter()
            .filter(|e| e.superstep >= resume_from)
            .map(|e| Arc::clone(&e.batch))
            .collect())
    }

    /// First superstep a resume request may still ask for.
    pub fn floor(&self) -> u32 {
        self.trimmed_until
    }

    /// Total retained payload bytes.
    pub fn bytes_retained(&self) -> usize {
        self.bytes_retained
    }

    /// Number of distinct supersteps with retained batches.
    pub fn retained_supersteps(&self) -> usize {
        let mut count = 0;
        let mut last = None;
        for entry in &self.entries {
            if last != Some(entry.superstep) {
                count += 1;
                last = Some(entry.superstep);
            }
        }
        count
    }
}

/// The recovery policy of one TCP endpoint: what differs between callers.
/// (Redial pacing does not — see [`crate::fabric::RETRY_BACKOFF`].)
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// How long a cut peer may stay down before the terminal
    /// [`crate::frame::InboxEvent::PeerLost`] fires.
    pub reconnect_deadline: Duration,
    /// The superstep this endpoint resumes from (0 for a fresh start; a
    /// restarted server passes its checkpoint cursor). Sent in every
    /// [`ResumeHello`] and used to seed the per-peer receive cursors.
    pub resume_from: u32,
    /// Addresses of cluster members to discover the address book from
    /// (`docs/WIRE.md` §10), in place of a static peer table: the fabric
    /// starts knowing only its own address, announces itself to the seeds
    /// and to every address it learns, answers `GHHM` announces on its
    /// listener and gossips book changes on its live links, so a replacement
    /// peer is redialed at its new address. Empty = the static table the
    /// caller hands to `establish`, nothing of §10 on the wire.
    pub seeds: Vec<SocketAddr>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            reconnect_deadline: Duration::from_secs(30),
            resume_from: 0,
            seeds: Vec::new(),
        }
    }
}

impl ResilienceConfig {
    /// Default policy resuming from `superstep` (a restarted server's
    /// checkpoint cursor).
    pub fn resuming_from(superstep: u32) -> Self {
        Self {
            resume_from: superstep,
            ..Self::default()
        }
    }
}

/// Count the length-prefixed frames in a run of encoded frame bytes (used to
/// meter batches when they are replayed; trusts the bytes, which this
/// endpoint encoded).
pub(crate) fn count_frames(mut bytes: &[u8]) -> u64 {
    let mut frames = 0u64;
    while bytes.len() >= 4 {
        let body = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() < 4 + body {
            break;
        }
        bytes = &bytes[4 + body..];
        frames += 1;
    }
    frames
}

/// Validate a `--peers` table before any connection is attempted, so a
/// misconfigured cluster fails at plan time with a clear message instead of
/// hanging in establish or failing halfway through.
///
/// Rejects: mixing a static `--peers` table with `--seed` discovery (the two
/// are alternative sources of the same address book — a node must pick one),
/// a table whose length disagrees with the cluster size, an own id outside
/// the cluster, duplicate addresses (two servers cannot share an endpoint —
/// and a duplicate of the own entry is another server dialing *this* node),
/// a port-0 entry (not dialable), and — when the node's own bound address is
/// known — any *other* server's entry pointing at it.
pub fn validate_peer_table(
    id: ServerId,
    num_servers: u32,
    peers: &[SocketAddr],
    seeds: &[SocketAddr],
    own_addr: Option<SocketAddr>,
) -> Result<(), String> {
    if !peers.is_empty() && !seeds.is_empty() {
        return Err(format!(
            "--peers and --seed are mutually exclusive: the static table \
             ({} peers) and seed discovery ({} seeds) are alternative sources \
             of the address book — drop one",
            peers.len(),
            seeds.len()
        ));
    }
    if num_servers == 0 {
        return Err("cluster size must be at least 1".into());
    }
    if id >= num_servers {
        return Err(format!(
            "server id {id} outside the {num_servers}-server cluster"
        ));
    }
    if peers.is_empty() && !seeds.is_empty() {
        // Seed-discovery mode: the table is learned, not declared. Only the
        // seed addresses themselves can be vetted at plan time.
        for (i, seed) in seeds.iter().enumerate() {
            if seed.port() == 0 {
                return Err(format!("seed {i} address {seed} has port 0 (not dialable)"));
            }
        }
        return Ok(());
    }
    if peers.len() != num_servers as usize {
        return Err(format!(
            "--peers lists {} addresses for a {num_servers}-server cluster \
             (one address per server, indexed by server id)",
            peers.len()
        ));
    }
    for (i, addr) in peers.iter().enumerate() {
        if addr.port() == 0 {
            return Err(format!("peer {i} address {addr} has port 0 (not dialable)"));
        }
        for (j, other) in peers.iter().enumerate().skip(i + 1) {
            if addr == other {
                return Err(format!(
                    "peers {i} and {j} share address {addr}: every server needs \
                     its own endpoint"
                ));
            }
        }
    }
    if let Some(own) = own_addr {
        for (j, addr) in peers.iter().enumerate() {
            if j as ServerId == id {
                continue;
            }
            let same_ip = addr.ip() == own.ip() || own.ip().is_unspecified();
            if same_ip && addr.port() == own.port() {
                return Err(format!(
                    "peer {j} address {addr} is this node's own listen address \
                     (self-dialing entry; did the --peers order slip?)"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::frame::Frame;

    #[test]
    fn resume_hello_roundtrips() {
        let hello = ResumeHello {
            cluster_size: 5,
            sender: 3,
            resume_from: 17,
        };
        assert_eq!(ResumeHello::decode(&hello.encode()), Ok(hello));
        assert!(hello.check(5, 0, Some(3)).is_ok());
        assert!(hello.check(5, 0, None).is_ok());
    }

    /// Every truncation, extension, and random corruption of a valid hello
    /// must error — never panic, never decode to something valid-looking with
    /// the wrong magic.
    #[test]
    fn resume_hello_fuzz_errors_never_panics() {
        let valid = ResumeHello {
            cluster_size: 3,
            sender: 2,
            resume_from: 9,
        }
        .encode();
        for cut in 0..valid.len() {
            assert!(ResumeHello::decode(&valid[..cut]).is_err(), "cut {cut}");
        }
        let mut doubled = valid.to_vec();
        doubled.extend_from_slice(&valid);
        assert!(
            ResumeHello::decode(&doubled).is_err(),
            "a duplicated hello must not decode"
        );
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let mut corrupt = valid;
            for _ in 0..(1 + next() as usize % 4) {
                let i = next() as usize % corrupt.len();
                corrupt[i] ^= (1 + next() % 255) as u8;
            }
            let outcome = std::panic::catch_unwind(|| {
                let _ = ResumeHello::decode(&corrupt);
            });
            assert!(outcome.is_ok(), "hello decode panicked");
        }
    }

    /// Stale or hostile cursor/size/id fields are semantic errors surfaced by
    /// `check`, not panics.
    #[test]
    fn resume_hello_check_rejects_wrong_cluster_and_ids() {
        let hello = ResumeHello {
            cluster_size: 3,
            sender: 2,
            resume_from: 0,
        };
        assert!(hello.check(4, 0, None).is_err(), "cluster size mismatch");
        assert!(hello.check(3, 2, None).is_err(), "own id as sender");
        assert!(hello.check(3, 0, Some(1)).is_err(), "unexpected sender");
        let out_of_range = ResumeHello {
            cluster_size: 3,
            sender: 7,
            resume_from: 0,
        };
        assert!(
            out_of_range.check(3, 0, None).is_err(),
            "id outside cluster"
        );
    }

    fn eos_bytes(sender: ServerId, superstep: u32) -> Vec<u8> {
        let mut out = Vec::new();
        Frame::EndOfSuperstep { sender, superstep }.encode(&mut out);
        out
    }

    /// Retain `bytes` as one pooled batch, the way the event loop does.
    fn append(log: &mut ReplayLog, pool: &BufferPool, superstep: u32, bytes: &[u8]) {
        let mut batch = pool.checkout();
        batch.extend_from_slice(bytes);
        log.append(superstep, Arc::new(batch));
    }

    /// The replay as the byte run the peer would receive.
    fn replay_bytes(log: &ReplayLog, resume_from: u32) -> Result<Vec<u8>, ReplayError> {
        let batches = log.replay_from(resume_from)?;
        Ok(batches.iter().flat_map(|b| b.iter().copied()).collect())
    }

    /// The exact retention/trim contract at superstep acks: nothing is
    /// trimmed until *every* peer acknowledged a superstep, then exactly the
    /// acknowledged prefix goes, and a request below the floor is rejected.
    #[test]
    fn replay_log_trims_only_the_prefix_every_peer_acked() {
        let pool = BufferPool::new();
        let mut log = ReplayLog::new(3, 0); // own id 0, peers 1 and 2
        for s in 0..4u32 {
            append(&mut log, &pool, s, &[s as u8; 10]);
            append(&mut log, &pool, s, &eos_bytes(0, s));
        }
        assert_eq!(log.retained_supersteps(), 4);
        assert_eq!(log.floor(), 0);

        // One peer acking does not trim: the other might still need frames.
        log.ack(1, 2);
        assert_eq!(log.retained_supersteps(), 4);
        assert_eq!(log.floor(), 0);

        // The slowest peer's ack is what gates: min(2, 0) = 0 trims <= 0.
        log.ack(2, 0);
        assert_eq!(log.retained_supersteps(), 3);
        assert_eq!(log.floor(), 1);

        // Acks are monotone: a stale lower ack never un-trims or regresses.
        log.ack(1, 1);
        assert_eq!(log.floor(), 1);

        // Catch-up trims to the new common prefix.
        log.ack(2, 2);
        assert_eq!(log.retained_supersteps(), 1);
        assert_eq!(log.floor(), 3);

        // Replay at or above the floor works; below it is unrecoverable.
        let mut superstep_3 = vec![3u8; 10];
        superstep_3.extend_from_slice(&eos_bytes(0, 3));
        assert_eq!(replay_bytes(&log, 3).unwrap(), superstep_3);
        assert!(matches!(
            log.replay_from(2),
            Err(ReplayError::BelowFloor {
                requested: 2,
                floor: 3
            })
        ));
    }

    #[test]
    fn replay_log_groups_same_superstep_appends_and_meters_bytes() {
        let pool = BufferPool::new();
        let mut log = ReplayLog::new(2, 1);
        append(&mut log, &pool, 0, &[1, 2, 3]);
        append(&mut log, &pool, 0, &[4, 5]);
        append(&mut log, &pool, 1, &[6]);
        assert_eq!(log.retained_supersteps(), 2);
        assert_eq!(log.bytes_retained(), 6);
        assert_eq!(replay_bytes(&log, 0).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(replay_bytes(&log, 1).unwrap(), vec![6]);

        log.ack(0, 0);
        assert_eq!(log.bytes_retained(), 1);
    }

    /// Retention shares the batch the loop already holds, and the ack that
    /// trims it hands the buffer back to the pool.
    #[test]
    fn retained_batches_are_shared_and_return_to_the_pool_when_trimmed() {
        let pool = BufferPool::new();
        let mut log = ReplayLog::new(2, 0);
        let mut batch = pool.checkout();
        batch.extend_from_slice(&eos_bytes(0, 0));
        let batch = Arc::new(batch);
        log.append(0, Arc::clone(&batch));
        let replayed = log.replay_from(0).unwrap();
        assert!(Arc::ptr_eq(&replayed[0], &batch), "no copy on replay");
        drop((replayed, batch));
        assert_eq!(pool.pooled(), 0, "the log still holds the buffer");
        log.ack(1, 0);
        assert_eq!(pool.pooled(), 1, "trimmed buffers go home");
    }

    #[test]
    fn replay_log_ignores_hostile_acker_ids() {
        let mut log = ReplayLog::new(2, 0);
        append(&mut log, &BufferPool::new(), 0, &[9]);
        log.ack(777, 5); // out of range: ignored, nothing trimmed
        assert_eq!(log.retained_supersteps(), 1);
    }

    #[test]
    fn restarted_log_rejects_cursors_below_its_resume_point() {
        // A replacement resuming at superstep 3 can never replay anything
        // below it — those frames died with its predecessor. A peer asking
        // for them must get a terminal rejection, not a silent empty replay
        // that leaves it waiting forever for frames no one holds.
        let log = ReplayLog::resuming_from(2, 1, 3);
        assert_eq!(log.floor(), 3);
        assert!(matches!(
            log.replay_from(2),
            Err(ReplayError::BelowFloor {
                requested: 2,
                floor: 3
            })
        ));
        assert!(log.replay_from(3).unwrap().is_empty());
    }

    #[test]
    fn count_frames_counts_whole_frames_only() {
        let mut bytes = eos_bytes(0, 1);
        bytes.extend_from_slice(&eos_bytes(0, 2));
        assert_eq!(count_frames(&bytes), 2);
        bytes.truncate(bytes.len() - 1);
        assert_eq!(count_frames(&bytes), 1);
        assert_eq!(count_frames(&[]), 0);
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn peer_table_validation_catches_misconfigurations() {
        let table = vec![addr(4750), addr(4751), addr(4752)];
        assert!(validate_peer_table(0, 3, &table, &[], Some(addr(4750))).is_ok());

        // Count mismatch.
        let err = validate_peer_table(0, 4, &table, &[], None).unwrap_err();
        assert!(err.contains("lists 3 addresses"), "{err}");

        // Duplicate addresses.
        let dup = vec![addr(4750), addr(4751), addr(4750)];
        let err = validate_peer_table(1, 3, &dup, &[], None).unwrap_err();
        assert!(err.contains("share address"), "{err}");

        // Self-dialing entry: another server's slot points at this node.
        let selfdial = vec![addr(4750), addr(4751), addr(4752)];
        let err = validate_peer_table(0, 3, &selfdial, &[], Some(addr(4751))).unwrap_err();
        assert!(err.contains("own listen address"), "{err}");

        // Unspecified own IP still matches on port.
        let own: SocketAddr = "0.0.0.0:4752".parse().unwrap();
        let err = validate_peer_table(0, 3, &selfdial, &[], Some(own)).unwrap_err();
        assert!(err.contains("own listen address"), "{err}");

        // Port 0 and bad ids.
        let zero = vec![addr(4750), "127.0.0.1:0".parse().unwrap()];
        assert!(validate_peer_table(0, 2, &zero, &[], None).is_err());
        assert!(validate_peer_table(5, 3, &table, &[], None).is_err());
        assert!(validate_peer_table(0, 0, &[], &[], None).is_err());
    }

    #[test]
    fn peer_table_validation_handles_seed_mode() {
        let table = vec![addr(4750), addr(4751), addr(4752)];
        let seeds = vec![addr(4750)];

        // Mixing the static table with seeds is a plan-time error.
        let err = validate_peer_table(0, 3, &table, &seeds, None).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        // Seeds alone are fine — the table is learned, not declared…
        assert!(validate_peer_table(2, 3, &[], &seeds, Some(addr(4752))).is_ok());
        // …but the seed addresses themselves must be dialable,
        let bad_seed = vec!["127.0.0.1:0".parse().unwrap()];
        assert!(validate_peer_table(2, 3, &[], &bad_seed, None).is_err());
        // and the usual id-range checks still apply.
        assert!(validate_peer_table(9, 3, &[], &seeds, None).is_err());
    }
}
