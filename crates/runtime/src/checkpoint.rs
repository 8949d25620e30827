//! A server's state at a superstep boundary: the `GHHC` encoding.
//!
//! A checkpoint is everything a worker needs to rejoin a run mid-flight:
//! the superstep cursor (the next superstep to execute), the frontier that
//! superstep starts from, and the full vertex-replica values — the values in
//! the same `GHHV` section the `graphh-node --out` value files use, so a
//! checkpoint's value payload is bit-compatible with the run's final output
//! format. Under All-in-All replication every server holds the same three
//! after each `apply`, so a restarted server takes them from a live peer:
//! the peer's state frame (`docs/WIRE.md` §9.4) carries exactly this
//! encoding, addressed to the receiver, and supersteps are deterministic, so
//! the replacement recomputes byte-identical state from there.
//!
//! ```text
//! b"GHHC" | u32 LE version=1 | u32 LE server id | u32 LE next superstep
//!         | u64 LE frontier count | u32 LE frontier vertex ids ...
//!         | b"GHHV" | u64 LE value count | f64 bits LE ...
//! ```
//!
//! Decoding rejects truncated, corrupt or over-long bytes. [`CheckpointSink`]
//! still writes the encoding to a file, atomically; only the benchmark's
//! layer probe does.

use graphh_graph::ids::{ServerId, VertexId};
use graphh_obs::global_counters;
use std::io::Write;
use std::path::PathBuf;

/// Magic header of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GHHC";

/// Magic header of a value file / checkpoint value section.
pub const VALUES_MAGIC: [u8; 4] = *b"GHHV";

/// Checkpoint format version this build writes and reads.
const CHECKPOINT_VERSION: u32 = 1;

/// Bytes of the `GHHC` header: magic, version, server, cursor, frontier
/// count.
pub const CHECKPOINT_HEADER: usize = 24;

/// Serialize vertex values the way `graphh-node --out` writes them: magic,
/// u64 LE count, then each value's f64 bits LE — lossless, so two files are
/// byte-equal iff the runs were bit-identical.
pub fn encode_values(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + values.len() * 8);
    out.extend_from_slice(&VALUES_MAGIC);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Parse a value file back into vertex values.
pub fn decode_values(bytes: &[u8]) -> Result<Vec<f64>, String> {
    if bytes.len() < 12 || bytes[0..4] != VALUES_MAGIC {
        return Err("not a GHHV value file".into());
    }
    let count = u64::from_le_bytes(bytes[4..12].try_into().unwrap()) as usize;
    // Checked arithmetic: the count is untrusted file bytes, and a corrupt
    // header must come back as Err, not overflow.
    let expected = count
        .checked_mul(8)
        .and_then(|payload| payload.checked_add(12));
    if expected != Some(bytes.len()) {
        return Err(format!(
            "value file length {} does not match its count {count}",
            bytes.len()
        ));
    }
    Ok(bytes[12..]
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
        .collect())
}

/// The `GHHC` bytes of [`Checkpoint`] `{ server, next_superstep, frontier,
/// values }`, from borrowed parts: a survivor encodes its replica for a
/// restarted peer without copying it first.
pub fn encode_state(
    server: ServerId,
    next_superstep: u32,
    frontier: &[VertexId],
    values: &[f64],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(36 + frontier.len() * 4 + values.len() * 8);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&server.to_le_bytes());
    out.extend_from_slice(&next_superstep.to_le_bytes());
    out.extend_from_slice(&(frontier.len() as u64).to_le_bytes());
    for v in frontier {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&encode_values(values));
    out
}

/// The cursor of `GHHC` bytes, if they hold a header.
pub fn encoded_cursor(bytes: &[u8]) -> Option<u32> {
    let header = bytes.get(..CHECKPOINT_HEADER)?;
    (header[..4] == CHECKPOINT_MAGIC)
        .then(|| u32::from_le_bytes(header[12..16].try_into().unwrap()))
}

/// One server's resumable state at a superstep boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The server this snapshot belongs to.
    pub server: ServerId,
    /// The next superstep to execute (every superstep below it is applied).
    pub next_superstep: u32,
    /// The frontier `next_superstep` starts from (vertices updated by the
    /// last applied superstep).
    pub frontier: Vec<VertexId>,
    /// The full vertex-replica values after the last applied superstep.
    pub values: Vec<f64>,
}

impl Checkpoint {
    /// Encode to the `GHHC` byte form.
    pub fn encode(&self) -> Vec<u8> {
        encode_state(
            self.server,
            self.next_superstep,
            &self.frontier,
            &self.values,
        )
    }

    /// Decode `GHHC` bytes. Any truncation, length mismatch, trailing byte or
    /// bad magic is an error: they are a peer's bytes.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        if bytes.len() < CHECKPOINT_HEADER || bytes[0..4] != CHECKPOINT_MAGIC {
            return Err("not a GHHC checkpoint file".into());
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            ));
        }
        let server = ServerId::from_le_bytes(bytes[8..12].try_into().unwrap());
        let next_superstep = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let frontier_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let frontier_end = frontier_count
            .checked_mul(4)
            .and_then(|n| n.checked_add(24))
            .ok_or("checkpoint frontier count overflows")?;
        if bytes.len() < frontier_end {
            return Err(format!(
                "checkpoint truncated inside its frontier ({} of {frontier_end} bytes)",
                bytes.len()
            ));
        }
        let frontier: Vec<VertexId> = bytes[24..frontier_end]
            .chunks_exact(4)
            .map(|c| VertexId::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let values = decode_values(&bytes[frontier_end..])
            .map_err(|e| format!("checkpoint value section: {e}"))?;
        Ok(Checkpoint {
            server,
            next_superstep,
            frontier,
            values,
        })
    }
}

/// Writes checkpoints to files, atomically and durably. Only the
/// benchmark's write probe uses it: recovery takes a live peer's state
/// instead.
#[derive(Debug, Clone)]
pub struct CheckpointSink {
    dir: PathBuf,
}

impl CheckpointSink {
    /// A sink writing to `dir`. `_every` is unused: the signature stays
    /// for `benchmark/`'s write probe, which goes with this type.
    pub fn new(dir: impl Into<PathBuf>, _every: u32) -> Self {
        Self { dir: dir.into() }
    }

    /// The checkpoint file of `server` under this sink's directory.
    pub fn path_for(&self, server: ServerId) -> PathBuf {
        self.dir.join(format!("ckpt-s{server}.ghhc"))
    }

    /// Atomically and durably write `checkpoint` (tmp + fsync + rename +
    /// fsync of the directory), returning its size. A crash mid-write leaves
    /// the previous file intact.
    pub fn write(&self, checkpoint: &Checkpoint) -> Result<u64, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("create checkpoint dir {}: {e}", self.dir.display()))?;
        let bytes = checkpoint.encode();
        let tmp = self
            .dir
            .join(format!("ckpt-s{}.ghhc.tmp", checkpoint.server));
        let path = self.path_for(checkpoint.server);
        {
            let mut file = std::fs::File::create(&tmp)
                .map_err(|e| format!("create {}: {e}", tmp.display()))?;
            file.write_all(&bytes)
                .map_err(|e| format!("write {}: {e}", tmp.display()))?;
            file.sync_all()
                .map_err(|e| format!("sync {}: {e}", tmp.display()))?;
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("rename {} into place: {e}", tmp.display()))?;
        // The rename lives in the directory: sync it too, or a power loss can
        // bring back the old name. (Unix only: elsewhere a directory cannot
        // be opened as a file.)
        #[cfg(unix)]
        std::fs::File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| format!("sync {}: {e}", self.dir.display()))?;
        global_counters()
            .counter("fabric.checkpoint_bytes")
            .add(bytes.len() as u64);
        Ok(bytes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            server: 2,
            next_superstep: 7,
            frontier: vec![0, 5, 17, 255],
            values: vec![
                0.0,
                -1.5,
                f64::MAX,
                1e-300,
                f64::from_bits(0x7ff8_0000_0000_0001),
            ],
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let ckpt = sample();
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded.server, ckpt.server);
        assert_eq!(decoded.next_superstep, ckpt.next_superstep);
        assert_eq!(decoded.frontier, ckpt.frontier);
        assert_eq!(decoded.values.len(), ckpt.values.len());
        for (a, b) in ckpt.values.iter().zip(&decoded.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_truncation_is_rejected_never_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let outcome = std::panic::catch_unwind(|| Checkpoint::decode(&bytes[..cut]));
            match outcome {
                Ok(result) => assert!(result.is_err(), "a {cut}-byte prefix decoded"),
                Err(_) => panic!("checkpoint decode panicked at cut {cut}"),
            }
        }
        assert!(Checkpoint::decode(b"GHHCgarbage").is_err());
    }

    #[test]
    fn values_roundtrip_losslessly() {
        let values = sample().values;
        let decoded = decode_values(&encode_values(&values)).unwrap();
        assert_eq!(values.len(), decoded.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_values(b"nope").is_err());
    }

    /// Beside the truncations: every single-bit flip of an encoding decodes
    /// to `Ok` or `Err`, never a panic, and a flip in the header or a length
    /// field never decodes at all.
    #[test]
    fn every_bit_flip_is_an_error_or_a_checkpoint_never_a_panic() {
        let bytes = sample().encode();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let outcome = std::panic::catch_unwind(|| Checkpoint::decode(&flipped));
            let decoded = outcome.unwrap_or_else(|_| panic!("decode panicked at bit {bit}"));
            // Magic, version, the frontier count, the value magic and count.
            let frontier_end = CHECKPOINT_HEADER + 4 * 4;
            let framing = (0..8).chain(16..24).chain(frontier_end..frontier_end + 12);
            if framing.clone().any(|byte| byte == bit / 8) {
                assert!(decoded.is_err(), "a flip of framing bit {bit} decoded");
            }
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(
            Checkpoint::decode(&trailing).is_err(),
            "a trailing byte decoded"
        );
    }

    /// A peer's header can claim any counts: one past the bytes it came with
    /// is refused before anything is allocated for it.
    #[test]
    fn hostile_counts_are_refused_before_allocation() {
        let mut bytes = sample().encode();
        bytes[16..24].copy_from_slice(&(u64::MAX / 4).to_le_bytes());
        assert!(Checkpoint::decode(&bytes).is_err(), "frontier count");
        let mut bytes = sample().encode();
        let values_at = CHECKPOINT_HEADER + 4 * 4 + 4;
        bytes[values_at..values_at + 8].copy_from_slice(&(u64::MAX / 8).to_le_bytes());
        assert!(Checkpoint::decode(&bytes).is_err(), "value count");
    }

    #[test]
    fn encoded_cursor_reads_the_header() {
        let bytes = sample().encode();
        assert_eq!(encoded_cursor(&bytes), Some(7));
        assert_eq!(encoded_cursor(&bytes[..CHECKPOINT_HEADER - 1]), None);
        assert_eq!(encoded_cursor(b"GHHX-not-a-checkpoint-header"), None);
    }

    #[test]
    fn sink_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("ghh-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = CheckpointSink::new(&dir, 2);
        let ckpt = sample();
        let bytes = sink.write(&ckpt).unwrap();
        let written = std::fs::read(sink.path_for(ckpt.server)).unwrap();
        assert_eq!(written.len() as u64, bytes);
        assert_eq!(written, ckpt.encode());
        assert!(!sink.dir.join("ckpt-s2.ghhc.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
