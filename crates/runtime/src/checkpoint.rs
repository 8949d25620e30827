//! Superstep-granular checkpoints: the `GHHC` snapshot file.
//!
//! A checkpoint is everything a worker needs to rejoin a run mid-flight:
//! the superstep cursor (the next superstep to execute), the frontier that
//! superstep starts from, and the full vertex-replica values — the values in
//! the same `GHHV` section the `graphh-node --out` value files use, so a
//! checkpoint's value payload is bit-compatible with the run's final output
//! format. Supersteps are deterministic, so a restarted server that loads
//! the checkpoint and has its peers replay the delta (see
//! `crate::resume::ReplayLog`) recomputes byte-identical state.
//!
//! ```text
//! b"GHHC" | u32 LE version=1 | u32 LE server id | u32 LE next superstep
//!         | u64 LE frontier count | u32 LE frontier vertex ids ...
//!         | b"GHHV" | u64 LE value count | f64 bits LE ...
//! ```
//!
//! Writes are atomic and durable (synced tmp file, rename, synced directory)
//! and loads reject truncated or corrupt files, so a server killed *while*
//! checkpointing leaves either the previous intact checkpoint or none — never
//! a half-written one that would poison the restart.

use graphh_graph::ids::{ServerId, VertexId};
use graphh_obs::global_counters;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic header of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GHHC";

/// Magic header of a value file / checkpoint value section.
pub const VALUES_MAGIC: [u8; 4] = *b"GHHV";

/// Checkpoint format version this build writes and reads.
const CHECKPOINT_VERSION: u32 = 1;

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
        let mut out = Vec::with_capacity(24 + self.frontier.len() * 4 + self.values.len() * 8);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.server.to_le_bytes());
        out.extend_from_slice(&self.next_superstep.to_le_bytes());
        out.extend_from_slice(&(self.frontier.len() as u64).to_le_bytes());
        for v in &self.frontier {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&encode_values(&self.values));
        out
    }

    /// Decode a `GHHC` file. Any truncation, length mismatch, or bad magic is
    /// an error — a half-written checkpoint must never load.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        if bytes.len() < 24 || bytes[0..4] != CHECKPOINT_MAGIC {
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

/// Where (and how often) a worker writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSink {
    dir: PathBuf,
    /// Write a checkpoint after every `every`-th applied superstep (see
    /// [`crate::worker::acknowledge_durable`]).
    pub(crate) every: u32,
}

impl CheckpointSink {
    /// A sink writing to `dir` every `every` supersteps (`every` is clamped
    /// to at least 1).
    pub fn new(dir: impl Into<PathBuf>, every: u32) -> Self {
        Self {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// The checkpoint file of `server` under this sink's directory.
    pub fn path_for(&self, server: ServerId) -> PathBuf {
        self.dir.join(format!("ckpt-s{server}.ghhc"))
    }

    /// Atomically and durably write `checkpoint` (tmp + fsync + rename +
    /// fsync of the directory), returning its size. A crash mid-write leaves
    /// the previous checkpoint intact; once this returns, the new one
    /// survives a power loss — the worker acknowledges the superstep next,
    /// and peers trim the replay a restart from an older file would need.
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

    /// Load `server`'s checkpoint if one exists. A corrupt or truncated file
    /// is an error (the operator should know), a missing one is `Ok(None)`
    /// (fresh start).
    pub fn load(&self, server: ServerId) -> Result<Option<Checkpoint>, String> {
        Self::load_from(&self.path_for(server), server)
    }

    /// Load the checkpoint at `path`, checking it belongs to `server`.
    pub fn load_from(path: &Path, server: ServerId) -> Result<Option<Checkpoint>, String> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let checkpoint = Checkpoint::decode(&bytes)
            .map_err(|e| format!("corrupt checkpoint {}: {e}", path.display()))?;
        if checkpoint.server != server {
            return Err(format!(
                "checkpoint {} belongs to server {}, not {server}",
                path.display(),
                checkpoint.server
            ));
        }
        Ok(Some(checkpoint))
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
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_values(b"nope").is_err());
    }

    #[test]
    fn sink_writes_atomically_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("ghh-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = CheckpointSink::new(&dir, 2);

        let ckpt = sample();
        assert_eq!(sink.load(ckpt.server).unwrap(), None, "no checkpoint yet");
        let bytes = sink.write(&ckpt).unwrap();
        assert!(bytes > 0);
        let loaded = sink.load(ckpt.server).unwrap().expect("written checkpoint");
        assert_eq!(loaded.next_superstep, 7);
        // No tmp file left behind, and a wrong-server load is an error.
        assert!(!sink.dir.join("ckpt-s2.ghhc.tmp").exists());
        assert!(sink.load(0).unwrap().is_none());
        std::fs::write(sink.path_for(0), b"torn").unwrap();
        assert!(sink.load(0).is_err(), "corrupt checkpoint must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
