//! The checkpoint snapshot and its on-disk format.

use std::io;
use std::path::Path;

use mapapi::{Key, Value};

/// File magic: the first four bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"PCKP";

/// Current format version.  Version 1 stored one section per shard; it is
/// refused as unsupported.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Fixed bytes around the pairs: magic + version + seqno + pair count up
/// front, FNV-1a checksum at the end.
const ENVELOPE_BYTES: usize = 4 + 4 + 8 + 8 + 8;

/// An exact snapshot of a replicated map: the change-stream sequence number
/// of the cut, plus the map's contents as one sorted `(key, value)` run.
///
/// The binary format is length-prefixed — the run carries its pair count,
/// so a reader never scans for a terminator:
///
/// ```text
/// magic:    "PCKP"                      (4 bytes)
/// version:  u32 LE                      (currently 2)
/// seqno:    u64 LE                      (change-stream cut)
/// count:    u64 LE
/// pairs:    count × (key u64 LE, value u64 LE)
/// checksum: u64 LE                      (FNV-1a over all preceding bytes)
/// ```
///
/// [`Checkpoint::decode`] verifies magic, version, the checksum, and that
/// the count accounts for exactly the bytes that remain — corruption is
/// always a `Result::Err`, never a panic or a silent misparse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The change-stream sequence number this snapshot is exact at: the
    /// snapshot contains precisely the effects of events `1..=seqno`.
    pub seqno: u64,
    /// The map's pairs in key order.  Restore re-inserts every pair, so a
    /// checkpoint moves freely between structures and shard counts.
    pub pairs: Vec<(Key, Value)>,
}

/// 64-bit FNV-1a over the serialized stream.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Checkpoint {
    /// Serialize to the on-disk format (see the type docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(ENVELOPE_BYTES + self.pairs.len() * 16);
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.seqno.to_le_bytes());
        buf.extend_from_slice(&(self.pairs.len() as u64).to_le_bytes());
        for &(k, v) in &self.pairs {
            buf.extend_from_slice(&k.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = fnv1a_bytes(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Parse a serialized checkpoint, rejecting any corruption with an
    /// error.  The checksum is verified before anything is parsed, and the
    /// count is checked against the remaining bytes before allocation — a
    /// garbage count cannot commit the reader to a huge allocation any more
    /// than a garbage frame length can commit the server to one.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        if bytes.len() < ENVELOPE_BYTES {
            return Err(format!("checkpoint too short: {} bytes", bytes.len()));
        }
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = word(tail);
        let computed = fnv1a_bytes(body);
        if stored != computed {
            return Err(format!("checkpoint checksum mismatch: stored {stored:#x}, computed {computed:#x}"));
        }
        if body[..4] != CHECKPOINT_MAGIC {
            return Err(format!("bad checkpoint magic {:?}", &body[..4]));
        }
        let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let (seqno, count) = (word(&body[8..16]), word(&body[16..24]));
        let rest = &body[24..];
        if count.checked_mul(16) != Some(rest.len() as u64) {
            return Err(format!("count {count} does not match the remaining {} bytes", rest.len()));
        }
        let pairs = rest.chunks_exact(16).map(|c| (word(&c[..8]), word(&c[8..]))).collect();
        Ok(Checkpoint { seqno, pairs })
    }

    /// Write the serialized checkpoint to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Read and parse a checkpoint file; format errors surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_from(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        Checkpoint::decode(&bytes).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint { seqno: 42, pairs: vec![(1, 10), (2, 2), (5, 50)] }
    }

    #[test]
    fn roundtrips_exactly() {
        for ckpt in [sample(), Checkpoint { seqno: 0, pairs: vec![] }] {
            assert_eq!(Checkpoint::decode(&ckpt.encode()), Ok(ckpt));
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            // FNV-1a over the body catches every body flip; a flipped
            // checksum byte mismatches the recomputed body hash.
            assert!(Checkpoint::decode(&bad).is_err(), "flip at byte {i} must be rejected");
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    /// `body` followed by its valid checksum.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&fnv1a_bytes(body).to_le_bytes());
        bytes
    }

    #[test]
    fn garbage_counts_do_not_allocate() {
        // A forged file with a valid checksum but an absurd pair count:
        // build it by hand so only the count is hostile.
        let mut body = Vec::new();
        body.extend_from_slice(&CHECKPOINT_MAGIC);
        body.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // pair "count"
        let err = Checkpoint::decode(&sealed(&body)).unwrap_err();
        assert!(err.contains("does not match the remaining 0 bytes"), "got: {err}");
    }

    #[test]
    fn version_1_files_are_refused() {
        // A well-formed version-1 file: one section holding one pair.
        let mut body = Vec::new();
        body.extend_from_slice(&CHECKPOINT_MAGIC);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes()); // section count
        body.extend_from_slice(&1u64.to_le_bytes()); // pairs in the section
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&30u64.to_le_bytes());
        assert_eq!(Checkpoint::decode(&sealed(&body)), Err("unsupported checkpoint version 1".into()));
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join(format!("replica-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        let ckpt = sample();
        ckpt.write_to(&path).unwrap();
        assert_eq!(Checkpoint::read_from(&path).unwrap(), ckpt);
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert_eq!(Checkpoint::read_from(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
