//! On-disk framing: checksummed log records and the snapshot envelope.
//!
//! A log frame is fully self-delimiting and self-verifying:
//!
//! ```text
//! seq: u64 LE | len: u32 LE | payload (len bytes) | check: u64 LE
//! ```
//!
//! `check` is FNV-1a/64 over everything before it, so a flipped bit
//! anywhere in a frame is detected rather than silently replayed, and a
//! *torn* frame (a crash mid-append left fewer bytes than the header
//! promises) is distinguishable from corruption: torn tails are the normal
//! crash outcome and are skipped; checksum mismatches are an error.
//!
//! The snapshot envelope wraps one opaque state payload the same way, plus
//! a magic number and the sequence number the state covers:
//!
//! ```text
//! magic: u64 LE | upto_seq: u64 LE | len: u32 LE | payload | check: u64 LE
//! ```

/// Identifies a snapshot envelope (and its version).
pub const SNAPSHOT_MAGIC: u64 = 0x6753_544D_5741_4C31; // "gSTMWAL1"

/// Fixed per-frame overhead: seq + len + checksum.
pub const FRAME_OVERHEAD: usize = 8 + 4 + 8;

/// FNV-1a 64-bit over `bytes` — the frame and snapshot checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why recovery refused a device's bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// A complete frame's checksum did not match: the log is corrupt (not
    /// merely torn) at the given byte offset.
    CorruptFrame {
        /// Byte offset of the offending frame.
        offset: usize,
    },
    /// The snapshot envelope failed its magic or checksum test.
    CorruptSnapshot,
    /// A frame's payload could not be decoded by the layer above.
    BadPayload {
        /// Sequence number of the undecodable record.
        seq: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::CorruptFrame { offset } => {
                write!(f, "corrupt log frame at byte {offset} (checksum mismatch)")
            }
            WalError::CorruptSnapshot => write!(f, "corrupt snapshot (magic/checksum mismatch)"),
            WalError::BadPayload { seq } => write!(f, "undecodable record payload at seq {seq}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Appends one encoded frame to `out`. Panics on a payload longer than the
/// `u32` length field can say (truncated, it would fail recovery instead).
pub fn encode_frame(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len())
        .unwrap_or_else(|_| panic!("record {seq}: {} payload bytes overflow u32", payload.len()));
    let start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    let check = fnv1a64(&out[start..]);
    out.extend_from_slice(&check.to_le_bytes());
}

/// Everything a log device's bytes decoded to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedLog {
    /// Complete, checksum-verified frames in append order.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// Whether the device ended in a partial frame (a torn crash tail).
    pub torn: bool,
}

/// Decodes a device's bytes into frames.
///
/// A short tail (fewer bytes than the last header promises) sets `torn`
/// and stops — that is the expected shape of a crash mid-append. A
/// *complete* frame whose checksum fails is corruption and is an error.
///
/// # Errors
///
/// Returns [`WalError::CorruptFrame`] on a checksum mismatch.
pub fn decode_log(bytes: &[u8]) -> Result<DecodedLog, WalError> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        if bytes.len() - off < 12 {
            return Ok(DecodedLog { frames, torn: true });
        }
        let seq = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes")) as usize;
        let total = FRAME_OVERHEAD + len;
        if bytes.len() - off < total {
            return Ok(DecodedLog { frames, torn: true });
        }
        let body = &bytes[off..off + 12 + len];
        let want =
            u64::from_le_bytes(bytes[off + 12 + len..off + total].try_into().expect("8 bytes"));
        if fnv1a64(body) != want {
            return Err(WalError::CorruptFrame { offset: off });
        }
        frames.push((seq, bytes[off + 12..off + 12 + len].to_vec()));
        off += total;
    }
    Ok(DecodedLog { frames, torn: false })
}

/// Encodes a snapshot envelope covering commits `1..=upto_seq`. Panics on
/// a state longer than the `u32` length field can say — at install, while
/// the log it would replace is still whole.
pub fn encode_snapshot(upto_seq: u64, state: &[u8]) -> Vec<u8> {
    let len = u32::try_from(state.len()).unwrap_or_else(|_| {
        panic!("snapshot at seq {upto_seq}: {} state bytes overflow u32", state.len())
    });
    let mut out = Vec::with_capacity(28 + state.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&upto_seq.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(state);
    let check = fnv1a64(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Decodes a snapshot envelope. Empty bytes mean "no snapshot yet".
///
/// # Errors
///
/// Returns [`WalError::CorruptSnapshot`] on any magic, length or checksum
/// mismatch.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Option<(u64, Vec<u8>)>, WalError> {
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.len() < 28 {
        return Err(WalError::CorruptSnapshot);
    }
    let magic = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let upto = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    if magic != SNAPSHOT_MAGIC || bytes.len() != 28 + len {
        return Err(WalError::CorruptSnapshot);
    }
    let want = u64::from_le_bytes(bytes[20 + len..28 + len].try_into().expect("8 bytes"));
    if fnv1a64(&bytes[..20 + len]) != want {
        return Err(WalError::CorruptSnapshot);
    }
    Ok(Some((upto, bytes[20..20 + len].to_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut bytes = Vec::new();
        encode_frame(1, b"alpha", &mut bytes);
        encode_frame(2, b"", &mut bytes);
        encode_frame(3, b"gamma!", &mut bytes);
        let d = decode_log(&bytes).unwrap();
        assert!(!d.torn);
        assert_eq!(
            d.frames,
            vec![(1, b"alpha".to_vec()), (2, Vec::new()), (3, b"gamma!".to_vec())]
        );
    }

    #[test]
    fn torn_tail_is_not_an_error() {
        let mut bytes = Vec::new();
        encode_frame(1, b"whole", &mut bytes);
        let whole = bytes.len();
        encode_frame(2, b"torn-away", &mut bytes);
        for cut in whole + 1..bytes.len() {
            let d = decode_log(&bytes[..cut]).unwrap();
            assert!(d.torn, "cut at {cut} must read as torn");
            assert_eq!(d.frames.len(), 1, "only the whole frame survives");
        }
    }

    #[test]
    fn corrupt_complete_frame_is_detected() {
        let mut bytes = Vec::new();
        encode_frame(1, b"first", &mut bytes);
        encode_frame(2, b"second", &mut bytes);
        // Flip one payload byte of the *second* (complete) frame.
        let off = bytes.len() - 10;
        bytes[off] ^= 0x40;
        match decode_log(&bytes) {
            Err(WalError::CorruptFrame { offset }) => assert!(offset > 0),
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_tampering() {
        assert_eq!(decode_snapshot(&[]).unwrap(), None);
        let enc = encode_snapshot(42, b"state-bytes");
        assert_eq!(decode_snapshot(&enc).unwrap(), Some((42, b"state-bytes".to_vec())));
        let mut bad = enc.clone();
        bad[21] ^= 1;
        assert_eq!(decode_snapshot(&bad), Err(WalError::CorruptSnapshot));
        let mut short = enc;
        short.truncate(20);
        assert_eq!(decode_snapshot(&short), Err(WalError::CorruptSnapshot));
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a/64 vectors: the on-disk format must never drift.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
