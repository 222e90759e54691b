//! Model persistence: the compact binary form (GTSA).
//!
//! The paper's workflow is offline: profile → build model → store → load
//! into the guided run (`state_data` files in the artifact). The model
//! cache, `train-model` and `inspect-model` all use the one little-endian
//! binary format below. No external serialization crates are used.

use std::path::Path;

use gstm_core::{Participant, ThreadId, TxId};

use crate::tsa::{Tsa, TsaBuilder};
use crate::tts::Tts;

/// Errors from decoding a persisted model.
#[derive(Debug)]
pub enum DecodeError {
    /// Magic/version mismatch or structural truncation.
    Malformed(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Malformed(m) => write!(f, "malformed model: {m}"),
            DecodeError::Io(e) => write!(f, "model i/o error: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<std::io::Error> for DecodeError {
    fn from(e: std::io::Error) -> Self {
        DecodeError::Io(e)
    }
}

fn pack(p: Participant) -> u32 {
    ((p.thread.raw() as u32) << 16) | p.tx.raw() as u32
}

fn unpack(v: u32) -> Participant {
    Participant::new(ThreadId::new((v >> 16) as u16), TxId::new((v & 0xFFFF) as u16))
}

/// Encodes a TSA into the compact binary form (magic `GTSA`, version 1,
/// little-endian throughout).
pub fn to_bytes(tsa: &Tsa) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GTSA");
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&(tsa.state_count() as u32).to_le_bytes());
    out.extend_from_slice(&(tsa.edge_count() as u32).to_le_bytes());
    for (_, tts) in tsa.space().iter() {
        out.extend_from_slice(&pack(tts.committer()).to_le_bytes());
        out.extend_from_slice(&(tts.aborted().len() as u32).to_le_bytes());
        for &a in tts.aborted() {
            out.extend_from_slice(&pack(a).to_le_bytes());
        }
    }
    for (id, _) in tsa.space().iter() {
        for &(to, count) in tsa.out_edges(id) {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&to.0.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    out
}

/// Decodes the binary form.
///
/// # Errors
///
/// Returns [`DecodeError::Malformed`] on bad magic, version or truncation.
pub fn from_bytes(bytes: &[u8]) -> Result<Tsa, DecodeError> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(4)? != b"GTSA" {
        return Err(malformed("bad magic"));
    }
    if cur.u32()? != 1 {
        return Err(malformed("unsupported version"));
    }
    let n_states = cur.u32()? as usize;
    let n_edges = cur.u32()? as usize;
    // Counts are untrusted: clamp every pre-allocation by what the
    // remaining buffer could possibly hold (state records are ≥ 8 bytes,
    // abortees 4, edges 16), so a corrupt header asks for kilobytes, not
    // gigabytes. Genuine truncation still errors on the reads below.
    let mut states = Vec::with_capacity(n_states.min(cur.remaining() / 8));
    for _ in 0..n_states {
        let committer = unpack(cur.u32()?);
        let n_ab = cur.u32()? as usize;
        let mut aborted = Vec::with_capacity(n_ab.min(cur.remaining() / 4));
        for _ in 0..n_ab {
            aborted.push(unpack(cur.u32()?));
        }
        states.push(Tts::new(aborted, committer));
    }
    let mut edges = Vec::with_capacity(n_edges.min(cur.remaining() / 16));
    for _ in 0..n_edges {
        let from = cur.u32()?;
        let to = cur.u32()?;
        let count = cur.u64()?;
        edges.push((from, to, count));
    }
    if cur.pos != bytes.len() {
        return Err(malformed("trailing bytes"));
    }
    rebuild(states, edges)
}

/// Loads the binary form from a file.
///
/// # Errors
///
/// Propagates I/O failures and decode errors.
pub fn load(path: &Path) -> Result<Tsa, DecodeError> {
    from_bytes(&std::fs::read(path)?)
}

/// Stable 128-bit content fingerprint, hex-encoded: two independent FNV-1a
/// lanes (the second with a different offset basis over bit-rotated bytes),
/// finalized with the input length. Used by the experiment pipeline's
/// content-addressed cache to key trained models and run outcomes, and to
/// name model identity in logs — never for security.
pub fn fingerprint_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lo = 0xcbf2_9ce4_8422_2325u64;
    let mut hi = lo ^ 0x9e37_79b9_7f4a_7c15;
    for &b in bytes {
        lo = (lo ^ u64::from(b)).wrapping_mul(PRIME);
        hi = (hi ^ u64::from(b.rotate_left(3))).wrapping_mul(PRIME);
    }
    let n = bytes.len() as u64;
    lo = (lo ^ n).wrapping_mul(PRIME);
    hi = (hi ^ n.rotate_left(32)).wrapping_mul(PRIME);
    format!("{lo:016x}{hi:016x}")
}

/// Content digest of a TSA: the fingerprint of its binary encoding. Two
/// models digest equal iff their persisted forms are byte-identical.
pub fn tsa_digest(tsa: &Tsa) -> String {
    fingerprint_hex(&to_bytes(tsa))
}

fn malformed(msg: &str) -> DecodeError {
    DecodeError::Malformed(msg.to_string())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or_else(|| malformed("overflow"))?;
        if end > self.bytes.len() {
            return Err(malformed("truncated"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

fn rebuild(states: Vec<Tts>, edges: Vec<(u32, u32, u64)>) -> Result<Tsa, DecodeError> {
    let n = states.len() as u32;
    let mut builder = TsaBuilder::new();
    // Intern states in id order by replaying them as single-state runs.
    for s in &states {
        builder.add_run(std::slice::from_ref(s));
    }
    if builder.state_count() != states.len() {
        return Err(malformed("duplicate states in persisted model"));
    }
    for &(from, to, count) in &edges {
        if from >= n || to >= n {
            return Err(malformed("edge references unknown state"));
        }
        // Restore the edge's frequency in one step: replaying `count`
        // two-state runs would make decode time proportional to an
        // untrusted persisted count (a corrupt u64 is an unbounded hang).
        builder.add_transition(&states[from as usize], &states[to as usize], count);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Participant, ThreadId, TxId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn sample_tsa() -> Tsa {
        let mut b = TsaBuilder::new();
        let s0 = Tts::solo(p(0, 0));
        let s1 = Tts::new(vec![p(1, 0), p(2, 1)], p(3, 1));
        let s2 = Tts::solo(p(2, 2));
        b.add_run(&[s0.clone(), s1.clone(), s0.clone(), s1, s2, s0]);
        b.build()
    }

    fn assert_same(a: &Tsa, b: &Tsa) {
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (id, tts) in a.space().iter() {
            let bid = b.lookup(tts).expect("state preserved");
            let mut ea: Vec<(String, u64)> =
                a.out_edges(id).iter().map(|&(d, c)| (a.space().state(d).to_string(), c)).collect();
            let mut eb: Vec<(String, u64)> = b
                .out_edges(bid)
                .iter()
                .map(|&(d, c)| (b.space().state(d).to_string(), c))
                .collect();
            ea.sort();
            eb.sort();
            assert_eq!(ea, eb, "edges of {tts} preserved");
        }
    }

    #[test]
    fn binary_round_trip() {
        let tsa = sample_tsa();
        let back = from_bytes(&to_bytes(&tsa)).unwrap();
        assert_same(&tsa, &back);
    }

    #[test]
    fn file_round_trip() {
        let tsa = sample_tsa();
        let dir = std::env::temp_dir().join(format!("gstm-model-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gtsa");
        std::fs::write(&path, to_bytes(&tsa)).unwrap();
        let back = load(&path).unwrap();
        assert_same(&tsa, &back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_is_compact() {
        let tsa = sample_tsa();
        // A 16-byte header, 8 bytes plus 4 per abortee for each state and
        // 16 per edge: no padding, no per-record framing.
        let states: usize = tsa.space().iter().map(|(_, t)| 8 + 4 * t.aborted().len()).sum();
        assert_eq!(to_bytes(&tsa).len(), 16 + states + 16 * tsa.edge_count());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = fingerprint_hex(b"gstm");
        assert_eq!(a.len(), 32);
        assert_eq!(a, fingerprint_hex(b"gstm"));
        assert_ne!(a, fingerprint_hex(b"gst"));
        assert_ne!(a, fingerprint_hex(b"gstn"));
        assert_ne!(fingerprint_hex(b""), fingerprint_hex(b"\0"));
        // Pinned: cache keys on disk must not drift between builds.
        assert_eq!(fingerprint_hex(b"gstm"), "dad4632f8df391a0b400f346b8d64b6c");
    }

    #[test]
    fn tsa_digest_tracks_content() {
        let tsa = sample_tsa();
        assert_eq!(tsa_digest(&tsa), tsa_digest(&from_bytes(&to_bytes(&tsa)).unwrap()));
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(from_bytes(b"NOPE"), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn rejects_truncation() {
        let mut bytes = to_bytes(&sample_tsa());
        bytes.truncate(bytes.len() - 3);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&sample_tsa());
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    /// A minimal hand-built frame: header + explicit state/edge records.
    fn frame(n_states: u32, n_edges: u32, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"GTSA");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&n_states.to_le_bytes());
        bytes.extend_from_slice(&n_edges.to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn truncated_frame_with_huge_counts_errors_without_allocating() {
        // A 16-byte body claiming 4 billion states/edges: the capacity
        // clamp keeps allocation proportional to the buffer, and the first
        // missing record errors as truncation.
        let err = from_bytes(&frame(u32::MAX, u32::MAX, &[0u8; 16])).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(m) if m.contains("truncated")));
        // Same for a state claiming 4 billion abortees.
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes()); // committer
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // n_ab
        let err = from_bytes(&frame(1, 0, &body)).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(m) if m.contains("truncated")));
    }

    #[test]
    fn rejects_out_of_range_edge_ids() {
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes()); // state 0: committer
        body.extend_from_slice(&0u32.to_le_bytes()); // no abortees
        body.extend_from_slice(&0u32.to_le_bytes()); // edge from=0
        body.extend_from_slice(&7u32.to_le_bytes()); // to=7 (unknown)
        body.extend_from_slice(&1u64.to_le_bytes());
        let err = from_bytes(&frame(1, 1, &body)).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(m) if m.contains("unknown state")));
    }

    #[test]
    fn huge_edge_counts_decode_in_constant_time() {
        // Regression: rebuild() used to replay each edge `count` times —
        // u64::MAX here was an unbounded hang. Bounded decode must both
        // terminate fast and preserve the count.
        let mut body = Vec::new();
        for packed in [0u32, 1u32] {
            body.extend_from_slice(&packed.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
        }
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        let tsa = from_bytes(&frame(2, 1, &body)).unwrap();
        let s0 = tsa.lookup(&Tts::solo(p(0, 0))).unwrap();
        assert_eq!(tsa.out_edges(s0).len(), 1);
        assert_eq!(tsa.out_edges(s0)[0].1, u64::MAX);
    }

    #[test]
    fn rejects_duplicate_states() {
        let mut body = Vec::new();
        for _ in 0..2 {
            body.extend_from_slice(&0u32.to_le_bytes()); // same committer
            body.extend_from_slice(&0u32.to_le_bytes()); // no abortees
        }
        let err = from_bytes(&frame(2, 0, &body)).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(m) if m.contains("duplicate")));
    }

    #[test]
    fn zero_count_edges_round_trip_structurally() {
        // An explicit zero-count edge record decodes to no edge (the
        // builder treats count 0 as a pure state declaration).
        let mut body = Vec::new();
        for packed in [0u32, 1u32] {
            body.extend_from_slice(&packed.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
        }
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        let tsa = from_bytes(&frame(2, 1, &body)).unwrap();
        assert_eq!(tsa.state_count(), 2);
        assert_eq!(tsa.edge_count(), 0);
    }
}
