//! The binary frame codec of the segmented artifact store.
//!
//! One frame is one `put`: a length-prefixed, checksummed record of
//! `(kind, key, owner, serialized value)`.
//!
//! ```text
//! ┌───────────┬──────────────────────────────┬──────────────┐
//! │ len (u32) │ body (len bytes)             │ sum (u64)    │
//! └───────────┴──────────────────────────────┴──────────────┘
//! body = op(u8) · tag_len(u8) · tag · key(u64) ·
//!        owner_len(u32) · owner · value_len(u32) · value JSON
//! ```
//!
//! All integers are little-endian; `sum` is the repository's standard
//! [`Hasher`] digest over the body bytes. The checksum sits *after* the
//! body so a torn append is overwhelmingly likely to fail verification
//! even when the length field landed intact. Hint-log batches
//! (`super::hint`) are sealed and delimited the same way.
//!
//! Scanning distinguishes two failure classes: a frame with a plausible
//! length but bad checksum/shape is *corrupt* — quarantined and skipped,
//! the scan resyncs at the next frame boundary — while an implausible or
//! truncated length is a *torn tail*: nothing after it can be trusted,
//! the segment is truncated there. A verified frame of a kind an older
//! build wrote but this one retired is neither: it is a *retired* frame,
//! skipped as dead.

use crate::cache::ArtifactKind;
use crate::fingerprint::{Fingerprint, Hasher};

/// Bytes of the length prefix.
pub(crate) const HEADER_BYTES: usize = 4;
/// Bytes of the trailing checksum.
pub(crate) const TRAILER_BYTES: usize = 8;
/// Upper bound on one frame body. A length above this is a torn length
/// field, not a giant artefact.
pub(crate) const MAX_BODY_BYTES: u32 = 64 << 20;

/// The only operation today: store an artefact. Compaction drops dead
/// frames rather than logging deletes, so no tombstone op exists.
const OP_PUT: u8 = 1;

/// A decoded frame body, borrowed from the bytes it was read from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FrameBody<'a> {
    pub kind: ArtifactKind,
    pub key: Fingerprint,
    pub owner: &'a str,
    pub value_json: &'a str,
}

fn body_sum(body: &[u8]) -> u64 {
    Hasher::new().write_bytes(body).finish().0
}

/// Frames `body` for disk: length prefix, body, checksum. Hint-log
/// batches share this framing.
pub(crate) fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + body.len() + TRAILER_BYTES);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    let sum = body_sum(&body);
    frame.append(&mut body);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// Encodes one `put` as a complete on-disk frame.
pub(crate) fn encode(
    kind: ArtifactKind,
    key: Fingerprint,
    owner: &str,
    value_json: &str,
) -> Vec<u8> {
    encode_tagged(kind.tag(), key, owner, value_json)
}

fn encode_tagged(tag: &str, key: Fingerprint, owner: &str, value_json: &str) -> Vec<u8> {
    let tag = tag.as_bytes();
    let mut body = Vec::with_capacity(2 + tag.len() + 8 + 4 + owner.len() + 4 + value_json.len());
    body.push(OP_PUT);
    body.push(tag.len() as u8);
    body.extend_from_slice(tag);
    body.extend_from_slice(&key.0.to_le_bytes());
    body.extend_from_slice(&(owner.len() as u32).to_le_bytes());
    body.extend_from_slice(owner.as_bytes());
    body.extend_from_slice(&(value_json.len() as u32).to_le_bytes());
    body.extend_from_slice(value_json.as_bytes());
    seal(body)
}

/// How the bytes at a frame boundary delimit a checksummed record.
#[derive(Debug)]
pub(crate) enum Delimited<'a> {
    /// A record whose checksum verifies, occupying `len` bytes on disk.
    Sealed { body: &'a [u8], len: usize },
    /// A plausibly-delimited record whose checksum fails.
    Corrupt { len: usize },
    /// The bytes cannot delimit a record: a torn tail.
    Tail { reason: String },
}

/// Delimits and checksums the record at the start of `buf`.
pub(crate) fn delimit(buf: &[u8]) -> Delimited<'_> {
    if buf.len() < HEADER_BYTES {
        return Delimited::Tail {
            reason: format!("{}-byte tail, too short for a frame", buf.len()),
        };
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > MAX_BODY_BYTES {
        return Delimited::Tail { reason: format!("implausible frame length {len}") };
    }
    let total = HEADER_BYTES + len as usize + TRAILER_BYTES;
    if buf.len() < total {
        return Delimited::Tail {
            reason: format!("truncated frame: {total} bytes framed, {} on disk", buf.len()),
        };
    }
    let body = &buf[HEADER_BYTES..HEADER_BYTES + len as usize];
    let stored = u64::from_le_bytes(
        buf[HEADER_BYTES + len as usize..total].try_into().expect("trailer is 8 bytes"),
    );
    if body_sum(body) != stored {
        return Delimited::Corrupt { len: total };
    }
    Delimited::Sealed { body, len: total }
}

/// One step of a segment scan, starting at a frame boundary. A scan only
/// indexes, so a verified frame yields its kind, key and length — the
/// owner and value stay unread until [`decode`].
#[derive(Debug)]
pub(crate) enum ScanStep {
    /// A verified frame occupying `len` bytes on disk.
    Frame { kind: ArtifactKind, key: Fingerprint, len: usize },
    /// A verified frame of a retired artefact kind: stale, not corrupt.
    /// It occupies `len` bytes but serves nothing — a dead frame.
    Retired { len: usize },
    /// A plausibly-delimited frame that failed checksum or shape
    /// verification; the scan can resync `len` bytes further on.
    Corrupt { reason: String, len: usize },
    /// The remaining bytes cannot delimit a frame — a torn tail. The
    /// segment must be truncated at this boundary.
    Tail { reason: String },
}

/// Examines the bytes at a frame boundary. `buf` must be non-empty.
pub(crate) fn scan_step(buf: &[u8]) -> ScanStep {
    match delimit(buf) {
        Delimited::Sealed { body, len } => match parse_body(body) {
            Ok(Some(frame)) => ScanStep::Frame { kind: frame.kind, key: frame.key, len },
            Ok(None) => ScanStep::Retired { len },
            Err(reason) => ScanStep::Corrupt { reason, len },
        },
        Delimited::Corrupt { len } => {
            ScanStep::Corrupt { reason: "frame checksum mismatch".to_owned(), len }
        }
        Delimited::Tail { reason } => ScanStep::Tail { reason },
    }
}

/// Decodes and re-verifies a complete frame previously located by a scan
/// or a hint (the point-read path). The slice must be exactly one frame.
pub(crate) fn decode(frame: &[u8]) -> Result<FrameBody<'_>, String> {
    match delimit(frame) {
        Delimited::Sealed { body, len } if len == frame.len() => {
            parse_body(body)?.ok_or_else(|| "frame of a retired artefact kind".to_owned())
        }
        Delimited::Sealed { len, .. } => {
            Err(format!("frame length {len} does not fill the {}-byte slot", frame.len()))
        }
        Delimited::Corrupt { .. } => Err("frame checksum mismatch".to_owned()),
        Delimited::Tail { reason } => Err(reason),
    }
}

/// Parses a verified body; `None` for a well-formed frame of a retired
/// artefact kind.
fn parse_body(body: &[u8]) -> Result<Option<FrameBody<'_>>, String> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
        let end = at.checked_add(n).filter(|&e| e <= body.len());
        let end = end.ok_or_else(|| format!("frame body overrun at byte {at}"))?;
        let slice = &body[*at..end];
        *at = end;
        Ok(slice)
    };
    let op = take(&mut at, 1)?[0];
    if op != OP_PUT {
        return Err(format!("unknown frame op {op}"));
    }
    let tag_len = take(&mut at, 1)?[0] as usize;
    let tag = std::str::from_utf8(take(&mut at, tag_len)?)
        .map_err(|_| "frame kind tag is not UTF-8".to_owned())?;
    let kind = match ArtifactKind::parse(tag) {
        Some(kind) => Some(kind),
        None if ArtifactKind::is_retired(tag) => None,
        None => return Err(format!("unknown artefact kind `{tag}`")),
    };
    let key = Fingerprint(u64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8-byte key")));
    let owner_len =
        u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4-byte owner length")) as usize;
    let owner = std::str::from_utf8(take(&mut at, owner_len)?)
        .map_err(|_| "frame owner is not UTF-8".to_owned())?;
    let value_len =
        u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4-byte value length")) as usize;
    let value_json = std::str::from_utf8(take(&mut at, value_len)?)
        .map_err(|_| "frame value is not UTF-8".to_owned())?;
    if at != body.len() {
        return Err(format!("{} trailing bytes after frame fields", body.len() - at));
    }
    Ok(kind.map(|kind| FrameBody { kind, key, owner, value_json }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode(ArtifactKind::GraphRow, Fingerprint(0xfeed), "D1", r#"{"x":1}"#)
    }

    #[test]
    fn roundtrips() {
        let frame = sample();
        let body = decode(&frame).unwrap();
        assert_eq!(body.kind, ArtifactKind::GraphRow);
        assert_eq!(body.key, Fingerprint(0xfeed));
        assert_eq!(body.owner, "D1");
        assert_eq!(body.value_json, r#"{"x":1}"#);
    }

    #[test]
    fn every_truncation_is_a_tail() {
        let frame = sample();
        for cut in 1..frame.len() {
            match scan_step(&frame[..cut]) {
                ScanStep::Tail { .. } => {}
                other => panic!("cut at {cut} gave {other:?}, expected a torn tail"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let frame = sample();
        for bit in 0..frame.len() * 8 {
            let mut torn = frame.clone();
            torn[bit / 8] ^= 1 << (bit % 8);
            match scan_step(&torn) {
                ScanStep::Frame { .. } | ScanStep::Retired { .. } => {
                    panic!("bit flip at {bit} verified as a clean frame")
                }
                // Flips in the length prefix may make the frame implausible
                // (Tail) or mis-delimited (Corrupt); flips in body or sum
                // must be Corrupt. Either way, never a valid frame.
                ScanStep::Corrupt { .. } | ScanStep::Tail { .. } => {}
            }
        }
    }

    #[test]
    fn retired_kinds_scan_as_dead_frames_and_unknown_kinds_as_corrupt() {
        let retired = encode_tagged("mc-trial", Fingerprint(3), "design", "{}");
        match scan_step(&retired) {
            ScanStep::Retired { len } => assert_eq!(len, retired.len()),
            other => panic!("expected a retired frame, got {other:?}"),
        }
        assert!(decode(&retired).is_err(), "a retired frame never serves a read");
        let unknown = encode_tagged("no-such-kind", Fingerprint(3), "design", "{}");
        assert!(matches!(scan_step(&unknown), ScanStep::Corrupt { .. }));
    }

    #[test]
    fn zero_and_oversized_lengths_are_torn_tails() {
        let mut frame = sample();
        frame[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(scan_step(&frame), ScanStep::Tail { .. }));
        frame[0..4].copy_from_slice(&(MAX_BODY_BYTES + 1).to_le_bytes());
        assert!(matches!(scan_step(&frame), ScanStep::Tail { .. }));
    }

    #[test]
    fn corrupt_frame_resyncs_at_the_next_boundary() {
        let mut bytes = sample();
        let first_len = bytes.len();
        // Flip one body byte of the first frame, then append a clean one.
        bytes[HEADER_BYTES + 3] ^= 0xff;
        bytes.extend(encode(ArtifactKind::MonitorSet, Fingerprint(7), "top", "[]"));
        let step = scan_step(&bytes);
        let ScanStep::Corrupt { len, .. } = step else { panic!("expected corrupt, got {step:?}") };
        assert_eq!(len, first_len, "scan resyncs exactly after the corrupt frame");
        match scan_step(&bytes[len..]) {
            ScanStep::Frame { kind, .. } => assert_eq!(kind, ArtifactKind::MonitorSet),
            other => panic!("clean second frame expected, got {other:?}"),
        }
    }
}
