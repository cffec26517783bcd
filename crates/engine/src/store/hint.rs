//! Per-segment hint logs: the index of a segment, kept beside it so that
//! opening the store does not re-read and re-checksum every frame ever
//! appended.
//!
//! `seg-NNNNNN.hint` is an append-only sequence of batches after an
//! 8-byte magic. Each batch is sealed exactly like a frame (length
//! prefix, body, checksum) and lists, in order, the frames of one byte
//! range of the segment:
//!
//! ```text
//! body = start(u64) · end(u64) · tag_count(u8) · (tag_len(u8) · tag)* ·
//!        count(u32) · (tag_index(u8) · key(u64) · offset(u64) · len(u32))*
//! ```
//!
//! The entries must tile `[start, end)`: the first starts at `start`,
//! each next one where the previous ended, the last ends at `end`. The
//! batches tile the segment's synced prefix: the first starts right after
//! the segment magic, each next one where the previous ended. The empty
//! tag marks a dead frame (a retired artefact kind), indexed by nothing.
//!
//! Hints are advisory. They are never fsynced, and a batch that is torn,
//! fails its checksum, does not tile, or claims bytes beyond the
//! segment's end ends the log: open scans the segment from there, as if
//! the rest of the log were absent. Every frame a hint locates is still
//! re-verified when it is read.

use super::frame::{self, Delimited};
use crate::cache::ArtifactKind;
use crate::fingerprint::Fingerprint;

/// First bytes of every hint log.
pub(crate) const HINT_MAGIC: [u8; 8] = *b"DHNTv01\n";

/// Bytes of one encoded entry: tag index, key, offset, length.
const ENTRY_BYTES: usize = 1 + 8 + 8 + 4;

pub(crate) fn hint_name(id: u64) -> String {
    format!("seg-{id:06}.hint")
}

/// An upper bound on the entries hint logs of `bytes` bytes can hold.
pub(crate) fn entries_within(bytes: u64) -> usize {
    (bytes / ENTRY_BYTES as u64) as usize
}

/// One frame of a segment as a hint records it; `kind` is `None` for a
/// dead frame of a retired artefact kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub kind: Option<ArtifactKind>,
    pub key: Fingerprint,
    pub offset: u64,
    pub len: u32,
}

/// Encodes one batch covering the frames `entries`, which must tile
/// `[entries[0].offset, end)` — the caller appends them in segment order.
pub(crate) fn encode_batch(entries: &[Entry]) -> Vec<u8> {
    let start = entries.first().map_or(0, |e| e.offset);
    let end = entries.last().map_or(start, |e| e.offset + u64::from(e.len));
    let tag = |e: &Entry| e.kind.map_or("", ArtifactKind::tag);
    let mut tags: Vec<&str> = Vec::new();
    for entry in entries {
        if !tags.contains(&tag(entry)) {
            tags.push(tag(entry));
        }
    }
    let mut body = Vec::with_capacity(21 + tags.len() * 16 + entries.len() * ENTRY_BYTES);
    body.extend_from_slice(&start.to_le_bytes());
    body.extend_from_slice(&end.to_le_bytes());
    body.push(tags.len() as u8);
    for t in &tags {
        body.push(t.len() as u8);
        body.extend_from_slice(t.as_bytes());
    }
    body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for entry in entries {
        let index = tags.iter().position(|t| *t == tag(entry)).expect("tag listed above");
        body.push(index as u8);
        body.extend_from_slice(&entry.key.0.to_le_bytes());
        body.extend_from_slice(&entry.offset.to_le_bytes());
        body.extend_from_slice(&entry.len.to_le_bytes());
    }
    frame::seal(body)
}

/// The valid prefix of one hint log.
#[derive(Debug)]
pub(crate) struct Loaded {
    /// Entries of every valid batch, in segment order.
    pub entries: Vec<Entry>,
    /// End of the last valid batch: the scan of the segment starts here.
    pub covered: u64,
    /// Valid batches read.
    pub batches: usize,
    /// Bytes of the log (magic included) the valid batches span; 0 when
    /// even the magic is wrong.
    pub valid_len: usize,
    /// `true` when nothing follows the valid batches. Anything that does
    /// must be cut off before the log is appended to again, so that a
    /// stale batch can never become valid later.
    pub intact: bool,
}

/// Reads the valid batches of `log`, the hint log of a segment of
/// `segment_len` bytes whose first frame starts at `first`.
pub(crate) fn load(log: &[u8], first: u64, segment_len: u64) -> Loaded {
    let mut loaded =
        Loaded { entries: Vec::new(), covered: first, batches: 0, valid_len: 0, intact: false };
    if log.len() < HINT_MAGIC.len() || log[..HINT_MAGIC.len()] != HINT_MAGIC {
        return loaded;
    }
    let mut at = HINT_MAGIC.len();
    loaded.valid_len = at;
    while at < log.len() {
        let Delimited::Sealed { body, len } = frame::delimit(&log[at..]) else { return loaded };
        let mark = loaded.entries.len();
        match load_batch(body, loaded.covered, segment_len, &mut loaded.entries) {
            Some(end) => {
                loaded.covered = end;
                loaded.batches += 1;
                at += len;
                loaded.valid_len = at;
            }
            None => {
                loaded.entries.truncate(mark);
                return loaded;
            }
        }
    }
    loaded.intact = true;
    loaded
}

/// Appends one batch's entries to `out` and returns its end, or `None`
/// (leaving `out` partly extended) when the batch is malformed, does not
/// start at `start`, does not tile its range, or reaches past the segment.
fn load_batch(body: &[u8], start: u64, segment_len: u64, out: &mut Vec<Entry>) -> Option<u64> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let slice = body.get(*at..at.checked_add(n)?)?;
        *at += n;
        Some(slice)
    };
    let u64_at = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    if u64_at(take(&mut at, 8)?) != start {
        return None;
    }
    let end = u64_at(take(&mut at, 8)?);
    if end <= start || end > segment_len {
        return None;
    }
    let tag_count = take(&mut at, 1)?[0] as usize;
    let mut kinds: Vec<Option<ArtifactKind>> = Vec::with_capacity(tag_count);
    for _ in 0..tag_count {
        let len = take(&mut at, 1)?[0] as usize;
        let tag = std::str::from_utf8(take(&mut at, len)?).ok()?;
        kinds.push(match ArtifactKind::parse(tag) {
            Some(kind) => Some(kind),
            None if tag.is_empty() || ArtifactKind::is_retired(tag) => None,
            None => return None,
        });
    }
    let count = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
    let entries = take(&mut at, count.checked_mul(ENTRY_BYTES)?)?;
    if at != body.len() {
        return None;
    }
    out.reserve(count);
    let mut cursor = start;
    for raw in entries.chunks_exact(ENTRY_BYTES) {
        let kind = *kinds.get(raw[0] as usize)?;
        let key = Fingerprint(u64_at(&raw[1..9]));
        let offset = u64_at(&raw[9..17]);
        let len = u32::from_le_bytes(raw[17..21].try_into().expect("4 bytes"));
        if offset != cursor || len == 0 {
            return None;
        }
        cursor = cursor.checked_add(u64::from(len))?;
        out.push(Entry { kind, key, offset, len });
    }
    (cursor == end).then_some(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<Entry> {
        vec![
            Entry { kind: Some(ArtifactKind::GraphRow), key: Fingerprint(1), offset: 8, len: 40 },
            Entry { kind: None, key: Fingerprint(2), offset: 48, len: 30 },
            Entry {
                kind: Some(ArtifactKind::FtaSubtree),
                key: Fingerprint(3),
                offset: 78,
                len: 50,
            },
        ]
    }

    fn log(batches: &[&[Entry]]) -> Vec<u8> {
        let mut log = HINT_MAGIC.to_vec();
        for batch in batches {
            log.extend(encode_batch(batch));
        }
        log
    }

    #[test]
    fn batches_roundtrip_and_tile() {
        let all = entries();
        let loaded = load(&log(&[&all[..1], &all[1..]]), 8, 128);
        assert!(loaded.intact);
        assert_eq!(loaded.batches, 2);
        assert_eq!(loaded.covered, 128);
        assert_eq!(loaded.entries, all);
    }

    #[test]
    fn a_torn_or_flipped_batch_ends_the_log() {
        let all = entries();
        let full = log(&[&all[..1], &all[1..]]);
        let first_end = log(&[&all[..1]]).len();
        for cut in first_end + 1..full.len() {
            let loaded = load(&full[..cut], 8, 128);
            assert!(!loaded.intact, "cut at {cut}");
            assert_eq!((loaded.batches, loaded.covered, loaded.valid_len), (1, 48, first_end));
        }
        for bit in first_end * 8..full.len() * 8 {
            let mut flipped = full.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let loaded = load(&flipped, 8, 128);
            assert_eq!(loaded.batches, 1, "bit {bit} flipped in the second batch");
            assert_eq!(loaded.entries, all[..1]);
        }
    }

    #[test]
    fn batches_past_the_segment_or_out_of_order_are_invalid() {
        let all = entries();
        let loaded = load(&log(&[&all]), 8, 127);
        assert_eq!((loaded.batches, loaded.covered), (0, 8), "covered_len beyond the file");
        let loaded = load(&log(&[&all[1..]]), 8, 128);
        assert_eq!(loaded.batches, 0, "a first batch must start at the first frame");
        let mut gap = all.clone();
        gap[2].offset += 1;
        let loaded = load(&log(&[&gap]), 8, 129);
        assert_eq!(loaded.batches, 0, "entries must tile their range");
        let loaded = load(b"not a hint log", 8, 128);
        assert_eq!((loaded.batches, loaded.valid_len, loaded.intact), (0, 0, false));
    }
}
