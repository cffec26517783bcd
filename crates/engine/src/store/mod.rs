//! The crash-safe segmented artifact store: the engine's one persistence
//! path. A durable [`crate::SharedStore`] writes every artefact through to
//! an append-only segmented log:
//!
//! ```text
//! <cache-dir>/store/
//! ├── MANIFEST.json          {"version":1,"generation":G,"segments":[1,2,…]}
//! ├── seg-000001.seg         8-byte magic, then checksummed frames
//! ├── seg-000001.hint        the segment's index: checksummed batches of
//! │                          (kind, key, offset, len), advisory
//! ├── seg-000002.seg         ← the last listed segment is the append head
//! ├── seg-000002.hint
//! └── store.quarantine.json  frames dropped by recovery, for post-mortem
//! ```
//!
//! The portable v3 JSON snapshot ([`SharedStore::to_value`]) is only the
//! exchange format of [`SegmentStore::export`] and [`SegmentStore::import`]
//! (`decisive store export|import`).
//!
//! *Crash safety is structural, not transactional*: every write is an
//! append (plus fsync at pass boundaries), never a rewrite-in-place, so
//! the only possible damage is at the tail of the active segment. Recovery
//! scans what no hint covers: a frame with a plausible length but a
//! failing checksum is quarantined at frame granularity and skipped; a
//! torn tail is truncated and quarantined; everything before it is served.
//!
//! Opening the store costs O(frames), not O(bytes): each segment's hint
//! log (`hint.rs`) lists the frames of its synced prefix, so open builds
//! the in-memory `(kind, key) → (segment, offset)` index from the hints
//! and reads and verifies only the bytes past each segment's last valid
//! hint batch — nothing, after a clean close. Values are parsed lazily on
//! `get`, so a warm start pays O(touched artifacts), not O(history). A
//! frame that rots at rest inside a hinted range is therefore not seen at
//! open: `get` re-verifies every frame it serves (checksum, kind and key)
//! and quarantines a rotten one, which then reads as a miss and
//! recomputes; compaction's verifying copy drops it too. Hints are never
//! fsynced and never needed for correctness: a missing, torn or corrupt
//! hint only means that open scans that segment as it would without one,
//! and writes the hint it lacked.
//!
//! *Compaction* rewrites the live index into fresh segments and commits by
//! atomically swapping `MANIFEST.json` (temp file + fsync + rename + dir
//! fsync). A crash at any point leaves either the old manifest (the new
//! segments are orphans, removed at next open) or the new one (the old
//! segments are orphans) — never a mix, because segment files themselves
//! are immutable once sealed.
//!
//! The whole write path, hint logs included, runs through the [`StoreFs`]
//! seam so the fault harness ([`FailpointFs`]) can inject torn writes, bit
//! flips, and a crash at every fsync boundary;
//! `crates/engine/tests/store_faults.rs` proves recovery never loses a
//! committed frame and never panics.

pub mod failpoint;
mod frame;
mod hint;

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::hash::BuildHasherDefault;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use decisive_federation::{json, Value};
use decisive_obs::Telemetry;

use crate::cache::{ArtifactKind, SharedStore};
use crate::error::{EngineError, Result};
use crate::fingerprint::Fingerprint;

pub use failpoint::{FailpointFs, RealFs, StoreFs, WriteFault};

/// Subdirectory of the cache directory holding the segmented store.
pub const STORE_DIR: &str = "store";

/// The manifest naming the live segments, swapped atomically.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Frames dropped by recovery land here (rotated, never clobbered).
pub const STORE_QUARANTINE_FILE: &str = "store.quarantine.json";

/// Rotated copies of a quarantine file kept before the oldest are pruned.
const QUARANTINE_KEEP: usize = 5;

/// First bytes of every segment file.
const SEGMENT_MAGIC: [u8; 8] = *b"DSEGv01\n";

/// Offset of a segment's first frame.
const FIRST_FRAME: u64 = SEGMENT_MAGIC.len() as u64;

fn segment_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// Tuning knobs of the segmented store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// `maybe_compact` only fires with at least this many dead frames.
    pub compact_min_dead: usize,
    /// … and once dead frames make up at least this fraction of all
    /// frames on disk.
    pub compact_dead_ratio: f64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { segment_bytes: 4 << 20, compact_min_dead: 64, compact_dead_ratio: 0.5 }
    }
}

/// What opening the store had to repair. A clean open quarantines
/// nothing, truncates nothing, and has no notes; anything else means the
/// affected artefacts will transparently recompute.
#[derive(Debug, Clone, Default)]
pub struct StoreRecovery {
    /// Segments listed by the (possibly rebuilt) manifest after recovery.
    pub segments: usize,
    /// Frames serving the index after recovery.
    pub live_frames: usize,
    /// Frames (or whole unreadable segments, counted once) dropped into
    /// the quarantine file.
    pub quarantined_frames: usize,
    /// Torn tail bytes truncated off segment ends.
    pub truncated_bytes: u64,
    /// Leftover segment files of an interrupted rotation or compaction,
    /// removed. Expected after a crash; not a degradation.
    pub removed_orphan_segments: usize,
    /// Segments indexed, at least in part, from their hint logs.
    pub hinted_segments: usize,
    /// Segment bytes open had to read and verify because no valid hint
    /// covered them: 0 after a clean close. A missing or invalid hint is
    /// not a repair — it only costs this scan.
    pub scanned_bytes: u64,
    /// One human-readable line per repair — these degrade the run.
    pub notes: Vec<String>,
}

impl StoreRecovery {
    /// `true` when nothing had to be repaired (orphan removal and
    /// scanning unhinted bytes are expected operations, not repairs).
    pub fn is_clean(&self) -> bool {
        self.quarantined_frames == 0 && self.truncated_bytes == 0 && self.notes.is_empty()
    }

    /// Serialises for the serve `status` op / `decisive store status`.
    pub fn to_value(&self) -> Value {
        Value::record([
            ("clean", Value::Bool(self.is_clean())),
            ("segments", Value::Int(self.segments as i64)),
            ("live_frames", Value::Int(self.live_frames as i64)),
            ("quarantined_frames", Value::Int(self.quarantined_frames as i64)),
            ("truncated_bytes", Value::Int(self.truncated_bytes as i64)),
            ("removed_orphan_segments", Value::Int(self.removed_orphan_segments as i64)),
            ("hinted_segments", Value::Int(self.hinted_segments as i64)),
            ("scanned_bytes", Value::Int(self.scanned_bytes as i64)),
            ("notes", Value::List(self.notes.iter().map(|n| Value::from(n.as_str())).collect())),
        ])
    }
}

/// Result of one compaction run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionSummary {
    /// Live frames copied into the fresh segments.
    pub live_frames: usize,
    /// Dead (superseded or rotted) frames left behind.
    pub dropped_frames: usize,
    /// Bytes reclaimed (size before minus size after).
    pub reclaimed_bytes: i64,
    /// Segment count before the swap.
    pub segments_before: usize,
    /// Segment count after the swap.
    pub segments_after: usize,
    /// Wall-clock duration of the rewrite and swap.
    pub wall_ms: f64,
}

impl CompactionSummary {
    /// Serialises for the serve `status` op / `decisive store status`.
    pub fn to_value(&self) -> Value {
        Value::record([
            ("live_frames", Value::Int(self.live_frames as i64)),
            ("dropped_frames", Value::Int(self.dropped_frames as i64)),
            ("reclaimed_bytes", Value::Int(self.reclaimed_bytes)),
            ("segments_before", Value::Int(self.segments_before as i64)),
            ("segments_after", Value::Int(self.segments_after as i64)),
            ("wall_ms", Value::Real(self.wall_ms)),
        ])
    }
}

/// A point-in-time health snapshot, exposed by the serve daemon's
/// `status` op and `decisive store status`.
#[derive(Debug, Clone)]
pub struct StoreHealth {
    /// Live segment files.
    pub segments: usize,
    /// Frames the index serves.
    pub live_frames: usize,
    /// Superseded or rotted frames awaiting compaction.
    pub dead_frames: usize,
    /// Frames quarantined since the store was created (recovery plus
    /// read-time rot), monotonic within a process.
    pub quarantined_frames: u64,
    /// Frames appended by this process.
    pub appends: u64,
    /// Total on-disk size of the live segments.
    pub bytes: u64,
    /// Manifest generation (bumps on every rotation and compaction).
    pub generation: u64,
    /// The most recent compaction in this process, if any.
    pub last_compaction: Option<CompactionSummary>,
}

impl StoreHealth {
    /// Live frames as a fraction of all frames on disk (1.0 when empty).
    pub fn live_ratio(&self) -> f64 {
        let total = self.live_frames + self.dead_frames;
        if total == 0 {
            1.0
        } else {
            self.live_frames as f64 / total as f64
        }
    }

    /// Serialises for the serve `status` op / `decisive store status`.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("segments", Value::Int(self.segments as i64)),
            ("live_frames", Value::Int(self.live_frames as i64)),
            ("dead_frames", Value::Int(self.dead_frames as i64)),
            ("live_ratio", Value::Real(self.live_ratio())),
            ("quarantined_frames", Value::Int(self.quarantined_frames as i64)),
            ("appends", Value::Int(self.appends as i64)),
            ("bytes", Value::Int(self.bytes as i64)),
            ("generation", Value::Int(self.generation as i64)),
        ];
        if let Some(compaction) = &self.last_compaction {
            fields.push(("last_compaction", compaction.to_value()));
        }
        Value::record(fields)
    }
}

/// Hashes index keys with one multiply per word. Fingerprints are
/// already uniformly mixed 64-bit digests, so SipHash's resistance to
/// chosen keys buys nothing here, and open inserts every key it indexes.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The in-memory index: where each live artefact's frame sits.
type Index = HashMap<(ArtifactKind, Fingerprint), Slot, BuildHasherDefault<KeyHasher>>;

/// Where one live frame sits on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    segment: u64,
    offset: u64,
    len: u32,
}

/// The hint log of the active segment, extended by one batch per sync
/// that committed frames.
#[derive(Debug)]
struct HintLog {
    /// The open log; `None` until the first batch creates it.
    file: Option<File>,
    /// End of the last batch written.
    covered: u64,
    /// Frames appended past `covered`, in segment order.
    pending: Vec<hint::Entry>,
    /// `false` once the log can no longer tile the segment (a hint write
    /// failed, or open left a corrupt frame unhinted): open then scans the
    /// segment from the log's last valid batch on.
    enabled: bool,
}

impl HintLog {
    fn fresh() -> Self {
        HintLog { file: None, covered: FIRST_FRAME, pending: Vec::new(), enabled: true }
    }

    /// Writes the pending entries as one batch — called only once the
    /// frames they locate are synced.
    fn flush(&mut self, fs: &dyn StoreFs, dir: &Path, segment: u64) {
        let pending = std::mem::take(&mut self.pending);
        let Some(last) = pending.last() else { return };
        if !self.enabled {
            return;
        }
        let end = last.offset + u64::from(last.len);
        self.enabled = pending[0].offset == self.covered
            && append_hint(fs, dir, segment, &mut self.file, &hint::encode_batch(&pending));
        self.covered = end;
    }
}

/// Appends `bytes` (whole batches) to segment `id`'s hint log, creating
/// the log when `file` is `None`. Hints are advisory: a failure is
/// reported, never an error.
fn append_hint(
    fs: &dyn StoreFs,
    dir: &Path,
    id: u64,
    file: &mut Option<File>,
    bytes: &[u8],
) -> bool {
    if let Some(file) = file {
        return fs.append(file, bytes).is_ok();
    }
    let Ok(mut created) = fs.create(&dir.join(hint::hint_name(id))) else { return false };
    let mut log = hint::HINT_MAGIC.to_vec();
    log.extend_from_slice(bytes);
    let written = fs.append(&mut created, &log).is_ok();
    *file = Some(created);
    written
}

/// Rewrites segment `id`'s hint log — `on_disk`, as open read it — as its
/// valid batches plus one batch for the frames open scanned, `fresh`.
/// Anything past the valid batches goes: a stale batch left there could
/// turn valid once the segment grows past the range it claims. Returns
/// the log when this wrote it, and whether every write landed.
fn refresh_hint(
    fs: &dyn StoreFs,
    dir: &Path,
    id: u64,
    on_disk: Option<&[u8]>,
    loaded: &hint::Loaded,
    fresh: &[hint::Entry],
) -> (Option<File>, bool) {
    if fresh.is_empty() && (loaded.intact || on_disk.is_none()) {
        return (None, true);
    }
    let valid = on_disk.and_then(|bytes| bytes.get(hint::HINT_MAGIC.len()..loaded.valid_len));
    let mut batches = valid.unwrap_or_default().to_vec();
    if !fresh.is_empty() {
        batches.extend(hint::encode_batch(fresh));
    }
    let mut log = None;
    let written = append_hint(fs, dir, id, &mut log, &batches);
    (log, written)
}

#[derive(Debug)]
struct Inner {
    segments: Vec<u64>,
    generation: u64,
    active: File,
    active_len: u64,
    hint: HintLog,
    index: Index,
    /// One shared read handle per segment, opened on first read; `get`
    /// reads through it positionally, outside the lock.
    readers: HashMap<u64, Arc<File>>,
    /// Valid frames physically on disk (live + superseded).
    frames_on_disk: usize,
    bytes_on_disk: u64,
    appends: u64,
    quarantined_frames: u64,
    pending_sync: bool,
    last_compaction: Option<CompactionSummary>,
    /// Set on the first failed write/fsync: the on-disk tail is then
    /// untrustworthy, so all further mutations are refused until reopen
    /// (reads keep working — recovery at reopen repairs the tail).
    wedged: Option<String>,
}

/// The append-only segmented log. The index and all writes are serialised
/// on one mutex, so same-process readers never observe a partially
/// swapped manifest; reads hold it only to look up a slot. Clones of the
/// owning `Arc` are the sharing mechanism.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    fs: Arc<dyn StoreFs>,
    options: StoreOptions,
    telemetry: Telemetry,
    inner: Mutex<Inner>,
}

fn store_err(path: &Path, e: impl std::fmt::Display) -> EngineError {
    EngineError::Store(format!("{}: {e}", path.display()))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn quarantine_item(segment: u64, offset: u64, reason: &str, bytes: &[u8]) -> Value {
    let preview = &bytes[..bytes.len().min(256)];
    Value::record([
        ("segment", Value::Int(segment as i64)),
        ("offset", Value::Int(offset as i64)),
        ("reason", Value::from(reason)),
        ("bytes", Value::Int(bytes.len() as i64)),
        ("hex_preview", Value::Str(hex(preview))),
    ])
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, then fsync the directory so
/// the rename itself is durable. Readers see the old file or the new
/// one — never a torn mix.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!("{name}.tmp"));
    {
        use std::io::Write;
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        // Best-effort: directory fsync is not supported everywhere.
        if let Ok(dir) = File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

/// Shifts an existing quarantine file aside as `<name>.<n>` (n counting
/// up) so new quarantine content can land at the base name without
/// destroying earlier evidence, pruning all but the newest
/// [`QUARANTINE_KEEP`] rotated copies. Best-effort: rotation failure must
/// never block the recovery that triggered it.
fn rotate_quarantine(path: &Path) {
    if !path.exists() {
        return;
    }
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else { return };
    let Some(parent) = path.parent() else { return };
    let parent = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
    let Ok(entries) = std::fs::read_dir(parent) else { return };
    let mut indices: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            let file = e.file_name();
            let file = file.to_str()?;
            file.strip_prefix(name)?.strip_prefix('.')?.parse::<u64>().ok()
        })
        .collect();
    let next = indices.iter().max().map_or(1, |m| m + 1);
    if std::fs::rename(path, parent.join(format!("{name}.{next}"))).is_err() {
        return;
    }
    indices.push(next);
    indices.sort_unstable();
    while indices.len() > QUARANTINE_KEEP {
        let oldest = indices.remove(0);
        std::fs::remove_file(parent.join(format!("{name}.{oldest}"))).ok();
    }
}

/// Records dropped frames in a fresh quarantine file, rotating the
/// previous one aside. Best-effort: the frames are already out of the
/// index.
fn write_quarantine(dir: &Path, items: Vec<Value>) {
    let quarantine = dir.join(STORE_QUARANTINE_FILE);
    rotate_quarantine(&quarantine);
    let doc = Value::record([("version", Value::Int(1)), ("frames", Value::List(items))]);
    atomic_write(&quarantine, &json::to_string(&doc)).ok();
}

fn manifest_value(generation: u64, segments: &[u64]) -> Value {
    Value::record([
        ("version", Value::Int(1)),
        ("generation", Value::Int(generation as i64)),
        ("segments", Value::List(segments.iter().map(|&s| Value::Int(s as i64)).collect())),
    ])
}

fn parse_manifest(value: &Value) -> Option<(u64, Vec<u64>)> {
    if value.get("version").and_then(Value::as_i64) != Some(1) {
        return None;
    }
    let generation = value.get("generation").and_then(Value::as_i64)?;
    let segments = match value.get("segments")? {
        Value::List(items) => items
            .iter()
            .map(|v| v.as_i64().filter(|&i| i > 0).map(|i| i as u64))
            .collect::<Option<Vec<u64>>>()?,
        _ => return None,
    };
    (generation >= 0).then_some((generation as u64, segments))
}

/// Atomically installs a manifest listing `segments` (temp file + fsync +
/// rename + directory fsync), all through the `StoreFs` seam so the fault
/// harness can crash at every boundary of the swap.
fn write_manifest(fs: &dyn StoreFs, dir: &Path, generation: u64, segments: &[u64]) -> Result<()> {
    let text = json::to_string(&manifest_value(generation, segments));
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let target = dir.join(MANIFEST_FILE);
    let mut file = fs.create(&tmp).map_err(|e| store_err(&tmp, e))?;
    fs.append(&mut file, text.as_bytes()).map_err(|e| store_err(&tmp, e))?;
    fs.sync(&file).map_err(|e| store_err(&tmp, e))?;
    drop(file);
    fs.rename(&tmp, &target).map_err(|e| store_err(&target, e))?;
    fs.sync_dir(dir).map_err(|e| store_err(dir, e))?;
    Ok(())
}

/// Creates segment file `id` with its magic header, fsynced, and drops
/// any stale hint log an interrupted compaction left under its id.
fn create_segment(fs: &dyn StoreFs, dir: &Path, id: u64) -> Result<File> {
    let path = dir.join(segment_name(id));
    let mut file = fs.create(&path).map_err(|e| store_err(&path, e))?;
    std::fs::remove_file(dir.join(hint::hint_name(id))).ok();
    fs.append(&mut file, &SEGMENT_MAGIC).map_err(|e| store_err(&path, e))?;
    fs.sync(&file).map_err(|e| store_err(&path, e))?;
    Ok(file)
}

/// Ids of the `seg-NNNNNN{suffix}` files on disk, ascending.
fn scan_dir_for(dir: &Path, suffix: &str) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let id = name.strip_prefix("seg-")?.strip_suffix(suffix)?;
            id.parse::<u64>().ok().filter(|&i| i > 0)
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Reads the `slot.len` bytes at `slot.offset` without moving any shared
/// cursor, so concurrent readers can share one handle.
fn read_slot(file: &File, slot: &Slot) -> std::result::Result<Vec<u8>, String> {
    let mut buf = vec![0u8; slot.len as usize];
    read_exact_at(file, &mut buf, slot.offset).map_err(|e| e.to_string())?;
    Ok(buf)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Re-verifies the frame read for `(kind, key)`: checksum, shape, and
/// that it *is* that artefact — a slot that locates any other frame is
/// rot, never a hit.
fn verify(
    bytes: &[u8],
    kind: ArtifactKind,
    key: Fingerprint,
) -> std::result::Result<frame::FrameBody<'_>, String> {
    let body = frame::decode(bytes)?;
    if body.kind != kind || body.key != key {
        return Err(format!("slot of {}/{key} holds {}/{}", kind.tag(), body.kind.tag(), body.key));
    }
    Ok(body)
}

impl SegmentStore {
    /// Opens (creating if needed) the store in `dir` on the real
    /// filesystem, running recovery. See [`SegmentStore::open_with_fs`].
    pub fn open(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        telemetry: Telemetry,
    ) -> Result<(SegmentStore, StoreRecovery)> {
        Self::open_with_fs(dir, options, Arc::new(RealFs), telemetry)
    }

    /// Opens the store through an explicit filesystem seam (the fault
    /// harness entry point). Recovery is idempotent: it truncates torn
    /// tails, quarantines corrupt frames, removes orphan segments and hint
    /// logs of an interrupted rotation/compaction, and rebuilds a missing
    /// or corrupt manifest from the segment files on disk (ascending
    /// segment id, so compacted copies win over stale originals).
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] only for environment failures (unreadable
    /// directory, I/O errors). Corruption never errors — it quarantines.
    pub fn open_with_fs(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        fs: Arc<dyn StoreFs>,
        telemetry: Telemetry,
    ) -> Result<(SegmentStore, StoreRecovery)> {
        let started = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| store_err(&dir, e))?;
        let mut recovery = StoreRecovery::default();
        let manifest_path = dir.join(MANIFEST_FILE);

        let mut generation = 0u64;
        let mut segments: Vec<u64>;
        let mut manifest_dirty = false;
        match std::fs::read(&manifest_path) {
            // Invalid UTF-8 is corruption (a flipped bit), exactly like
            // unparsable JSON — quarantine and rebuild, never an error.
            Ok(bytes) => {
                let parsed = String::from_utf8(bytes)
                    .ok()
                    .and_then(|text| json::parse(&text).ok())
                    .as_ref()
                    .and_then(parse_manifest);
                // A manifest naming a segment that is not on disk is as
                // damaged as an unparsable one: trusting it would remove
                // the real segments as orphans.
                let missing = parsed.as_ref().and_then(|(_, listed)| {
                    listed.iter().copied().find(|&id| !dir.join(segment_name(id)).exists())
                });
                match (parsed, missing) {
                    (Some((g, s)), None) => {
                        generation = g;
                        segments = s;
                    }
                    (_, missing) => {
                        let quarantined = dir.join(format!("{MANIFEST_FILE}.quarantined"));
                        rotate_quarantine(&quarantined);
                        std::fs::rename(&manifest_path, &quarantined).ok();
                        segments = scan_dir_for(&dir, ".seg");
                        let damage = missing.map_or("unreadable".to_owned(), |id| {
                            format!("lists segment {id}, which is missing on disk")
                        });
                        recovery.notes.push(format!(
                            "store manifest {damage}; quarantined it and rebuilt from {} segment file(s)",
                            segments.len()
                        ));
                        manifest_dirty = true;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                segments = scan_dir_for(&dir, ".seg");
                if !segments.is_empty() {
                    recovery.notes.push(format!(
                        "store manifest missing; rebuilt from {} segment file(s)",
                        segments.len()
                    ));
                    manifest_dirty = true;
                }
            }
            Err(e) => return Err(store_err(&manifest_path, e)),
        }
        segments.sort_unstable();
        segments.dedup();

        // The index comes from each segment's hint log; only the bytes
        // past its last valid batch are read and verified. Values stay on
        // disk until `get` touches them.
        // Sized once from the hint logs' lengths: growing the table while
        // tens of thousands of entries stream in would rehash it each time.
        // A log holds no more entries than its segment holds frames, so a
        // garbage log cannot inflate the estimate past the segment.
        let len_of = |path: PathBuf| std::fs::metadata(path).map_or(0, |meta| meta.len());
        let hinted: u64 = segments
            .iter()
            .map(|&id| {
                len_of(dir.join(hint::hint_name(id))).min(len_of(dir.join(segment_name(id))))
            })
            .sum();
        let mut index =
            Index::with_capacity_and_hasher(hint::entries_within(hinted), Default::default());
        let mut frames_on_disk = 0usize;
        let mut quarantine_items: Vec<Value> = Vec::new();
        let mut kept: Vec<u64> = Vec::with_capacity(segments.len());
        let mut last_hint: Option<(u64, HintLog)> = None;
        for &id in &segments {
            let path = dir.join(segment_name(id));
            let mut file = File::open(&path).map_err(|e| store_err(&path, e))?;
            let len = file.metadata().map_err(|e| store_err(&path, e))?.len();
            let mut magic = [0u8; SEGMENT_MAGIC.len()];
            if file.read_exact(&mut magic).is_err() || magic != SEGMENT_MAGIC {
                drop(file);
                recovery.quarantined_frames += 1;
                recovery.notes.push(format!("segment {id}: bad header; quarantined wholesale"));
                let quarantined = dir.join(format!("{}.quarantined", segment_name(id)));
                rotate_quarantine(&quarantined);
                std::fs::rename(&path, &quarantined).ok();
                manifest_dirty = true;
                continue;
            }
            kept.push(id);

            let hint_path = dir.join(hint::hint_name(id));
            let hint_bytes = std::fs::read(&hint_path).ok();
            let loaded = hint::load(hint_bytes.as_deref().unwrap_or_default(), FIRST_FRAME, len);
            if loaded.batches > 0 {
                recovery.hinted_segments += 1;
            }
            frames_on_disk += loaded.entries.len();
            index.extend(loaded.entries.iter().filter_map(|e| {
                Some(((e.kind?, e.key), Slot { segment: id, offset: e.offset, len: e.len }))
            }));

            let mut tail = Vec::new();
            file.seek(SeekFrom::Start(loaded.covered))
                .and_then(|_| file.read_to_end(&mut tail))
                .map_err(|e| store_err(&path, e))?;
            recovery.scanned_bytes += tail.len() as u64;
            // Scanned frames go into a new hint batch, up to the first
            // corrupt one: batches tile, so none can skip it, and the
            // next open must find it again.
            let mut fresh: Vec<hint::Entry> = Vec::new();
            let mut hintable = true;
            let mut at = 0usize;
            while at < tail.len() {
                let offset = loaded.covered + at as u64;
                match frame::scan_step(&tail[at..]) {
                    frame::ScanStep::Frame { kind, key, len } => {
                        index.insert((kind, key), Slot { segment: id, offset, len: len as u32 });
                        frames_on_disk += 1;
                        if hintable {
                            fresh.push(hint::Entry {
                                kind: Some(kind),
                                key,
                                offset,
                                len: len as u32,
                            });
                        }
                        at += len;
                    }
                    frame::ScanStep::Retired { len } => {
                        // Written by an older build; never indexed, so
                        // it counts as dead and compaction drops it.
                        frames_on_disk += 1;
                        if hintable {
                            let key = Fingerprint(0);
                            fresh.push(hint::Entry { kind: None, key, offset, len: len as u32 });
                        }
                        at += len;
                    }
                    frame::ScanStep::Corrupt { reason, len } => {
                        recovery.quarantined_frames += 1;
                        quarantine_items.push(quarantine_item(
                            id,
                            offset,
                            &reason,
                            &tail[at..at + len],
                        ));
                        recovery.notes.push(format!("segment {id} @{offset}: {reason}"));
                        hintable = false;
                        at += len;
                    }
                    frame::ScanStep::Tail { reason } => {
                        let torn = (tail.len() - at) as u64;
                        recovery.quarantined_frames += 1;
                        recovery.truncated_bytes += torn;
                        quarantine_items.push(quarantine_item(id, offset, &reason, &tail[at..]));
                        recovery.notes.push(format!(
                            "segment {id} @{offset}: {reason}; truncated {torn} torn byte(s)"
                        ));
                        let file = std::fs::OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| store_err(&path, e))?;
                        file.set_len(offset).map_err(|e| store_err(&path, e))?;
                        file.sync_data().map_err(|e| store_err(&path, e))?;
                        break;
                    }
                }
            }

            let (log, written) =
                refresh_hint(&*fs, &dir, id, hint_bytes.as_deref(), &loaded, &fresh);
            let covered = fresh.last().map_or(loaded.covered, |e| e.offset + u64::from(e.len));
            let enabled = hintable && written;
            last_hint = Some((id, HintLog { file: log, covered, pending: Vec::new(), enabled }));
        }
        manifest_dirty |= kept.len() != segments.len();
        let mut segments = kept;

        // Segment files not in the manifest are leftovers of an
        // interrupted rotation or compaction swap: their content was
        // either never committed or is a duplicate of live segments. A
        // hint log without its segment is left over the same way.
        let listed: HashSet<u64> = segments.iter().copied().collect();
        for id in scan_dir_for(&dir, ".seg") {
            if !listed.contains(&id) {
                std::fs::remove_file(dir.join(segment_name(id))).ok();
                recovery.removed_orphan_segments += 1;
            }
        }
        for id in scan_dir_for(&dir, ".hint") {
            if !listed.contains(&id) {
                std::fs::remove_file(dir.join(hint::hint_name(id))).ok();
            }
        }
        std::fs::remove_file(dir.join(format!("{MANIFEST_FILE}.tmp"))).ok();

        if segments.is_empty() {
            create_segment(&*fs, &dir, 1)?;
            segments.push(1);
            manifest_dirty = true;
        }
        if manifest_dirty {
            generation += 1;
            write_manifest(&*fs, &dir, generation, &segments)?;
        }

        if !quarantine_items.is_empty() {
            write_quarantine(&dir, quarantine_items);
        }

        let active_id = *segments.last().expect("at least one segment");
        let active_path = dir.join(segment_name(active_id));
        let active = std::fs::OpenOptions::new()
            .append(true)
            .open(&active_path)
            .map_err(|e| store_err(&active_path, e))?;
        let active_len =
            std::fs::metadata(&active_path).map_err(|e| store_err(&active_path, e))?.len();
        let bytes_on_disk = segments
            .iter()
            .map(|&id| std::fs::metadata(dir.join(segment_name(id))).map(|m| m.len()).unwrap_or(0))
            .sum();
        let hint = match last_hint {
            Some((id, mut log)) if id == active_id => {
                let path = dir.join(hint::hint_name(id));
                if log.enabled && log.file.is_none() && path.exists() {
                    log.file = std::fs::OpenOptions::new().append(true).open(path).ok();
                    log.enabled = log.file.is_some();
                }
                log.enabled &= log.covered == active_len;
                log
            }
            _ => HintLog::fresh(),
        };

        recovery.segments = segments.len();
        recovery.live_frames = index.len();
        if recovery.quarantined_frames > 0 {
            telemetry.count("store.quarantined_frames", recovery.quarantined_frames as u64);
        }
        telemetry.count("store.scanned_bytes", recovery.scanned_bytes);
        telemetry.duration_ms("store.open_ms", started.elapsed().as_secs_f64() * 1000.0);

        let store = SegmentStore {
            dir,
            fs,
            options,
            telemetry,
            inner: Mutex::new(Inner {
                segments,
                generation,
                active,
                active_len,
                hint,
                index,
                readers: HashMap::new(),
                frames_on_disk,
                bytes_on_disk,
                appends: 0,
                quarantined_frames: recovery.quarantined_frames as u64,
                pending_sync: false,
                last_compaction: None,
                wedged: None,
            }),
        };
        Ok((store, recovery))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic mid-operation leaves in-memory bookkeeping suspect but
        // the on-disk log intact; recover the guard and keep serving.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of live frames.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// `true` when no live frames exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of all live frames of one kind.
    pub fn keys_of_kind(&self, kind: ArtifactKind) -> Vec<Fingerprint> {
        self.lock().index.keys().filter(|(k, _)| *k == kind).map(|&(_, f)| f).collect()
    }

    /// Keys of all live frames.
    pub fn keys(&self) -> Vec<(ArtifactKind, Fingerprint)> {
        self.lock().index.keys().copied().collect()
    }

    fn check_wedged(inner: &Inner) -> Result<()> {
        match &inner.wedged {
            Some(reason) => Err(EngineError::Store(format!(
                "store is read-only after a write failure (reopen to recover): {reason}"
            ))),
            None => Ok(()),
        }
    }

    /// Appends one artefact frame to the active segment, rotating first
    /// when the segment is full. The frame is *committed* — guaranteed to
    /// survive any crash — only once a subsequent [`SegmentStore::sync`]
    /// returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on I/O failure. A failed append wedges the
    /// store read-only, because the on-disk tail may be torn.
    pub fn append(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: &str,
        value: &Value,
    ) -> Result<()> {
        let frame = frame::encode(kind, key, owner, &json::to_string(value));
        let mut inner = self.lock();
        Self::check_wedged(&inner)?;
        if inner.active_len > FIRST_FRAME
            && inner.active_len + frame.len() as u64 > self.options.segment_bytes
        {
            if let Err(e) = self.rotate(&mut inner) {
                inner.wedged = Some(e.to_string());
                return Err(e);
            }
        }
        let offset = inner.active_len;
        if let Err(e) = self.fs.append(&mut inner.active, &frame) {
            inner.wedged = Some(e.to_string());
            return Err(EngineError::Store(format!("frame append failed: {e}")));
        }
        let segment = *inner.segments.last().expect("at least one segment");
        let len = frame.len() as u32;
        inner.active_len += u64::from(len);
        inner.bytes_on_disk += u64::from(len);
        inner.index.insert((kind, key), Slot { segment, offset, len });
        inner.hint.pending.push(hint::Entry { kind: Some(kind), key, offset, len });
        inner.frames_on_disk += 1;
        inner.appends += 1;
        inner.pending_sync = true;
        self.telemetry.count("store.appends", 1);
        Ok(())
    }

    /// Seals the active segment, creates the next one, and commits the
    /// extended manifest. Crash-safe: until the manifest lands, the new
    /// segment is an orphan the next open removes.
    fn rotate(&self, inner: &mut Inner) -> Result<()> {
        self.fs
            .sync(&inner.active)
            .map_err(|e| EngineError::Store(format!("sealing segment failed: {e}")))?;
        inner.pending_sync = false;
        let sealed = *inner.segments.last().expect("at least one segment");
        inner.hint.flush(&*self.fs, &self.dir, sealed);
        let id = sealed + 1;
        let file = create_segment(&*self.fs, &self.dir, id)?;
        let mut segments = inner.segments.clone();
        segments.push(id);
        write_manifest(&*self.fs, &self.dir, inner.generation + 1, &segments)?;
        inner.generation += 1;
        inner.segments = segments;
        inner.active = file;
        inner.active_len = FIRST_FRAME;
        inner.hint = HintLog::fresh();
        inner.bytes_on_disk += FIRST_FRAME;
        self.telemetry.count("store.rotations", 1);
        Ok(())
    }

    /// Fsyncs pending appends — the commit point for everything appended
    /// since the last sync — then hints the committed frames. Cheap when
    /// nothing is pending.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on fsync failure (the store wedges).
    pub fn sync(&self) -> Result<()> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        Self::check_wedged(inner)?;
        if inner.pending_sync {
            if let Err(e) = self.fs.sync(&inner.active) {
                inner.wedged = Some(e.to_string());
                return Err(EngineError::Store(format!("fsync failed: {e}")));
            }
            inner.pending_sync = false;
            let active = *inner.segments.last().expect("at least one segment");
            inner.hint.flush(&*self.fs, &self.dir, active);
        }
        Ok(())
    }

    /// The shared read handle of `segment`, opened on first use.
    fn reader(&self, inner: &mut Inner, segment: u64) -> std::io::Result<Arc<File>> {
        if let Some(file) = inner.readers.get(&segment) {
            return Ok(Arc::clone(file));
        }
        let file = Arc::new(File::open(self.dir.join(segment_name(segment)))?);
        inner.readers.insert(segment, Arc::clone(&file));
        Ok(file)
    }

    /// Fetches one artefact, re-verifying its frame on the way (the
    /// lazy-parse point read): checksum, shape, and that the frame holds
    /// this very `(kind, key)`. The lock covers only the index lookup; the
    /// read and the parse run outside it. A frame that fails verification
    /// is quarantined from the index and reads as a miss — the artefact
    /// recomputes; the store never serves bytes that fail verification.
    pub fn get(&self, kind: ArtifactKind, key: Fingerprint) -> Option<(String, Value)> {
        let (slot, file) = {
            let mut inner = self.lock();
            let slot = *inner.index.get(&(kind, key))?;
            (slot, self.reader(&mut inner, slot.segment))
        };
        let read = file.map_err(|e| e.to_string()).and_then(|file| read_slot(&file, &slot));
        let bytes = read.as_deref().unwrap_or_default();
        let decoded = read.as_ref().map_err(String::clone).and_then(|_| {
            let body = verify(bytes, kind, key)?;
            json::parse(body.value_json)
                .map(|value| (body.owner.to_owned(), value))
                .map_err(|e| format!("stored value unparsable: {e}"))
        });
        match decoded {
            Ok(hit) => Some(hit),
            Err(reason) => {
                self.quarantine_rot(kind, key, slot, &reason, bytes);
                None
            }
        }
    }

    /// Drops a frame that failed verification on read from the index and
    /// records it in the quarantine file.
    fn quarantine_rot(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
        slot: Slot,
        reason: &str,
        bytes: &[u8],
    ) {
        let mut inner = self.lock();
        // Only the slot that was read goes: a concurrent append may have
        // superseded it meanwhile.
        if inner.index.get(&(kind, key)) != Some(&slot) {
            return;
        }
        inner.index.remove(&(kind, key));
        inner.quarantined_frames += 1;
        self.telemetry.count("store.quarantined_frames", 1);
        self.telemetry.count("store.read_rot", 1);
        write_quarantine(
            &self.dir,
            vec![quarantine_item(slot.segment, slot.offset, reason, bytes)],
        );
    }

    /// Rewrites all live frames into fresh segments and atomically swaps
    /// the manifest, reclaiming dead-frame space. Interrupting this at
    /// *any* point leaves a readable store: segment files are immutable
    /// once sealed and the manifest rename is the single commit point, so
    /// recovery sees either the old segment set or the new one.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on I/O failure before the commit point; the
    /// store stays on the old segment set, fully usable, and the partial
    /// new segments are orphans the next open removes.
    pub fn compact(&self) -> Result<CompactionSummary> {
        let started = Instant::now();
        let mut guard = self.lock();
        let inner = &mut *guard;
        Self::check_wedged(inner)?;

        let frames_before = inner.frames_on_disk;
        let bytes_before = inner.bytes_on_disk;
        let segments_before = inner.segments.len();

        // Copy in (segment, offset) order: sequential reads, determinism.
        let mut live: Vec<((ArtifactKind, Fingerprint), Slot)> =
            inner.index.iter().map(|(k, s)| (*k, *s)).collect();
        live.sort_by_key(|&(_, s)| (s.segment, s.offset));

        let first_id = inner.segments.last().expect("at least one segment") + 1;
        let mut new_segments: Vec<u64> = Vec::new();
        let mut new_index = Index::default();
        let mut active: Option<File> = None;
        let mut active_len = 0u64;
        let mut new_bytes = 0u64;
        // Each new segment gets its hint log once it is synced.
        let mut hints: Vec<hint::Entry> = Vec::new();
        let seal_hint = |id: u64, hints: &mut Vec<hint::Entry>| {
            let mut log = None;
            let written = !hints.is_empty()
                && append_hint(&*self.fs, &self.dir, id, &mut log, &hint::encode_batch(hints));
            hints.clear();
            log.filter(|_| written)
        };
        for ((kind, key), slot) in live {
            // Re-read through the verifying decoder: rot discovered during
            // compaction is dropped, never copied forward.
            let read = self.reader(inner, slot.segment).map_err(|e| e.to_string());
            let Ok(bytes) = read.and_then(|file| read_slot(&file, &slot)) else {
                inner.quarantined_frames += 1;
                self.telemetry.count("store.quarantined_frames", 1);
                continue;
            };
            if verify(&bytes, kind, key).is_err() {
                inner.quarantined_frames += 1;
                self.telemetry.count("store.quarantined_frames", 1);
                continue;
            }
            if active.is_none()
                || (active_len > FIRST_FRAME
                    && active_len + bytes.len() as u64 > self.options.segment_bytes)
            {
                if let Some(file) = &active {
                    self.fs.sync(file).map_err(|e| EngineError::Store(e.to_string()))?;
                    seal_hint(*new_segments.last().expect("segment exists"), &mut hints);
                }
                let id = first_id + new_segments.len() as u64;
                active = Some(create_segment(&*self.fs, &self.dir, id)?);
                new_segments.push(id);
                active_len = FIRST_FRAME;
                new_bytes += FIRST_FRAME;
            }
            let file = active.as_mut().expect("segment just ensured");
            self.fs
                .append(file, &bytes)
                .map_err(|e| EngineError::Store(format!("compaction copy failed: {e}")))?;
            let segment = *new_segments.last().expect("segment just ensured");
            let len = bytes.len() as u32;
            new_index.insert((kind, key), Slot { segment, offset: active_len, len });
            hints.push(hint::Entry { kind: Some(kind), key, offset: active_len, len });
            active_len += u64::from(len);
            new_bytes += u64::from(len);
        }
        if active.is_none() {
            let id = first_id;
            active = Some(create_segment(&*self.fs, &self.dir, id)?);
            new_segments.push(id);
            active_len = FIRST_FRAME;
            new_bytes += FIRST_FRAME;
        }
        let file = active.expect("active segment exists");
        self.fs.sync(&file).map_err(|e| EngineError::Store(e.to_string()))?;
        let last = *new_segments.last().expect("segment exists");
        let hint = match seal_hint(last, &mut hints) {
            Some(log) => {
                HintLog { file: Some(log), covered: active_len, pending: Vec::new(), enabled: true }
            }
            None if active_len == FIRST_FRAME => HintLog::fresh(),
            None => HintLog { enabled: false, ..HintLog::fresh() },
        };

        // The commit point: after this rename, the new segments are the
        // store. Everything beyond it is best-effort cleanup.
        write_manifest(&*self.fs, &self.dir, inner.generation + 1, &new_segments)?;

        let old_segments = std::mem::replace(&mut inner.segments, new_segments);
        inner.generation += 1;
        inner.frames_on_disk = new_index.len();
        inner.index = new_index;
        inner.active = file;
        inner.active_len = active_len;
        inner.hint = hint;
        inner.bytes_on_disk = new_bytes;
        inner.pending_sync = false;
        // Reads in flight keep their handles; an unlinked segment stays
        // readable through them.
        inner.readers.clear();
        for id in old_segments {
            self.fs.remove(&self.dir.join(segment_name(id))).ok();
            self.fs.remove(&self.dir.join(hint::hint_name(id))).ok();
        }

        let summary = CompactionSummary {
            live_frames: inner.index.len(),
            dropped_frames: frames_before - inner.index.len(),
            reclaimed_bytes: bytes_before as i64 - new_bytes as i64,
            segments_before,
            segments_after: inner.segments.len(),
            wall_ms: started.elapsed().as_secs_f64() * 1000.0,
        };
        inner.last_compaction = Some(summary.clone());
        self.telemetry.count("store.compactions", 1);
        self.telemetry.duration_ms("store.compact_ms", summary.wall_ms);
        Ok(summary)
    }

    /// Runs [`SegmentStore::compact`] when dead frames pass the configured
    /// thresholds; the no-op path costs one index-size comparison.
    pub fn maybe_compact(&self) -> Result<Option<CompactionSummary>> {
        let (dead, total) = {
            let inner = self.lock();
            (inner.frames_on_disk - inner.index.len(), inner.frames_on_disk)
        };
        if total > 0
            && dead >= self.options.compact_min_dead
            && dead as f64 / total as f64 >= self.options.compact_dead_ratio
        {
            return self.compact().map(Some);
        }
        Ok(None)
    }

    /// A point-in-time health snapshot.
    pub fn health(&self) -> StoreHealth {
        let inner = self.lock();
        StoreHealth {
            segments: inner.segments.len(),
            live_frames: inner.index.len(),
            dead_frames: inner.frames_on_disk - inner.index.len(),
            quarantined_frames: inner.quarantined_frames,
            appends: inner.appends,
            bytes: inner.bytes_on_disk,
            generation: inner.generation,
            last_compaction: inner.last_compaction.clone(),
        }
    }

    /// Materialises every live frame as an in-memory [`SharedStore`] —
    /// the `decisive store export` path back to portable v3 JSON.
    pub fn export(&self) -> SharedStore {
        let keys: Vec<(ArtifactKind, Fingerprint)> = self.lock().index.keys().copied().collect();
        let out = SharedStore::new();
        for (kind, key) in keys {
            if let Some((owner, value)) = self.get(kind, key) {
                out.insert_value(kind, key, owner, value);
            }
        }
        out
    }

    /// Appends every in-memory entry of `store` (a decoded v3 snapshot)
    /// into the log, in snapshot order, and syncs — the `decisive store
    /// import` path.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on I/O failure.
    pub fn import(&self, store: &SharedStore) -> Result<usize> {
        let entries = store.sorted_entries();
        for (kind, key, owner, value) in &entries {
            self.append(*kind, *key, owner, value)?;
        }
        self.sync()?;
        Ok(entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("decisive_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path, options: StoreOptions) -> (SegmentStore, StoreRecovery) {
        SegmentStore::open(dir, options, Telemetry::noop()).expect("store opens")
    }

    fn small() -> StoreOptions {
        StoreOptions { segment_bytes: 256, compact_min_dead: 2, compact_dead_ratio: 0.5 }
    }

    fn put(store: &SegmentStore, key: u64, text: &str) {
        store
            .append(ArtifactKind::GraphRow, Fingerprint(key), "D1", &Value::from(text))
            .expect("append succeeds");
    }

    #[test]
    fn appends_survive_reopen() {
        let dir = scratch("basic");
        let (store, recovery) = open(&dir, StoreOptions::default());
        assert!(recovery.is_clean());
        put(&store, 1, "one");
        put(&store, 2, "two");
        store.sync().unwrap();
        drop(store);

        let (store, recovery) = open(&dir, StoreOptions::default());
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(recovery.live_frames, 2);
        let (owner, value) = store.get(ArtifactKind::GraphRow, Fingerprint(1)).unwrap();
        assert_eq!(owner, "D1");
        assert_eq!(value, Value::from("one"));
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(9)).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_segments_rotate_and_all_frames_survive() {
        let dir = scratch("rotate");
        let (store, _) = open(&dir, small());
        for i in 0..32 {
            put(&store, i, &format!("value-{i}"));
        }
        store.sync().unwrap();
        assert!(store.health().segments > 1, "256-byte segments must have rotated");
        drop(store);

        let (store, recovery) = open(&dir, small());
        assert!(recovery.is_clean(), "{recovery:?}");
        for i in 0..32 {
            let (_, value) = store.get(ArtifactKind::GraphRow, Fingerprint(i)).unwrap();
            assert_eq!(value, Value::from(format!("value-{i}").as_str()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_quarantined_at_frame_granularity() {
        let dir = scratch("torn");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "committed");
        store.sync().unwrap();
        drop(store);

        // Simulate a torn final append: garbage half-frame at the tail.
        let seg = dir.join(segment_name(1));
        let mut bytes = std::fs::read(&seg).unwrap();
        let committed_len = bytes.len();
        bytes.extend_from_slice(&[0x55, 0x00, 0x10, 0x00, 0xde, 0xad]);
        std::fs::write(&seg, &bytes).unwrap();

        let (store, recovery) = open(&dir, StoreOptions::default());
        assert_eq!(recovery.quarantined_frames, 1);
        assert!(recovery.truncated_bytes > 0);
        assert!(!recovery.is_clean());
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), committed_len as u64);
        assert!(dir.join(STORE_QUARANTINE_FILE).exists(), "torn bytes kept for post-mortem");
        assert!(
            store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_some(),
            "the committed frame before the tear survives"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_bit_quarantines_one_frame_and_keeps_the_rest() {
        let dir = scratch("flip");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "first");
        put(&store, 2, "second");
        store.sync().unwrap();
        drop(store);

        // Flip a byte inside the first frame's body (past magic + length
        // header), leaving the second frame intact.
        let seg = dir.join(segment_name(1));
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[SEGMENT_MAGIC.len() + 6] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();

        // The hint covers both frames, so open does not read them: the
        // rot is caught when the frame is served, and quarantined there.
        let (store, recovery) = open(&dir, StoreOptions::default());
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(recovery.scanned_bytes, 0);
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_none());
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(2)).is_some());
        assert_eq!(store.health().quarantined_frames, 1);
        assert_eq!(store.len(), 1);
        assert!(dir.join(STORE_QUARANTINE_FILE).exists(), "read rot kept for post-mortem");
        drop(store);

        // Without the hint, open scans the segment and finds it there.
        std::fs::remove_file(dir.join(hint::hint_name(1))).unwrap();
        let (store, recovery) = open(&dir, StoreOptions::default());
        assert_eq!(recovery.quarantined_frames, 1);
        assert_eq!(recovery.live_frames, 1, "scan resynced past the corrupt frame");
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_none());
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(2)).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_slot_holding_another_key_reads_as_a_miss_never_the_wrong_value() {
        let dir = scratch("wrongkey");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "one");
        put(&store, 2, "two");
        store.sync().unwrap();
        drop(store);

        // A valid hint that swaps the two (equal-sized) frames' keys: it
        // tiles and checksums, but each slot locates the other frame.
        let len = frame::encode(ArtifactKind::GraphRow, Fingerprint(1), "D1", "\"one\"").len();
        let entry = |key, offset| hint::Entry {
            kind: Some(ArtifactKind::GraphRow),
            key: Fingerprint(key),
            offset,
            len: len as u32,
        };
        let mut log = hint::HINT_MAGIC.to_vec();
        log.extend(hint::encode_batch(&[
            entry(2, FIRST_FRAME),
            entry(1, FIRST_FRAME + len as u64),
        ]));
        std::fs::write(dir.join(hint::hint_name(1)), log).unwrap();

        let (store, recovery) = open(&dir, StoreOptions::default());
        assert_eq!((recovery.hinted_segments, recovery.scanned_bytes), (1, 0));
        assert_eq!(store.len(), 2);
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_none());
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(2)).is_none());
        assert_eq!(store.health().quarantined_frames, 2, "both mismatches are read rot");
        assert!(store.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_clean_reopen_is_indexed_from_hints_alone() {
        let dir = scratch("hinted");
        let (store, recovery) = open(&dir, small());
        assert_eq!((recovery.hinted_segments, recovery.scanned_bytes), (0, 0));
        for i in 0..32 {
            put(&store, i, &format!("value-{i}"));
        }
        store.sync().unwrap();
        let segments = store.health().segments;
        drop(store);

        let (store, recovery) = open(&dir, small());
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(recovery.scanned_bytes, 0, "every synced byte is hinted");
        assert_eq!(recovery.hinted_segments, segments);
        assert_eq!(store.len(), 32);
        let (_, value) = store.get(ArtifactKind::GraphRow, Fingerprint(31)).unwrap();
        assert_eq!(value, Value::from("value-31"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_reclaims_dead_frames_and_survives_reopen() {
        let dir = scratch("compact");
        let (store, _) = open(&dir, small());
        for round in 0..8 {
            for key in 0..4 {
                put(&store, key, &format!("round-{round}-key-{key}"));
            }
        }
        store.sync().unwrap();
        let before = store.health();
        assert_eq!(before.live_frames, 4);
        assert_eq!(before.dead_frames, 28);

        let summary = store.compact().unwrap();
        assert_eq!(summary.live_frames, 4);
        assert_eq!(summary.dropped_frames, 28);
        assert!(summary.reclaimed_bytes > 0);
        let after = store.health();
        assert_eq!(after.dead_frames, 0);
        assert!(after.segments < before.segments);

        // The compacted store keeps serving, accepts appends, and reopens.
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(3)).is_some());
        put(&store, 9, "post-compaction");
        store.sync().unwrap();
        drop(store);
        let (store, recovery) = open(&dir, small());
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(recovery.live_frames, 5);
        let (_, value) = store.get(ArtifactKind::GraphRow, Fingerprint(0)).unwrap();
        assert_eq!(value, Value::from("round-7-key-0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_compact_respects_thresholds() {
        let dir = scratch("maybe");
        let (store, _) = open(&dir, small());
        put(&store, 1, "a");
        assert!(store.maybe_compact().unwrap().is_none(), "no dead frames yet");
        put(&store, 1, "b");
        put(&store, 1, "c");
        put(&store, 2, "d");
        store.sync().unwrap();
        // 2 dead of 4 total: min_dead=2 and ratio 0.5 both met.
        assert!(store.maybe_compact().unwrap().is_some());
        assert!(store.maybe_compact().unwrap().is_none(), "freshly compacted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_rebuilds_from_segments() {
        let dir = scratch("manifest");
        let (store, _) = open(&dir, small());
        for i in 0..16 {
            put(&store, i, &format!("v{i}"));
        }
        store.sync().unwrap();
        drop(store);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let (store, recovery) = open(&dir, small());
        assert!(!recovery.is_clean(), "manifest loss is a degradation");
        assert_eq!(store.len(), 16, "all frames recovered by the directory scan");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_manifest_naming_a_missing_segment_is_rebuilt_not_trusted() {
        let dir = scratch("misnamed");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "live");
        store.sync().unwrap();
        drop(store);
        // A flipped bit turns the listed segment 1 into a segment 3.
        std::fs::write(dir.join(MANIFEST_FILE), json::to_string(&manifest_value(1, &[3]))).unwrap();

        let (store, recovery) = open(&dir, StoreOptions::default());
        assert!(!recovery.is_clean(), "{recovery:?}");
        assert!(dir.join(format!("{MANIFEST_FILE}.quarantined")).exists(), "kept for post-mortem");
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_some(), "segment 1 served");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_segments_are_removed_silently() {
        let dir = scratch("orphan");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "live");
        store.sync().unwrap();
        drop(store);
        // An interrupted swap leaves an unlisted segment behind.
        let mut orphan = SEGMENT_MAGIC.to_vec();
        orphan.extend(frame::encode(
            ArtifactKind::GraphRow,
            Fingerprint(99),
            "ghost",
            "\"never committed\"",
        ));
        std::fs::write(dir.join(segment_name(7)), &orphan).unwrap();

        let (store, recovery) = open(&dir, StoreOptions::default());
        assert!(recovery.is_clean(), "orphan removal is routine: {recovery:?}");
        assert_eq!(recovery.removed_orphan_segments, 1);
        assert!(!dir.join(segment_name(7)).exists());
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(99)).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_import_round_trip() {
        let dir = scratch("exim");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "one");
        put(&store, 2, "two");
        store.sync().unwrap();
        let snapshot = store.export();
        assert_eq!(snapshot.len(), 2);

        let dir2 = scratch("exim2");
        let (fresh, _) = open(&dir2, StoreOptions::default());
        assert_eq!(fresh.import(&snapshot).unwrap(), 2);
        let (_, value) = fresh.get(ArtifactKind::GraphRow, Fingerprint(2)).unwrap();
        assert_eq!(value, Value::from("two"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn a_failed_append_wedges_writes_but_not_reads() {
        let dir = scratch("wedge");
        let fs = Arc::new(FailpointFs::new(u64::MAX, WriteFault::DropWrite));
        let (store, _) =
            SegmentStore::open_with_fs(&dir, StoreOptions::default(), fs, Telemetry::noop())
                .unwrap();
        put(&store, 1, "before");
        store.sync().unwrap();

        // Re-open through a crashing fs: the next append fails and wedges.
        drop(store);
        let fs = Arc::new(FailpointFs::new(1, WriteFault::Torn { keep: 3 }));
        let (store, _) =
            SegmentStore::open_with_fs(&dir, StoreOptions::default(), fs, Telemetry::noop())
                .unwrap();
        // op 0 is the append (store already initialised); crash at op 1 =
        // the sync.
        put(&store, 2, "unsynced");
        assert!(store.sync().is_err(), "injected fsync failure");
        assert!(matches!(
            store.append(ArtifactKind::GraphRow, Fingerprint(3), "D1", &Value::Null),
            Err(EngineError::Store(_))
        ));
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_some(), "reads keep working");

        // Reopen repairs: the committed frame survives, the torn one is
        // at most quarantined.
        drop(store);
        let (store, _) = open(&dir, StoreOptions::default());
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(1)).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_reports_ratio_and_counters() {
        let dir = scratch("health");
        let (store, _) = open(&dir, StoreOptions::default());
        put(&store, 1, "a");
        put(&store, 1, "b");
        let health = store.health();
        assert_eq!(health.live_frames, 1);
        assert_eq!(health.dead_frames, 1);
        assert_eq!(health.appends, 2);
        assert!((health.live_ratio() - 0.5).abs() < 1e-9);
        let value = health.to_value();
        assert_eq!(value.get("live_frames").and_then(Value::as_i64), Some(1));
        assert_eq!(value.get("segments").and_then(Value::as_i64), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
