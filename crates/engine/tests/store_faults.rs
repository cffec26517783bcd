//! Fault-injection harness for the segmented artifact store (ISSUE:
//! crash-safe store).
//!
//! The store's write path runs through the [`StoreFs`] seam, so a crash
//! can be simulated at *every single* filesystem operation — create,
//! append, fsync, manifest rename, orphan removal — with the crashing
//! write landing dropped, torn, or bit-flipped. Reopening the directory
//! with the real filesystem then *is* recovery, and these tests assert
//! the three invariants the design leans on:
//!
//! 1. recovery never panics and never errors, whatever the crash left;
//! 2. nothing committed is lost: every entry whose append *and*
//!    subsequent fsync both returned `Ok` is served after reopen, at
//!    that version or newer (committed ⊆ recovered);
//! 3. nothing is invented: every recovered value is one the workload
//!    actually appended for that key (recovered ⊆ appended).
//!
//! The crash points are swept exhaustively for a fixed workload (a
//! dry-run with a counting filesystem discovers how many operations the
//! workload performs), and proptest then varies the workload shape,
//! crash point and fault mode together.
//!
//! Each segment's hint log (`seg-NNNNNN.hint`) lets open index the
//! segment without reading it. Hints are advisory, so a hinted open must
//! equal a full-scan open of the same directory, crash or no crash, and
//! every way a hint log can be damaged must fall back to scanning.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use decisive_engine::store::{FailpointFs, RealFs, StoreFs, WriteFault};
use decisive_engine::{
    ArtifactKind, Fingerprint, SegmentStore, StoreOptions, StoreRecovery, STORE_QUARANTINE_FILE,
};
use decisive_federation::Value;
use decisive_obs::Telemetry;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A process-unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "decisive-storefault-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("mkdir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Tiny segments so even short workloads exercise rotation, and
/// permissive compaction thresholds.
fn small() -> StoreOptions {
    StoreOptions { segment_bytes: 192, compact_min_dead: 2, compact_dead_ratio: 0.25 }
}

fn open_with(
    dir: &Path,
    fs: Arc<dyn StoreFs>,
) -> decisive_engine::Result<(SegmentStore, StoreRecovery)> {
    SegmentStore::open_with_fs(dir, small(), fs, Telemetry::noop())
}

fn reopen(dir: &Path) -> (SegmentStore, StoreRecovery) {
    open_with(dir, Arc::new(RealFs)).expect("recovery after a crash never errors")
}

/// The versioned payload: key and version are recoverable from the value
/// so the invariants can be checked from what the store serves.
fn payload(key: u64, version: u64) -> Value {
    Value::record([("key", Value::Int(key as i64)), ("version", Value::Int(version as i64))])
}

fn version_of(value: &Value) -> u64 {
    value.get("version").and_then(Value::as_i64).expect("payload carries its version") as u64
}

/// The deterministic workload: `appends` versioned writes cycling over
/// `keys` distinct keys, fsyncing every `sync_every` appends. Returns
/// `(committed, appended)`: the key → version maps of what was durably
/// committed (append + sync both `Ok`) and of everything attempted.
/// Stops at the first error, as a wedged real process would.
fn run_workload(
    store: &SegmentStore,
    appends: u64,
    keys: u64,
    sync_every: u64,
) -> (HashMap<u64, u64>, HashMap<u64, u64>) {
    let mut committed: HashMap<u64, u64> = HashMap::new();
    let mut unsynced: HashMap<u64, u64> = HashMap::new();
    let mut appended: HashMap<u64, u64> = HashMap::new();
    for version in 0..appends {
        let key = version % keys.max(1);
        appended.insert(key, version);
        if store
            .append(ArtifactKind::GraphRow, Fingerprint(key), "D1", &payload(key, version))
            .is_err()
        {
            return (committed, appended);
        }
        unsynced.insert(key, version);
        if (version + 1) % sync_every.max(1) == 0 {
            if store.sync().is_err() {
                return (committed, appended);
            }
            committed.extend(unsynced.drain());
        }
    }
    if store.sync().is_ok() {
        committed.extend(unsynced.drain());
    }
    (committed, appended)
}

/// Asserts the recovery invariants; returns an error string for use from
/// proptest bodies (plain tests unwrap it).
fn check_invariants(
    dir: &Path,
    committed: &HashMap<u64, u64>,
    appended: &HashMap<u64, u64>,
) -> Result<(), String> {
    let (store, _recovery) = reopen(dir);
    for (&key, &version) in committed {
        let (_, value) = store
            .get(ArtifactKind::GraphRow, Fingerprint(key))
            .ok_or_else(|| format!("committed key {key} (version {version}) lost by recovery"))?;
        let got = version_of(&value);
        if got < version {
            return Err(format!(
                "committed key {key} regressed: recovered version {got} < committed {version}"
            ));
        }
    }
    for key in store.keys_of_kind(ArtifactKind::GraphRow) {
        let latest = appended
            .get(&key.0)
            .ok_or_else(|| format!("recovered key {} was never appended", key.0))?;
        if let Some((_, value)) = store.get(ArtifactKind::GraphRow, key) {
            let got = version_of(&value);
            if got > *latest {
                return Err(format!(
                    "recovered key {} serves version {got}, newer than anything appended ({latest})",
                    key.0
                ));
            }
        }
    }
    Ok(())
}

/// Operations a pristine run of the workload performs — the sweep range.
fn count_ops(appends: u64, keys: u64, sync_every: u64) -> u64 {
    let dir = TempDir::new("count");
    let fs = Arc::new(FailpointFs::counting());
    let counter: Arc<FailpointFs> = fs.clone();
    let (store, _) = open_with(dir.path(), fs).expect("counting open");
    run_workload(&store, appends, keys, sync_every);
    drop(store);
    counter.ops_performed()
}

/// A passthrough [`StoreFs`] that counts every operation and, apart, the
/// operations on hint logs (told apart by the path each file was created
/// under, through its descriptor).
#[cfg(unix)]
mod hint_ops {
    use std::collections::HashSet;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use decisive_engine::store::{RealFs, StoreFs};

    #[derive(Debug, Default)]
    pub struct HintCountingFs {
        pub ops: AtomicU64,
        pub hint_ops: AtomicU64,
        hint_fds: Mutex<HashSet<i32>>,
    }

    impl HintCountingFs {
        fn tick(&self, hint: bool) {
            self.ops.fetch_add(1, Ordering::SeqCst);
            if hint {
                self.hint_ops.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn is_hint(&self, file: &File) -> bool {
            self.hint_fds.lock().unwrap().contains(&file.as_raw_fd())
        }
    }

    impl StoreFs for HintCountingFs {
        fn create(&self, path: &Path) -> io::Result<File> {
            let hint = path.extension().is_some_and(|e| e == "hint");
            self.tick(hint);
            let file = RealFs.create(path)?;
            let mut fds = self.hint_fds.lock().unwrap();
            if hint {
                fds.insert(file.as_raw_fd());
            } else {
                fds.remove(&file.as_raw_fd());
            }
            Ok(file)
        }

        fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
            self.tick(self.is_hint(file));
            RealFs.append(file, bytes)
        }

        fn sync(&self, file: &File) -> io::Result<()> {
            self.tick(self.is_hint(file));
            RealFs.sync(file)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.tick(false);
            RealFs.rename(from, to)
        }

        fn remove(&self, path: &Path) -> io::Result<()> {
            self.tick(path.extension().is_some_and(|e| e == "hint"));
            RealFs.remove(path)
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.tick(false);
            RealFs.sync_dir(dir)
        }
    }
}

/// Exhaustive: a crash at *every* filesystem operation of a fixed
/// rotating workload, for each fault mode, recovers to a store that
/// satisfies the invariants. This is the acceptance criterion's
/// "crash-at-every-fsync-boundary" sweep (and every other boundary too).
#[test]
fn every_crash_point_recovers_committed_data() {
    const APPENDS: u64 = 24;
    const KEYS: u64 = 6;
    const SYNC_EVERY: u64 = 4;
    let total_ops = count_ops(APPENDS, KEYS, SYNC_EVERY);
    assert!(total_ops > APPENDS, "the workload rotates segments: {total_ops} ops");
    // Hint-log writes go through the seam, so the sweep crashes inside
    // them too: every sync that commits frames appends one batch.
    #[cfg(unix)]
    {
        let dir = TempDir::new("hintops");
        let fs = Arc::new(hint_ops::HintCountingFs::default());
        let (store, _) = open_with(dir.path(), fs.clone()).expect("counting open");
        run_workload(&store, APPENDS, KEYS, SYNC_EVERY);
        drop(store);
        let hint_ops = fs.hint_ops.load(Ordering::SeqCst);
        let ops = fs.ops.load(Ordering::SeqCst);
        assert_eq!(ops, total_ops, "the sweep covers every seam operation");
        assert!(hint_ops >= APPENDS / SYNC_EVERY, "{hint_ops} hint op(s) in {total_ops}");
    }
    let faults = [
        WriteFault::DropWrite,
        WriteFault::Torn { keep: 3 },
        WriteFault::Torn { keep: 64 },
        WriteFault::BitFlip { bit: 7 },
        WriteFault::BitFlip { bit: 133 },
    ];
    for fault in faults {
        for crash_at in 0..total_ops {
            let dir = TempDir::new("sweep");
            let fs = Arc::new(FailpointFs::new(crash_at, fault));
            // The open itself may hit the crash point (creating the
            // first segment or writing the first manifest) — that too
            // must leave a recoverable directory.
            let (committed, appended) = match open_with(dir.path(), fs) {
                Ok((store, _)) => run_workload(&store, APPENDS, KEYS, SYNC_EVERY),
                Err(_) => (HashMap::new(), HashMap::new()),
            };
            if let Err(message) = check_invariants(dir.path(), &committed, &appended) {
                panic!("crash at op {crash_at} with {fault:?}: {message}");
            }
        }
    }
}

/// A second crash during the recovery-repair write path (truncating a
/// torn tail) must itself be recoverable: recovery is idempotent.
#[test]
fn recovery_is_idempotent_after_repeated_crashes() {
    let dir = TempDir::new("double");
    let fs = Arc::new(FailpointFs::new(9, WriteFault::Torn { keep: 5 }));
    if let Ok((store, _)) = open_with(dir.path(), fs) {
        run_workload(&store, 16, 4, 2);
    }
    // First recovery repairs; a second recovery over the repaired
    // directory must be clean — nothing left to repair.
    let (store, _) = reopen(dir.path());
    let served = store.len();
    drop(store);
    let (store, recovery) = reopen(dir.path());
    assert!(recovery.is_clean(), "second recovery found more to repair: {recovery:?}");
    assert_eq!(store.len(), served, "recovery is idempotent");
}

/// Bits flipped *at rest* (after a clean shutdown, anywhere in the store
/// directory including the manifest and segment headers) never panic
/// recovery and never lose unaffected entries.
#[test]
fn bit_flips_at_rest_never_panic_recovery() {
    for seed in 0..64u64 {
        let dir = TempDir::new("rest");
        {
            let (store, _) = reopen(dir.path());
            let (committed, _) = run_workload(&store, 12, 4, 1);
            assert_eq!(committed.len(), 4);
        }
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir.path())
            .expect("store dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        let target = &files[(seed as usize) % files.len()];
        let mut bytes = std::fs::read(target).expect("read store file");
        if bytes.is_empty() {
            continue;
        }
        let pos = (seed as usize * 37) % bytes.len();
        bytes[pos] ^= 1 << (seed % 8);
        std::fs::write(target, &bytes).expect("flip bit");

        let (store, _recovery) = reopen(dir.path());
        // No invariant on how *much* survives (the manifest itself may
        // have been hit), only on integrity: whatever is served decodes
        // to a value the workload wrote.
        for key in store.keys_of_kind(ArtifactKind::GraphRow) {
            if let Some((owner, value)) = store.get(ArtifactKind::GraphRow, key) {
                assert_eq!(owner, "D1");
                assert!(version_of(&value) < 12);
            }
        }
    }
}

/// One `put` frame as an older build wrote it for a kind this build has
/// retired, hand-encoded in the documented layout: `[len u32][body][sum
/// u64]`, body = `op · tag_len · tag · key u64 · owner_len u32 · owner ·
/// value_len u32 · value`.
fn legacy_frame(tag: &str, key: u64, owner: &str, value_json: &str) -> Vec<u8> {
    let mut body = vec![1u8, tag.len() as u8];
    body.extend_from_slice(tag.as_bytes());
    body.extend_from_slice(&key.to_le_bytes());
    body.extend_from_slice(&(owner.len() as u32).to_le_bytes());
    body.extend_from_slice(owner.as_bytes());
    body.extend_from_slice(&(value_json.len() as u32).to_le_bytes());
    body.extend_from_slice(value_json.as_bytes());
    let sum = decisive_engine::fingerprint::Hasher::new().write_bytes(&body).finish().0;
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// A store written by a build that still kept per-trial Monte-Carlo
/// artefacts (`mc-trial` frames) opens cleanly: those frames are stale,
/// not corrupt, so nothing is quarantined. They serve nothing, count as
/// dead, and compaction drops them.
#[test]
fn retired_mc_trial_frames_open_clean_and_compact_away() {
    let dir = TempDir::new("retired");
    {
        let (store, _) = SegmentStore::open(dir.path(), StoreOptions::default(), Telemetry::noop())
            .expect("fresh store");
        let (committed, _) = run_workload(&store, 4, 4, 1);
        assert_eq!(committed.len(), 4);
    }
    let segment = dir.path().join("seg-000001.seg");
    let mut bytes = std::fs::read(&segment).expect("the only segment");
    for trial in 0..3u64 {
        bytes.extend(legacy_frame(
            "mc-trial",
            trial,
            "System B",
            r#"{"spfm":0.9,"lfm":1.0,"pmhf":1e-7}"#,
        ));
    }
    std::fs::write(&segment, &bytes).expect("append legacy frames");

    let open = || {
        SegmentStore::open(dir.path(), StoreOptions::default(), Telemetry::noop())
            .expect("store opens")
    };
    let (store, recovery) = open();
    assert!(recovery.is_clean(), "retired frames are not damage: {recovery:?}");
    assert_eq!(recovery.quarantined_frames, 0);
    assert_eq!(recovery.live_frames, 4, "only the live kinds are indexed");
    assert!(recovery.scanned_bytes > 0, "the unhinted legacy frames were scanned");
    assert!(!dir.path().join(STORE_QUARANTINE_FILE).exists());
    let health = store.health();
    assert_eq!(health.dead_frames, 3, "the retired frames are dead weight");
    drop(store);

    // That open hinted them as dead frames: the next one reads no
    // segment bytes and still counts them.
    let (store, recovery) = open();
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!((recovery.scanned_bytes, recovery.live_frames), (0, 4));
    assert_eq!(store.health().dead_frames, 3, "dead through the hint log");

    let summary = store.compact().expect("compaction");
    assert_eq!(summary.dropped_frames, 3);
    assert_eq!(summary.live_frames, 4);
    drop(store);
    let (store, recovery) = open();
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!(store.health().dead_frames, 0, "compaction dropped them for good");
    for key in 0..4 {
        assert!(store.get(ArtifactKind::GraphRow, Fingerprint(key)).is_some());
    }
}

fn hint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.hint"))
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.seg"))
}

/// Segment bytes past the magic, summed over the listed segments.
fn frame_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .map(|p| std::fs::metadata(p).expect("segment").len() - 8)
        .sum()
}

/// The key → version map a store serves, with its live and dead frame
/// counts and what its open quarantined.
fn served(dir: &Path) -> (BTreeMap<u64, u64>, usize, usize, usize, StoreRecovery) {
    let (store, recovery) = reopen(dir);
    let map: BTreeMap<u64, u64> = store
        .keys_of_kind(ArtifactKind::GraphRow)
        .into_iter()
        .filter_map(|key| {
            store.get(ArtifactKind::GraphRow, key).map(|(_, v)| (key.0, version_of(&v)))
        })
        .collect();
    let health = store.health();
    (map, health.live_frames, health.dead_frames, recovery.quarantined_frames, recovery)
}

/// Copies the store directory without its hint logs: what a store
/// written before hint logs existed looks like.
fn copy_without_hints(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("store dir").flatten() {
        let path = entry.path();
        if path.is_file() && path.extension().is_none_or(|e| e != "hint") {
            std::fs::copy(&path, to.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// Writes three syncs' worth of frames into one segment: three hint
/// batches. Returns the served map.
fn three_batches(dir: &Path) -> BTreeMap<u64, u64> {
    let (store, _) =
        SegmentStore::open(dir, StoreOptions::default(), Telemetry::noop()).expect("fresh store");
    let mut expected = BTreeMap::new();
    for batch in 0..3u64 {
        for key in 0..4u64 {
            let id = batch * 4 + key;
            store
                .append(ArtifactKind::GraphRow, Fingerprint(id), "D1", &payload(id, id))
                .expect("append");
            expected.insert(id, id);
        }
        store.sync().expect("sync");
    }
    expected
}

fn open_default(dir: &Path) -> (SegmentStore, StoreRecovery) {
    SegmentStore::open(dir, StoreOptions::default(), Telemetry::noop()).expect("store opens")
}

fn versions(store: &SegmentStore) -> BTreeMap<u64, u64> {
    store
        .keys_of_kind(ArtifactKind::GraphRow)
        .into_iter()
        .map(|key| {
            let (_, value) = store.get(ArtifactKind::GraphRow, key).expect("indexed key serves");
            (key.0, version_of(&value))
        })
        .collect()
}

/// Byte offsets of each batch in a hint log: `[magic_end, b1_end, …]`.
fn batch_ends(log: &[u8]) -> Vec<usize> {
    let mut ends = vec![8];
    let mut at = 8;
    while at + 4 <= log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len + 8;
        ends.push(at);
    }
    ends
}

/// A torn final hint batch: open uses the batches before it, scans only
/// the range the torn one covered, and rewrites the log so the next open
/// scans nothing.
#[test]
fn a_torn_hint_tail_scans_only_its_range() {
    let dir = TempDir::new("torn-hint");
    let expected = three_batches(dir.path());
    let log = std::fs::read(hint_path(dir.path(), 1)).expect("hint log");
    let ends = batch_ends(&log);
    assert_eq!(ends.len(), 4, "magic and three batches");
    std::fs::write(hint_path(dir.path(), 1), &log[..ends[3] - 5]).expect("tear");

    let (store, recovery) = open_default(dir.path());
    assert!(recovery.is_clean(), "a torn hint is not damage: {recovery:?}");
    assert_eq!(recovery.hinted_segments, 1);
    let segment = std::fs::metadata(segment_path(dir.path(), 1)).unwrap().len();
    assert!(recovery.scanned_bytes > 0 && recovery.scanned_bytes < segment - 8, "{recovery:?}");
    assert_eq!(versions(&store), expected);
    drop(store);
    let (store, recovery) = open_default(dir.path());
    assert_eq!(recovery.scanned_bytes, 0, "the scanned range was hinted");
    assert_eq!(versions(&store), expected);
}

/// A bit flipped in the first hint batch invalidates it and every batch
/// after it: open scans the whole segment, serves everything, and
/// rewrites the log.
#[test]
fn a_flipped_hint_batch_falls_back_to_a_scan() {
    let dir = TempDir::new("flip-hint");
    let expected = three_batches(dir.path());
    let mut log = std::fs::read(hint_path(dir.path(), 1)).expect("hint log");
    log[20] ^= 0x10;
    std::fs::write(hint_path(dir.path(), 1), &log).expect("flip");

    let (store, recovery) = open_default(dir.path());
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!(recovery.hinted_segments, 0);
    assert_eq!(recovery.scanned_bytes, frame_bytes(dir.path()));
    assert_eq!(versions(&store), expected);
    drop(store);
    let (_, recovery) = open_default(dir.path());
    assert_eq!((recovery.hinted_segments, recovery.scanned_bytes), (1, 0));
}

/// A hint batch that claims bytes past the segment's end (the segment
/// lost its tail after the hint was written) is invalid; open scans from
/// the previous batch, and cuts the stale batch out of the log so it can
/// never turn valid once the segment grows back past it.
#[test]
fn a_hint_beyond_the_segment_end_is_ignored_and_dropped() {
    let dir = TempDir::new("beyond-hint");
    three_batches(dir.path());
    let log = std::fs::read(hint_path(dir.path(), 1)).expect("hint log");
    let ends = batch_ends(&log);
    // The last batch starts where the second ended: cut the segment back
    // to the first frame of the third sync.
    let third_start = u64::from_le_bytes(log[ends[2] + 4..ends[2] + 12].try_into().unwrap());
    let segment = segment_path(dir.path(), 1);
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..third_start as usize]).unwrap();

    let (store, recovery) = open_default(dir.path());
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!((recovery.hinted_segments, recovery.scanned_bytes), (1, 0));
    assert_eq!(store.len(), 8, "the two surviving syncs' frames");
    // Grow the segment past the stale batch's end with other frames.
    for key in 0..8u64 {
        store
            .append(ArtifactKind::GraphRow, Fingerprint(100 + key), "D1", &payload(key, 100 + key))
            .unwrap();
    }
    store.sync().unwrap();
    let expected = versions(&store);
    drop(store);
    let (store, recovery) = open_default(dir.path());
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!(recovery.scanned_bytes, 0);
    assert_eq!(versions(&store), expected);
    assert_eq!(store.health().quarantined_frames, 0, "no slot points at a wrong frame");
}

/// A hint log whose segment is gone (an interrupted compaction or
/// rotation) is removed by open, and is no repair.
#[test]
fn an_orphan_hint_log_is_removed() {
    let dir = TempDir::new("orphan-hint");
    let expected = three_batches(dir.path());
    std::fs::copy(hint_path(dir.path(), 1), hint_path(dir.path(), 7)).expect("orphan");
    let (store, recovery) = open_default(dir.path());
    assert!(recovery.is_clean(), "{recovery:?}");
    assert!(!hint_path(dir.path(), 7).exists());
    assert_eq!(versions(&store), expected);
}

/// A store written before hint logs existed has the same segments and
/// frames: its first open scans everything and writes the hints, and
/// every later open scans nothing.
#[test]
fn a_pre_hint_store_is_scanned_once_then_hinted() {
    let written = TempDir::new("pre-hint-src");
    let dir = TempDir::new("pre-hint");
    {
        let (store, _) = reopen(written.path());
        run_workload(&store, 40, 7, 3);
    }
    copy_without_hints(written.path(), dir.path());
    let segments = std::fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .count();
    assert!(segments > 1, "the workload rotated");

    let (store, recovery) = reopen(dir.path());
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!(recovery.hinted_segments, 0);
    assert_eq!(recovery.scanned_bytes, frame_bytes(dir.path()));
    let first = (versions(&store), store.health().dead_frames);
    drop(store);
    let (store, recovery) = reopen(dir.path());
    assert!(recovery.is_clean(), "{recovery:?}");
    assert_eq!((recovery.hinted_segments, recovery.scanned_bytes), (segments, 0));
    assert_eq!((versions(&store), store.health().dead_frames), first);
}

/// One operation of a random store workload.
#[derive(Debug, Clone)]
enum Op {
    Append(u64),
    Sync,
    Compact,
}

/// Appends two thirds of the time (over six keys), syncs two ninths and
/// compacts one ninth.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u64..9).prop_map(|n| match n {
        0..=5 => Op::Append(n),
        6 | 7 => Op::Sync,
        _ => Op::Compact,
    })
}

/// Runs `ops` (the version of an append is its position), stopping at the
/// first error as a crashed process would.
fn run_ops(store: &SegmentStore, ops: &[Op]) {
    for (version, op) in ops.iter().enumerate() {
        let result = match op {
            Op::Append(key) => store.append(
                ArtifactKind::GraphRow,
                Fingerprint(*key),
                "D1",
                &payload(*key, version as u64),
            ),
            Op::Sync => store.sync(),
            Op::Compact => store.compact().map(|_| ()),
        };
        if result.is_err() {
            return;
        }
    }
    store.sync().ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A hinted open serves exactly what a full-scan open of the same
    /// directory serves — the same key → value map, the same live and
    /// dead frame counts, the same quarantine — over random append, sync,
    /// rotate and compact workloads, with and without a crash.
    #[test]
    fn a_hinted_open_equals_a_full_scan_open(
        ops in proptest::collection::vec(arb_op(), 1..40),
        crashes in any::<bool>(),
        crash_seed in 0u64..10_000,
        fault in prop_oneof![
            Just(WriteFault::DropWrite),
            (0usize..128).prop_map(|keep| WriteFault::Torn { keep }),
            (0usize..4096).prop_map(|bit| WriteFault::BitFlip { bit }),
        ],
    ) {
        let dir = TempDir::new("equiv");
        let fs: Arc<dyn StoreFs> = match crashes.then_some((crash_seed, fault)) {
            Some((seed, fault)) => {
                let count = TempDir::new("equiv-count");
                let counter = Arc::new(FailpointFs::counting());
                let (store, _) = open_with(count.path(), counter.clone()).expect("counting open");
                run_ops(&store, &ops);
                drop(store);
                Arc::new(FailpointFs::new(seed % counter.ops_performed().max(1), fault))
            }
            None => Arc::new(RealFs),
        };
        if let Ok((store, _)) = open_with(dir.path(), fs) {
            run_ops(&store, &ops);
        }
        let scanned = TempDir::new("equiv-scan");
        copy_without_hints(dir.path(), scanned.path());
        let (map, live, dead, quarantined, hinted) = served(dir.path());
        let (scan_map, scan_live, scan_dead, scan_quarantined, full) = served(scanned.path());
        prop_assert_eq!(&map, &scan_map);
        prop_assert_eq!((live, dead, quarantined), (scan_live, scan_dead, scan_quarantined));
        prop_assert!(hinted.scanned_bytes <= full.scanned_bytes, "{:?} vs {:?}", hinted, full);
        if !crashes {
            // A clean close leaves every synced byte hinted.
            prop_assert_eq!(hinted.scanned_bytes, 0);
        }
    }

    /// Random workload shape × random crash point × random fault mode:
    /// the recovery invariants hold. The crash point is taken modulo the
    /// workload's operation count so every case lands inside the run.
    #[test]
    fn random_crashes_preserve_committed_entries(
        appends in 1u64..40,
        keys in 1u64..8,
        sync_every in 1u64..6,
        crash_seed in 0u64..10_000,
        fault in prop_oneof![
            Just(WriteFault::DropWrite),
            (0usize..128).prop_map(|keep| WriteFault::Torn { keep }),
            (0usize..4096).prop_map(|bit| WriteFault::BitFlip { bit }),
        ],
    ) {
        let total_ops = count_ops(appends, keys, sync_every);
        let crash_at = crash_seed % total_ops.max(1);
        let dir = TempDir::new("prop");
        let fs = Arc::new(FailpointFs::new(crash_at, fault));
        let (committed, appended) = match open_with(dir.path(), fs) {
            Ok((store, _)) => run_workload(&store, appends, keys, sync_every),
            Err(_) => (HashMap::new(), HashMap::new()),
        };
        if let Err(message) = check_invariants(dir.path(), &committed, &appended) {
            return Err(format!("crash at op {crash_at} with {fault:?}: {message}"));
        }
    }
}
