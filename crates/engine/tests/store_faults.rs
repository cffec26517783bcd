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

use std::collections::HashMap;
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
    assert!(!dir.path().join(STORE_QUARANTINE_FILE).exists());
    let health = store.health();
    assert_eq!(health.dead_frames, 3, "the retired frames are dead weight");

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
