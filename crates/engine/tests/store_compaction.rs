//! Compaction safety: interrupted compaction loses nothing, and
//! concurrent readers (the serve daemon's sessions) never observe a
//! partially swapped manifest.
//!
//! Compaction rewrites the live entries into fresh segments and commits
//! by atomically renaming a new manifest — a crash anywhere before that
//! rename leaves the old manifest (and every old segment) authoritative;
//! a crash after it leaves the new ones. Either way the full live set is
//! readable. These tests drive a crash through *every* filesystem
//! operation of a compaction and hammer the store from reader threads
//! while compactions run.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use decisive_engine::store::{FailpointFs, RealFs, StoreFs, WriteFault};
use decisive_engine::{ArtifactKind, Fingerprint, SegmentStore, SharedStore, StoreOptions};
use decisive_federation::Value;
use decisive_obs::Telemetry;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "decisive-storecompact-{}-{}-{}",
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

fn small() -> StoreOptions {
    StoreOptions { segment_bytes: 192, compact_min_dead: 1, compact_dead_ratio: 0.1 }
}

fn open_with(
    dir: &Path,
    fs: Arc<dyn StoreFs>,
) -> decisive_engine::Result<(SegmentStore, decisive_engine::StoreRecovery)> {
    SegmentStore::open_with_fs(dir, small(), fs, Telemetry::noop())
}

fn payload(key: u64, version: u64) -> Value {
    Value::record([("key", Value::Int(key as i64)), ("version", Value::Int(version as i64))])
}

/// Seeds a store with rotation and plenty of dead frames: every key is
/// overwritten several times. Returns the expected live map.
fn seed(store: &SegmentStore, keys: u64, versions: u64) -> HashMap<u64, u64> {
    let mut live = HashMap::new();
    for version in 0..versions {
        for key in 0..keys {
            store
                .append(ArtifactKind::GraphFacts, Fingerprint(key), "D1", &payload(key, version))
                .expect("seed append");
            live.insert(key, version);
        }
    }
    store.sync().expect("seed sync");
    live
}

fn assert_live(store: &SegmentStore, live: &HashMap<u64, u64>, context: &str) {
    for (&key, &version) in live {
        let (_, value) = store
            .get(ArtifactKind::GraphFacts, Fingerprint(key))
            .unwrap_or_else(|| panic!("{context}: live key {key} unreadable"));
        let got = value.get("version").and_then(Value::as_i64).unwrap() as u64;
        assert_eq!(got, version, "{context}: key {key} serves the wrong version");
    }
}

/// A crash at every filesystem operation of a compaction leaves a store
/// that reopens cleanly and still serves every live entry at its latest
/// version — the manifest rename is the single commit point, so there is
/// no operation whose interruption can lose data.
#[test]
fn crash_at_every_compaction_op_keeps_every_live_entry() {
    // Dry run to learn how many fs ops seeding and compaction perform.
    let (seed_ops, compact_ops) = {
        let dir = TempDir::new("count");
        let fs = Arc::new(FailpointFs::counting());
        let counter = fs.clone();
        let (store, _) = open_with(dir.path(), fs).expect("counting open");
        seed(&store, 5, 6);
        let before = counter.ops_performed();
        store.compact().expect("counting compact");
        (before, counter.ops_performed() - before)
    };
    assert!(compact_ops > 3, "compaction spans several fs ops: {compact_ops}");
    for fault in
        [WriteFault::DropWrite, WriteFault::Torn { keep: 9 }, WriteFault::BitFlip { bit: 41 }]
    {
        for offset in 0..compact_ops {
            let dir = TempDir::new("crash");
            let fs = Arc::new(FailpointFs::new(seed_ops + offset, fault));
            let (store, _) = open_with(dir.path(), fs).expect("seed phase never crashes");
            let live = seed(&store, 5, 6);
            let result = store.compact();
            drop(store);
            // Reopen = recovery. Every live entry must be intact whether
            // the compaction committed or not.
            let (store, _) = open_with(dir.path(), Arc::new(RealFs))
                .expect("recovery after interrupted compaction");
            assert_live(
                &store,
                &live,
                &format!("fault {fault:?} at compact op {offset} (compact result: {result:?})"),
            );
            // And the repaired store compacts successfully afterwards.
            let summary = store.compact().expect("compaction after recovery");
            assert_live(&store, &live, "after post-recovery compaction");
            assert_eq!(summary.live_frames, live.len());
        }
    }
}

/// Readers hammering one store (as concurrent serve sessions do)
/// while compactions and writes run never observe a missing or partial
/// entry: the manifest swap happens under the store lock, so every read
/// sees either the pre- or post-compaction state — both complete.
#[test]
fn concurrent_readers_never_observe_a_partial_swap() {
    let dir = TempDir::new("readers");
    let (shared, _) =
        SharedStore::open_durable(dir.path(), small(), Telemetry::noop()).expect("durable open");
    let log = shared.durable().expect("durable log").clone();
    let keys: u64 = 8;
    seed(&log, keys, 3);

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for reader in 0..4u64 {
        let log = log.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut floor: HashMap<u64, u64> = HashMap::new();
            while !stop.load(Ordering::Relaxed) {
                let key = reader % keys;
                let (owner, value) = log
                    .get(ArtifactKind::GraphFacts, Fingerprint(key))
                    .expect("a seeded key is always readable");
                assert_eq!(owner, "D1");
                let version =
                    value.get("version").and_then(Value::as_i64).expect("intact payload") as u64;
                let seen = floor.entry(key).or_insert(version);
                assert!(version >= *seen, "version went backwards under compaction");
                *seen = version;
            }
        }));
    }
    // Writer + compactor: bump versions and compact continuously.
    for round in 3..40u64 {
        for key in 0..keys {
            log.append(ArtifactKind::GraphFacts, Fingerprint(key), "D1", &payload(key, round))
                .expect("append during reads");
        }
        log.sync().expect("sync during reads");
        log.compact().expect("compact during reads");
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader never panicked");
    }
    let health = log.health();
    assert_eq!(health.live_frames, keys as usize);
    assert_live(&log, &(0..keys).map(|k| (k, 39)).collect(), "after the storm");
}
