//! Crash-safety properties of the persisted cache: the segmented store
//! under an engine's cache directory.
//!
//! Whatever state a killed run or a failing disk leaves behind —
//! truncated files, flipped bits, plain garbage, stale temp files, orphan
//! segments, a torn final append — the next run must never fail to open,
//! must quarantine-and-recompute instead of analysing with bad data, and
//! must produce exactly the table a cold run produces.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use decisive_engine::{Engine, MANIFEST_FILE, STORE_DIR, STORE_QUARANTINE_FILE};
use decisive_workload::sets::chain_model;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A process-unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "decisive-crash-{}-{}-{}",
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

    fn store(&self) -> PathBuf {
        self.0.join(STORE_DIR)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One way a killed run can mangle a file on disk.
#[derive(Debug, Clone)]
enum Corruption {
    /// The file stops mid-write at a fraction of its length.
    Truncate(f64),
    /// A single bit flips (disk or transfer corruption).
    BitFlip(usize),
    /// The contents are replaced by unrelated bytes.
    Garbage(String),
}

impl Corruption {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Corruption::Truncate(frac) => {
                let keep = ((bytes.len() as f64) * frac) as usize;
                bytes[..keep.min(bytes.len())].to_vec()
            }
            Corruption::BitFlip(seed) => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let pos = seed % out.len();
                    out[pos] ^= 1 << (seed % 8);
                }
                out
            }
            Corruption::Garbage(junk) => junk.as_bytes().to_vec(),
        }
    }
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0.0..1.0f64).prop_map(Corruption::Truncate),
        (0usize..10_000).prop_map(Corruption::BitFlip),
        "[ -~]{0,64}".prop_map(Corruption::Garbage),
    ]
}

fn open(dir: &TempDir) -> Engine {
    Engine::builder().jobs(1).cache_dir(dir.path()).build().expect("corruption is never fatal")
}

/// Seeds `dir` with a committed store and returns the expected analysis
/// table.
fn seed_cache(dir: &TempDir) -> decisive_core::fmea::FmeaTable {
    let (model, top) = chain_model(4);
    let mut engine = open(dir);
    let table = engine.analyze_graph(&model, top).expect("seed analysis");
    engine.save_cache(dir.path()).expect("seed save");
    table
}

/// The store's files: its manifest, segments and hint logs.
fn store_files(dir: &TempDir) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.store())
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name == MANIFEST_FILE || name.ends_with(".seg") || name.ends_with(".hint")
        })
        .collect();
    files.sort();
    files
}

/// `true` when the store kept the bytes it dropped for post-mortem.
fn has_quarantine_evidence(dir: &TempDir) -> bool {
    std::fs::read_dir(dir.store()).expect("store dir").flatten().any(|e| {
        let name = e.file_name();
        let name = name.to_string_lossy();
        name.starts_with(STORE_QUARANTINE_FILE) || name.contains(".quarantined")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupting any store file arbitrarily never fails the next open,
    /// and the recomputed analysis equals a cold run bit for bit
    /// (`verify_against_full` cross-checks against the from-scratch
    /// algorithm).
    #[test]
    fn corrupted_cache_recovers_to_cold_run(pick in 0usize..64, corruption in arb_corruption()) {
        let dir = TempDir::new("cache");
        let expected = seed_cache(&dir);
        let files = store_files(&dir);
        let file = &files[pick % files.len()];
        let bytes = std::fs::read(file).expect("read seed");
        std::fs::write(file, corruption.apply(&bytes)).expect("corrupt");

        let (model, top) = chain_model(4);
        let mut engine = open(&dir);
        let table = engine.verify_against_full(&model, top).expect("recomputed run verifies");
        prop_assert_eq!(table, expected);
        // Valid prior state is never silently lost: whatever a degraded
        // run dropped is preserved in a quarantine file.
        if engine.degraded_report().is_degraded() {
            prop_assert!(has_quarantine_evidence(&dir), "{:?}", engine.degraded_report());
        }
    }

    /// A stale manifest temp file or an orphan segment from a killed swap
    /// never shadows or destroys the committed state: open removes both,
    /// the run is warm, and the next commit leaves no temp file.
    #[test]
    fn stale_temp_files_are_harmless(junk in "[ -~]{0,64}") {
        let dir = TempDir::new("tmp");
        let expected = seed_cache(&dir);
        let stale = dir.store().join(format!("{MANIFEST_FILE}.tmp"));
        let orphan = dir.store().join("seg-000099.seg");
        std::fs::write(&stale, &junk).expect("stale tmp");
        std::fs::write(&orphan, &junk).expect("orphan segment");

        let (model, top) = chain_model(4);
        let mut engine = open(&dir);
        prop_assert!(!engine.degraded_report().is_degraded(), "committed state is intact");
        prop_assert!(!stale.exists() && !orphan.exists(), "open removes the leftovers");
        let table = engine.analyze_graph(&model, top).expect("warm run");
        prop_assert_eq!(&table, &expected);
        prop_assert!(engine.stats().cache_misses() == 0, "warm run");
        engine.save_cache(dir.path()).expect("commit");
        prop_assert!(!stale.exists(), "commit leaves no temp file");
    }
}

/// An interrupted save (the next frame torn mid-append to the active
/// segment) is reported as degradation, and every pass synced before it
/// is still served from the store — deterministic end-to-end check of
/// the kill-safety acceptance criterion.
#[test]
fn interrupted_save_preserves_previous_cache() {
    let dir = TempDir::new("interrupted");
    let expected = seed_cache(&dir);
    // Simulate a crash mid-append: the first half of a frame (here, a
    // copy of the segment's first one) lands after the committed tail.
    let segment = dir.store().join("seg-000001.seg");
    let mut bytes = std::fs::read(&segment).expect("segment");
    let frame_len = 4 + u32::from_le_bytes(bytes[8..12].try_into().expect("length")) as usize + 8;
    let torn = bytes[8..8 + frame_len / 2].to_vec();
    bytes.extend_from_slice(&torn);
    std::fs::write(&segment, &bytes).expect("torn tail");

    let (model, top) = chain_model(4);
    let mut engine = open(&dir);
    assert_eq!(engine.degraded_report().quarantined_cache_entries, 1, "the torn frame");
    assert!(dir.store().join(STORE_QUARANTINE_FILE).exists(), "torn bytes kept");
    let table = engine.verify_against_full(&model, top).expect("verify");
    assert_eq!(table, expected);
    assert_eq!(engine.stats().cache_misses(), 0, "every synced pass survives the crash");
}
