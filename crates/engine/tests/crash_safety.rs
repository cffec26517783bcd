//! Crash-safety properties of the persisted cache (ISSUE: kill-safety).
//!
//! Whatever state a killed run leaves behind — truncated files, flipped
//! bits, plain garbage, stale temp files — the next run must never
//! panic, must quarantine-and-recompute instead of analysing with bad
//! data, and must produce exactly the table a cold run produces.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use decisive_engine::cache::QUARANTINE_FILE;
use decisive_engine::{Engine, EngineConfig};
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

/// Seeds `dir` with a valid persisted cache and returns the expected
/// analysis table.
fn seed_cache(dir: &Path) -> decisive_core::fmea::FmeaTable {
    let (model, top) = chain_model(4);
    let mut engine = Engine::new(EngineConfig::with_jobs(1));
    let table = engine.analyze_graph(&model, top).expect("seed analysis");
    engine.save_cache(dir).expect("seed save");
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupting `cache.json` arbitrarily never panics the next load,
    /// and the recomputed analysis equals a cold run bit for bit
    /// (`verify_against_full` cross-checks against the from-scratch
    /// algorithm).
    #[test]
    fn corrupted_cache_recovers_to_cold_run(corruption in arb_corruption()) {
        let dir = TempDir::new("cache");
        let expected = seed_cache(dir.path());
        let file = dir.path().join("cache.json");
        let bytes = std::fs::read(&file).expect("read seed");
        std::fs::write(&file, corruption.apply(&bytes)).expect("corrupt");

        let (model, top) = chain_model(4);
        let mut engine = Engine::new(EngineConfig::with_jobs(1));
        engine.load_cache(dir.path()).expect("corruption is never fatal");
        let table = engine.verify_against_full(&model, top).expect("recomputed run verifies");
        prop_assert_eq!(table, expected);
        // Valid prior state is never silently lost: anything rejected is
        // preserved in the quarantine file.
        if engine.degraded_report().quarantined_cache_entries > 0 {
            prop_assert!(dir.path().join(QUARANTINE_FILE).exists());
        }
    }

    /// A stale temp file from a killed save never shadows or destroys the
    /// committed state, and the next save still lands atomically.
    #[test]
    fn stale_temp_files_are_harmless(junk in "[ -~]{0,64}") {
        let dir = TempDir::new("tmp");
        let expected = seed_cache(dir.path());
        std::fs::write(dir.path().join("cache.json.tmp"), &junk).expect("stale tmp");

        let (model, top) = chain_model(4);
        let mut engine = Engine::new(EngineConfig::with_jobs(1));
        engine.load_cache(dir.path()).expect("load ignores temp files");
        prop_assert!(!engine.degraded_report().is_degraded(), "committed state is intact");
        let table = engine.analyze_graph(&model, top).expect("warm run");
        prop_assert_eq!(&table, &expected);
        engine.save_cache(dir.path()).expect("save replaces stale tmp");
        prop_assert!(!dir.path().join("cache.json.tmp").exists(), "save leaves no temp file");
    }
}

/// An interrupted save (temp file written, rename never happened) leaves
/// the previous cache fully intact — deterministic end-to-end check of
/// the kill-safety acceptance criterion.
#[test]
fn interrupted_save_preserves_previous_cache() {
    let dir = TempDir::new("interrupted");
    let expected = seed_cache(dir.path());
    // Simulate a crash mid-save: a half-written temp file next to the
    // committed cache.
    std::fs::write(dir.path().join("cache.json.tmp"), "{\"version\":3,\"ent").expect("tmp");

    let (model, top) = chain_model(4);
    let mut engine = Engine::new(EngineConfig::with_jobs(1));
    engine.load_cache(dir.path()).expect("load");
    assert!(!engine.cache().is_empty(), "previous cache survives the crash");
    assert!(!engine.degraded_report().is_degraded());
    let table = engine.verify_against_full(&model, top).expect("verify");
    assert_eq!(table, expected);
    let warm = engine.stats().phase("graph-rows").expect("phase");
    assert_eq!(warm.cache_misses, 0, "warm run is served entirely from the surviving cache");
}
