//! Bench: warm start through the segmented store versus a wholesale v3
//! JSON snapshot load.
//!
//! The store's promise is O(touched-artifacts) warm start: opening is
//! one checksummed index scan (no JSON parsing of values), and values
//! decode lazily on first hit. A JSON cache has to read, parse and
//! validate the entire v3 snapshot before the first artefact can be
//! served. This harness builds the same 10k-artifact corpus in both
//! formats and measures, for each, the time from cold process to "the
//! first hundred artefacts are served".
//!
//! A second case reopens a store shaped like the one the design loop
//! leaves behind — about 40k frames of about 450 B across several
//! segments — once without hint logs (the full verifying scan a store
//! written before hints pays on its first open) and then hinted, and
//! reports `reopen_ms` with the segment bytes the clean reopen had to
//! scan (`scanned_bytes`).
//!
//! It prints one `BENCH_store {...}` JSON line; `warm_ok` is the CI gate:
//! the store beats the JSON load by the acceptance criterion's ≥5× at
//! ≥10k artifacts with every entry intact, and a clean reopen of the
//! large store scans no segment bytes at all (a deterministic counter,
//! not a timing ratio). The checked-in `BENCH_store.json` holds the
//! recorded baseline.
//!
//! Plain `fn main` (`harness = false`), same as the other benches:
//! minima over repeated runs are stable enough without Criterion.

use std::time::Instant;

use decisive::engine::{ArtifactKind, Fingerprint, SegmentStore, SharedStore, StoreOptions};
use decisive::federation::{json, Value};
use decisive::obs::Telemetry;

/// Corpus size — the acceptance criterion's floor.
const ARTIFACTS: u64 = 10_000;
/// Artefacts a warm run actually touches before its first result.
const TOUCHED: u64 = 100;
/// Repetitions; the minimum filters filesystem-cache and allocator noise.
const ITERS: usize = 5;

/// Frames in the design-loop-shaped reopen case.
const REOPEN_FRAMES: u64 = 40_000;

/// A plausible FMEA-row-shaped payload: eight floats and a label.
fn row(i: u64) -> Vec<f64> {
    (0..8).map(|j| (i * 8 + j) as f64 * 0.125).collect()
}

fn key(i: u64) -> Fingerprint {
    Fingerprint(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn main() {
    let dir = std::env::temp_dir().join(format!("decisive-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("snapshot.json");
    let store_dir = dir.join("store");

    // One corpus, persisted both ways.
    let cache = SharedStore::new();
    for i in 0..ARTIFACTS {
        cache.put(ArtifactKind::GraphFacts, key(i), "bench", &row(i)).expect("seed put");
    }
    std::fs::write(&snapshot, json::to_string(&cache.to_value())).expect("snapshot write");
    {
        let (log, _) = SegmentStore::open(&store_dir, StoreOptions::default(), Telemetry::noop())
            .expect("store open");
        let imported = log.import(&cache).expect("store import");
        assert_eq!(imported as u64, ARTIFACTS);
    }

    // JSON path: read, parse and verify the whole snapshot, then read
    // TOUCHED entries.
    let mut json_ms = f64::INFINITY;
    for _ in 0..ITERS {
        let t = Instant::now();
        let text = String::from_utf8(std::fs::read(&snapshot).expect("snapshot read"))
            .expect("snapshot is UTF-8");
        let value = json::parse(&text).expect("snapshot parses");
        let (loaded, skipped) = SharedStore::from_value_audited(&value).expect("v3 snapshot");
        for i in 0..TOUCHED {
            assert!(
                loaded.get::<Vec<f64>>(ArtifactKind::GraphFacts, key(i)).is_some(),
                "json path serves artefact {i}"
            );
        }
        json_ms = json_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(skipped.is_empty(), "{skipped:?}");
        assert_eq!(loaded.len() as u64, ARTIFACTS);
    }

    // New path: index scan, then decode only the TOUCHED entries.
    let mut store_ms = f64::INFINITY;
    let mut recovered = 0usize;
    for _ in 0..ITERS {
        let t = Instant::now();
        let (log, recovery) =
            SegmentStore::open(&store_dir, StoreOptions::default(), Telemetry::noop())
                .expect("store warm open");
        assert!(recovery.is_clean(), "clean corpus recovers clean");
        for i in 0..TOUCHED {
            assert!(
                log.get(ArtifactKind::GraphFacts, key(i)).is_some(),
                "store path serves artefact {i}"
            );
        }
        store_ms = store_ms.min(t.elapsed().as_secs_f64() * 1e3);
        recovered = log.len();
    }
    assert_eq!(recovered as u64, ARTIFACTS, "no committed artefact lost");

    let reopen = reopen_case(&dir.join("reopen"));

    let speedup = json_ms / store_ms;
    let summary = Value::record([
        ("artifacts", Value::Int(ARTIFACTS as i64)),
        ("touched", Value::Int(TOUCHED as i64)),
        ("json_load_ms", Value::Real(json_ms)),
        ("store_open_ms", Value::Real(store_ms)),
        ("speedup_json_over_store", Value::Real(speedup)),
        ("recovered", Value::Int(recovered as i64)),
        ("reopen_frames", Value::Int(REOPEN_FRAMES as i64)),
        ("reopen_segments", Value::Int(reopen.segments as i64)),
        ("reopen_store_bytes", Value::Int(reopen.bytes as i64)),
        ("reopen_full_scan_ms", Value::Real(reopen.full_scan_ms)),
        ("reopen_ms", Value::Real(reopen.hinted_ms)),
        ("scanned_bytes", Value::Int(reopen.scanned_bytes as i64)),
        (
            "warm_ok",
            Value::Bool(
                speedup >= 5.0 && recovered as u64 == ARTIFACTS && reopen.scanned_bytes == 0,
            ),
        ),
    ]);
    println!("BENCH_store {}", json::to_string(&summary));
    std::fs::remove_dir_all(&dir).ok();
}

/// What the design-loop-shaped reopen case measured.
struct Reopen {
    segments: usize,
    bytes: u64,
    full_scan_ms: f64,
    hinted_ms: f64,
    scanned_bytes: u64,
}

/// Writes `REOPEN_FRAMES` frames of about 450 B, reopens once with the
/// hint logs removed (a full scan, which writes them back), then times
/// clean hinted reopens that look up a hundred artefacts.
fn reopen_case(dir: &std::path::Path) -> Reopen {
    let label = "x".repeat(400);
    {
        let (log, _) = SegmentStore::open(dir, StoreOptions::default(), Telemetry::noop())
            .expect("store open");
        for i in 0..REOPEN_FRAMES {
            let value = Value::Str(format!("{i:08}{label}"));
            log.append(ArtifactKind::InjectionRow, key(i), "bench", &value).expect("append");
        }
        log.sync().expect("sync");
    }
    for entry in std::fs::read_dir(dir).expect("store dir").flatten() {
        if entry.path().extension().is_some_and(|e| e == "hint") {
            std::fs::remove_file(entry.path()).expect("remove hint log");
        }
    }
    let t = Instant::now();
    let (log, recovery) =
        SegmentStore::open(dir, StoreOptions::default(), Telemetry::noop()).expect("full scan");
    let full_scan_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(recovery.is_clean() && recovery.scanned_bytes > 0, "{recovery:?}");
    let health = log.health();
    drop(log);

    let mut hinted_ms = f64::INFINITY;
    let mut scanned_bytes = 0;
    for _ in 0..ITERS {
        let t = Instant::now();
        let (log, recovery) =
            SegmentStore::open(dir, StoreOptions::default(), Telemetry::noop()).expect("reopen");
        for i in 0..TOUCHED {
            assert!(log.get(ArtifactKind::InjectionRow, key(i)).is_some(), "serves {i}");
        }
        hinted_ms = hinted_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(log.len() as u64, REOPEN_FRAMES, "no committed artefact lost");
        scanned_bytes = scanned_bytes.max(recovery.scanned_bytes);
    }
    Reopen {
        segments: health.segments,
        bytes: health.bytes,
        full_scan_ms,
        hinted_ms,
        scanned_bytes,
    }
}
