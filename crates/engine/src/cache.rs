//! The content-addressed artefact cache.
//!
//! Every derived analysis artefact (per-component FMEA rows, container
//! path facts, per-candidate injection rows, FTA subtree quantifications,
//! monitor sets) is stored under `(kind, fingerprint-of-its-inputs)`.
//! Content addressing makes invalidation automatic — an edited input hashes
//! to a new key and simply misses — so the explicit
//! [`SharedStore::invalidate_owner`] pass exists to *garbage-collect* stale
//! entries from memory and to report how many keys a change dirtied.
//!
//! [`SharedStore`] is each engine's one artefact store: an in-memory map
//! whose clones share it, optionally backed by the crash-safe append-only
//! log of [`crate::store`] (see [`SharedStore::open_durable`]), with which
//! every completed pass is durable immediately and a warm start costs
//! O(touched artifacts).
//!
//! ## Snapshot format (v3)
//!
//! [`SharedStore::to_value`] and [`SharedStore::from_value_audited`] are the
//! portable snapshot codec behind `decisive store export` and `import`.
//! Every entry carries a fingerprint checksum and the header a whole-file
//! checksum; decoding skips (and reports) entries failing checksum or shape
//! validation, and rejects a document that is not a v3 snapshot at all.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use decisive_federation::{json, serde_bridge, Value};
use decisive_obs::Telemetry;

use crate::error::{EngineError, Result};
use crate::fingerprint::{Fingerprint, Hasher};
use crate::store::{
    CompactionSummary, SegmentStore, StoreHealth, StoreOptions, StoreRecovery, STORE_DIR,
};

/// Which analysis produced a cached artefact. Kinds namespace the key
/// space: the same input digest keys different artefacts per analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Path-criticality facts of one container (`graph::container_facts`).
    GraphFacts,
    /// FMEA rows of one component on the SSAM graph path (Algorithm 1).
    GraphRow,
    /// FMEA row of one fault-injection candidate (the simulation path).
    InjectionRow,
    /// Quantified fault subtree of one container.
    FtaSubtree,
    /// Generated runtime monitor checks of one model.
    MonitorSet,
    /// Assessed risk log of one FMEA table (the HARA pass).
    RiskLog,
    /// Evaluated assurance-case report (the assurance pass).
    AssuranceCase,
    /// Completed per-model row of a fleet sweep (the fleet journal: the
    /// supervisor appends one on completion, `--resume` replays them).
    FleetRow,
    /// Ranked safety-pattern recommendation report of one FMEA table.
    Recommendation,
}

impl ArtifactKind {
    /// All kinds, for iteration.
    pub const ALL: [ArtifactKind; 9] = [
        ArtifactKind::GraphFacts,
        ArtifactKind::GraphRow,
        ArtifactKind::InjectionRow,
        ArtifactKind::FtaSubtree,
        ArtifactKind::MonitorSet,
        ArtifactKind::RiskLog,
        ArtifactKind::AssuranceCase,
        ArtifactKind::FleetRow,
        ArtifactKind::Recommendation,
    ];

    /// The stable persistence tag (also the display name in `decisive
    /// passes`).
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::GraphFacts => "graph-facts",
            ArtifactKind::GraphRow => "graph-row",
            ArtifactKind::InjectionRow => "injection-row",
            ArtifactKind::FtaSubtree => "fta-subtree",
            ArtifactKind::MonitorSet => "monitor-set",
            ArtifactKind::RiskLog => "risk-log",
            ArtifactKind::AssuranceCase => "assurance-case",
            ArtifactKind::FleetRow => "fleet-row",
            ArtifactKind::Recommendation => "recommendation",
        }
    }

    pub(crate) fn parse(tag: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// `true` for the tag of a kind older builds wrote but this one no
    /// longer produces (`mc-trial`: per-trial Monte-Carlo metrics, now
    /// re-weighted from the injection rows). Such artefacts are stale,
    /// not corrupt: loading skips them and compaction drops them.
    pub(crate) fn is_retired(tag: &str) -> bool {
        tag == "mc-trial"
    }
}

/// One cached artefact: its serialized value plus the name of the model
/// element it was derived *for* (the invalidation handle). The value is
/// shared, not copied, out to every lookup it serves.
#[derive(Debug)]
struct CacheEntry {
    owner: String,
    value: Arc<Value>,
}

type Entries = HashMap<(ArtifactKind, Fingerprint), CacheEntry>;

/// The engine's artefact store, keyed by `(kind, fingerprint)`: a
/// thread-safe in-memory map, optionally backed by the durable log.
///
/// Every engine holds one. Clones are handles onto the same map (and
/// log), so engines built over clones of one store — the daemon's
/// sessions, a fleet worker's engines — deduplicate artefacts across each
/// other. Content addressing is what makes sharing sound: a `(kind,
/// fingerprint)` key commits to *all* inputs of its artefact, so an entry
/// computed by one engine is, by construction, the entry every other
/// engine would compute for that key.
///
/// A store is either purely in-memory or *durable*: backed by the
/// crash-safe segmented log of [`crate::store`], opened with
/// [`SharedStore::open_durable`]. A durable store writes every entry
/// through to the log (committed on [`SharedStore::sync_durable`]) and
/// serves memory misses from the log's index, so a restarted process pays
/// O(touched artifacts) to get warm, not O(history).
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    entries: Arc<Mutex<Entries>>,
    hits: Arc<AtomicU64>,
    log: Option<Arc<SegmentStore>>,
}

impl SharedStore {
    /// An empty, purely in-memory store.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// Opens a store durably persisted in `dir/store/` as a segmented
    /// append-only log, running crash recovery.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on environment failures. Corrupt content
    /// never errors — it is quarantined and reported in the returned
    /// [`StoreRecovery`].
    pub fn open_durable(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        telemetry: Telemetry,
    ) -> Result<(SharedStore, StoreRecovery)> {
        let (log, recovery) = SegmentStore::open(dir.as_ref().join(STORE_DIR), options, telemetry)?;
        Ok((SharedStore { log: Some(Arc::new(log)), ..SharedStore::default() }, recovery))
    }

    /// The segmented log backing this store, when opened durable.
    pub fn durable(&self) -> Option<&Arc<SegmentStore>> {
        self.log.as_ref()
    }

    /// `true` when this store persists through the segmented log.
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Fsyncs appends pending in the backing log — the commit point of
    /// incremental durability. A no-op for in-memory stores.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on fsync failure.
    pub fn sync_durable(&self) -> Result<()> {
        match &self.log {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// Health snapshot of the backing log, when durable.
    pub fn durable_health(&self) -> Option<StoreHealth> {
        self.log.as_ref().map(|log| log.health())
    }

    /// Compacts the backing log when its dead-frame thresholds are met.
    /// `Ok(None)` when not durable or below thresholds.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on I/O failure during the rewrite.
    pub fn maybe_compact(&self) -> Result<Option<CompactionSummary>> {
        match &self.log {
            Some(log) => log.maybe_compact(),
            None => Ok(None),
        }
    }

    /// The in-memory map. Held only to look an entry up or insert it; a
    /// poisoned lock is recovered, since every insert is a whole entry.
    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of stored artefacts (union of the in-memory map and the
    /// backing log's live index).
    pub fn len(&self) -> usize {
        let mut keys: HashSet<(ArtifactKind, Fingerprint)> = self.lock().keys().copied().collect();
        if let Some(log) = &self.log {
            keys.extend(log.keys());
        }
        keys.len()
    }

    /// `true` when nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of one artefact kind across memory and the backing log — the
    /// per-pass cache status shown by `decisive passes`.
    pub fn keys_of_kind(&self, kind: ArtifactKind) -> Vec<Fingerprint> {
        let mut keys: HashSet<Fingerprint> =
            self.lock().keys().filter(|(k, _)| *k == kind).map(|&(_, f)| f).collect();
        if let Some(log) = &self.log {
            keys.extend(log.keys_of_kind(kind));
        }
        keys.into_iter().collect()
    }

    /// How many lookups this store has served, from memory or from the
    /// log, across every engine holding a handle to it.
    pub fn shared_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fetches and deserialises a stored artefact. A hit clones the
    /// entry's shared value under the lock and decodes outside it.
    ///
    /// Returns `None` both on a missing key and on a shape mismatch (a
    /// corrupt entry is treated as a miss and recomputed).
    pub fn get<T: serde::DeserializeOwned>(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
    ) -> Option<T> {
        let cached = self.lock().get(&(kind, key)).map(|entry| Arc::clone(&entry.value));
        let value = match cached {
            Some(value) => value,
            None => {
                // Memory miss: read through the durable log's index. The
                // decoded entry is promoted into memory so the next lookup
                // is cheap — this is what makes a warm start O(touched
                // artifacts).
                let (owner, value) = self.log.as_ref()?.get(kind, key)?;
                let value = Arc::new(value);
                self.lock().insert((kind, key), CacheEntry { owner, value: Arc::clone(&value) });
                value
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        serde_bridge::from_value(&value).ok()
    }

    /// Stores an artefact under `(kind, key)`, owned by the named model
    /// element (used by [`SharedStore::invalidate_owner`]). A durable
    /// store appends it to the log first: if the append fails, memory
    /// stays in step with disk and the caller sees the error.
    pub fn put<T: serde::Serialize>(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: &str,
        artefact: &T,
    ) -> Result<()> {
        let value = serde_bridge::to_value(artefact)
            .map_err(|e| EngineError::Cache(format!("unserialisable artefact: {e}")))?;
        if let Some(log) = &self.log {
            log.append(kind, key, owner, &value)?;
        }
        self.insert_value(kind, key, owner.to_owned(), value);
        Ok(())
    }

    /// Inserts an already-serialised entry into memory only (the store
    /// export path, which must not re-encode values).
    pub(crate) fn insert_value(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: String,
        value: Value,
    ) {
        self.lock().insert((kind, key), CacheEntry { owner, value: Arc::new(value) });
    }

    /// The in-memory entries as `(kind, key, owner, value)`, sorted by
    /// kind tag and key so snapshots and imports are deterministic.
    pub(crate) fn sorted_entries(&self) -> Vec<(ArtifactKind, Fingerprint, String, Arc<Value>)> {
        let mut entries: Vec<_> = self
            .lock()
            .iter()
            .map(|(&(kind, key), e)| (kind, key, e.owner.clone(), Arc::clone(&e.value)))
            .collect();
        entries.sort_by_key(|&(kind, key, ..)| (kind.tag(), key));
        entries
    }

    /// Drops every in-memory entry owned by `owner`; returns how many were
    /// dropped. A durable log keeps its frames.
    pub fn invalidate_owner(&self, owner: &str) -> usize {
        let mut entries = self.lock();
        let before = entries.len();
        entries.retain(|_, e| e.owner != owner);
        before - entries.len()
    }

    /// Drops every in-memory entry of one kind; returns how many were
    /// dropped. A durable log keeps its frames.
    pub fn invalidate_kind(&self, kind: ArtifactKind) -> usize {
        let mut entries = self.lock();
        let before = entries.len();
        entries.retain(|(k, _), _| *k != kind);
        before - entries.len()
    }

    /// Serialises the in-memory entries as a v3 snapshot (a federation
    /// [`Value`]): a versioned header with a whole-file checksum, and one
    /// `sum` checksum per entry.
    pub fn to_value(&self) -> Value {
        let entries = self.sorted_entries();
        let mut sums = Vec::with_capacity(entries.len());
        let entries: Vec<Value> = entries
            .into_iter()
            .map(|(kind, key, owner, value)| {
                let sum = entry_sum(kind, key, &owner, &value);
                sums.push(sum);
                Value::record([
                    ("kind", Value::from(kind.tag())),
                    ("key", Value::from(key.to_string().as_str())),
                    ("owner", Value::from(owner.as_str())),
                    ("sum", Value::from(sum.to_string().as_str())),
                    ("value", Value::clone(&value)),
                ])
            })
            .collect();
        Value::record([
            ("version", Value::Int(FORMAT_VERSION)),
            ("checksum", Value::from(file_sum(&sums).to_string().as_str())),
            ("entries", Value::List(entries)),
        ])
    }

    /// Rebuilds an in-memory store from a [`SharedStore::to_value`]
    /// snapshot, skipping anything that fails validation — a cache may
    /// always be cold, never wrong. Returns one note per skipped entry
    /// (plus one when the whole-file checksum disagrees), empty for a
    /// clean snapshot.
    ///
    /// Validation per entry: known kind tag, parsable key, string owner,
    /// present value, and a `sum` matching the recomputed entry checksum.
    /// Entries of a retired kind (such as `mc-trial`) are skipped silently:
    /// stale, not corrupt. A whole-file checksum mismatch over individually
    /// valid entries is noted but keeps the entries.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cache`] when `value` is not a v3 snapshot: another
    /// `version`, or no `entries` list.
    pub fn from_value_audited(value: &Value) -> Result<(SharedStore, Vec<String>)> {
        let not_a_snapshot =
            |found: String| EngineError::Cache(format!("expected a v3 snapshot, found {found}"));
        let entries = match (value.get("version").and_then(Value::as_i64), value.get("entries")) {
            (Some(FORMAT_VERSION), Some(Value::List(entries))) => entries,
            (Some(FORMAT_VERSION), _) => return Err(not_a_snapshot("no `entries` list".into())),
            (Some(version), _) => return Err(not_a_snapshot(format!("format version {version}"))),
            (None, _) => return Err(not_a_snapshot("no `version`".into())),
        };
        let store = SharedStore::new();
        let mut notes = Vec::new();
        let mut sums = Vec::with_capacity(entries.len());
        for (idx, entry) in entries.iter().enumerate() {
            let tag = entry.get("kind").and_then(Value::as_str);
            let stored_sum = entry.get("sum").and_then(Value::as_str).and_then(Fingerprint::parse);
            if let (Some(tag), Some(sum)) = (tag, stored_sum) {
                if ArtifactKind::is_retired(tag) {
                    // Skipped, but still part of the file the sum covers.
                    sums.push(sum);
                    continue;
                }
            }
            let kind = tag.and_then(ArtifactKind::parse);
            let key = entry.get("key").and_then(Value::as_str).and_then(Fingerprint::parse);
            let owner = entry.get("owner").and_then(Value::as_str);
            let (Some(kind), Some(key), Some(owner), Some(sum), Some(value)) =
                (kind, key, owner, stored_sum, entry.get("value"))
            else {
                notes.push(format!("entry {idx}: malformed shape"));
                continue;
            };
            if entry_sum(kind, key, owner, value) != sum {
                notes.push(format!(
                    "entry {idx} ({} {key}, owner `{owner}`): checksum mismatch",
                    kind.tag()
                ));
                continue;
            }
            sums.push(sum);
            store.insert_value(kind, key, owner.to_owned(), value.clone());
        }
        let stored_file_sum = value.get("checksum").and_then(Value::as_str);
        if notes.is_empty() && stored_file_sum != Some(file_sum(&sums).to_string().as_str()) {
            notes.push(
                "whole-file checksum mismatch; kept the individually verified entries".to_owned(),
            );
        }
        Ok((store, notes))
    }
}

/// Version stamp of the snapshot format; other versions are rejected.
/// Version 2: injection rows carry their campaign outcome
/// (`InjectionArtifact`) instead of a bare `FmeaRow`.
/// Version 3: per-entry `sum` and whole-file `checksum` fields, verified
/// on decode; entries that fail are skipped.
const FORMAT_VERSION: i64 = 3;

/// Checksum of one persisted entry, covering everything that round-trips:
/// kind tag, key, owner, and the serialized artefact value.
fn entry_sum(kind: ArtifactKind, key: Fingerprint, owner: &str, value: &Value) -> Fingerprint {
    Hasher::new()
        .write_str(kind.tag())
        .write_fingerprint(key)
        .write_str(owner)
        .write_str(&json::to_string(value))
        .finish()
}

/// Whole-file checksum: a fingerprint over the per-entry checksums in
/// serialized order, detecting spliced or truncated entry lists that
/// still parse as JSON.
fn file_sum(sums: &[Fingerprint]) -> Fingerprint {
    let mut h = Hasher::new();
    for s in sums {
        h.write_fingerprint(*s);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Hasher;
    use crate::store::{MANIFEST_FILE, STORE_QUARANTINE_FILE};

    fn fp(text: &str) -> Fingerprint {
        Hasher::new().write_str(text).finish()
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("decisive_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path) -> (SharedStore, StoreRecovery) {
        SharedStore::open_durable(dir, StoreOptions::default(), Telemetry::noop()).unwrap()
    }

    /// A durable store holding one committed `GraphRow` under `fp("a")`,
    /// closed again.
    fn seed(dir: &Path, artefact: &[f64]) {
        let (store, _) = open(dir);
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &artefact.to_vec()).unwrap();
        store.sync_durable().unwrap();
    }

    /// The store's first segment file.
    fn first_segment(dir: &Path) -> std::path::PathBuf {
        dir.join(STORE_DIR).join("seg-000001.seg")
    }

    fn set_entry_field(value: &mut Value, field: &str, to: Value) {
        let Value::Record(fields) = value else { panic!("snapshot is a record") };
        let Some((_, Value::List(entries))) = fields.iter_mut().find(|(k, _)| k == "entries")
        else {
            panic!("snapshot has entries")
        };
        let Value::Record(entry) = &mut entries[0] else { panic!("entry is a record") };
        entry.iter_mut().find(|(k, _)| k == field).expect("entry field").1 = to;
    }

    #[test]
    fn roundtrips_through_value_and_disk() {
        let store = SharedStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &vec![1.5f64, 2.5]).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("b"), "top", &"facts".to_owned()).unwrap();
        let (back, notes) = SharedStore::from_value_audited(&store.to_value()).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(back.len(), 2);
        assert_eq!(back.get::<Vec<f64>>(ArtifactKind::GraphRow, fp("a")), Some(vec![1.5, 2.5]));
        assert_eq!(back.get::<String>(ArtifactKind::GraphFacts, fp("b")), Some("facts".into()));

        // Imported into the durable store and exported after a reopen,
        // the snapshot comes back byte for byte.
        let dir = scratch("disk");
        open(&dir).0.durable().unwrap().import(&back).unwrap();
        let exported = open(&dir).0.durable().unwrap().export();
        assert_eq!(json::to_string(&exported.to_value()), json::to_string(&store.to_value()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_loads_empty() {
        let dir = scratch("missing");
        let (shared, recovery) = open(&dir);
        assert!(shared.is_empty());
        assert!(recovery.is_clean(), "{recovery:?}");
        assert!(dir.join(STORE_DIR).join(MANIFEST_FILE).exists(), "opening creates the store");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn owner_invalidation_is_selective() {
        let store = SharedStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("c"), "D1", &3i64).unwrap();
        assert_eq!(store.invalidate_owner("D1"), 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("b")), Some(2));
    }

    #[test]
    fn kind_namespaces_the_key_space() {
        let store = SharedStore::new();
        store.put(ArtifactKind::GraphRow, fp("k"), "x", &1i64).unwrap();
        store.put(ArtifactKind::InjectionRow, fp("k"), "x", &2i64).unwrap();
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(1));
        assert_eq!(store.get::<i64>(ArtifactKind::InjectionRow, fp("k")), Some(2));
        assert_eq!(store.invalidate_kind(ArtifactKind::InjectionRow), 1);
    }

    #[test]
    fn a_document_that_is_not_a_v3_snapshot_is_rejected() {
        let store = SharedStore::new();
        store.put(ArtifactKind::MonitorSet, fp("m"), "model", &0i64).unwrap();
        let mut value = store.to_value();
        if let Value::Record(fields) = &mut value {
            fields[0].1 = Value::Int(999);
        }
        let other = [value, Value::record([("version", Value::Int(3))]), Value::Record(Vec::new())];
        for doc in other {
            let Err(EngineError::Cache(message)) = SharedStore::from_value_audited(&doc) else {
                panic!("{doc:?} decoded as a snapshot");
            };
            assert!(message.contains("expected a v3 snapshot"), "{message}");
        }
    }

    #[test]
    fn clean_roundtrip_report_is_clean() {
        let store = SharedStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        let (back, notes) = SharedStore::from_value_audited(&store.to_value()).unwrap();
        assert_eq!(back.len(), 1);
        assert!(notes.is_empty(), "{notes:?}");
    }

    #[test]
    fn tampered_entry_is_quarantined_not_loaded() {
        let store = SharedStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Change one entry's payload without updating its checksum.
        set_entry_field(&mut value, "value", Value::Int(999));
        let (back, notes) = SharedStore::from_value_audited(&value).unwrap();
        assert_eq!(back.len(), 1, "the intact entry survives");
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("checksum mismatch"), "{notes:?}");
    }

    #[test]
    fn retired_kind_entries_are_skipped_not_quarantined() {
        let store = SharedStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Re-tag the first entry as an older build's `mc-trial` artefact.
        set_entry_field(&mut value, "kind", Value::from("mc-trial"));
        let (back, notes) = SharedStore::from_value_audited(&value).unwrap();
        assert_eq!(back.len(), 1, "the retired entry is not loaded");
        assert!(notes.is_empty(), "stale, not corrupt: {notes:?}");
    }

    #[test]
    fn unparsable_file_quarantines_wholesale_and_loads_cold() {
        let dir = scratch("garbage");
        seed(&dir, &[1.0]);
        std::fs::write(first_segment(&dir), "{definitely not a segment").unwrap();
        let (shared, recovery) = open(&dir);
        assert!(shared.is_empty());
        assert_eq!(recovery.quarantined_frames, 1);
        let quarantined = dir.join(STORE_DIR).join("seg-000001.seg.quarantined");
        assert!(quarantined.exists(), "bytes preserved for post-mortem");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_quarantines_and_next_save_recovers() {
        let dir = scratch("truncated");
        let artefact = vec![0.5f64; 64];
        seed(&dir, &artefact);
        let full = std::fs::read(first_segment(&dir)).unwrap();
        std::fs::write(first_segment(&dir), &full[..full.len() / 2]).unwrap();

        let (cold, recovery) = open(&dir);
        assert!(cold.is_empty());
        assert!(!recovery.is_clean());
        drop(cold);

        // A fresh commit over the repaired store reopens cleanly again.
        seed(&dir, &artefact);
        let (warm, recovery) = open(&dir);
        assert_eq!(warm.len(), 1);
        assert!(recovery.is_clean(), "{recovery:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_share_one_map_and_count_its_hits() {
        let store = SharedStore::new();
        let clone = store.clone();
        store.put(ArtifactKind::GraphRow, fp("k"), "D1", &41i64).unwrap();
        assert_eq!(clone.len(), 1, "a clone sees every write");
        assert_eq!(store.shared_hits(), 0, "writes are not hits");
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(41));
        assert_eq!(clone.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(41));
        assert_eq!(store.shared_hits(), 2, "every served lookup counts, through any handle");
        assert_eq!(clone.get::<i64>(ArtifactKind::GraphRow, fp("missing")), None);
        assert_eq!(clone.shared_hits(), 2, "a miss is not a hit");
        // A separate store sees nothing.
        let separate = SharedStore::new();
        assert_eq!(separate.get::<i64>(ArtifactKind::GraphRow, fp("k")), None);
        assert_eq!(separate.shared_hits(), 0);
    }

    #[test]
    fn repeated_quarantines_rotate_and_cap_instead_of_clobbering() {
        let dir = scratch("rot");
        seed(&dir, &[1.0]);
        let hex = |text: &str| text.bytes().map(|b| format!("{b:02x}")).collect::<String>();
        for round in 0..8 {
            // A torn append: recovery truncates it and records its bytes.
            let mut bytes = std::fs::read(first_segment(&dir)).unwrap();
            bytes.extend_from_slice(format!("corrupt event {round}").as_bytes());
            std::fs::write(first_segment(&dir), bytes).unwrap();
            let (shared, recovery) = open(&dir);
            assert_eq!(recovery.quarantined_frames, 1, "round {round}");
            assert_eq!(shared.len(), 1, "round {round}: the committed frame survives");
        }
        let quarantine = dir.join(STORE_DIR).join(STORE_QUARANTINE_FILE);
        let base = std::fs::read_to_string(&quarantine).unwrap();
        assert!(base.contains(&hex("event 7")), "base name holds the newest evidence");
        let rotated: Vec<u64> = (1..=7)
            .filter(|n| dir.join(STORE_DIR).join(format!("{STORE_QUARANTINE_FILE}.{n}")).exists())
            .collect();
        assert_eq!(rotated, vec![3, 4, 5, 6, 7], "oldest copies pruned, newest kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_shared_layer_round_trips_across_opens() {
        let dir = scratch("dur");
        let (store, recovery) = open(&dir);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert!(store.is_durable());
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &41i64).unwrap();
        store.sync_durable().unwrap();
        drop(store);

        let (store, recovery) = open(&dir);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(store.len(), 1);
        assert_eq!(store.keys_of_kind(ArtifactKind::GraphRow).len(), 1, "counting sees the log");
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("a")), Some(41));
        assert_eq!(store.shared_hits(), 1, "served by the log read-through");
        // Dropping the promoted entry from memory leaves the log's frame.
        assert_eq!(store.invalidate_owner("D1"), 1);
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("a")), Some(41));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = scratch("tmp");
        let store_dir = dir.join(STORE_DIR);
        let temps = || {
            let names = std::fs::read_dir(&store_dir).unwrap().flatten().map(|e| e.file_name());
            names.filter(|n| n.to_string_lossy().ends_with(".tmp")).count()
        };
        seed(&dir, &[1.0]);
        assert_eq!(temps(), 0);
        // A stale manifest temp file from a killed swap does not disturb
        // the next open, which removes it.
        std::fs::write(store_dir.join(format!("{MANIFEST_FILE}.tmp")), "torn half-write").unwrap();
        let (shared, recovery) = open(&dir);
        assert_eq!(shared.len(), 1);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(temps(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
