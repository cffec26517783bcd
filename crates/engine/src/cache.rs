//! The content-addressed artefact cache.
//!
//! Every derived analysis artefact (per-component FMEA rows, container
//! path facts, per-candidate injection rows, FTA subtree quantifications,
//! monitor sets) is stored under `(kind, fingerprint-of-its-inputs)`.
//! Content addressing makes invalidation automatic — an edited input hashes
//! to a new key and simply misses — so the explicit
//! [`CacheStore::invalidate_owner`] pass exists to *garbage-collect* stale
//! entries and to report how many keys a change dirtied.
//!
//! This module holds artefacts in memory only. Persistence is the durable
//! [`SharedStore`] (see [`SharedStore::open_durable`]), backed by the
//! crash-safe append-only log of [`crate::store`]: every completed pass is
//! durable immediately and a warm start costs O(touched artifacts).
//!
//! ## Snapshot format (v3)
//!
//! [`CacheStore::to_value`] and [`CacheStore::from_value_audited`] are the
//! portable snapshot codec behind `decisive store export` and `import`.
//! Every entry carries a fingerprint checksum and the header a whole-file
//! checksum; decoding skips (and reports) entries failing checksum or shape
//! validation, and rejects a document that is not a v3 snapshot at all.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// shared, not copied, between an overlay and its shared layer and out to
/// every overlay a shared hit serves.
#[derive(Debug, Clone, PartialEq)]
struct CacheEntry {
    owner: String,
    value: Arc<Value>,
}

/// An in-memory artefact store keyed by `(kind, fingerprint)`.
///
/// A store may be layered over a [`SharedStore`]: its own entries then act
/// as a private *overlay* — lookups fall back to the shared layer on a
/// local miss, and stores write through to it — so many stores (one per
/// daemon session) deduplicate artefacts across sessions while keeping
/// invalidation local, and a durable shared layer persists them. See
/// [`CacheStore::attach_shared`].
#[derive(Debug, Clone, Default)]
pub struct CacheStore {
    entries: HashMap<(ArtifactKind, Fingerprint), CacheEntry>,
    shared: Option<SharedStore>,
}

/// A thread-safe artefact store shared by many [`CacheStore`] overlays —
/// the cross-session dedup layer of the analysis daemon.
///
/// Content addressing is what makes sharing sound: a `(kind, fingerprint)`
/// key commits to *all* inputs of its artefact, so an entry computed by one
/// session is, by construction, the entry every other session would compute
/// for that key. The shared layer therefore only ever grows during a run
/// (overlays garbage-collect their private entries).
///
/// A shared layer is either purely in-memory or *durable*: backed by the
/// crash-safe segmented log of [`crate::store`], opened with
/// [`SharedStore::open_durable`]. A durable layer writes every entry
/// through to the log (committed on [`SharedStore::sync_durable`]) and
/// serves memory misses from the log's index, so a restarted process pays
/// O(touched artifacts) to get warm, not O(history).
///
/// Clones are handles onto the same underlying map (and log).
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    entries: Arc<Mutex<HashMap<(ArtifactKind, Fingerprint), CacheEntry>>>,
    hits: Arc<AtomicU64>,
    log: Option<Arc<SegmentStore>>,
}

impl SharedStore {
    /// An empty, purely in-memory shared layer.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// Opens a shared layer durably persisted in `dir/store/` as a
    /// segmented append-only log, running crash recovery.
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

    /// The segmented log backing this layer, when opened durable.
    pub fn durable(&self) -> Option<&Arc<SegmentStore>> {
        self.log.as_ref()
    }

    /// `true` when this layer persists through the segmented log.
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Fsyncs appends pending in the backing log — the commit point of
    /// incremental durability. A no-op for in-memory layers.
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

    /// Number of shared artefacts (union of the in-memory map and the
    /// backing log's live index).
    pub fn len(&self) -> usize {
        let mut keys: HashSet<(ArtifactKind, Fingerprint)> =
            self.entries.lock().expect("shared store poisoned").keys().copied().collect();
        if let Some(log) = &self.log {
            keys.extend(log.keys());
        }
        keys.len()
    }

    /// `true` when nothing is shared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of one artefact kind across memory and the backing log.
    pub fn keys_of_kind(&self, kind: ArtifactKind) -> Vec<Fingerprint> {
        let mut keys: HashSet<Fingerprint> = self
            .entries
            .lock()
            .expect("shared store poisoned")
            .keys()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, f)| f)
            .collect();
        if let Some(log) = &self.log {
            keys.extend(log.keys_of_kind(kind));
        }
        keys.into_iter().collect()
    }

    /// How many lookups were served by this layer after missing the
    /// requesting overlay — the cross-session dedup win.
    pub fn shared_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn get_entry(&self, kind: ArtifactKind, key: Fingerprint) -> Option<CacheEntry> {
        if let Some(entry) =
            self.entries.lock().expect("shared store poisoned").get(&(kind, key)).cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry);
        }
        // Memory miss: read through the durable log's index. The decoded
        // entry is promoted into memory so the next lookup is cheap —
        // this is what makes a warm start O(touched artifacts).
        let (owner, value) = self.log.as_ref()?.get(kind, key)?;
        let entry = CacheEntry { owner, value: Arc::new(value) };
        self.entries.lock().expect("shared store poisoned").insert((kind, key), entry.clone());
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    fn put_entry(&self, kind: ArtifactKind, key: Fingerprint, entry: CacheEntry) -> Result<()> {
        // Log first: if the append fails the memory layer stays in step
        // with disk and the caller sees the error.
        if let Some(log) = &self.log {
            log.append(kind, key, &entry.owner, &entry.value)?;
        }
        self.entries.lock().expect("shared store poisoned").insert((kind, key), entry);
        Ok(())
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

impl CacheStore {
    /// An empty store.
    pub fn new() -> Self {
        CacheStore::default()
    }

    /// Number of cached artefacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live entries of one kind — the per-pass cache status shown by
    /// `decisive passes`. With a shared layer attached this is the union
    /// of overlay, shared memory, and (when durable) the backing log, so
    /// warm stores report their real coverage.
    pub fn count_kind(&self, kind: ArtifactKind) -> usize {
        let local = self.entries.keys().filter(|(k, _)| *k == kind);
        let Some(shared) = &self.shared else { return local.count() };
        let mut keys: HashSet<Fingerprint> = local.map(|&(_, f)| f).collect();
        keys.extend(shared.keys_of_kind(kind));
        keys.len()
    }

    /// Layers this store over `shared`: lookups missing the local entries
    /// fall back to the shared layer (counted by
    /// [`SharedStore::shared_hits`]) and stores write through to it.
    /// Snapshots ([`CacheStore::to_value`]) and invalidation stay strictly
    /// local.
    pub fn attach_shared(&mut self, shared: SharedStore) {
        self.shared = Some(shared);
    }

    /// The shared layer this store is an overlay of, if any.
    pub fn shared(&self) -> Option<&SharedStore> {
        self.shared.as_ref()
    }

    /// Fetches and deserialises a cached artefact, falling back to the
    /// attached shared layer on a local miss.
    ///
    /// Returns `None` both on a missing key and on a shape mismatch (a
    /// corrupt entry is treated as a miss and recomputed).
    pub fn get<T: serde::DeserializeOwned>(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
    ) -> Option<T> {
        if let Some(entry) = self.entries.get(&(kind, key)) {
            return serde_bridge::from_value(&entry.value).ok();
        }
        let entry = self.shared.as_ref()?.get_entry(kind, key)?;
        serde_bridge::from_value(&entry.value).ok()
    }

    /// Stores an artefact under `(kind, key)`, owned by the named model
    /// element (used by [`CacheStore::invalidate_owner`]). With a shared
    /// layer attached the artefact is also published there, so sibling
    /// overlays see it.
    pub fn put<T: serde::Serialize>(
        &mut self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: &str,
        artefact: &T,
    ) -> Result<()> {
        let value = serde_bridge::to_value(artefact)
            .map_err(|e| EngineError::Cache(format!("unserialisable artefact: {e}")))?;
        let entry = CacheEntry { owner: owner.to_owned(), value: Arc::new(value) };
        if let Some(shared) = &self.shared {
            shared.put_entry(kind, key, entry.clone())?;
        }
        self.entries.insert((kind, key), entry);
        Ok(())
    }

    /// Inserts an already-serialised entry (the store export path, which
    /// must not re-encode values).
    pub(crate) fn insert_value(
        &mut self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: String,
        value: Value,
    ) {
        self.entries.insert((kind, key), CacheEntry { owner, value: Arc::new(value) });
    }

    /// Iterates the raw local entries (kind, key, owner, value).
    pub(crate) fn iter_entries(
        &self,
    ) -> impl Iterator<Item = (ArtifactKind, Fingerprint, &str, &Value)> {
        self.entries.iter().map(|(&(kind, key), e)| (kind, key, e.owner.as_str(), &*e.value))
    }

    /// Fsyncs the attached durable shared layer, if any — the per-pass
    /// commit point of incremental durability. No-op otherwise.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on fsync failure.
    pub fn sync_durable(&self) -> Result<()> {
        match &self.shared {
            Some(shared) => shared.sync_durable(),
            None => Ok(()),
        }
    }

    /// Drops every entry owned by `owner`; returns how many were dropped.
    pub fn invalidate_owner(&mut self, owner: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.owner != owner);
        before - self.entries.len()
    }

    /// Drops every entry of one kind; returns how many were dropped.
    pub fn invalidate_kind(&mut self, kind: ArtifactKind) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(k, _), _| *k != kind);
        before - self.entries.len()
    }

    /// Serialises the store's own entries as a v3 snapshot (a federation
    /// [`Value`]): a versioned header with a whole-file checksum, and one
    /// `sum` checksum per entry.
    pub fn to_value(&self) -> Value {
        // Deterministic entry order, so exported snapshots diff cleanly.
        let mut keys: Vec<&(ArtifactKind, Fingerprint)> = self.entries.keys().collect();
        keys.sort_by_key(|(kind, fp)| (kind.tag(), *fp));
        let mut sums = Vec::with_capacity(keys.len());
        let entries: Vec<Value> = keys
            .into_iter()
            .map(|k| {
                let entry = &self.entries[k];
                let sum = entry_sum(k.0, k.1, &entry.owner, &entry.value);
                sums.push(sum);
                Value::record([
                    ("kind", Value::from(k.0.tag())),
                    ("key", Value::from(k.1.to_string().as_str())),
                    ("owner", Value::from(entry.owner.as_str())),
                    ("sum", Value::from(sum.to_string().as_str())),
                    ("value", Value::clone(&entry.value)),
                ])
            })
            .collect();
        Value::record([
            ("version", Value::Int(FORMAT_VERSION)),
            ("checksum", Value::from(file_sum(&sums).to_string().as_str())),
            ("entries", Value::List(entries)),
        ])
    }

    /// Rebuilds a store from a [`CacheStore::to_value`] snapshot, skipping
    /// anything that fails validation — a cache may always be cold, never
    /// wrong. Returns one note per skipped entry (plus one when the
    /// whole-file checksum disagrees), empty for a clean snapshot.
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
    pub fn from_value_audited(value: &Value) -> Result<(CacheStore, Vec<String>)> {
        let not_a_snapshot =
            |found: String| EngineError::Cache(format!("expected a v3 snapshot, found {found}"));
        let entries = match (value.get("version").and_then(Value::as_i64), value.get("entries")) {
            (Some(FORMAT_VERSION), Some(Value::List(entries))) => entries,
            (Some(FORMAT_VERSION), _) => return Err(not_a_snapshot("no `entries` list".into())),
            (Some(version), _) => return Err(not_a_snapshot(format!("format version {version}"))),
            (None, _) => return Err(not_a_snapshot("no `version`".into())),
        };
        let mut store = CacheStore::new();
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
            let entry = CacheEntry { owner: owner.to_owned(), value: Arc::new(value.clone()) };
            store.entries.insert((kind, key), entry);
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

    /// A durable shared layer holding one committed `GraphRow` under
    /// `fp("a")`, closed again.
    fn seed(dir: &Path, artefact: &[f64]) {
        let (shared, _) = open(dir);
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared);
        overlay.put(ArtifactKind::GraphRow, fp("a"), "D1", &artefact.to_vec()).unwrap();
        overlay.sync_durable().unwrap();
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
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &vec![1.5f64, 2.5]).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("b"), "top", &"facts".to_owned()).unwrap();
        let (back, notes) = CacheStore::from_value_audited(&store.to_value()).unwrap();
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
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("c"), "D1", &3i64).unwrap();
        assert_eq!(store.invalidate_owner("D1"), 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("b")), Some(2));
    }

    #[test]
    fn kind_namespaces_the_key_space() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("k"), "x", &1i64).unwrap();
        store.put(ArtifactKind::InjectionRow, fp("k"), "x", &2i64).unwrap();
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(1));
        assert_eq!(store.get::<i64>(ArtifactKind::InjectionRow, fp("k")), Some(2));
        assert_eq!(store.invalidate_kind(ArtifactKind::InjectionRow), 1);
    }

    #[test]
    fn a_document_that_is_not_a_v3_snapshot_is_rejected() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::MonitorSet, fp("m"), "model", &0i64).unwrap();
        let mut value = store.to_value();
        if let Value::Record(fields) = &mut value {
            fields[0].1 = Value::Int(999);
        }
        let other = [value, Value::record([("version", Value::Int(3))]), Value::Record(Vec::new())];
        for doc in other {
            let Err(EngineError::Cache(message)) = CacheStore::from_value_audited(&doc) else {
                panic!("{doc:?} decoded as a snapshot");
            };
            assert!(message.contains("expected a v3 snapshot"), "{message}");
        }
    }

    #[test]
    fn clean_roundtrip_report_is_clean() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        let (back, notes) = CacheStore::from_value_audited(&store.to_value()).unwrap();
        assert_eq!(back.len(), 1);
        assert!(notes.is_empty(), "{notes:?}");
    }

    #[test]
    fn tampered_entry_is_quarantined_not_loaded() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Change one entry's payload without updating its checksum.
        set_entry_field(&mut value, "value", Value::Int(999));
        let (back, notes) = CacheStore::from_value_audited(&value).unwrap();
        assert_eq!(back.len(), 1, "the intact entry survives");
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("checksum mismatch"), "{notes:?}");
    }

    #[test]
    fn retired_kind_entries_are_skipped_not_quarantined() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Re-tag the first entry as an older build's `mc-trial` artefact.
        set_entry_field(&mut value, "kind", Value::from("mc-trial"));
        let (back, notes) = CacheStore::from_value_audited(&value).unwrap();
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
    fn shared_layer_serves_sibling_overlays() {
        let shared = SharedStore::new();
        let mut a = CacheStore::new();
        a.attach_shared(shared.clone());
        let mut b = CacheStore::new();
        b.attach_shared(shared.clone());

        a.put(ArtifactKind::GraphRow, fp("k"), "D1", &41i64).unwrap();
        assert_eq!(shared.len(), 1, "writes publish to the shared layer");
        // A's own lookup is a local hit: no shared traffic.
        assert_eq!(a.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(41));
        assert_eq!(shared.shared_hits(), 0);
        // B misses locally and is served by the shared layer.
        assert_eq!(b.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(41));
        assert_eq!(shared.shared_hits(), 1);
        // A detached store sees nothing.
        assert_eq!(CacheStore::new().get::<i64>(ArtifactKind::GraphRow, fp("k")), None);
    }

    #[test]
    fn overlay_invalidation_and_persistence_stay_local() {
        let shared = SharedStore::new();
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared.clone());
        overlay.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        overlay.put(ArtifactKind::GraphFacts, fp("b"), "top", &2i64).unwrap();

        assert_eq!(overlay.invalidate_owner("D1"), 1);
        assert_eq!(shared.len(), 2, "GC of the overlay never touches the shared layer");
        // The shared copy still serves the invalidated key (content
        // addressing: same key, same artefact).
        assert_eq!(overlay.get::<i64>(ArtifactKind::GraphRow, fp("a")), Some(1));

        // to_value snapshots only the overlay's own entries.
        let (persisted, _) = CacheStore::from_value_audited(&overlay.to_value()).unwrap();
        assert_eq!(persisted.len(), 1);
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
        let (shared, recovery) = open(&dir);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert!(shared.is_durable());
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared.clone());
        overlay.put(ArtifactKind::GraphRow, fp("a"), "D1", &41i64).unwrap();
        overlay.sync_durable().unwrap();
        drop((overlay, shared));

        let (shared, recovery) = open(&dir);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(shared.len(), 1);
        let mut fresh = CacheStore::new();
        fresh.attach_shared(shared.clone());
        assert_eq!(fresh.get::<i64>(ArtifactKind::GraphRow, fp("a")), Some(41));
        assert_eq!(shared.shared_hits(), 1, "served by the log read-through");
        assert_eq!(fresh.count_kind(ArtifactKind::GraphRow), 1, "union counting sees the log");
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
