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
//! The store persists through the federation layer (`serde_bridge` +
//! `json`) as a single `cache.json` in the cache directory, so warm caches
//! survive CLI invocations — or, preferred since the segmented store
//! landed, through a durable [`SharedStore`] backed by the append-only
//! log of [`crate::store`] (see [`SharedStore::open_durable`]), which
//! makes every completed pass durable immediately and warm starts
//! O(touched artifacts). The v3 JSON format remains the portable
//! interchange format (`decisive store import`/`export`).
//!
//! ## Crash safety (format v3)
//!
//! A killed run must never poison the next one, so persistence is built
//! around two mechanisms:
//!
//! * **Atomic writes** — the store is written to a temp file, fsynced,
//!   and renamed over `cache.json`, so readers only ever see the old or
//!   the new file, never a torn one.
//! * **Checksummed quarantine loads** — every persisted entry carries a
//!   fingerprint checksum and the header a whole-file checksum. On load,
//!   entries failing checksum or shape validation are moved to
//!   [`QUARANTINE_FILE`] and simply recomputed (a cache may always be
//!   cold, never wrong); an unparsable file is quarantined wholesale.
//!   [`CacheStore::load_with_report`] surfaces what was dropped.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use decisive_federation::{json, serde_bridge, Value};
use decisive_obs::Telemetry;

use crate::error::{EngineError, Result};
use crate::fingerprint::{Fingerprint, Hasher};
use crate::store::{
    CompactionSummary, SegmentStore, StoreHealth, StoreOptions, StoreRecovery, MANIFEST_FILE,
    STORE_DIR,
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
/// element it was derived *for* (the invalidation handle).
#[derive(Debug, Clone, PartialEq)]
struct CacheEntry {
    owner: String,
    value: Value,
}

/// An in-memory artefact store keyed by `(kind, fingerprint)`, optionally
/// persisted to a cache directory.
///
/// A store may be layered over a [`SharedStore`]: its own entries then act
/// as a private *overlay* — lookups fall back to the shared layer on a
/// local miss, and stores write through to it — so many stores (one per
/// daemon session) deduplicate artefacts across sessions while keeping
/// invalidation and persistence local. See [`CacheStore::attach_shared`].
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
/// (overlays garbage-collect their private entries; the shared layer is
/// rebuilt from a persisted snapshot on daemon start).
///
/// A shared layer is either purely in-memory (the historical behaviour)
/// or *durable*: backed by the crash-safe segmented log of
/// [`crate::store`], opened with [`SharedStore::open_durable`]. A durable
/// layer writes every entry through to the log (committed on
/// [`SharedStore::sync_durable`]) and serves memory misses from the log's
/// index, so a restarted process pays O(touched artifacts) to get warm,
/// not O(history).
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
    /// segmented append-only log, running crash recovery. On the *first*
    /// durable open of a directory still holding a legacy v3 `cache.json`,
    /// its verified entries are migrated into the log and the file is
    /// retired as `cache.json.imported` (recoverable any time via
    /// `decisive store import`).
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
        let dir = dir.as_ref();
        let store_dir = dir.join(STORE_DIR);
        let fresh = !store_dir.join(MANIFEST_FILE).exists();
        let (log, mut recovery) = SegmentStore::open(&store_dir, options, telemetry)?;
        let log = Arc::new(log);
        if fresh && dir.join(CACHE_FILE).exists() {
            let (legacy, report) = CacheStore::load_with_report(dir)?;
            recovery.migrated_entries = log.import(&legacy)?;
            recovery.quarantined_frames += report.quarantined;
            recovery.notes.extend(report.reasons);
            std::fs::rename(dir.join(CACHE_FILE), dir.join(format!("{CACHE_FILE}.imported"))).ok();
        }
        let shared = SharedStore { log: Some(log), ..SharedStore::default() };
        Ok((shared, recovery))
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

    /// Bulk-imports every entry of `store` (an overlay or a persisted
    /// snapshot) into the shared layer; returns how many were added. On a
    /// durable layer newly absorbed entries are also appended to the log
    /// best-effort (bulk imports should prefer `decisive store import`,
    /// which surfaces append errors).
    pub fn absorb(&self, store: &CacheStore) -> usize {
        let mut entries = self.entries.lock().expect("shared store poisoned");
        let before = entries.len();
        for (key, entry) in &store.entries {
            if let std::collections::hash_map::Entry::Vacant(vacant) = entries.entry(*key) {
                if let Some(log) = &self.log {
                    log.append(key.0, key.1, &entry.owner, &entry.value).ok();
                }
                vacant.insert(entry.clone());
            }
        }
        entries.len() - before
    }

    /// A plain [`CacheStore`] copy of the shared contents (shared layer
    /// detached), for persistence via [`CacheStore::save`]. On a durable
    /// layer this materialises the full log — the export path, not the
    /// shutdown path (durable layers persist incrementally).
    pub fn snapshot(&self) -> CacheStore {
        let mut snapshot = match &self.log {
            Some(log) => log.export(),
            None => CacheStore::new(),
        };
        for (key, entry) in self.entries.lock().expect("shared store poisoned").iter() {
            snapshot.entries.insert(*key, entry.clone());
        }
        snapshot.shared = None;
        snapshot
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
        let entry = CacheEntry { owner, value };
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

/// File name of the persisted store inside a cache directory.
pub const CACHE_FILE: &str = "cache.json";

/// File name corrupt cache content is moved to inside a cache directory,
/// for post-mortem inspection. A later corruption event rotates an
/// existing file aside as `cache.quarantine.json.1`, `.2`, … (capped at
/// [`QUARANTINE_KEEP`]) instead of clobbering it.
pub const QUARANTINE_FILE: &str = "cache.quarantine.json";

/// How many rotated quarantine copies are retained per base name before
/// the oldest are pruned.
pub const QUARANTINE_KEEP: usize = 5;

/// Shifts an existing quarantine file aside as `<name>.<n>` (n counting
/// up) so new quarantine content can land at the base name without
/// destroying earlier evidence, pruning all but the newest
/// [`QUARANTINE_KEEP`] rotated copies. Best-effort: rotation failure must
/// never block the load that triggered it.
pub(crate) fn rotate_quarantine(path: &Path) {
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

/// Version stamp of the persisted format; mismatches load as empty.
/// Version 2: injection rows carry their campaign outcome
/// (`InjectionArtifact`) instead of a bare `FmeaRow`.
/// Version 3: per-entry `sum` and whole-file `checksum` fields, verified
/// on load with a quarantine path for entries that fail.
const FORMAT_VERSION: i64 = 3;

/// What a [`CacheStore::load_with_report`] had to drop to produce a
/// usable store. A clean load has zero quarantined items and no notes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheLoadReport {
    /// Entries (or, for an unparsable file, the whole file counted as
    /// one item) moved to [`QUARANTINE_FILE`] and scheduled for
    /// recomputation.
    pub quarantined: usize,
    /// One human-readable reason per dropped or suspicious item.
    pub reasons: Vec<String>,
}

impl CacheLoadReport {
    /// `true` when nothing was dropped and nothing looked suspicious.
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && self.reasons.is_empty()
    }
}

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

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, then fsync the directory so
/// the rename itself is durable. Readers see the old file or the new
/// one — never a torn mix.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!("{name}.tmp"));
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        // Best-effort: directory fsync is not supported everywhere.
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
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
    /// Persistence ([`CacheStore::to_value`], [`CacheStore::save`]) and
    /// invalidation stay strictly local.
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
        let entry = CacheEntry { owner: owner.to_owned(), value };
        if let Some(shared) = &self.shared {
            shared.put_entry(kind, key, entry.clone())?;
        }
        self.entries.insert((kind, key), entry);
        Ok(())
    }

    /// Inserts an already-serialised entry (the store export/import and
    /// legacy-migration path, which must not re-encode values).
    pub(crate) fn insert_value(
        &mut self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: String,
        value: Value,
    ) {
        self.entries.insert((kind, key), CacheEntry { owner, value });
    }

    /// Iterates the raw local entries (kind, key, owner, value).
    pub(crate) fn iter_entries(
        &self,
    ) -> impl Iterator<Item = (ArtifactKind, Fingerprint, &str, &Value)> {
        self.entries.iter().map(|(&(kind, key), e)| (kind, key, e.owner.as_str(), &e.value))
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

    /// Serialises the whole store as a federation [`Value`] in format v3:
    /// a versioned header with a whole-file checksum, and one `sum`
    /// checksum per entry.
    pub fn to_value(&self) -> Value {
        // Deterministic entry order, so persisted caches diff cleanly.
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
                    ("value", entry.value.clone()),
                ])
            })
            .collect();
        Value::record([
            ("version", Value::Int(FORMAT_VERSION)),
            ("checksum", Value::from(file_sum(&sums).to_string().as_str())),
            ("entries", Value::List(entries)),
        ])
    }

    /// Rebuilds a store from [`CacheStore::to_value`] output, dropping
    /// anything that fails validation — a cache may always be cold, never
    /// wrong. See [`CacheStore::from_value_audited`] for what exactly is
    /// checked.
    pub fn from_value(value: &Value) -> CacheStore {
        Self::from_value_audited(value).0
    }

    /// Rebuilds a store, returning the load report and the raw rejected
    /// entries alongside it.
    ///
    /// Validation per entry: known kind tag, parsable key, string owner,
    /// present value, and a `sum` matching the recomputed entry checksum.
    /// Entries of a retired kind (such as `mc-trial`) are skipped without
    /// quarantine.
    /// Rejected entries land in the returned list (for quarantining) with
    /// one reason each in the report. A version mismatch yields an empty
    /// store with a note but quarantines nothing (an old format is stale,
    /// not corrupt); a whole-file checksum mismatch over individually
    /// valid entries is noted but keeps the entries.
    pub fn from_value_audited(value: &Value) -> (CacheStore, CacheLoadReport, Vec<Value>) {
        let mut store = CacheStore::new();
        let mut report = CacheLoadReport::default();
        let mut rejected = Vec::new();
        let version = value.get("version").and_then(Value::as_i64);
        if version != Some(FORMAT_VERSION) {
            report.reasons.push(format!(
                "cache format version {} does not match expected {FORMAT_VERSION}; starting cold",
                version.map(|v| v.to_string()).unwrap_or_else(|| "<missing>".to_owned())
            ));
            return (store, report, rejected);
        }
        let Some(Value::List(entries)) = value.get("entries") else {
            report.quarantined = 1;
            report.reasons.push("cache header has no `entries` list".to_owned());
            return (store, report, rejected);
        };
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
                report.quarantined += 1;
                report.reasons.push(format!("entry {idx}: malformed shape"));
                rejected.push(entry.clone());
                continue;
            };
            let expected = entry_sum(kind, key, owner, value);
            if expected != sum {
                report.quarantined += 1;
                report.reasons.push(format!(
                    "entry {idx} ({} {key}, owner `{owner}`): checksum mismatch",
                    kind.tag()
                ));
                rejected.push(entry.clone());
                continue;
            }
            sums.push(sum);
            store
                .entries
                .insert((kind, key), CacheEntry { owner: owner.to_owned(), value: value.clone() });
        }
        let stored_file_sum = value.get("checksum").and_then(Value::as_str);
        if report.quarantined == 0 && stored_file_sum != Some(file_sum(&sums).to_string().as_str())
        {
            report.reasons.push(
                "whole-file checksum mismatch; kept the individually verified entries".to_owned(),
            );
        }
        (store, report, rejected)
    }

    fn file_of(dir: &Path) -> PathBuf {
        dir.join(CACHE_FILE)
    }

    /// Loads the store persisted in `dir`, or an empty store when no cache
    /// file exists yet, quarantining corrupt content. Convenience wrapper
    /// over [`CacheStore::load_with_report`] that drops the report.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Cache`] only when the file cannot be *read*
    /// (an environment problem). Corrupt content never errors: it is
    /// moved to [`QUARANTINE_FILE`] and the affected entries recompute.
    pub fn load(dir: impl AsRef<Path>) -> Result<CacheStore> {
        Self::load_with_report(dir).map(|(store, _)| store)
    }

    /// Loads the store persisted in `dir`, reporting everything that had
    /// to be quarantined to produce it.
    ///
    /// An unparsable `cache.json` is renamed wholesale to
    /// [`QUARANTINE_FILE`] (counting as one quarantined item); a parsable
    /// file with invalid entries has just those entries written there.
    /// Either way the returned store contains only verified entries and
    /// the run proceeds, recomputing what was dropped.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Cache`] when the file exists but cannot be
    /// read.
    pub fn load_with_report(dir: impl AsRef<Path>) -> Result<(CacheStore, CacheLoadReport)> {
        let dir = dir.as_ref();
        let file = Self::file_of(dir);
        if !file.exists() {
            return Ok((CacheStore::new(), CacheLoadReport::default()));
        }
        let bytes = std::fs::read(&file)
            .map_err(|e| EngineError::Cache(format!("{}: {e}", file.display())))?;
        // Invalid UTF-8 is corruption (a torn write or flipped bit), not
        // an environmental failure — quarantine, like unparsable JSON.
        let parsed = String::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text).map_err(|e| e.to_string()));
        let value = match parsed {
            Ok(v) => v,
            Err(e) => {
                // The file is not even JSON: preserve the bytes for
                // post-mortem and start cold.
                let quarantine = dir.join(QUARANTINE_FILE);
                rotate_quarantine(&quarantine);
                if std::fs::rename(&file, &quarantine).is_err() {
                    if let Ok(bytes) = std::fs::read(&file) {
                        std::fs::write(&quarantine, bytes).ok();
                    }
                    std::fs::remove_file(&file).ok();
                }
                let report = CacheLoadReport {
                    quarantined: 1,
                    reasons: vec![format!(
                        "{}: {e}; whole file moved to {QUARANTINE_FILE}",
                        file.display()
                    )],
                };
                return Ok((CacheStore::new(), report));
            }
        };
        let (store, report, rejected) = Self::from_value_audited(&value);
        if !rejected.is_empty() {
            let quarantine = Value::record([
                ("version", Value::Int(FORMAT_VERSION)),
                (
                    "reasons",
                    Value::List(report.reasons.iter().map(|r| Value::from(r.as_str())).collect()),
                ),
                ("entries", Value::List(rejected)),
            ]);
            let target = dir.join(QUARANTINE_FILE);
            rotate_quarantine(&target);
            atomic_write(&target, &json::to_string(&quarantine)).ok();
        }
        Ok((store, report))
    }

    /// Persists the store into `dir` (created if missing) with an atomic
    /// temp-file + fsync + rename write: a crash mid-save leaves the
    /// previous cache intact.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Cache`] on I/O failure.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Cache(format!("{}: {e}", dir.display())))?;
        let file = Self::file_of(dir);
        atomic_write(&file, &json::to_string(&self.to_value()))
            .map_err(|e| EngineError::Cache(format!("{}: {e}", file.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Hasher;

    fn fp(text: &str) -> Fingerprint {
        Hasher::new().write_str(text).finish()
    }

    #[test]
    fn roundtrips_through_value_and_disk() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &vec![1.5f64, 2.5]).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("b"), "top", &"facts".to_owned()).unwrap();
        let back = CacheStore::from_value(&store.to_value());
        assert_eq!(back.len(), 2);
        assert_eq!(back.get::<Vec<f64>>(ArtifactKind::GraphRow, fp("a")), Some(vec![1.5, 2.5]));
        assert_eq!(back.get::<String>(ArtifactKind::GraphFacts, fp("b")), Some("facts".into()));

        let dir = std::env::temp_dir().join(format!("decisive_cache_{}", std::process::id()));
        store.save(&dir).unwrap();
        let loaded = CacheStore::load(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_loads_empty() {
        let store = CacheStore::load("/definitely/not/here").unwrap();
        assert!(store.is_empty());
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
    fn version_mismatch_loads_empty() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::MonitorSet, fp("m"), "model", &0i64).unwrap();
        let mut value = store.to_value();
        if let Value::Record(fields) = &mut value {
            fields[0].1 = Value::Int(999);
        }
        assert!(CacheStore::from_value(&value).is_empty());
        let (_, report, rejected) = CacheStore::from_value_audited(&value);
        assert_eq!(report.quarantined, 0, "stale format is cold, not corrupt");
        assert!(!report.is_clean(), "but the report notes it");
        assert!(rejected.is_empty());
    }

    #[test]
    fn clean_roundtrip_report_is_clean() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        let (back, report, rejected) = CacheStore::from_value_audited(&store.to_value());
        assert_eq!(back.len(), 1);
        assert!(report.is_clean(), "{report:?}");
        assert!(rejected.is_empty());
    }

    #[test]
    fn tampered_entry_is_quarantined_not_loaded() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Flip one entry's payload without updating its checksum.
        if let Value::Record(fields) = &mut value {
            for (k, v) in fields.iter_mut() {
                if k != "entries" {
                    continue;
                }
                if let Value::List(entries) = v {
                    if let Value::Record(efields) = &mut entries[0] {
                        for (ek, ev) in efields.iter_mut() {
                            if ek == "value" {
                                *ev = Value::Int(999);
                            }
                        }
                    }
                }
            }
        }
        let (back, report, rejected) = CacheStore::from_value_audited(&value);
        assert_eq!(back.len(), 1, "the intact entry survives");
        assert_eq!(report.quarantined, 1);
        assert_eq!(rejected.len(), 1);
        assert!(report.reasons[0].contains("checksum mismatch"), "{:?}", report.reasons);
    }

    #[test]
    fn retired_kind_entries_are_skipped_not_quarantined() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Re-tag the first entry as an older build's `mc-trial` artefact.
        if let Value::Record(fields) = &mut value {
            for (k, v) in fields.iter_mut() {
                if let (true, Value::List(entries)) = (k == "entries", v) {
                    if let Value::Record(efields) = &mut entries[0] {
                        for (ek, ev) in efields.iter_mut() {
                            if ek == "kind" {
                                *ev = Value::from("mc-trial");
                            }
                        }
                    }
                }
            }
        }
        let (back, report, rejected) = CacheStore::from_value_audited(&value);
        assert_eq!(back.len(), 1, "the retired entry is not loaded");
        assert!(report.is_clean(), "stale, not corrupt: {report:?}");
        assert!(rejected.is_empty());
    }

    #[test]
    fn unparsable_file_quarantines_wholesale_and_loads_cold() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_q_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), "{definitely not json").unwrap();
        let (store, report) = CacheStore::load_with_report(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(report.quarantined, 1);
        assert!(dir.join(QUARANTINE_FILE).exists(), "bytes preserved for post-mortem");
        assert!(!dir.join(CACHE_FILE).exists(), "corrupt original moved away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_quarantines_and_next_save_recovers() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_t_{}", std::process::id()));
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &vec![1.0f64]).unwrap();
        store.save(&dir).unwrap();
        let full = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        std::fs::write(dir.join(CACHE_FILE), &full[..full.len() / 2]).unwrap();

        let (cold, report) = CacheStore::load_with_report(&dir).unwrap();
        assert!(cold.is_empty());
        assert!(!report.is_clean());

        // A fresh save over the quarantined state loads cleanly again.
        store.save(&dir).unwrap();
        let (warm, report) = CacheStore::load_with_report(&dir).unwrap();
        assert_eq!(warm.len(), 1);
        assert!(report.is_clean(), "{report:?}");
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

        // to_value persists only the overlay's own entries.
        let persisted = CacheStore::from_value(&overlay.to_value());
        assert_eq!(persisted.len(), 1);
    }

    #[test]
    fn snapshot_and_absorb_round_trip_the_shared_layer() {
        let shared = SharedStore::new();
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared.clone());
        overlay.put(ArtifactKind::MonitorSet, fp("m"), "model", &7i64).unwrap();

        let snapshot = shared.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.shared().is_none(), "snapshots are detached");

        let rebuilt = SharedStore::new();
        assert_eq!(rebuilt.absorb(&snapshot), 1);
        assert_eq!(rebuilt.absorb(&snapshot), 0, "absorb is idempotent");
        let mut fresh = CacheStore::new();
        fresh.attach_shared(rebuilt);
        assert_eq!(fresh.get::<i64>(ArtifactKind::MonitorSet, fp("m")), Some(7));
    }

    #[test]
    fn repeated_quarantines_rotate_and_cap_instead_of_clobbering() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_rot_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for round in 0..8 {
            std::fs::write(dir.join(CACHE_FILE), format!("{{corrupt event {round}")).unwrap();
            let (_, report) = CacheStore::load_with_report(&dir).unwrap();
            assert_eq!(report.quarantined, 1, "round {round}");
        }
        let base = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert!(base.contains("event 7"), "base name holds the newest evidence");
        let rotated: Vec<u64> =
            (1..=7).filter(|n| dir.join(format!("{QUARANTINE_FILE}.{n}")).exists()).collect();
        assert_eq!(rotated, vec![3, 4, 5, 6, 7], "oldest copies pruned, newest kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_shared_layer_round_trips_across_opens() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_dur_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (shared, recovery) =
            SharedStore::open_durable(&dir, StoreOptions::default(), Telemetry::noop()).unwrap();
        assert!(recovery.is_clean(), "{recovery:?}");
        assert!(shared.is_durable());
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared.clone());
        overlay.put(ArtifactKind::GraphRow, fp("a"), "D1", &41i64).unwrap();
        overlay.sync_durable().unwrap();
        drop((overlay, shared));

        let (shared, recovery) =
            SharedStore::open_durable(&dir, StoreOptions::default(), Telemetry::noop()).unwrap();
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
    fn legacy_cache_json_migrates_into_the_log_exactly_once() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_mig_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut legacy = CacheStore::new();
        legacy.put(ArtifactKind::MonitorSet, fp("m"), "model", &7i64).unwrap();
        legacy.save(&dir).unwrap();

        let (shared, recovery) =
            SharedStore::open_durable(&dir, StoreOptions::default(), Telemetry::noop()).unwrap();
        assert_eq!(recovery.migrated_entries, 1);
        assert!(recovery.is_clean(), "clean migration is routine, not degraded: {recovery:?}");
        assert!(!dir.join(CACHE_FILE).exists(), "legacy file retired");
        assert!(dir.join(format!("{CACHE_FILE}.imported")).exists());
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared);
        assert_eq!(overlay.get::<i64>(ArtifactKind::MonitorSet, fp("m")), Some(7));

        // Once the manifest exists, a stray cache.json is never
        // re-imported — the log is authoritative.
        let mut stray = CacheStore::new();
        stray.put(ArtifactKind::MonitorSet, fp("other"), "model", &9i64).unwrap();
        stray.save(&dir).unwrap();
        let (shared, recovery) =
            SharedStore::open_durable(&dir, StoreOptions::default(), Telemetry::noop()).unwrap();
        assert_eq!(recovery.migrated_entries, 0);
        assert_eq!(shared.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_a_{}", std::process::id()));
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphFacts, fp("x"), "top", &"facts".to_owned()).unwrap();
        store.save(&dir).unwrap();
        assert!(dir.join(CACHE_FILE).exists());
        assert!(!dir.join(format!("{CACHE_FILE}.tmp")).exists());
        // A stale temp file from a killed run does not disturb loads and
        // is replaced by the next save.
        std::fs::write(dir.join(format!("{CACHE_FILE}.tmp")), "torn half-write").unwrap();
        let (loaded, report) = CacheStore::load_with_report(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(report.is_clean());
        store.save(&dir).unwrap();
        assert!(!dir.join(format!("{CACHE_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
