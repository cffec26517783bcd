//! What one fleet unit of work *is*: a model to analyse, identified by a
//! stable id and a content fingerprint.
//!
//! Tasks come from two places — every `.bd`/`.json` file under a
//! directory tree, and deterministic instances of the Table VI
//! scalability generators (`decisive-workload`). Both are fingerprinted
//! by *content* (file bytes, or the generator triple), so the journal can
//! tell "already analysed exactly this model" from "same path, edited
//! since" on `--resume`.

use std::path::{Path, PathBuf};

use decisive_core::request::{AnalysisOp, RunSpec};
use decisive_engine::fingerprint::Hasher;
use decisive_engine::Fingerprint;
use decisive_federation::Value;
use decisive_workload::sets;

/// Where a task's model comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskSource {
    /// A model file on disk (`.bd` block diagram or SSAM `.json`).
    File(PathBuf),
    /// A deterministic instance of a Table VI scalability set.
    Workload {
        /// Set name (`"Set0"` … `"Set5"`).
        set: String,
        /// Instance index within the scaled sweep.
        instance: u64,
        /// Generator seed shared by the whole campaign.
        seed: u64,
    },
}

/// One unit of fleet work.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTask {
    /// Stable identifier: the file path, or `SetN#<instance>` for
    /// generated models. Report rows and the journal key off this.
    pub id: String,
    /// The model source.
    pub source: TaskSource,
    /// Fingerprint of the model *content* (file bytes / generator
    /// triple): `--resume` only skips a journaled row whose content
    /// fingerprint still matches.
    pub content_fp: u64,
}

impl FleetTask {
    /// The journal key of this task (a digest of the id, not the
    /// content: a re-run of an edited file *supersedes* its old row).
    pub fn journal_key(&self) -> Fingerprint {
        Hasher::new().write_str(&self.id).finish()
    }

    /// A task for a model file, fingerprinting its current bytes.
    ///
    /// # Errors
    ///
    /// The I/O error message when the file cannot be read.
    pub fn for_file(path: &Path) -> Result<FleetTask, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(FleetTask {
            id: path.display().to_string(),
            source: TaskSource::File(path.to_path_buf()),
            content_fp: Hasher::new().write_bytes(&bytes).finish().0,
        })
    }

    /// A task for one generated workload instance.
    pub fn for_workload(set: &str, instance: u64, seed: u64) -> FleetTask {
        FleetTask {
            id: format!("{set}#{instance}"),
            source: TaskSource::Workload { set: set.to_owned(), instance, seed },
            content_fp: Hasher::new().write_str(set).write_u64(instance).write_u64(seed).finish().0,
        }
    }

    /// The wire form sent to a worker (one line): the model source, the
    /// attempt counter (so the deterministic chaos hooks can distinguish
    /// first tries from retries), and the unified request — the
    /// [`AnalysisOp`] plus the full [`RunSpec`] record.
    pub fn to_wire(&self, attempt: u32, op: AnalysisOp, spec: &RunSpec) -> Value {
        let mut fields = vec![("id", Value::from(self.id.as_str()))];
        match &self.source {
            TaskSource::File(path) => {
                fields.push(("kind", Value::from("file")));
                fields.push(("path", Value::from(path.display().to_string())));
            }
            TaskSource::Workload { set, instance, seed } => {
                fields.push(("kind", Value::from("workload")));
                fields.push(("set", Value::from(set.as_str())));
                fields.push(("instance", Value::Int(*instance as i64)));
                fields.push(("seed", Value::Int(*seed as i64)));
            }
        }
        fields.push(("attempt", Value::Int(i64::from(attempt))));
        fields.push(("op", Value::from(op.name())));
        fields.push(("spec", spec.to_value()));
        Value::record(fields)
    }

    /// Parses the wire form back (the worker side): the line
    /// [`FleetTask::to_wire`] wrote, `op` and `spec` included.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_wire(value: &Value) -> Result<(FleetTask, u32, AnalysisOp, RunSpec), String> {
        let id = value
            .get("id")
            .and_then(Value::as_str)
            .ok_or("task line lacks an `id` string")?
            .to_owned();
        let attempt = value.get("attempt").and_then(Value::as_i64).unwrap_or(0).max(0) as u32;
        let op = match value.get("op") {
            Some(Value::Str(name)) => {
                AnalysisOp::parse(name).ok_or_else(|| format!("unknown task op `{name}`"))?
            }
            Some(other) => return Err(format!("task `op` must be a string, got {other:?}")),
            None => return Err("task line lacks an `op`".to_owned()),
        };
        let spec = RunSpec::from_value(value.get("spec").ok_or("task line lacks a `spec`")?)?;
        let source = match value.get("kind").and_then(Value::as_str) {
            Some("file") => TaskSource::File(PathBuf::from(
                value.get("path").and_then(Value::as_str).ok_or("file task lacks a `path`")?,
            )),
            Some("workload") => TaskSource::Workload {
                set: value
                    .get("set")
                    .and_then(Value::as_str)
                    .ok_or("workload task lacks a `set`")?
                    .to_owned(),
                instance: value.get("instance").and_then(Value::as_i64).unwrap_or(0).max(0) as u64,
                seed: value.get("seed").and_then(Value::as_i64).unwrap_or(0) as u64,
            },
            other => return Err(format!("unknown task kind {other:?}")),
        };
        // The fingerprint is re-derived rather than trusted from the wire:
        // the worker reports what it actually analysed.
        let task = match &source {
            TaskSource::File(path) => {
                let mut task = FleetTask::for_file(path)?;
                task.id = id;
                task
            }
            TaskSource::Workload { set, instance, seed } => {
                let mut task = FleetTask::for_workload(set, *instance, *seed);
                task.id = id;
                task
            }
        };
        Ok((task, attempt, op, spec))
    }
}

/// Recursively collects every `.bd` / `.json` model file under `root`, in
/// lexicographic path order (determinism: the same tree always yields the
/// same task list). Unreadable directories are an error — a sweep must
/// not silently skip a subtree.
///
/// # Errors
///
/// I/O failures while walking, or an unreadable model file.
pub fn discover(root: &Path) -> Result<Vec<FleetTask>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if matches!(path.extension().and_then(|e| e.to_str()), Some("bd") | Some("json"))
            {
                files.push(path);
            }
        }
    }
    files.sort();
    files.iter().map(|p| FleetTask::for_file(p)).collect()
}

/// Expands `--workload <set|all> --scale <k>` into `k` deterministic
/// instances per selected set, appended in `(set, instance)` order.
///
/// # Errors
///
/// An unknown set name.
pub fn workload_tasks(selector: &str, scale: u64, seed: u64) -> Result<Vec<FleetTask>, String> {
    let selected: Vec<&str> = if selector.eq_ignore_ascii_case("all") {
        sets::SCALABILITY_SETS.iter().map(|s| s.name).collect()
    } else {
        let set = sets::set_by_name(selector)
            .ok_or_else(|| format!("unknown workload set `{selector}` (Set0..Set5 or all)"))?;
        vec![set.name]
    };
    let mut tasks = Vec::new();
    for set in selected {
        for instance in 0..scale {
            tasks.push(FleetTask::for_workload(set, instance, seed));
        }
    }
    Ok(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip_preserves_identity() {
        let task = FleetTask::for_workload("Set1", 7, 99);
        let spec =
            RunSpec { mission_hours: Some(5_000.0), trials: 32, seed: 9, ..RunSpec::default() };
        let wire = task.to_wire(2, AnalysisOp::MonteCarlo, &spec);
        let (back, attempt, op, back_spec) = FleetTask::from_wire(&wire).unwrap();
        assert_eq!(back, task);
        assert_eq!(attempt, 2);
        assert_eq!(op, AnalysisOp::MonteCarlo);
        assert_eq!(back_spec, spec);
    }

    #[test]
    fn wire_lines_need_an_op_and_a_spec() {
        use decisive_federation::json;
        let wire = FleetTask::for_workload("Set1", 7, 99).to_wire(
            1,
            AnalysisOp::Pipeline,
            &RunSpec::default(),
        );
        let line = json::to_string(&wire);
        for (field, message) in [("op", "lacks an `op`"), ("spec", "lacks a `spec`")] {
            let Value::Record(mut fields) = json::parse(&line).unwrap() else { unreachable!() };
            fields.retain(|(name, _)| name != field);
            let err = FleetTask::from_wire(&Value::Record(fields)).unwrap_err();
            assert!(err.contains(message), "{err}");
        }
    }

    #[test]
    fn content_fingerprint_tracks_file_bytes() {
        let dir = std::env::temp_dir().join(format!("fleet_task_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        std::fs::write(&path, "{\"a\":1}").unwrap();
        let first = FleetTask::for_file(&path).unwrap();
        std::fs::write(&path, "{\"a\":2}").unwrap();
        let second = FleetTask::for_file(&path).unwrap();
        assert_eq!(first.id, second.id);
        assert_ne!(first.content_fp, second.content_fp, "edits change the fingerprint");
        assert_eq!(first.journal_key(), second.journal_key(), "journal key is id-stable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discovery_is_sorted_and_filtered() {
        let dir = std::env::temp_dir().join(format!("fleet_disc_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("b.json"), "{}").unwrap();
        std::fs::write(dir.join("a.bd"), "system X").unwrap();
        std::fs::write(dir.join("notes.txt"), "skip me").unwrap();
        std::fs::write(dir.join("sub/c.json"), "{}").unwrap();
        let tasks = discover(&dir).unwrap();
        let ids: Vec<&str> = tasks.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(tasks.len(), 3);
        assert!(ids[0].ends_with("a.bd") && ids[1].ends_with("b.json"), "{ids:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_expansion_covers_all_sets() {
        let tasks = workload_tasks("all", 3, 1).unwrap();
        assert_eq!(tasks.len(), 18);
        let one = workload_tasks("set2", 5, 1).unwrap();
        assert_eq!(one.len(), 5);
        assert_eq!(one[4].id, "Set2#4");
        assert!(workload_tasks("Set9", 1, 1).is_err());
    }
}
