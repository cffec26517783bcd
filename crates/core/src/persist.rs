//! Persistence of toolchain artefacts through the federation layer.
//!
//! SSAM models, FME(D)A tables and safety concepts serialise losslessly to
//! JSON via the serde ↔ `Value` bridge, making every artefact a federated
//! model: storable, diffable, and queryable with EQL (the paper's vision of
//! artefacts that downstream assurance tooling can re-check, §V-C).

use std::path::Path;

use decisive_federation::{json, serde_bridge, Value};
use decisive_ssam::model::SsamModel;

use crate::error::{CoreError, Result};
use crate::fmea::FmeaTable;
use crate::process::SafetyConcept;

fn io_error(path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Federation(decisive_federation::FederationError::Load {
        location: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Serialises any artefact to a federation [`Value`].
///
/// # Errors
///
/// Returns [`CoreError::Federation`] for unsupported shapes.
pub fn artefact_to_value<T: serde::Serialize>(artefact: &T) -> Result<Value> {
    Ok(serde_bridge::to_value(artefact)?)
}

/// Reconstructs an artefact from a federation [`Value`].
///
/// # Errors
///
/// Returns [`CoreError::Federation`] when the value does not match.
pub fn artefact_from_value<'de, T: serde::Deserialize<'de>>(value: &'de Value) -> Result<T> {
    Ok(serde_bridge::from_value(value)?)
}

/// Writes `artefact` to `path` as compact JSON, streamed without building
/// its [`Value`] tree.
fn save_json<T: serde::Serialize>(artefact: &T, path: &Path) -> Result<()> {
    let text = serde_bridge::to_json_string(artefact)?;
    std::fs::write(path, text).map_err(|e| io_error(path, e))
}

/// Saves an SSAM model as JSON. Pass `&mut f` if the writer is reused.
///
/// # Errors
///
/// Returns [`CoreError::Federation`] on serialization or I/O failure.
pub fn save_model(model: &SsamModel, path: impl AsRef<Path>) -> Result<()> {
    save_json(model, path.as_ref())
}

/// Loads an SSAM model saved by [`save_model`].
///
/// # Errors
///
/// Returns [`CoreError::Federation`] on I/O, parse or shape mismatch.
pub fn load_model(path: impl AsRef<Path>) -> Result<SsamModel> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    let value = json::parse(&text)?;
    artefact_from_value(&value)
}

/// Saves an FME(D)A table as JSON.
///
/// # Errors
///
/// Returns [`CoreError::Federation`] on serialization or I/O failure.
pub fn save_table(table: &FmeaTable, path: impl AsRef<Path>) -> Result<()> {
    save_json(table, path.as_ref())
}

/// Loads an FME(D)A table saved by [`save_table`].
///
/// # Errors
///
/// Returns [`CoreError::Federation`] on I/O, parse or shape mismatch.
pub fn load_table(path: impl AsRef<Path>) -> Result<FmeaTable> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    let value = json::parse(&text)?;
    artefact_from_value(&value)
}

/// Saves a safety concept as JSON.
///
/// # Errors
///
/// Returns [`CoreError::Federation`] on serialization or I/O failure.
pub fn save_concept(concept: &SafetyConcept, path: impl AsRef<Path>) -> Result<()> {
    save_json(concept, path.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;
    use crate::fmea::graph::{self, GraphConfig};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("decisive_persist_{name}_{}.json", std::process::id()))
    }

    #[test]
    fn ssam_model_roundtrips_through_json() {
        let (model, top) = case_study::ssam_model();
        let path = temp_path("model");
        save_model(&model, &path).unwrap();
        let back = load_model(&path).unwrap();
        assert_eq!(back, model);
        // The reloaded model analyses identically.
        let a = graph::run(&model, top, &GraphConfig::default()).unwrap();
        let b = graph::run(&back, top, &GraphConfig::default()).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fmea_table_roundtrips_through_json() {
        let (model, top) = case_study::ssam_model();
        let table = graph::run(&model, top, &GraphConfig::default()).unwrap();
        let path = temp_path("table");
        save_table(&table, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.spfm(), table.spfm());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persisted_models_are_queryable_with_eql() {
        let (model, _) = case_study::ssam_model();
        let value = artefact_to_value(&model).unwrap();
        let fits = decisive_federation::eql::eval_str(
            "model.components.select(c | c.fit.isDefined()).collect(c | c.fit).sum()",
            &value,
        )
        .unwrap();
        assert_eq!(fits.as_f64(), Some(329.0), "10 + 15 + 2 + 2 + 300");
    }

    #[test]
    fn missing_file_reports_location() {
        let err = load_model("/definitely/not/here.json").unwrap_err();
        assert!(err.to_string().contains("not/here.json"));
    }
}
