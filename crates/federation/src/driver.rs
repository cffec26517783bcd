//! Model drivers — the analogue of Epsilon's Model Connectivity (EMC) layer:
//! pluggable adapters exposing heterogeneous model technologies as [`Value`]s.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{FederationError, Result};
use crate::value::Value;

/// An adapter that loads models of one technology.
///
/// Implementations must be thread-safe: SAME-style tools query many external
/// models concurrently during an FMEA sweep.
pub trait ModelDriver: Send + Sync {
    /// The technology tag this driver serves (e.g. `"csv"`).
    fn kind(&self) -> &str;

    /// Loads the model at `location` into the common data model.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::Load`] when the location is inaccessible
    /// and [`FederationError::Parse`] when its content is malformed.
    fn load(&self, location: &str) -> Result<Value>;

    /// Evaluates the EQL `query` against the model at `location` — one
    /// `ExternalReference` resolution.
    ///
    /// The default implementation loads the model, then parses and
    /// evaluates the query over it. Drivers that already hold their
    /// models override it to evaluate in place instead of loading a copy.
    ///
    /// # Errors
    ///
    /// The errors of [`ModelDriver::load`] first, so a missing model fails
    /// before a malformed query; then the query's parse and evaluation
    /// errors.
    fn extract(&self, location: &str, query: &str) -> Result<Value> {
        crate::eql::eval_str(query, &self.load(location)?)
    }
}

/// Loads `.csv` files from the filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct CsvDriver;

impl ModelDriver for CsvDriver {
    fn kind(&self) -> &str {
        "csv"
    }

    fn load(&self, location: &str) -> Result<Value> {
        let text = std::fs::read_to_string(location).map_err(|e| FederationError::Load {
            location: location.to_owned(),
            message: e.to_string(),
        })?;
        crate::csv::parse(&text)
    }
}

/// Loads `.json` files from the filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct JsonDriver;

impl ModelDriver for JsonDriver {
    fn kind(&self) -> &str {
        "json"
    }

    fn load(&self, location: &str) -> Result<Value> {
        let text = std::fs::read_to_string(location).map_err(|e| FederationError::Load {
            location: location.to_owned(),
            message: e.to_string(),
        })?;
        crate::json::parse(&text)
    }
}

/// Loads `.xml` files from the filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct XmlDriver;

impl ModelDriver for XmlDriver {
    fn kind(&self) -> &str {
        "xml"
    }

    fn load(&self, location: &str) -> Result<Value> {
        let text = std::fs::read_to_string(location).map_err(|e| FederationError::Load {
            location: location.to_owned(),
            message: e.to_string(),
        })?;
        crate::xml::parse(&text)
    }
}

/// Serves models registered in memory under string keys — used for EMF-style
/// in-process models and by tests.
#[derive(Debug, Default)]
pub struct MemoryDriver {
    models: RwLock<HashMap<String, Value>>,
}

impl MemoryDriver {
    /// Creates an empty in-memory model registry.
    pub fn new() -> Self {
        MemoryDriver::default()
    }

    /// Registers (or replaces) a model under `key`, returning the previous
    /// value if any.
    pub fn register(&self, key: impl Into<String>, model: Value) -> Option<Value> {
        self.models.write().insert(key.into(), model)
    }

    /// Removes the model under `key`.
    pub fn unregister(&self, key: &str) -> Option<Value> {
        self.models.write().remove(key)
    }
}

impl ModelDriver for MemoryDriver {
    fn kind(&self) -> &str {
        "memory"
    }

    fn load(&self, location: &str) -> Result<Value> {
        self.models.read().get(location).cloned().ok_or_else(|| unregistered(location))
    }

    /// Evaluates `query` against the registered model in place, under the
    /// registry's read lock: the model is never copied.
    fn extract(&self, location: &str, query: &str) -> Result<Value> {
        let models = self.models.read();
        let model = models.get(location).ok_or_else(|| unregistered(location))?;
        crate::eql::eval_str(query, model)
    }
}

fn unregistered(location: &str) -> FederationError {
    FederationError::Load {
        location: location.to_owned(),
        message: "no in-memory model registered under this key".to_owned(),
    }
}

/// A registry dispatching load requests to the driver for each technology.
///
/// # Examples
///
/// ```
/// use decisive_federation::{DriverRegistry, Value};
///
/// # fn main() -> Result<(), decisive_federation::FederationError> {
/// let registry = DriverRegistry::with_defaults();
/// registry.memory().register("reliability", Value::list([Value::from(1)]));
/// let model = registry.load("memory", "reliability")?;
/// assert_eq!(model.len(), Some(1));
/// # Ok(())
/// # }
/// ```
pub struct DriverRegistry {
    drivers: RwLock<HashMap<String, Arc<dyn ModelDriver>>>,
    memory: Arc<MemoryDriver>,
}

impl DriverRegistry {
    /// Creates a registry with the built-in `csv`, `json`, `xml` and
    /// `memory` drivers registered.
    pub fn with_defaults() -> Self {
        let memory = Arc::new(MemoryDriver::new());
        let mut drivers: HashMap<String, Arc<dyn ModelDriver>> = HashMap::new();
        drivers.insert("csv".to_owned(), Arc::new(CsvDriver));
        drivers.insert("json".to_owned(), Arc::new(JsonDriver));
        drivers.insert("xml".to_owned(), Arc::new(XmlDriver));
        drivers.insert("memory".to_owned(), memory.clone());
        DriverRegistry { drivers: RwLock::new(drivers), memory }
    }

    /// The shared in-memory driver, for registering in-process models.
    pub fn memory(&self) -> &MemoryDriver {
        &self.memory
    }

    /// Registers a custom driver under its own kind tag, replacing any
    /// driver previously registered for that tag.
    pub fn register(&self, driver: Arc<dyn ModelDriver>) {
        self.drivers.write().insert(driver.kind().to_owned(), driver);
    }

    /// Loads the model at `location` using the driver for `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::UnknownDriver`] when no driver serves
    /// `kind`; otherwise propagates the driver's errors.
    pub fn load(&self, kind: &str, location: &str) -> Result<Value> {
        self.driver(kind)?.load(location)
    }

    fn driver(&self, kind: &str) -> Result<Arc<dyn ModelDriver>> {
        self.drivers
            .read()
            .get(kind)
            .cloned()
            .ok_or_else(|| FederationError::UnknownDriver { kind: kind.to_owned() })
    }

    /// Evaluates an EQL `query` against a model through the driver for
    /// `kind` ([`ModelDriver::extract`]) — the full `ExternalReference`
    /// resolution path of the paper (Fig. 8).
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownDriver`] when no driver serves `kind`;
    /// then load, parse and evaluation errors, in that order.
    pub fn extract(&self, kind: &str, location: &str, query: &str) -> Result<Value> {
        self.driver(kind)?.extract(location, query)
    }

    /// The kinds currently served, sorted.
    pub fn kinds(&self) -> Vec<String> {
        let mut kinds: Vec<String> = self.drivers.read().keys().cloned().collect();
        kinds.sort();
        kinds
    }
}

impl Default for DriverRegistry {
    fn default() -> Self {
        DriverRegistry::with_defaults()
    }
}

impl std::fmt::Debug for DriverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverRegistry").field("kinds", &self.kinds()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_serve_csv_json_memory() {
        let r = DriverRegistry::with_defaults();
        assert_eq!(r.kinds(), vec!["csv", "json", "memory", "xml"]);
    }

    #[test]
    fn memory_driver_roundtrip() {
        let r = DriverRegistry::with_defaults();
        r.memory().register("m", Value::from(42));
        assert_eq!(r.load("memory", "m").unwrap(), Value::Int(42));
        r.memory().unregister("m");
        assert!(r.load("memory", "m").is_err());
    }

    #[test]
    fn unknown_driver_is_reported() {
        let r = DriverRegistry::with_defaults();
        assert!(matches!(r.load("simulink", "x.slx"), Err(FederationError::UnknownDriver { .. })));
    }

    #[test]
    fn file_drivers_roundtrip_via_tempfiles() {
        let dir = std::env::temp_dir();
        let csv_path = dir.join("decisive_federation_test.csv");
        std::fs::write(&csv_path, "a,b\n1,x\n").unwrap();
        let json_path = dir.join("decisive_federation_test.json");
        std::fs::write(&json_path, "{\"k\": [1, 2]}").unwrap();

        let r = DriverRegistry::with_defaults();
        let csv = r.load("csv", csv_path.to_str().unwrap()).unwrap();
        assert_eq!(csv.at(0).unwrap().get("a"), Some(&Value::Int(1)));
        let json = r.load("json", json_path.to_str().unwrap()).unwrap();
        assert_eq!(json.get("k").unwrap().len(), Some(2));

        std::fs::remove_file(csv_path).ok();
        std::fs::remove_file(json_path).ok();
    }

    #[test]
    fn missing_file_is_load_error() {
        let r = DriverRegistry::with_defaults();
        assert!(matches!(
            r.load("csv", "/definitely/not/here.csv"),
            Err(FederationError::Load { .. })
        ));
    }

    #[test]
    fn extract_runs_query_over_loaded_model() {
        let r = DriverRegistry::with_defaults();
        r.memory().register("rel", crate::csv::parse("Component,FIT\nDiode,10\nMC,300\n").unwrap());
        let fit =
            r.extract("memory", "rel", "rows.select(r | r.Component = 'MC').first().FIT").unwrap();
        assert_eq!(fit, Value::Int(300));
        // A missing model fails before a malformed query does.
        let load_error = |e: FederationError| matches!(e, FederationError::Load { .. });
        assert!(load_error(r.extract("memory", "missing", "1 +").unwrap_err()));
        assert!(load_error(r.extract("csv", "/definitely/not/here.csv", "1 +").unwrap_err()));
        let parse_error = |e: FederationError| matches!(e, FederationError::Parse { .. });
        assert!(parse_error(r.extract("memory", "rel", "1 +").unwrap_err()));
    }

    #[test]
    fn custom_driver_registration() {
        struct Fixed;
        impl ModelDriver for Fixed {
            fn kind(&self) -> &str {
                "fixed"
            }
            fn load(&self, _: &str) -> Result<Value> {
                Ok(Value::from("constant"))
            }
        }
        let r = DriverRegistry::with_defaults();
        r.register(Arc::new(Fixed));
        assert_eq!(r.load("fixed", "anywhere").unwrap(), Value::from("constant"));
        assert_eq!(r.kinds().len(), 5);
    }
}
