//! Model drivers — the analogue of Epsilon's Model Connectivity (EMC) layer:
//! pluggable adapters exposing heterogeneous model technologies as [`Value`]s.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{FederationDiagnostic, FederationError, ResolvePolicy, Result};
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

    /// Loads the model at `location` under the given [`ResolvePolicy`].
    ///
    /// With [`ResolvePolicy::Lenient`] the driver keeps as much of the
    /// model as it can, reporting each dropped record or substitution as
    /// a [`FederationDiagnostic`]. An inaccessible location degrades to
    /// [`Value::Null`] with an unresolved-reference diagnostic rather
    /// than failing.
    ///
    /// The default implementation delegates to [`ModelDriver::load`]
    /// (wrapping any error as a diagnostic in lenient mode); drivers with
    /// record-level recovery override it.
    ///
    /// # Errors
    ///
    /// Strict mode errors exactly like [`ModelDriver::load`]; lenient
    /// mode never errors.
    fn load_with_policy(
        &self,
        location: &str,
        policy: ResolvePolicy,
    ) -> Result<(Value, Vec<FederationDiagnostic>)> {
        match (self.load(location), policy) {
            (Ok(v), _) => Ok((v, Vec::new())),
            (Err(e), ResolvePolicy::Strict) => Err(e),
            (Err(e), ResolvePolicy::Lenient) => {
                Ok((Value::Null, vec![FederationDiagnostic::unresolved(location, e.to_string())]))
            }
        }
    }

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

/// Reads a driver's backing file, degrading to an unresolved-reference
/// diagnostic (instead of an error) in lenient mode.
fn read_source(
    location: &str,
    policy: ResolvePolicy,
) -> Result<std::result::Result<String, FederationDiagnostic>> {
    match std::fs::read_to_string(location) {
        Ok(text) => Ok(Ok(text)),
        Err(e) if policy.is_lenient() => {
            Ok(Err(FederationDiagnostic::unresolved(location, e.to_string())))
        }
        Err(e) => {
            Err(FederationError::Load { location: location.to_owned(), message: e.to_string() })
        }
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

    fn load_with_policy(
        &self,
        location: &str,
        policy: ResolvePolicy,
    ) -> Result<(Value, Vec<FederationDiagnostic>)> {
        match read_source(location, policy)? {
            Ok(text) => crate::csv::parse_policy(&text, location, policy),
            Err(diag) => Ok((Value::Null, vec![diag])),
        }
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

    fn load_with_policy(
        &self,
        location: &str,
        policy: ResolvePolicy,
    ) -> Result<(Value, Vec<FederationDiagnostic>)> {
        match read_source(location, policy)? {
            Ok(text) if policy.is_lenient() => Ok(crate::json::parse_lenient(&text, location)),
            Ok(text) => crate::json::parse(&text).map(|v| (v, Vec::new())),
            Err(diag) => Ok((Value::Null, vec![diag])),
        }
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

    /// Loads the model at `location` under `policy` — the degraded-mode
    /// resolution path: in [`ResolvePolicy::Lenient`] mode an unknown
    /// driver or unresolvable location degrades to [`Value::Null`] with
    /// an unresolved-reference diagnostic, and record-level defects are
    /// reported per record instead of failing the load.
    ///
    /// # Errors
    ///
    /// Strict mode errors exactly like [`DriverRegistry::load`]; lenient
    /// mode never errors.
    pub fn load_with_policy(
        &self,
        kind: &str,
        location: &str,
        policy: ResolvePolicy,
    ) -> Result<(Value, Vec<FederationDiagnostic>)> {
        let driver = match self.drivers.read().get(kind).cloned() {
            Some(d) => d,
            None if policy.is_lenient() => {
                let diag = FederationDiagnostic::unresolved(
                    location,
                    format!("no model driver registered for technology `{kind}`"),
                );
                return Ok((Value::Null, vec![diag]));
            }
            None => return Err(FederationError::UnknownDriver { kind: kind.to_owned() }),
        };
        driver.load_with_policy(location, policy)
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
    fn lenient_load_of_missing_file_degrades_to_null() {
        let r = DriverRegistry::with_defaults();
        let (v, diags) = r
            .load_with_policy("csv", "/definitely/not/here.csv", ResolvePolicy::Lenient)
            .expect("lenient load never errors");
        assert_eq!(v, Value::Null);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, crate::error::DiagnosticKind::UnresolvedReference);
    }

    #[test]
    fn lenient_load_of_unknown_driver_degrades_to_null() {
        let r = DriverRegistry::with_defaults();
        let (v, diags) =
            r.load_with_policy("simulink", "x.slx", ResolvePolicy::Lenient).expect("lenient");
        assert_eq!(v, Value::Null);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn lenient_csv_load_collects_row_diagnostics() {
        let path = std::env::temp_dir().join("decisive_federation_lenient.csv");
        std::fs::write(&path, "a,b\n1,2\n1,2,3\n4,5\n").unwrap();
        let r = DriverRegistry::with_defaults();
        let (v, diags) =
            r.load_with_policy("csv", path.to_str().unwrap(), ResolvePolicy::Lenient).unwrap();
        assert_eq!(v.len(), Some(2));
        assert_eq!(diags.len(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn strict_policy_matches_plain_load() {
        let r = DriverRegistry::with_defaults();
        assert!(r
            .load_with_policy("csv", "/definitely/not/here.csv", ResolvePolicy::Strict)
            .is_err());
        assert!(r.load_with_policy("simulink", "x.slx", ResolvePolicy::Strict).is_err());
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
