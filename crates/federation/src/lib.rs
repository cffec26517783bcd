//! # decisive-federation
//!
//! Model federation for the DECISIVE toolchain — the Eclipse Epsilon
//! substitute.
//!
//! The paper's central tooling claim (REQ2) is that an SSAM model can act as
//! a *federation model*: its `ExternalReference`s point at heterogeneous
//! models (Excel reliability sheets, Simulink designs, JSON logs, EMF
//! models) and carry machine-executable extraction scripts that pull data
//! out of them during automated safety analysis. This crate provides that
//! machinery:
//!
//! * [`Value`] — the uniform data model every technology is exposed as;
//! * [`csv`] / [`json`] / [`xml`] — self-contained parsers and printers;
//!   [`csv::parse_lenient`] is the one lenient parse, skipping malformed
//!   rows with a [`FederationDiagnostic`] each;
//! * [`eql`] — the extraction/query language (the EOL stand-in);
//! * [`DriverRegistry`] — pluggable per-technology model drivers (`csv`,
//!   `json`, `xml`, `memory`), each with one `load` and one `extract`;
//! * [`store`] — eager (EMF-style, memory-bounded) vs indexed (Hawk-style)
//!   model stores, reproducing the paper's Table VI scalability behaviour.
//!
//! ## Example
//!
//! Resolve an external reference: load a reliability "spreadsheet" and pull
//! one component's FIT out of it.
//!
//! ```
//! use decisive_federation::{DriverRegistry, Value, csv};
//!
//! # fn main() -> Result<(), decisive_federation::FederationError> {
//! let registry = DriverRegistry::with_defaults();
//! registry.memory().register(
//!     "reliability.xlsx",
//!     csv::parse("Component,FIT\nDiode,10\nMC,300\n")?,
//! );
//! let fit = registry.extract(
//!     "memory",
//!     "reliability.xlsx",
//!     "rows.select(r | r.Component = 'Diode').first().FIT",
//! )?;
//! assert_eq!(fit, Value::Int(10));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod csv;
mod driver;
pub mod eql;
mod error;
pub mod json;
pub mod serde_bridge;
pub mod store;
mod value;
pub mod xml;

pub use driver::{CsvDriver, DriverRegistry, JsonDriver, MemoryDriver, ModelDriver, XmlDriver};
pub use error::{DiagnosticKind, FederationDiagnostic, FederationError, Result};
pub use value::Value;
