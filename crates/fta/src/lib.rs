//! # decisive-fta
//!
//! Fault Tree Analysis for the DECISIVE toolchain — the paper's future-work
//! item 1 ("enhance SAME to include the model-based support for Fault Tree
//! Analysis (FTA) and how FTA and FMEA can be federated for quantitative
//! system safety analysis") and the HiP-HOPS-style *FMEA-from-fault-trees*
//! baseline it is compared against in related work.
//!
//! Provides:
//!
//! * [`FaultTree`] construction with AND/OR/voting gates,
//! * MOCUS minimal cut sets ([`FaultTree::minimal_cut_sets`], or
//!   [`FaultTree::try_minimal_cut_sets`] under a working-set budget),
//! * quantification over mission time ([`FaultTree::quantify`]) with
//!   Fussell-Vesely and Birnbaum importance, or just the top-event
//!   probability of cut sets already in hand
//!   ([`FaultTree::top_probability`], or [`rare_event_probability`] over
//!   cut sets held in another form),
//! * automatic synthesis from SSAM architectures ([`build_fault_tree`]),
//!   using the path-set dual construction, and
//! * [`fmea_from_fault_tree`] — the baseline FMEA generator, shown to agree
//!   with DECISIVE's direct graph FMEA on the paper's case study.
//!
//! ## Example
//!
//! ```
//! use decisive_core::case_study;
//! use decisive_fta::build_fault_tree;
//!
//! # fn main() -> Result<(), decisive_fta::FtaError> {
//! let (model, top) = case_study::ssam_model();
//! let synthesised = build_fault_tree(&model, top, 10_000)?;
//! // Three single-point faults, matching Table IV.
//! assert_eq!(synthesised.tree.single_points().len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod build;
mod cutset;
mod monte_carlo;
mod quant;
mod tree;

pub use build::{build_fault_tree, fmea_from_fault_tree, FtaError, SynthesisedTree};
pub use cutset::{minimise, CutSet, MOCUS_BUDGET};
pub use monte_carlo::MonteCarloResult;
pub use quant::{rare_event_probability, Quantification};
pub use tree::{FaultTree, Gate, Node, NodeId};
