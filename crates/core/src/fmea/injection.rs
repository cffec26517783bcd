//! Fault-injection FMEA over block-diagram models — the paper's §IV-D1
//! automated FMEA: *initialise* (record sensor readings), *iterate
//! components × failure modes* (inject, re-simulate, compare against a
//! threshold), *output* the component safety analysis model.
//!
//! The sweep is written once, as [`validate`], [`nominal`] and
//! [`analyse_candidate_supervised`]. [`run`] and [`run_supervised`] call
//! them in order on the caller's thread — the sequential reference — and
//! `decisive-engine`'s injection pass calls the same three, caching each
//! candidate's row and analysing the misses on its worker pool.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use decisive_blocks::{to_circuit, BlockDiagram, BlockKind, LoweredCircuit};
use decisive_circuit::{Fault, SolverOptions, SolverWorkspace};
use decisive_ssam::architecture::{Coverage, FailureNature};

use crate::campaign::{CampaignConfig, CampaignHealth, CaseOutcome, CaseReport};
use crate::error::{CoreError, Result};
use crate::fmea::{FmeaRow, FmeaTable};
use crate::reliability::{FailureModeSpec, ReliabilityDb};

/// Configuration of the injection engine.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionConfig {
    /// Relative sensor-reading deviation above which a failure mode is
    /// classified safety-related. The comparison is symmetric:
    /// `|after − before| / max(|before|, |after|)`.
    pub threshold: f64,
    /// Campaign supervision: per-case solver budget and the
    /// unsolvable-rate circuit breaker.
    pub campaign: CampaignConfig,
}

impl Default for InjectionConfig {
    fn default() -> Self {
        InjectionConfig { threshold: 0.2, campaign: CampaignConfig::default() }
    }
}

/// Runs the fault-injection FMEA on `diagram` using `reliability` data.
///
/// Every block whose [`BlockKind::type_key`] has a reliability entry is
/// analysed; blocks without reliability data (including sources assumed
/// stable, like the case study's `DC1`) are skipped, mirroring the paper's
/// analysis scope.
///
/// # Errors
///
/// Returns [`CoreError::Diagram`] when the diagram cannot be lowered,
/// [`CoreError::Simulation`] when the *nominal* simulation fails, and
/// [`CoreError::InvalidParameter`] for a non-positive threshold. A failing
/// *post-injection* simulation is not an error: the mode is conservatively
/// classified safety-related with a warning — unless so many cases fail
/// that the campaign breaker trips ([`CoreError::CampaignAborted`]).
pub fn run(
    diagram: &BlockDiagram,
    reliability: &ReliabilityDb,
    config: &InjectionConfig,
) -> Result<FmeaTable> {
    run_supervised(diagram, reliability, config).map(|(table, _)| table)
}

/// Like [`run`], additionally returning the [`CampaignHealth`] report of
/// the supervised sweep.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_supervised(
    diagram: &BlockDiagram,
    reliability: &ReliabilityDb,
    config: &InjectionConfig,
) -> Result<(FmeaTable, CampaignHealth)> {
    validate(config)?;
    // Step 1 — Initialise: the fault-free sensor readings.
    let (lowered, readings) = nominal(diagram, config)?;
    // Step 2 — Iterate components and failure modes.
    let (rows, reports): (Vec<FmeaRow>, Vec<CaseReport>) = candidates(diagram, reliability)
        .iter()
        .map(|c| analyse_candidate_supervised(c, &lowered, &readings, config))
        .unzip();
    let health = CampaignHealth::from_reports(&reports);
    health.enforce(&config.campaign)?;

    // Step 3 — Output the component safety analysis model.
    let mut table = FmeaTable::new(diagram.name());
    for row in rows {
        table.push(row);
    }
    Ok((table, health))
}

/// Checks `config` before anything is simulated: the threshold must be
/// positive and finite, and the campaign breaker fraction in `[0, 1]`.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] naming the offending value.
pub fn validate(config: &InjectionConfig) -> Result<()> {
    if !(config.threshold > 0.0 && config.threshold.is_finite()) {
        return Err(CoreError::InvalidParameter {
            message: format!("threshold must be positive and finite, got {}", config.threshold),
        });
    }
    config.campaign.validate()
}

/// Step 1 of the sweep — initialise: lowers `diagram` and records the
/// fault-free reading of every sensor. The nominal solve uses the
/// configured kernel but the full default recovery ladder: a healthy
/// circuit that needs a trimmed ladder is a modelling error the campaign
/// should surface, not paper over.
///
/// # Errors
///
/// [`CoreError::Diagram`] when the diagram cannot be lowered,
/// [`CoreError::Simulation`] when the nominal solve fails.
pub fn nominal(
    diagram: &BlockDiagram,
    config: &InjectionConfig,
) -> Result<(LoweredCircuit, Vec<(decisive_circuit::ElementId, f64)>)> {
    let lowered = to_circuit(diagram)?;
    let options =
        SolverOptions { kernel: config.campaign.solver.kernel, ..SolverOptions::default() };
    let (solution, _) = SolverWorkspace::new().dc(&lowered.circuit, &options)?;
    let readings = lowered.circuit.all_sensor_readings(&solution)?;
    Ok((lowered, readings))
}

/// One injectable `(block, failure mode)` pair of the sweep — the unit of
/// work the engine's injection pass caches and schedules independently.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The block to inject into.
    pub block: decisive_blocks::BlockId,
    /// Block instance name.
    pub name: String,
    /// Reliability type key.
    pub type_key: String,
    /// The block's total FIT.
    pub fit: decisive_ssam::architecture::Fit,
    /// Block kind (drives the electrical fault interpretation).
    pub kind: BlockKind,
    /// The failure mode to inject.
    pub mode: FailureModeSpec,
}

/// Enumerates the injection candidates of `diagram`: every failure mode of
/// every block whose [`BlockKind::type_key`] has a reliability entry, in
/// block order.
pub fn candidates(diagram: &BlockDiagram, reliability: &ReliabilityDb) -> Vec<Candidate> {
    diagram
        .blocks()
        .filter_map(|(id, block)| {
            let type_key = block.kind.type_key()?;
            let entry = reliability.get(type_key)?;
            Some(entry.modes.iter().map(move |mode| Candidate {
                block: id,
                name: block.name.clone(),
                type_key: type_key.to_owned(),
                fit: entry.fit,
                kind: block.kind.clone(),
                mode: mode.clone(),
            }))
        })
        .flatten()
        .collect()
}

thread_local! {
    /// Per-thread solver workspace for [`analyse_candidate_supervised`]:
    /// the sweep calls it for every case on one thread, and the engine's
    /// `run_keyed` pool from long-lived worker threads, so a thread-local
    /// gives each thread factorization-buffer and layout reuse across
    /// every case it analyses.
    static WORKER_WORKSPACE: RefCell<SolverWorkspace> = RefCell::new(SolverWorkspace::new());
}

/// Analyses one candidate under full supervision: the analysis body runs
/// inside `catch_unwind` so a panic poisons only this row, the solve runs
/// the configured recovery ladder, and the returned [`CaseReport`]
/// classifies how the case ended (with wall-clock and iteration cost).
/// `lowered` and `nominal` are what [`nominal`] returned for the
/// candidate's own diagram.
///
/// Solves through a per-thread [`SolverWorkspace`], so repeated calls on
/// one thread reuse symbolic layouts and factorization buffers. Workspace
/// reuse never changes results — solves are bit-identical to a fresh
/// workspace.
pub fn analyse_candidate_supervised(
    candidate: &Candidate,
    lowered: &LoweredCircuit,
    nominal: &[(decisive_circuit::ElementId, f64)],
    config: &InjectionConfig,
) -> (FmeaRow, CaseReport) {
    let start = Instant::now();
    let case = format!("{}/{}", candidate.name, candidate.mode.name);
    let result = WORKER_WORKSPACE.with(|ws| {
        let mut workspace = ws.borrow_mut();
        catch_unwind(AssertUnwindSafe(|| {
            analyse_candidate_inner(
                &mut workspace,
                candidate,
                lowered,
                nominal,
                config.threshold,
                &config.campaign.solver,
            )
        }))
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok((row, outcome, iterations)) => (row, CaseReport { case, outcome, iterations, wall_ms }),
        Err(_) => {
            let mut row = blank_row(candidate);
            row.safety_related = true;
            row.warning =
                Some("candidate analysis panicked; conservatively safety-related".to_owned());
            (row, CaseReport { case, outcome: CaseOutcome::Panicked, iterations: 0, wall_ms })
        }
    }
}

/// A row shell carrying the candidate's identity before any verdict.
fn blank_row(candidate: &Candidate) -> FmeaRow {
    FmeaRow {
        component: candidate.name.clone(),
        type_key: Some(candidate.type_key.clone()),
        fit: candidate.fit,
        failure_mode: candidate.mode.name.clone(),
        nature: candidate.mode.nature.clone(),
        distribution: candidate.mode.distribution,
        safety_related: false,
        impact: None,
        mechanism: None,
        coverage: Coverage::NONE,
        warning: None,
    }
}

/// The analysis body: returns the row plus the outcome classification and
/// Newton-iteration cost for the campaign supervisor.
fn analyse_candidate_inner(
    workspace: &mut SolverWorkspace,
    candidate: &Candidate,
    lowered: &LoweredCircuit,
    nominal: &[(decisive_circuit::ElementId, f64)],
    threshold: f64,
    solver: &SolverOptions,
) -> (FmeaRow, CaseOutcome, usize) {
    let mut row = blank_row(candidate);
    let Some(element) = lowered.element(candidate.block) else {
        row.warning = Some(format!(
            "block `{}` ({}) is not simulatable; failure mode not injected",
            candidate.name,
            candidate.kind.tag()
        ));
        return (row, CaseOutcome::Skipped, 0);
    };
    let Some(fault) = fault_for(&candidate.kind, &candidate.mode) else {
        row.warning = Some(format!(
            "no electrical interpretation for failure mode `{}` on a {}",
            candidate.mode.name,
            candidate.kind.tag()
        ));
        return (row, CaseOutcome::Skipped, 0);
    };
    let faulted = match lowered.circuit.with_fault(element, fault) {
        Ok(c) => c,
        Err(e) => {
            row.safety_related = true;
            row.warning =
                Some(format!("fault injection failed ({e}); conservatively safety-related"));
            return (row, CaseOutcome::Unsolvable { reason: e.to_string() }, 0);
        }
    };
    match workspace.dc(&faulted, solver) {
        Ok((solution, diagnostics)) => {
            let deviates = nominal.iter().any(|&(sensor, before)| {
                let after = faulted.sensor_reading(&solution, sensor).unwrap_or(f64::NAN);
                relative_deviation(before, after) > threshold
            });
            row.safety_related = deviates;
            // Single-fault injection observes direct violations only: a
            // deviating reading is a DVF; a clean reading shows no
            // single-fault effect (dual-fault IVFs need the graph engine's
            // topology view or modelled effects).
            row.impact = Some(if deviates {
                decisive_ssam::architecture::FailureImpact::DirectViolation
            } else {
                decisive_ssam::architecture::FailureImpact::NoEffect
            });
            let outcome = if diagnostics.recovered() {
                row.warning = Some(format!(
                    "solver recovered via {} ({} rungs, {} iterations)",
                    diagnostics.strategy, diagnostics.rungs, diagnostics.iterations
                ));
                CaseOutcome::Recovered { strategy: diagnostics.strategy.to_string() }
            } else {
                CaseOutcome::Converged
            };
            (row, outcome, diagnostics.iterations)
        }
        Err(e) => {
            row.safety_related = true;
            row.warning = Some(format!(
                "post-injection simulation failed ({e}); conservatively safety-related"
            ));
            (row, CaseOutcome::Unsolvable { reason: e.to_string() }, 0)
        }
    }
}

/// Symmetric relative deviation between two readings.
fn relative_deviation(before: f64, after: f64) -> f64 {
    if !after.is_finite() {
        return f64::INFINITY;
    }
    let denom = before.abs().max(after.abs()).max(1e-12);
    (after - before).abs() / denom
}

/// Maps a failure mode to the electrical fault to inject.
fn fault_for(kind: &BlockKind, mode: &FailureModeSpec) -> Option<Fault> {
    let lower = mode.name.to_ascii_lowercase();
    if lower.contains("open") {
        return Some(Fault::Open);
    }
    if lower.contains("short") {
        return Some(Fault::Short);
    }
    if matches!(kind, BlockKind::Mcu { .. }) {
        // Functional failures of behavioural loads (RAM failures, lockups).
        return Some(Fault::Functional);
    }
    if matches!(mode.nature, FailureNature::Degraded) {
        return Some(Fault::ParamScale(2.0));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_blocks::gallery;

    fn run_case_study() -> FmeaTable {
        let (diagram, _) = gallery::sensor_power_supply();
        run(&diagram, &ReliabilityDb::paper_table_ii(), &InjectionConfig::default()).unwrap()
    }

    /// The headline case-study result: safety-related components are
    /// exactly D1, L1 and MC1 (paper §V-A / Table IV).
    #[test]
    fn case_study_safety_related_components_match_paper() {
        let table = run_case_study();
        let sr: Vec<_> = table.safety_related_components().into_iter().collect();
        assert_eq!(sr, vec!["D1", "L1", "MC1"]);
    }

    /// Per-row verdicts of Table IV: opens flagged, shorts not.
    #[test]
    fn case_study_row_verdicts() {
        let table = run_case_study();
        let verdict = |component: &str, mode: &str| {
            table
                .rows
                .iter()
                .find(|r| r.component == component && r.failure_mode == mode)
                .unwrap_or_else(|| panic!("missing row {component}/{mode}"))
                .safety_related
        };
        assert!(verdict("D1", "Open"));
        assert!(!verdict("D1", "Short"));
        assert!(verdict("L1", "Open"));
        assert!(!verdict("L1", "Short"));
        assert!(verdict("MC1", "RAM Failure"));
        assert!(!verdict("C1", "Open"));
        assert!(!verdict("C1", "Short"));
        assert!(!verdict("C2", "Open"));
        assert!(!verdict("C2", "Short"));
    }

    /// SPFM of the unrefined design: 5.38 % (paper §V-A).
    #[test]
    fn case_study_spfm_matches_paper() {
        let table = run_case_study();
        assert!((table.spfm() - 0.0538).abs() < 5e-4, "spfm = {}", table.spfm());
    }

    #[test]
    fn analysis_scope_is_reliability_driven() {
        let table = run_case_study();
        // DC1 (assumed stable), GND1, CS1 and the simulation blocks have no
        // reliability entries and must not appear.
        for absent in ["DC1", "GND1", "CS1", "S1", "Scope1", "Out1"] {
            assert!(
                table.rows.iter().all(|r| r.component != absent),
                "{absent} should not be analysed"
            );
        }
        assert_eq!(table.rows.len(), 9, "D1×2, L1×2, C1×2, C2×2, MC1×1");
    }

    #[test]
    fn bad_threshold_is_rejected() {
        let (diagram, _) = gallery::sensor_power_supply();
        let db = ReliabilityDb::paper_table_ii();
        let config = InjectionConfig { threshold: 0.0, ..InjectionConfig::default() };
        assert!(matches!(run(&diagram, &db, &config), Err(CoreError::InvalidParameter { .. })));
    }

    #[test]
    fn non_simulatable_blocks_get_warnings() {
        let mut diagram = BlockDiagram::new("sw");
        let v = diagram.add_block("V1", BlockKind::DcVoltageSource { volts: 5.0 });
        let g = diagram.add_block("G", BlockKind::Ground);
        diagram.add_block("SW1", BlockKind::Software);
        diagram.connect(v, decisive_blocks::Port(1), g, decisive_blocks::Port(0)).unwrap();
        let mut db = ReliabilityDb::new();
        db.insert(crate::reliability::ComponentReliability {
            type_key: "Software".into(),
            fit: decisive_ssam::architecture::Fit::new(50.0),
            modes: vec![FailureModeSpec {
                name: "Crash".into(),
                nature: FailureNature::LossOfFunction,
                distribution: 1.0,
            }],
        });
        let table = run(&diagram, &db, &InjectionConfig::default()).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0].warning.as_deref().unwrap().contains("not simulatable"));
        assert!(!table.rows[0].safety_related);
    }

    #[test]
    fn relative_deviation_edges() {
        assert_eq!(relative_deviation(0.1, 0.1), 0.0);
        assert!((relative_deviation(0.1, 0.0) - 1.0).abs() < 1e-12);
        assert!(relative_deviation(0.0, 0.0) < 1e-9);
        assert!(relative_deviation(0.1, f64::NAN).is_infinite());
    }
}
