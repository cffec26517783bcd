//! Supervised fault-campaign integration tests: the checked-in
//! pathological brown-out circuit flips from a conservative warning to a
//! genuine simulated verdict via the recovery ladder, and the campaign
//! circuit breaker trips on modelling bugs.

use decisive_blocks::gallery;
use decisive_circuit::SolverOptions;
use decisive_core::campaign::{CampaignConfig, CaseOutcome};
use decisive_core::fmea::injection::{self, InjectionConfig};
use decisive_core::reliability::{ComponentReliability, FailureModeSpec, ReliabilityDb};
use decisive_core::CoreError;
use decisive_ssam::architecture::{FailureImpact, FailureNature, Fit};

/// Reliability data for the brown-out gallery circuit: a resistor that can
/// drift to twice its value and an MCU with a functional failure.
fn brownout_reliability() -> ReliabilityDb {
    let mut db = ReliabilityDb::new();
    db.insert(ComponentReliability {
        type_key: "Resistor".into(),
        fit: Fit::new(5.0),
        modes: vec![FailureModeSpec {
            name: "Drift".into(),
            nature: FailureNature::Degraded,
            distribution: 1.0,
        }],
    });
    db.insert(ComponentReliability {
        type_key: "MC".into(),
        fit: Fit::new(300.0),
        modes: vec![FailureModeSpec {
            name: "RAM Failure".into(),
            nature: FailureNature::Erroneous,
            distribution: 1.0,
        }],
    });
    db
}

/// Without the ladder, the drifted-resistor case is unsolvable and the row
/// falls back to the conservative verdict the paper-era engine produced.
#[test]
fn without_ladder_the_pathological_case_is_conservative() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let config = InjectionConfig {
        campaign: CampaignConfig {
            solver: SolverOptions::plain_newton_only(),
            ..CampaignConfig::default()
        },
        ..InjectionConfig::default()
    };
    let (table, health) = injection::run_supervised(&diagram, &brownout_reliability(), &config)
        .expect("breaker holds at 50% with 1 of 2 cases failing");
    let row = table
        .rows
        .iter()
        .find(|r| r.component == "R1" && r.failure_mode == "Drift")
        .expect("R1/Drift row");
    assert!(row.safety_related, "unsolvable cases stay conservatively safety-related");
    assert!(
        row.warning.as_deref().unwrap().contains("conservatively safety-related"),
        "warning: {:?}",
        row.warning
    );
    assert_eq!(row.impact, None, "no simulated verdict without a solution");
    assert_eq!(health.unsolvable, 1);
    assert_eq!(health.failed_cases, vec!["R1/Drift".to_string()]);
}

/// The acceptance criterion: with the recovery ladder the same row flips
/// to a genuine simulated verdict carrying `Recovered` diagnostics.
#[test]
fn ladder_flips_pathological_row_to_genuine_verdict() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let (table, health) =
        injection::run_supervised(&diagram, &brownout_reliability(), &InjectionConfig::default())
            .unwrap();
    let row = table
        .rows
        .iter()
        .find(|r| r.component == "R1" && r.failure_mode == "Drift")
        .expect("R1/Drift row");
    // The drifted supply browns the load out: ~2.2 A vs 3.0 A nominal is a
    // genuine 26% deviation, not a conservative guess.
    assert!(row.safety_related);
    assert_eq!(row.impact, Some(FailureImpact::DirectViolation));
    assert!(
        row.warning.as_deref().unwrap().contains("solver recovered via damped-newton"),
        "warning: {:?}",
        row.warning
    );
    // Health: MC1's functional failure converges plainly, R1's drift needs
    // the ladder.
    assert_eq!(health.total, 2);
    assert_eq!(health.converged, 1);
    assert_eq!(health.recovered, 1);
    assert_eq!(health.unsolvable, 0);
    assert_eq!(health.strategy_histogram.get("damped-newton"), Some(&1));
    assert!(health.render().contains("damped-newton x1"));
}

/// A per-case budget too small for anything to converge represents a
/// modelling bug; the campaign breaker must abort instead of emitting a
/// fully conservative (i.e. wrong) table.
#[test]
fn campaign_breaker_aborts_on_mass_unsolvability() {
    let (diagram, _) = gallery::sensor_power_supply();
    let config = InjectionConfig {
        campaign: CampaignConfig {
            max_unsolvable_fraction: 0.25,
            min_cases: 4,
            solver: SolverOptions { budget: 1, ..SolverOptions::default() },
        },
        ..InjectionConfig::default()
    };
    let err = injection::run(&diagram, &ReliabilityDb::paper_table_ii(), &config).unwrap_err();
    match err {
        CoreError::CampaignAborted { failed, total, limit } => {
            assert_eq!(total, 9, "the case study sweeps 9 cases");
            assert!(failed > 2, "with a 1-iteration budget most cases fail, got {failed}");
            assert!((limit - 0.25).abs() < 1e-12);
        }
        other => panic!("expected CampaignAborted, got {other}"),
    }
}

/// With the breaker disabled the same campaign degrades gracefully:
/// conservative rows plus an honest health report.
#[test]
fn disabled_breaker_degrades_gracefully() {
    let (diagram, _) = gallery::sensor_power_supply();
    let config = InjectionConfig {
        campaign: CampaignConfig {
            max_unsolvable_fraction: 1.0,
            min_cases: 4,
            solver: SolverOptions { budget: 1, ..SolverOptions::default() },
        },
        ..InjectionConfig::default()
    };
    let (table, health) =
        injection::run_supervised(&diagram, &ReliabilityDb::paper_table_ii(), &config).unwrap();
    assert_eq!(table.rows.len(), 9);
    assert!(health.unsolvable > 2);
    assert!(health.failure_fraction() > 0.25);
    for case in &health.failed_cases {
        let (component, mode) = case.split_once('/').expect("case label is component/mode");
        let row = table
            .rows
            .iter()
            .find(|r| r.component == component && r.failure_mode == mode)
            .expect("failed case has a row");
        assert!(row.safety_related, "{case} must be conservatively safety-related");
    }
}

/// The healthy case study is untouched by supervision: all nine cases
/// converge plainly and the verdicts pin the paper's Table IV.
#[test]
fn healthy_campaign_is_all_converged() {
    let (diagram, _) = gallery::sensor_power_supply();
    let (table, health) = injection::run_supervised(
        &diagram,
        &ReliabilityDb::paper_table_ii(),
        &InjectionConfig::default(),
    )
    .unwrap();
    assert_eq!(health.total, 9);
    assert_eq!(health.converged, 9);
    assert_eq!(health.recovered, 0);
    assert_eq!(health.unsolvable + health.panicked + health.skipped, 0);
    assert!(health.strategy_histogram.is_empty());
    assert!((table.spfm() - 0.0538).abs() < 5e-4);
}

/// Outcome classification is visible through the public supervised API.
#[test]
fn skipped_cases_are_classified_not_converged() {
    use decisive_blocks::{BlockDiagram, BlockKind, Port};
    let mut diagram = BlockDiagram::new("sw");
    let v = diagram.add_block("V1", BlockKind::DcVoltageSource { volts: 5.0 });
    let g = diagram.add_block("G", BlockKind::Ground);
    diagram.add_block("SW1", BlockKind::Software);
    diagram.connect(v, Port(1), g, Port(0)).unwrap();
    let mut db = ReliabilityDb::new();
    db.insert(ComponentReliability {
        type_key: "Software".into(),
        fit: Fit::new(50.0),
        modes: vec![FailureModeSpec {
            name: "Crash".into(),
            nature: FailureNature::LossOfFunction,
            distribution: 1.0,
        }],
    });
    let (_, health) =
        injection::run_supervised(&diagram, &db, &InjectionConfig::default()).unwrap();
    assert_eq!(health.total, 1);
    assert_eq!(health.skipped, 1);
    assert_eq!(health.converged, 0);
    let _ = CaseOutcome::Skipped; // the classification is part of the API
}

/// The sparse kernel (default) and the dense differential oracle must
/// produce identical campaign verdicts — same rows, same safety
/// classifications, same impacts, same ladder outcomes — on every gallery
/// design, including the pathological brown-out case that exercises the
/// whole recovery ladder.
#[test]
fn dense_and_sparse_kernels_agree_on_every_campaign_verdict() {
    use decisive_circuit::SolverKernel;
    let dense_config = InjectionConfig {
        campaign: CampaignConfig {
            solver: SolverOptions { kernel: SolverKernel::Dense, ..SolverOptions::default() },
            ..CampaignConfig::default()
        },
        ..InjectionConfig::default()
    };
    let cases = [
        (gallery::sensor_power_supply().0, ReliabilityDb::paper_table_ii()),
        (gallery::redundant_power_supply().0, ReliabilityDb::paper_table_ii()),
        (gallery::brownout_threshold_supply().0, brownout_reliability()),
    ];
    for (diagram, db) in &cases {
        let (sparse_table, sparse_health) =
            injection::run_supervised(diagram, db, &InjectionConfig::default()).unwrap();
        let (dense_table, dense_health) =
            injection::run_supervised(diagram, db, &dense_config).unwrap();
        assert_eq!(
            sparse_table.disagreement(&dense_table),
            0.0,
            "kernels disagree on {}",
            diagram.name()
        );
        for (s, d) in sparse_table.rows.iter().zip(dense_table.rows.iter()) {
            assert_eq!(
                s.impact,
                d.impact,
                "{}: {}/{}",
                diagram.name(),
                s.component,
                s.failure_mode
            );
        }
        assert_eq!(sparse_health.converged, dense_health.converged, "{}", diagram.name());
        assert_eq!(sparse_health.recovered, dense_health.recovered, "{}", diagram.name());
        assert_eq!(sparse_health.unsolvable, dense_health.unsolvable, "{}", diagram.name());
    }
}
