//! Monte-Carlo sampling over the reliability model — the stochastic
//! counterpart of the point-estimate pipeline.
//!
//! The paper's Table II states component FITs and failure-mode shares as
//! single numbers, but handbook failure rates are order-of-magnitude
//! estimates. Following Nagy et al.'s simulation-based safety assessment,
//! this module perturbs the [`ReliabilityDb`] per trial — lognormal noise
//! on each type's FIT, Dirichlet-style noise on its mode shares — so N
//! trials yield a mean and 95 % confidence interval on SPFM/LFM/PMHF
//! instead of a point estimate.
//!
//! The perturbation never touches the circuit, and an injection verdict
//! depends only on the circuit, the block and the failure mode. A
//! campaign therefore simulates once: each trial [`reweight`]s the one
//! verdict table with its drawn numbers, which is pure arithmetic.
//!
//! Determinism contract: every sampling decision is driven by a
//! [`StdRng`] seeded from [`mix`]`(master_seed, trial_index)`, and the
//! database is traversed in sorted type-key order. Trial *i* therefore
//! draws the same perturbed database no matter which scheduler worker
//! runs it, which thread count is configured, or whether the artifact
//! cache is warm — the report is bitwise identical across all of them.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use decisive_ssam::architecture::Fit;

use crate::error::{CoreError, Result};
use crate::fmea::injection::Candidate;
use crate::fmea::{FmeaRow, FmeaTable};
use crate::metrics;
use crate::reliability::{ComponentReliability, ReliabilityDb};

/// Lognormal σ applied to each type's FIT: `FIT′ = FIT·exp(σ·z)`. At 0.25
/// the 95 % band spans roughly ±40 % of the nominal rate — the spread of
/// a handbook estimate, not a measured one.
pub const FIT_SIGMA: f64 = 0.25;

/// Lognormal σ applied to each mode share before renormalisation — the
/// Dirichlet-style perturbation of the share vector.
pub const SHARE_SIGMA: f64 = 0.25;

/// Default trial count when a request does not specify one.
pub const DEFAULT_TRIALS: usize = 128;

/// Derives the per-trial RNG seed from the campaign master seed — a
/// splitmix64-style finalizer, so neighbouring trial indices land in
/// unrelated parts of the stream. Trial identity, not worker identity,
/// decides the draw; this is what makes the report thread-count
/// independent.
pub fn mix(master_seed: u64, trial: u64) -> u64 {
    let mut z = master_seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One standard-normal draw via Box–Muller from two uniforms. The first
/// uniform is reflected into `(0, 1]` so the logarithm stays finite.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A multiplicative lognormal noise factor `exp(σ·z)`, always positive.
fn lognormal_factor<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    (sigma * standard_normal(rng)).exp()
}

/// Draws one perturbed copy of `db`: every type's FIT is scaled by a
/// lognormal factor and its mode shares are jittered multiplicatively,
/// then renormalised back to the type's original share sum (so a
/// deliberately partial allocation stays partial). Types are visited in
/// sorted key order, making the draw independent of `HashMap` iteration
/// order.
pub fn perturb<R: Rng>(db: &ReliabilityDb, rng: &mut R) -> ReliabilityDb {
    let mut entries: Vec<&ComponentReliability> = db.iter().collect();
    entries.sort_by(|a, b| a.type_key.cmp(&b.type_key));
    let mut out = ReliabilityDb::new();
    for entry in entries {
        let fit = entry.fit.value() * lognormal_factor(rng, FIT_SIGMA);
        let mut modes = entry.modes.clone();
        if modes.len() > 1 {
            let original: f64 = modes.iter().map(|m| m.distribution).sum();
            let weights: Vec<f64> =
                modes.iter().map(|m| m.distribution * lognormal_factor(rng, SHARE_SIGMA)).collect();
            let total: f64 = weights.iter().sum();
            if total > 0.0 && original > 0.0 {
                for (mode, w) in modes.iter_mut().zip(&weights) {
                    mode.distribution = w / total * original;
                }
            }
        }
        out.insert(ComponentReliability {
            type_key: entry.type_key.clone(),
            fit: Fit::new(fit),
            modes,
        });
    }
    out
}

/// The RNG for one trial, seeded from the campaign master seed and the
/// trial index only.
pub fn trial_rng(master_seed: u64, trial: usize) -> StdRng {
    StdRng::seed_from_u64(mix(master_seed, trial as u64))
}

/// Stamps `candidate`'s reliability numbers — its block FIT and its mode's
/// share — onto the verdict `row` of the same `(component, mode)`.
///
/// This is the one place that encodes "verdicts do not depend on
/// reliability numbers": an injection verdict depends only on the
/// circuit, the block and the failure mode, so a row computed under one
/// reliability model is the row of any other once re-stamped. The
/// injection pass re-stamps cached rows with it, and every Monte-Carlo
/// trial re-weights one verdict table with it instead of re-simulating.
///
/// # Errors
///
/// [`CoreError::VerdictMismatch`] when the row is not the candidate's.
pub fn restamp(row: &mut FmeaRow, candidate: &Candidate, index: usize) -> Result<()> {
    if row.component != candidate.name || row.failure_mode != candidate.mode.name {
        return Err(CoreError::VerdictMismatch {
            row: index,
            verdict: format!("{}/{}", row.component, row.failure_mode),
            candidate: format!("{}/{}", candidate.name, candidate.mode.name),
        });
    }
    row.fit = candidate.fit;
    row.distribution = candidate.mode.distribution;
    Ok(())
}

/// Re-weights a verdict table, in place, under another reliability model:
/// row `i` is [`restamp`]ed from `candidates[i]` — the injection
/// candidates of the same diagram under that model, in sweep order. Every
/// row is overwritten, so one working copy serves any number of trials.
///
/// # Errors
///
/// [`CoreError::VerdictMismatch`] when the lengths differ or a row is not
/// its candidate's.
pub fn reweight(table: &mut FmeaTable, candidates: &[Candidate]) -> Result<()> {
    if table.rows.len() != candidates.len() {
        let row = table.rows.len().min(candidates.len());
        let label = |r: &FmeaRow| format!("{}/{}", r.component, r.failure_mode);
        return Err(CoreError::VerdictMismatch {
            row,
            verdict: table.rows.get(row).map_or_else(|| "-".to_owned(), label),
            candidate: candidates
                .get(row)
                .map_or_else(|| "-".to_owned(), |c| format!("{}/{}", c.name, c.mode.name)),
        });
    }
    for (i, (row, candidate)) in table.rows.iter_mut().zip(candidates).enumerate() {
        restamp(row, candidate, i)?;
    }
    Ok(())
}

/// The architecture metrics of one Monte-Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialMetrics {
    /// Single-point fault metric of the trial's FMEA table.
    pub spfm: f64,
    /// Latent fault metric.
    pub lfm: f64,
    /// Probabilistic metric for random hardware failures, per hour.
    pub pmhf: f64,
}

impl TrialMetrics {
    /// Reads the three metrics off a trial's FMEA table.
    pub fn of(table: &FmeaTable) -> TrialMetrics {
        TrialMetrics { spfm: table.spfm(), lfm: table.lfm(), pmhf: metrics::pmhf(table) }
    }
}

/// A mean with its 95 % confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiEstimate {
    /// Sample mean over the trials.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval: `1.96·s/√N` with the
    /// sample standard deviation `s`; `0` for fewer than two trials.
    pub half_width: f64,
}

impl CiEstimate {
    /// Estimates mean and 95 % half-width from per-trial samples,
    /// accumulating in slice order so the result is reproducible.
    pub fn from_samples(samples: &[f64]) -> CiEstimate {
        let n = samples.len();
        if n == 0 {
            return CiEstimate { mean: f64::NAN, half_width: f64::NAN };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return CiEstimate { mean, half_width: 0.0 };
        }
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64;
        CiEstimate { mean, half_width: 1.96 * (var / n as f64).sqrt() }
    }

    /// Lower bound of the interval.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }
}

/// The report of a Monte-Carlo campaign: interval estimates for the three
/// architecture metrics, plus enough identity (seed, trial count) to
/// reproduce it bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloReport {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Master seed the campaign was keyed on.
    pub seed: u64,
    /// SPFM interval estimate.
    pub spfm: CiEstimate,
    /// LFM interval estimate.
    pub lfm: CiEstimate,
    /// PMHF interval estimate (per hour).
    pub pmhf: CiEstimate,
}

impl MonteCarloReport {
    /// Aggregates per-trial metrics (in trial-index order) into interval
    /// estimates.
    pub fn from_trials(seed: u64, samples: &[TrialMetrics]) -> MonteCarloReport {
        let collect = |f: fn(&TrialMetrics) -> f64| {
            let values: Vec<f64> = samples.iter().map(f).collect();
            CiEstimate::from_samples(&values)
        };
        MonteCarloReport {
            trials: samples.len(),
            seed,
            spfm: collect(|t| t.spfm),
            lfm: collect(|t| t.lfm),
            pmhf: collect(|t| t.pmhf),
        }
    }

    /// Text rendering in the CLI's `# `-commented report style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# montecarlo: {} trial(s), seed {}", self.trials, self.seed);
        let _ = writeln!(
            out,
            "# SPFM {:6.2}% +/- {:.2}pp  [{:.2}%, {:.2}%] 95% CI",
            self.spfm.mean * 100.0,
            self.spfm.half_width * 100.0,
            self.spfm.lower() * 100.0,
            self.spfm.upper() * 100.0,
        );
        let _ = writeln!(
            out,
            "# LFM  {:6.2}% +/- {:.2}pp  [{:.2}%, {:.2}%] 95% CI",
            self.lfm.mean * 100.0,
            self.lfm.half_width * 100.0,
            self.lfm.lower() * 100.0,
            self.lfm.upper() * 100.0,
        );
        let _ = writeln!(
            out,
            "# PMHF {:.3e}/h +/- {:.1e}  [{:.3e}, {:.3e}] 95% CI",
            self.pmhf.mean,
            self.pmhf.half_width,
            self.pmhf.lower(),
            self.pmhf.upper(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmea::injection::{self, InjectionConfig};
    use decisive_blocks::gallery;
    use proptest::prelude::*;

    /// The case-study supply's verdict table under Table II, and its
    /// diagram.
    fn case_study_verdicts() -> (decisive_blocks::BlockDiagram, FmeaTable) {
        let (diagram, _) = gallery::sensor_power_supply();
        let table =
            injection::run(&diagram, &ReliabilityDb::paper_table_ii(), &InjectionConfig::default())
                .expect("case-study sweep");
        (diagram, table)
    }

    /// Every Table II FIT scaled by `factor`; shares untouched.
    fn scaled_fits(db: &ReliabilityDb, factor: f64) -> ReliabilityDb {
        let mut out = ReliabilityDb::new();
        for entry in db.iter() {
            out.insert(ComponentReliability {
                fit: Fit::new(entry.fit.value() * factor),
                ..entry.clone()
            });
        }
        out
    }

    #[test]
    fn reweighting_equals_re_simulating_a_drawn_model() {
        let (diagram, verdicts) = case_study_verdicts();
        let db = ReliabilityDb::paper_table_ii();
        for trial in 0..8 {
            let drawn = perturb(&db, &mut trial_rng(3, trial));
            let mut reweighted = verdicts.clone();
            reweight(&mut reweighted, &injection::candidates(&diagram, &drawn)).expect("aligned");
            let simulated = injection::run(&diagram, &drawn, &InjectionConfig::default()).unwrap();
            assert_eq!(reweighted, simulated, "trial {trial}");
        }
    }

    #[test]
    fn misaligned_candidates_are_a_typed_error() {
        let (diagram, mut verdicts) = case_study_verdicts();
        let mut candidates = injection::candidates(&diagram, &ReliabilityDb::paper_table_ii());
        candidates.swap(0, 1);
        let err = reweight(&mut verdicts, &candidates).unwrap_err();
        assert!(matches!(err, CoreError::VerdictMismatch { row: 0, .. }), "{err}");
        candidates.truncate(3);
        let err = reweight(&mut verdicts, &candidates).unwrap_err();
        match err {
            CoreError::VerdictMismatch { row, candidate, .. } => {
                assert_eq!((row, candidate.as_str()), (3, "-"));
            }
            other => panic!("expected a verdict mismatch, got {other}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Eq. 1 is homogeneous of degree zero in the FITs and PMHF of
        /// degree one: scaling every FIT by 2^k (exact in binary floating
        /// point) leaves SPFM and LFM bit-identical and scales PMHF by
        /// exactly 2^k, on any drawn model.
        #[test]
        fn scaling_every_fit_by_a_power_of_two_scales_only_pmhf(
            k in -16i32..=16,
            trial in 0usize..64,
        ) {
            let (diagram, verdicts) = case_study_verdicts();
            let drawn = perturb(&ReliabilityDb::paper_table_ii(), &mut trial_rng(9, trial));
            let factor = 2f64.powi(k);
            let metrics = |db: &ReliabilityDb| {
                let mut table = verdicts.clone();
                reweight(&mut table, &injection::candidates(&diagram, db)).expect("aligned");
                TrialMetrics::of(&table)
            };
            let base = metrics(&drawn);
            let scaled = metrics(&scaled_fits(&drawn, factor));
            prop_assert_eq!(scaled.spfm.to_bits(), base.spfm.to_bits());
            prop_assert_eq!(scaled.lfm.to_bits(), base.lfm.to_bits());
            prop_assert_eq!(scaled.pmhf.to_bits(), (base.pmhf * factor).to_bits());
        }
    }

    #[test]
    fn mix_separates_neighbouring_trials() {
        let a = mix(42, 0);
        let b = mix(42, 1);
        assert_ne!(a, b);
        // Different master seeds diverge even on trial 0.
        assert_ne!(mix(42, 0), mix(43, 0));
        // And the map is deterministic.
        assert_eq!(mix(42, 7), mix(42, 7));
    }

    #[test]
    fn perturb_is_seed_deterministic_and_order_independent() {
        let db = ReliabilityDb::paper_table_ii();
        let a = perturb(&db, &mut trial_rng(7, 3));
        let b = perturb(&db, &mut trial_rng(7, 3));
        assert_eq!(a, b, "same seed, same draw");
        let c = perturb(&db, &mut trial_rng(7, 4));
        assert_ne!(a, c, "different trials draw differently");
    }

    #[test]
    fn perturb_preserves_share_budget_and_positivity() {
        let db = ReliabilityDb::paper_table_ii();
        for trial in 0..64 {
            let drawn = perturb(&db, &mut trial_rng(11, trial));
            for entry in drawn.iter() {
                assert!(entry.fit.value() > 0.0);
                let original: f64 =
                    db.get(&entry.type_key).unwrap().modes.iter().map(|m| m.distribution).sum();
                let sum: f64 = entry.modes.iter().map(|m| m.distribution).sum();
                assert!(
                    (sum - original).abs() < 1e-9,
                    "{}: share sum drifted {original} -> {sum}",
                    entry.type_key
                );
                for mode in &entry.modes {
                    assert!(mode.distribution > 0.0 && mode.distribution <= 1.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn fit_noise_is_centred_on_the_nominal_rate() {
        let db = ReliabilityDb::paper_table_ii();
        let nominal = db.get("Diode").unwrap().fit.value();
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|t| perturb(&db, &mut trial_rng(1, t)).get("Diode").unwrap().fit.value())
            .sum::<f64>()
            / n as f64;
        // Lognormal mean is nominal·exp(σ²/2) ≈ nominal·1.032 at σ=0.25.
        let expected = nominal * (FIT_SIGMA * FIT_SIGMA / 2.0).exp();
        assert!((mean - expected).abs() / expected < 0.05, "mean {mean}, expected ≈{expected}");
    }

    #[test]
    fn ci_estimate_shrinks_with_sample_count() {
        let draws: Vec<f64> = (0..1024)
            .map(|t| {
                let mut rng = trial_rng(5, t);
                standard_normal(&mut rng)
            })
            .collect();
        let small = CiEstimate::from_samples(&draws[..64]);
        let large = CiEstimate::from_samples(&draws);
        assert!(large.half_width < small.half_width);
        assert!(small.lower() <= small.mean && small.mean <= small.upper());
    }

    #[test]
    fn ci_estimate_edge_cases() {
        let empty = CiEstimate::from_samples(&[]);
        assert!(empty.mean.is_nan());
        let single = CiEstimate::from_samples(&[0.5]);
        assert_eq!(single.mean, 0.5);
        assert_eq!(single.half_width, 0.0);
    }

    #[test]
    fn report_aggregates_in_trial_order() {
        let samples = vec![
            TrialMetrics { spfm: 0.9, lfm: 0.8, pmhf: 1e-7 },
            TrialMetrics { spfm: 0.95, lfm: 0.85, pmhf: 2e-7 },
        ];
        let report = MonteCarloReport::from_trials(9, &samples);
        assert_eq!(report.trials, 2);
        assert_eq!(report.seed, 9);
        assert!((report.spfm.mean - 0.925).abs() < 1e-12);
        let again = MonteCarloReport::from_trials(9, &samples);
        assert_eq!(report, again, "aggregation is bitwise reproducible");
    }
}
