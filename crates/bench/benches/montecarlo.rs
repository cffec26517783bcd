//! Bench: the Monte-Carlo campaign pass — one verdict sweep plus N
//! trials of arithmetic.
//!
//! The subject is the all-electrical System-B-scale build from the solver
//! bench: 230 blocks that all carry MNA stamps, so the campaign's
//! injection sweep is real solver work rather than bookkeeping. A
//! campaign runs that supervised sweep once (the `injection-fmea` pass)
//! and then re-weights its verdict table under every trial's perturbed
//! reliability draw, which is arithmetic only: the solve count must not
//! depend on the trial count.
//!
//! Measurements:
//!
//! * trials/sec of a cold 1024-trial campaign at scheduler jobs 1/2/4/8,
//!   with the reports required to be bitwise identical across all four
//!   runs (the seeded-RNG determinism contract), split into the sweep's
//!   wall time and the per-trial cost from the jobs-1 run's phase stats;
//! * `solves_per_campaign` at 1 and at 1024 trials, counted through a
//!   recording sink — the two must be equal; and
//! * the workspace-reuse speedup of the sweep: the sparse kernel solves
//!   every injection through a per-worker workspace that reuses the
//!   healthy circuit's symbolic factorization, versus the dense kernel's
//!   fresh full factorization per solve. The acceptance gate is ≥2×, with
//!   both kernels agreeing on the estimates.
//!
//! It prints one `BENCH_mc {...}` JSON line; `mc_ok` is the CI gate and
//! the checked-in `BENCH_mc.json` holds the recorded baseline.
//!
//! Plain `fn main` (`harness = false`), same as the other benches.

use std::time::Instant;

use decisive::blocks::{BlockDiagram, BlockId, BlockKind, Port};
use decisive::circuit::{SolverKernel, SolverOptions};
use decisive::core::campaign::CampaignConfig;
use decisive::core::fmea::injection::InjectionConfig;
use decisive::core::montecarlo::MonteCarloReport;
use decisive::core::reliability::ReliabilityDb;
use decisive::engine::obs::Telemetry;
use decisive::engine::{Engine, EngineConfig};
use decisive::federation::{json, Value};

/// Power rails in the subject; 32 rails + ties + shunts = 230 blocks.
const RAILS: usize = 32;
/// Trials for the scaling sweep: with trials as arithmetic, a campaign
/// this long still costs about one injection sweep.
const SCALING_TRIALS: usize = 1024;
/// Trials for the kernel comparison, which measures the sweep: the dense
/// comparator re-factorises every solve.
const REUSE_TRIALS: usize = 8;
/// Master seed for every campaign in this bench.
const SEED: u64 = 42;
/// Scheduler widths swept for trials/sec.
const JOBS: [usize; 4] = [1, 2, 4, 8];

/// One power rail: `source → diode → inductor → sensor → MCU load`,
/// filter capacitor across the source. Returns the MCU block.
fn add_rail(d: &mut BlockDiagram, prefix: &str, gnd: BlockId) -> BlockId {
    let ok = "static bench wiring";
    let dc = d.add_block(format!("{prefix}_DC"), BlockKind::DcVoltageSource { volts: 5.0 });
    let diode = d.add_block(format!("{prefix}_D"), BlockKind::Diode);
    let ind = d.add_block(format!("{prefix}_L"), BlockKind::Inductor { henries: 1e-3 });
    let cap = d.add_block(format!("{prefix}_C"), BlockKind::Capacitor { farads: 10e-6 });
    let cs = d.add_block(format!("{prefix}_CS"), BlockKind::CurrentSensor);
    let mc = d.add_block(
        format!("{prefix}_MC"),
        BlockKind::Mcu { on_amps: 0.1, brownout_volts: 3.0, fault_amps: 0.02 },
    );
    d.connect(dc, Port(0), diode, Port(0)).expect(ok);
    d.connect(diode, Port(1), ind, Port(0)).expect(ok);
    d.connect(ind, Port(1), cs, Port(0)).expect(ok);
    d.connect(cs, Port(1), mc, Port(0)).expect(ok);
    d.connect(mc, Port(1), gnd, Port(0)).expect(ok);
    d.connect(dc, Port(1), gnd, Port(0)).expect(ok);
    d.connect(cap, Port(0), dc, Port(0)).expect(ok);
    d.connect(cap, Port(1), gnd, Port(0)).expect(ok);
    mc
}

/// The all-electrical System-B-scale subject (230 blocks): cross-tied
/// rails couple the MNA matrix off the tridiagonal, shunts pad the count.
fn electrical_system_b() -> BlockDiagram {
    let ok = "static bench wiring";
    let mut d = BlockDiagram::new("System B (electrical)");
    let gnd = d.add_block("GND", BlockKind::Ground);
    let mcs: Vec<BlockId> = (0..RAILS).map(|i| add_rail(&mut d, &format!("R{i}"), gnd)).collect();
    for i in 0..RAILS - 1 {
        let tie = d.add_block(format!("TIE{i}"), BlockKind::Resistor { ohms: 10.0 });
        d.connect(tie, Port(0), mcs[i], Port(0)).expect(ok);
        d.connect(tie, Port(1), mcs[i + 1], Port(0)).expect(ok);
    }
    let mut shunts = 0;
    while d.blocks().count() < 230 {
        let shunt = d.add_block(format!("SH{shunts}"), BlockKind::Resistor { ohms: 470.0 });
        d.connect(shunt, Port(0), mcs[shunts], Port(0)).expect(ok);
        d.connect(shunt, Port(1), gnd, Port(0)).expect(ok);
        shunts += 1;
    }
    d
}

/// Reliability data covering every electrical block type of the subject.
fn reliability() -> ReliabilityDb {
    ReliabilityDb::from_csv_str(
        "Component,FIT,Failure_Mode,Distribution\n\
         Diode,10,Open,0.3\n\
         Diode,10,Short,0.7\n\
         Capacitor,2,Open,0.3\n\
         Capacitor,2,Short,0.7\n\
         Inductor,15,Open,0.3\n\
         Inductor,15,Short,0.7\n\
         Resistor,5,Open,0.3\n\
         Resistor,5,Short,0.7\n\
         MC,300,RAM Failure,1.0\n",
    )
    .expect("static reliability model parses")
}

fn config(kernel: SolverKernel) -> InjectionConfig {
    InjectionConfig {
        campaign: CampaignConfig {
            solver: SolverOptions { kernel, ..SolverOptions::default() },
            ..CampaignConfig::default()
        },
        ..InjectionConfig::default()
    }
}

/// One cold Monte-Carlo campaign: fresh engine, given scheduler width and
/// kernel. Returns the wall time, the report and the engine (for its
/// phase stats).
fn run_campaign(
    diagram: &BlockDiagram,
    db: &ReliabilityDb,
    jobs: usize,
    kernel: SolverKernel,
    trials: usize,
) -> (f64, MonteCarloReport, Engine) {
    let mut engine = Engine::new(EngineConfig::with_jobs(jobs));
    let t = Instant::now();
    let report = engine
        .analyze_montecarlo(diagram, db, &config(kernel), trials, SEED)
        .expect("campaign completes");
    (t.elapsed().as_secs_f64(), report, engine)
}

/// Circuit solves one cold campaign of `trials` trials performs.
fn solves_per_campaign(diagram: &BlockDiagram, db: &ReliabilityDb, trials: usize) -> u64 {
    let (telemetry, sink) = Telemetry::recording();
    let mut engine = Engine::builder().jobs(2).telemetry(telemetry).build().expect("engine");
    engine
        .analyze_montecarlo(diagram, db, &config(SolverKernel::Sparse), trials, SEED)
        .expect("campaign completes");
    sink.drain().counters.get("solver.solves").copied().unwrap_or(0)
}

fn main() {
    let diagram = electrical_system_b();
    let db = reliability();

    // Trials/sec across scheduler widths, cold engine each time. The
    // determinism contract rides along: all four reports must agree.
    let mut rates = Vec::new();
    let mut reports: Vec<MonteCarloReport> = Vec::new();
    let mut split = (0.0, 0.0);
    for jobs in JOBS {
        let (secs, report, engine) =
            run_campaign(&diagram, &db, jobs, SolverKernel::Sparse, SCALING_TRIALS);
        rates.push(SCALING_TRIALS as f64 / secs);
        reports.push(report);
        if jobs == 1 {
            let wall = |phase: &str| engine.stats().phase(phase).map_or(0.0, |p| p.wall_ms);
            split = (wall("injection-rows"), wall("mc-trials") * 1e3 / SCALING_TRIALS as f64);
        }
    }
    let deterministic = reports.windows(2).all(|pair| pair[0] == pair[1]);
    let (sweep_ms, trial_us) = split;

    // One sweep per campaign, however many trials it draws.
    let solves_1 = solves_per_campaign(&diagram, &db, 1);
    let solves_many = solves_per_campaign(&diagram, &db, SCALING_TRIALS);
    let one_sweep = solves_1 > 0 && solves_1 == solves_many;

    // Workspace reuse versus fresh solves, one worker so the comparison
    // is pure solver cost: the sparse kernel reuses the healthy circuit's
    // factorization through the per-worker workspace, the dense kernel
    // factorises from scratch on every injection.
    let (reuse_s, sparse_report, _) =
        run_campaign(&diagram, &db, 1, SolverKernel::Sparse, REUSE_TRIALS);
    let (fresh_s, dense_report, _) =
        run_campaign(&diagram, &db, 1, SolverKernel::Dense, REUSE_TRIALS);
    let speedup = fresh_s / reuse_s;
    // The kernels must also agree on the stochastic estimates themselves:
    // a fast path that shifts the CI is a regression, not a speedup.
    let kernels_agree = (sparse_report.spfm.mean - dense_report.spfm.mean).abs() < 1e-9
        && (sparse_report.pmhf.mean - dense_report.pmhf.mean).abs() < 1e-15;

    let mc_ok = deterministic && one_sweep && kernels_agree && speedup >= 2.0;

    let summary = Value::record([
        ("blocks", Value::Int(diagram.blocks().count() as i64)),
        ("trials", Value::Int(SCALING_TRIALS as i64)),
        ("seed", Value::Int(SEED as i64)),
        ("cores", Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64)),
        ("trials_per_sec_jobs1", Value::Real(rates[0])),
        ("trials_per_sec_jobs2", Value::Real(rates[1])),
        ("trials_per_sec_jobs4", Value::Real(rates[2])),
        ("trials_per_sec_jobs8", Value::Real(rates[3])),
        ("sweep_ms_jobs1", Value::Real(sweep_ms)),
        ("trial_us_jobs1", Value::Real(trial_us)),
        ("solves_per_campaign_1", Value::Int(solves_1 as i64)),
        ("solves_per_campaign_1024", Value::Int(solves_many as i64)),
        ("reuse_sparse_s", Value::Real(reuse_s)),
        ("fresh_dense_s", Value::Real(fresh_s)),
        ("workspace_reuse_speedup", Value::Real(speedup)),
        ("deterministic_across_jobs", Value::Bool(deterministic)),
        ("one_sweep_per_campaign", Value::Bool(one_sweep)),
        ("kernels_agree", Value::Bool(kernels_agree)),
        ("mc_ok", Value::Bool(mc_ok)),
    ]);
    println!("BENCH_mc {}", json::to_string(&summary));
}
