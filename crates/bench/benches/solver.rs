//! Bench: the sparse MNA kernel with factorization reuse versus the dense
//! oracle, at System-B scale (ISSUE 9).
//!
//! The workload generator's System B carries the paper's published 230
//! *design* elements, but most are scope taps and software blocks with no
//! electrical footprint — its MNA matrix is tiny. This bench builds a
//! System-B-sized subject whose 230 blocks are **all electrical**: 32
//! power rails (source → diode → inductor → sensor → MCU load, with a
//! filter capacitor) cross-tied and shunted by resistors, lowering to an
//! MNA system of a couple hundred unknowns — the matrix size the sparse
//! kernel exists for.
//!
//! Three measurements, both kernels:
//!
//! * the healthy DC operating point (min over repeats),
//! * the full single-fault injection campaign, on one worker so the
//!   comparison is pure solver cost, with the same iteration budget for
//!   both kernels (an uneven cap would bias the wall-clock), and
//! * the marginal per-injection cost of the sparse campaign.
//!
//! It prints one `BENCH_solver {...}` JSON line; `solver_ok` (the sparse
//! campaign beats the dense one by the acceptance criterion's ≥5×, with
//! identical verdicts) is the CI gate, and the checked-in
//! `BENCH_solver.json` holds the first recorded baseline.
//!
//! Plain `fn main` (`harness = false`), same as the other benches:
//! minima over repeated runs are stable enough without Criterion.

use std::time::Instant;

use decisive::blocks::{to_circuit, BlockDiagram, BlockId, BlockKind, Port};
use decisive::circuit::{SolverKernel, SolverOptions};
use decisive::core::campaign::CampaignConfig;
use decisive::core::fmea::injection::{self, InjectionConfig};
use decisive::core::reliability::ReliabilityDb;
use decisive::federation::{json, Value};

/// Power rails in the subject; 32 rails + ties + shunts = 230 blocks.
const RAILS: usize = 32;
/// Healthy-solve repetitions; the minimum filters allocator/cache noise.
const HEALTHY_ITERS: usize = 5;
/// Campaign repetitions per kernel (each campaign is hundreds of solves,
/// so the per-case noise is already averaged out).
const CAMPAIGN_ITERS: usize = 2;

/// One power rail, same mix as the workload generator's: `source → diode
/// → inductor → sensor → MCU load`, filter capacitor across the source.
/// Returns the MCU block (the rail's output net).
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

/// The all-electrical System-B-scale subject: 230 blocks, every one with
/// an MNA stamp. Cross-ties between adjacent rail outputs couple the
/// rails (off-tridiagonal structure → LU fill-in), shunt resistors on the
/// first rails bring the block count to exactly 230.
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

fn main() {
    let diagram = electrical_system_b();
    let db = reliability();
    let lowered = to_circuit(&diagram).expect("subject lowers");
    let nodes = lowered.circuit.node_count();

    // Healthy operating point, each kernel.
    let mut healthy_ms = [f64::INFINITY; 2];
    for (slot, kernel) in [(0, SolverKernel::Sparse), (1, SolverKernel::Dense)] {
        let opts = SolverOptions { kernel, ..SolverOptions::default() };
        for _ in 0..HEALTHY_ITERS {
            let t = Instant::now();
            lowered.circuit.dc_with_options(&opts).expect("healthy subject solves");
            healthy_ms[slot] = healthy_ms[slot].min(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    // Full single-fault campaign, each kernel. Verdict identity is part
    // of the gate: a fast kernel that flips a safety classification is a
    // regression, not a speedup.
    let mut campaign_s = [f64::INFINITY; 2];
    let mut outcomes = Vec::new();
    for (slot, kernel) in [(0, SolverKernel::Sparse), (1, SolverKernel::Dense)] {
        let cfg = config(kernel);
        let mut last = None;
        for _ in 0..CAMPAIGN_ITERS {
            let t = Instant::now();
            let (table, health) =
                injection::run_supervised(&diagram, &db, &cfg).expect("campaign completes");
            campaign_s[slot] = campaign_s[slot].min(t.elapsed().as_secs_f64());
            last = Some((table, health));
        }
        outcomes.push(last.expect("at least one campaign ran"));
    }
    let (sparse_table, sparse_health) = &outcomes[0];
    let (dense_table, dense_health) = &outcomes[1];
    let verdicts_identical = sparse_table.disagreement(dense_table) == 0.0
        && sparse_health.converged == dense_health.converged
        && sparse_health.recovered == dense_health.recovered
        && sparse_health.unsolvable == dense_health.unsolvable;

    let cases = sparse_health.total;
    let marginal_ms = campaign_s[0] * 1e3 / cases.max(1) as f64;
    let speedup = campaign_s[1] / campaign_s[0];
    let solver_ok = speedup >= 5.0 && verdicts_identical;

    let summary = Value::record([
        ("blocks", Value::Int(diagram.blocks().count() as i64)),
        ("nodes", Value::Int(nodes as i64)),
        ("cases", Value::Int(cases as i64)),
        ("healthy_sparse_ms", Value::Real(healthy_ms[0])),
        ("healthy_dense_ms", Value::Real(healthy_ms[1])),
        ("campaign_sparse_s", Value::Real(campaign_s[0])),
        ("campaign_dense_s", Value::Real(campaign_s[1])),
        ("marginal_injection_ms", Value::Real(marginal_ms)),
        ("speedup_sparse_over_dense", Value::Real(speedup)),
        ("verdicts_identical", Value::Bool(verdicts_identical)),
        ("solver_ok", Value::Bool(solver_ok)),
    ]);
    println!("BENCH_solver {}", json::to_string(&summary));
}
