//! Designing System B — the AUV main control unit (230 elements, hardware
//! and software) — with DECISIVE, including the Pareto-front exploration of
//! safety mechanisms ("ask SAME to search for the pareto front of viable
//! solutions", paper §IV-D2).
//!
//! Run with: `cargo run --example auv_control`

use decisive::core::fmea::injection::InjectionConfig;
use decisive::core::mechanism::search;
use decisive::core::metrics;
use decisive::engine::Engine;
use decisive::workload::systems;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let subject = systems::system_b();
    println!(
        "subject `{}`: {} elements, {} failure modes in scope",
        subject.name,
        subject.element_count(),
        subject.failure_mode_count()
    );

    // Automated FMEA over the whole control unit, swept by the engine's
    // injection pass on four workers.
    let mut engine = Engine::builder().jobs(4).build()?;
    let table = engine.analyze_injection(
        &subject.diagram,
        &subject.reliability,
        &InjectionConfig::default(),
    )?;
    let m = metrics::compute(&table);
    println!(
        "\nbaseline: SPFM {:.2}% ({}) — {} safety-related components, {} analysed rows",
        m.spfm * 100.0,
        m.achieved_asil,
        table.safety_related_components().len(),
        table.rows.len()
    );
    for component in table.safety_related_components() {
        println!("  single-point component: {component}");
    }
    let warnings = table.rows.iter().filter(|r| r.warning.is_some()).count();
    println!("  ({warnings} rows carry analysis warnings, e.g. software blocks)");

    // The cost/safety trade-off: every non-dominated deployment.
    println!("\nPareto front of safety-mechanism deployments (cost vs SPFM):");
    let front = search::pareto_front(&table, &subject.catalog)?;
    for outcome in &front {
        println!(
            "  {:6.1} h -> SPFM {:6.2}% ({}) with {} mechanism(s)",
            outcome.cost,
            outcome.spfm * 100.0,
            metrics::achieved_asil(outcome.spfm),
            outcome.deployment.len()
        );
    }

    // Pick the cheapest ASIL-B point, as the paper's case study does.
    match front.iter().find(|o| o.spfm >= 0.90) {
        Some(choice) => {
            println!("\ncheapest ASIL-B deployment ({:.1} h):", choice.cost);
            let mut entries: Vec<_> = choice.deployment.iter().collect();
            entries.sort_by_key(|((c, f), _)| (c.clone(), f.clone()));
            for ((component, failure_mode), mechanism) in entries {
                println!(
                    "  {component} / {failure_mode}: {} ({:.0}% coverage)",
                    mechanism.name,
                    mechanism.coverage.value() * 100.0
                );
            }
        }
        None => println!("\nno deployment on the front reaches ASIL-B — design change needed"),
    }
    Ok(())
}
