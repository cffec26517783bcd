//! Incremental re-analysis with `decisive-engine`: analyse the case study
//! cold, edit one component, and watch the engine serve the cached work
//! that edit left valid — then prove the shortcut changed nothing with
//! `verify_against_full`.
//!
//! ```sh
//! cargo run --example incremental
//! ```

use decisive::core::case_study;
use decisive::engine::{Engine, EngineConfig};
use decisive::ssam::architecture::Fit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: a cold analysis fills the content-addressed cache.
    let (model, top) = case_study::ssam_model();
    let mut engine = Engine::new(EngineConfig::with_jobs(4));
    let table = engine.analyze_graph(&model, top)?;
    println!("cold analysis: {} rows, SPFM {:.2}%", table.rows.len(), table.spfm() * 100.0);
    print!("{}", engine.stats().render());

    // Step 2: the analyst revises one component — the flyback diode's
    // failure rate doubles after a supplier change.
    let (mut revised, revised_top) = case_study::ssam_model();
    let d1 = revised.component_by_name("D1").expect("case study has D1");
    revised.components[d1].fit = Some(Fit::new(20.0));

    // Step 3: `rerun` diffs the revisions and re-derives the table: the
    // container facts are cache hits (a FIT edit leaves the wiring
    // alone), and the rows are computed from them.
    engine.reset_stats();
    let (refreshed, report) = engine.rerun(&model, &revised, revised_top)?;
    print!("{}", report.render());
    println!("after edit: SPFM {:.2}%", refreshed.spfm() * 100.0);
    print!("{}", engine.stats().render());

    // Step 4: the escape hatch — incremental must equal from-scratch.
    engine.verify_against_full(&revised, revised_top)?;
    println!("incremental result verified against full recomputation");
    Ok(())
}
