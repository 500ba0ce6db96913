//! Cell reuse across sweeps: Figure 4's workloads are pairs of Figure 5,
//! so the cross product run on the store the multi-program study used
//! must reuse those cells — same studies, same JSON, and exactly one
//! simulation fewer per reused trial.
//!
//! This binary holds a single test: `machine.sim.runs` is process-wide,
//! so no other simulation may run while it counts.

use paxsim_core::prelude::*;
use paxsim_core::report::{cross_to_json, multi_to_json};
use paxsim_nas::{Class, KernelId};

fn sim_runs() -> u64 {
    paxsim_obs::counter("machine.sim.runs").get()
}

/// Run Figure 4 then Figure 5 on `stores` (one store for both, or one
/// each); returns both studies rendered as text and JSON, and the
/// simulations they took.
fn fig4_then_fig5(opts: &StudyOptions, stores: [&TraceStore; 2]) -> ([String; 4], u64) {
    let before = sim_runs();
    let multi = run_multi_program(opts, stores[0], &paper_workloads());
    let cross = run_cross_product(opts, stores[1]);
    let runs = sim_runs() - before;
    let json =
        |v: StudyResult<serde_json::Value>| serde_json::to_string(&v.expect("renders")).unwrap();
    let rendered = [
        fig4_text(&multi),
        json(multi_to_json(&multi)),
        fig5_text(&cross),
        json(cross_to_json(&cross)),
    ];
    (rendered, runs)
}

#[test]
fn cross_product_reuses_the_multi_program_cells() {
    paxsim_obs::set_enabled(true);
    // The paper's trials and jitter; a cross product over CG, EP and FT
    // covers all three Figure 4 workloads plus three pairs it lacks.
    let opts = StudyOptions::paper(Class::T).with_benchmarks(vec![
        KernelId::Cg,
        KernelId::Ep,
        KernelId::Ft,
    ]);
    let (fresh, fresh_runs) = fig4_then_fig5(&opts, [&TraceStore::new(), &TraceStore::new()]);
    let shared = TraceStore::new();
    let (reusing, runs) = fig4_then_fig5(&opts, [&shared, &shared]);
    paxsim_obs::set_enabled(false);

    for (what, (a, b)) in [
        "Figure 4 text",
        "Figure 4 JSON",
        "Figure 5 text",
        "Figure 5 JSON",
    ]
    .iter()
    .zip(reusing.iter().zip(&fresh))
    {
        assert_eq!(a, b, "{what}");
    }
    let configs = 7;
    let reused = (paper_workloads().len() * configs * opts.trials) as u64;
    assert_eq!(reused, 63);
    assert_eq!(
        fresh_runs - runs,
        reused,
        "{fresh_runs} fresh vs {runs} shared"
    );
    // 3 Figure 4 workloads + the 3 pairs only Figure 5 has.
    assert_eq!(shared.cells(), 6 * configs);
}
