//! F4 — Figure 4: multi-program workloads (CG/FT, FT/FT, CG/CG).
//! Benchmarks each paper workload on the two fully loaded configurations.
//!
//! Paper-scale regeneration: `cargo run --release --bin report -- --class S fig4`.

use criterion::{criterion_group, criterion_main, Criterion};
use paxsim_core::multi::{paper_workloads, simulate_workload};
use paxsim_core::prelude::*;
use paxsim_nas::Class;
use paxsim_omp::schedule::Schedule;

fn bench(c: &mut Criterion) {
    let opts = StudyOptions::quick();
    let store = TraceStore::new();
    let _ = Class::T;

    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    for workload in paper_workloads() {
        for cfg_name in ["HT off -4-2", "HT on -8-2"] {
            let cfg = config_by_name(cfg_name).unwrap();
            // Pre-build the per-side traces.
            for k in [workload.0, workload.1] {
                store.get(TraceKey {
                    kernel: k,
                    class: opts.class,
                    nthreads: cfg.threads / 2,
                    schedule: Schedule::Static,
                });
            }
            g.bench_function(
                format!(
                    "{}_{}/{}",
                    workload.0,
                    workload.1,
                    cfg.name.replace(' ', "_")
                ),
                // Simulated every iteration: `run_workload` would reuse
                // the store's first result.
                |b| b.iter(|| simulate_workload(&opts, &store, workload, &cfg)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
