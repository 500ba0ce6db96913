//! Section 4.2 — multithreaded, multi-program experiments.
//!
//! Two benchmarks run concurrently, each getting half of a configuration's
//! hardware contexts ("threads distributed evenly between the executing
//! programs"). The paper pairs its compute-bound benchmark (FT) with its
//! memory-bound one (CG — see DESIGN.md §5 on reconstructing the garbled
//! benchmark name) in three workloads: CG/FT, FT/FT and CG/CG.

use std::sync::Arc;

use paxsim_machine::counters::Counters;
use paxsim_machine::sim::{simulate, JobSpec, SimOutcome};
use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::KernelId;
use paxsim_perfmon::stats::Summary;

use crate::configs::{parallel_configs, serial, HwConfig};
use crate::pool;
use crate::store::{CellKey, TraceKey, TraceStore};
use crate::study::{Cell, StudyOptions};
use paxsim_omp::os::{split_jobs, PlacementPolicy};

/// One side of a multi-program run.
#[derive(Debug, Clone)]
pub struct JobSide {
    pub bench: KernelId,
    pub cell: Cell,
}

/// One (workload, configuration) data point.
#[derive(Debug, Clone)]
pub struct MultiCell {
    pub config: HwConfig,
    pub sides: Vec<JobSide>,
}

/// Results of the multi-program study.
#[derive(Debug, Clone)]
pub struct MultiStudy {
    /// The workloads, e.g. `[(Cg, Ft), (Ft, Ft), (Cg, Cg)]`.
    pub workloads: Vec<(KernelId, KernelId)>,
    pub configs: Vec<HwConfig>,
    /// `cells[workload][config]`.
    pub cells: Vec<Vec<MultiCell>>,
}

impl MultiStudy {
    pub fn cell(&self, workload: (KernelId, KernelId), config_name: &str) -> Option<&MultiCell> {
        let wi = self.workloads.iter().position(|&w| w == workload)?;
        let ci = self.configs.iter().position(|c| {
            c.name.eq_ignore_ascii_case(config_name) || c.arch.eq_ignore_ascii_case(config_name)
        })?;
        Some(&self.cells[wi][ci])
    }
}

/// The paper's three §4.2 workloads.
pub fn paper_workloads() -> Vec<(KernelId, KernelId)> {
    vec![
        (KernelId::Cg, KernelId::Ft),
        (KernelId::Ft, KernelId::Ft),
        (KernelId::Cg, KernelId::Cg),
    ]
}

/// Serial baseline cycles for each benchmark (for "speedup over serial").
fn serial_cycles(opts: &StudyOptions, store: &TraceStore, bench: KernelId) -> f64 {
    let trace = store.get(TraceKey {
        kernel: bench,
        class: opts.class,
        nthreads: 1,
        schedule: opts.schedule,
    });
    let spec = JobSpec::pinned(trace, serial().contexts);
    simulate(&opts.machine, vec![spec]).jobs[0].cycles as f64
}

/// The simulated part of one (workload, configuration) point: per side,
/// the wall cycles of every trial and the quiet first trial's counters.
/// A [`MultiCell`] is these plus the serial baselines and the
/// configuration's name, so this is what [`TraceStore`] keeps for reuse.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    cycles: [Vec<f64>; 2],
    counters: [Counters; 2],
}

/// Run the trials of one workload on one configuration, with the traces
/// already built and through an arbitrary simulation function.
fn simulate_trials(
    opts: &StudyOptions,
    traces: [Arc<ProgramTrace>; 2],
    config: &HwConfig,
    sim: &dyn Fn(Vec<JobSpec>) -> SimOutcome,
) -> WorkloadRuns {
    assert!(
        config.threads >= 2 && config.threads.is_multiple_of(2),
        "{} cannot host two programs",
        config.name
    );
    let placements = split_jobs(&config.contexts, 2, PlacementPolicy::Spread);

    let mut cycles = [Vec::new(), Vec::new()];
    let mut counters0 = [None, None];
    for trial in 0..opts.trials {
        let jitter = if trial == 0 { 0 } else { opts.jitter_cycles };
        let jobs: Vec<JobSpec> = (0..2)
            .map(|j| {
                JobSpec::pinned(traces[j].clone(), placements[j].clone())
                    .with_jitter(jitter, (trial * 2 + j) as u64)
            })
            .collect();
        let out = sim(jobs);
        for j in 0..2 {
            cycles[j].push(out.jobs[j].cycles as f64);
            if trial == 0 {
                counters0[j] = Some(out.jobs[j].counters);
            }
        }
    }
    WorkloadRuns {
        cycles,
        counters: counters0.map(|c| c.expect("at least one trial")),
    }
}

/// Summarize `runs` into the cell of `workload` on `config`.
fn finish(
    runs: &WorkloadRuns,
    workload: (KernelId, KernelId),
    config: &HwConfig,
    serial_base: (f64, f64),
) -> MultiCell {
    let bases = [serial_base.0, serial_base.1];
    let benches = [workload.0, workload.1];
    let sides = (0..2)
        .map(|j| JobSide {
            bench: benches[j],
            cell: Cell {
                cycles: Summary::of(&runs.cycles[j]),
                speedup: Summary::of(
                    &runs.cycles[j]
                        .iter()
                        .map(|&c| bases[j] / c)
                        .collect::<Vec<_>>(),
                ),
                counters: runs.counters[j],
            },
        })
        .collect();
    MultiCell {
        config: config.clone(),
        sides,
    }
}

/// Run one multi-program workload on one configuration over trials,
/// with the traces already built and through an arbitrary simulation
/// function (the resilient driver passes a drift-checking wrapper).
pub(crate) fn run_workload_with(
    opts: &StudyOptions,
    traces: [Arc<ProgramTrace>; 2],
    workload: (KernelId, KernelId),
    config: &HwConfig,
    serial_base: (f64, f64),
    sim: &dyn Fn(Vec<JobSpec>) -> SimOutcome,
) -> MultiCell {
    finish(
        &simulate_trials(opts, traces, config, sim),
        workload,
        config,
        serial_base,
    )
}

/// Simulate every trial of one workload on one configuration, taking the
/// traces from `store` but never its kept cells.
pub fn simulate_workload(
    opts: &StudyOptions,
    store: &TraceStore,
    workload: (KernelId, KernelId),
    config: &HwConfig,
) -> WorkloadRuns {
    let per = config.threads / 2;
    let trace = |kernel| {
        store.get(TraceKey {
            kernel,
            class: opts.class,
            nthreads: per,
            schedule: opts.schedule,
        })
    };
    let traces = [trace(workload.0), trace(workload.1)];
    simulate_trials(opts, traces, config, &|jobs| simulate(&opts.machine, jobs))
}

/// Run one multi-program workload on one configuration over trials. A
/// point `store` already holds is reused instead of simulated again.
pub fn run_workload(
    opts: &StudyOptions,
    store: &TraceStore,
    workload: (KernelId, KernelId),
    config: &HwConfig,
    serial_base: (f64, f64),
) -> MultiCell {
    let key = CellKey::new(opts, workload, config);
    let runs = store.workload_runs(&opts.machine, key, || {
        simulate_workload(opts, store, workload, config)
    });
    finish(&runs, workload, config, serial_base)
}

/// Run the full Section 4.2 study.
pub fn run_multi_program(
    opts: &StudyOptions,
    store: &TraceStore,
    workloads: &[(KernelId, KernelId)],
) -> MultiStudy {
    let configs: Vec<HwConfig> = parallel_configs()
        .into_iter()
        .filter(|c| c.threads >= 2)
        .collect();

    // Serial baselines for every benchmark that appears, in parallel.
    let mut benches: Vec<KernelId> = workloads.iter().flat_map(|&(a, b)| [a, b]).collect();
    benches.sort();
    benches.dedup();
    let bases: std::collections::HashMap<KernelId, f64> = benches
        .iter()
        .copied()
        .zip(pool::map(&benches, |&b| serial_cycles(opts, store, b)))
        .collect();

    // Every (workload, config) point is one pool item; the single-flight
    // store deduplicates the trace builds the items race on.
    let flat = pool::map_indexed(workloads.len() * configs.len(), |i| {
        let (wi, ci) = (i / configs.len(), i % configs.len());
        let w = workloads[wi];
        run_workload(opts, store, w, &configs[ci], (bases[&w.0], bases[&w.1]))
    });
    let mut flat = flat.into_iter();
    let cells: Vec<Vec<MultiCell>> = workloads
        .iter()
        .map(|_| flat.by_ref().take(configs.len()).collect())
        .collect();

    MultiStudy {
        workloads: workloads.to_vec(),
        configs,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_match_section_4_2() {
        let w = paper_workloads();
        assert_eq!(w.len(), 3);
        assert!(w.contains(&(KernelId::Cg, KernelId::Ft)));
        assert!(w.contains(&(KernelId::Ft, KernelId::Ft)));
        assert!(w.contains(&(KernelId::Cg, KernelId::Cg)));
    }

    #[test]
    fn multi_study_shape() {
        let opts = StudyOptions::quick();
        let store = TraceStore::new();
        let s = run_multi_program(&opts, &store, &[(KernelId::Ep, KernelId::Ep)]);
        assert_eq!(s.workloads.len(), 1);
        assert_eq!(s.configs.len(), 7);
        for row in &s.cells {
            for cell in row {
                assert_eq!(cell.sides.len(), 2);
                assert!(cell.sides[0].cell.cycles.mean > 0.0);
            }
        }
    }

    fn assert_same_cell(a: &MultiCell, b: &MultiCell) {
        assert_eq!(a.config, b.config);
        for (x, y) in a.sides.iter().zip(&b.sides) {
            assert_eq!(x.bench, y.bench);
            assert_eq!(x.cell.cycles, y.cell.cycles);
            assert_eq!(x.cell.speedup, y.cell.speedup);
            assert_eq!(x.cell.counters, y.cell.counters);
        }
    }

    #[test]
    fn store_reuses_a_cell_only_for_the_same_key() {
        let store = TraceStore::new();
        let w = (KernelId::Ep, KernelId::Is);
        let cmp = crate::configs::config_by_name("HT off -2-1").unwrap();
        let opts = StudyOptions::quick();
        let first = run_workload(&opts, &store, w, &cmp, (1.0, 2.0));
        assert_eq!(store.cells(), 1);
        // Same key: reused, and the new serial baselines still apply.
        let again = run_workload(&opts, &store, w, &cmp, (3.0, 4.0));
        assert_eq!(store.cells(), 1);
        assert_same_cell(
            &again,
            &run_workload(&opts, &TraceStore::new(), w, &cmp, (3.0, 4.0)),
        );
        assert_eq!(
            again.sides[0].cell.speedup.mean,
            3.0 * first.sides[0].cell.speedup.mean
        );
        // Same contexts under another name: reused, reported under the
        // requested name.
        let renamed = HwConfig {
            name: "renamed".into(),
            ..cmp.clone()
        };
        assert_eq!(
            run_workload(&opts, &store, w, &renamed, (1.0, 2.0))
                .config
                .name,
            "renamed"
        );
        assert_eq!(store.cells(), 1);
        // Every input that reaches the simulator makes a new cell.
        let mut other = opts.clone();
        other.jitter_cycles = 500;
        let variants = [
            opts.clone().with_trials(2),
            StudyOptions { trials: 2, ..other },
            StudyOptions {
                schedule: paxsim_omp::schedule::Schedule::Dynamic(2),
                ..opts.clone()
            },
        ];
        for (n, v) in variants.iter().enumerate() {
            run_workload(v, &store, w, &cmp, (1.0, 2.0));
            assert_eq!(store.cells(), 2 + n);
        }
        let smt = crate::configs::config_by_name("HT on -2-1").unwrap();
        run_workload(&opts, &store, w, &smt, (1.0, 2.0));
        run_workload(
            &opts,
            &store,
            (KernelId::Is, KernelId::Ep),
            &cmp,
            (2.0, 1.0),
        );
        assert_eq!(store.cells(), 6);
    }

    #[test]
    fn machines_sharing_a_store_never_share_a_cell() {
        use paxsim_machine::config::MachineConfig;
        // "HT on -4-1" uses chip 0 only, so it is valid on both machines.
        let config = crate::configs::config_by_name("HT on -4-1").unwrap();
        let w = (KernelId::Ep, KernelId::Cg);
        let paxville = StudyOptions::quick();
        let quad = StudyOptions::quick().with_machine(MachineConfig::quad_core_smp());
        let store = TraceStore::new();
        let cells: Vec<MultiCell> = [&paxville, &quad]
            .iter()
            .map(|o| run_workload(o, &store, w, &config, (1.0, 1.0)))
            .collect();
        assert_eq!(store.cells(), 2, "one cell per machine");
        for (o, cell) in [&paxville, &quad].iter().zip(&cells) {
            assert_same_cell(
                cell,
                &run_workload(o, &TraceStore::new(), w, &config, (1.0, 1.0)),
            );
            run_workload(o, &store, w, &config, (1.0, 1.0));
        }
        assert_eq!(store.cells(), 2, "repeats reuse their own machine's cell");
    }

    #[test]
    fn concurrent_programs_slower_than_alone() {
        // Two EPs sharing the machine: each side must be slower than the
        // same program running alone on its half… at minimum, slower than
        // its own serial baseline divided by its thread count would imply
        // perfect scaling; we check the weaker, robust property that
        // speedups are finite and positive and both sides finish.
        let opts = StudyOptions::quick();
        let store = TraceStore::new();
        let s = run_multi_program(&opts, &store, &[(KernelId::Ep, KernelId::Ep)]);
        let cell = s
            .cell((KernelId::Ep, KernelId::Ep), "CMP-based SMP")
            .unwrap();
        for side in &cell.sides {
            assert!(side.cell.speedup.mean > 0.5, "{}", side.cell.speedup.mean);
            assert!(side.cell.speedup.mean < 4.0);
        }
    }

    #[test]
    fn identical_pair_is_symmetric_without_jitter() {
        // Same program twice, quiet trials, symmetric placement: both
        // sides should finish in nearly the same time.
        let opts = StudyOptions::quick();
        let store = TraceStore::new();
        let s = run_multi_program(&opts, &store, &[(KernelId::Ep, KernelId::Ep)]);
        let cell = s
            .cell((KernelId::Ep, KernelId::Ep), "CMP-based SMP")
            .unwrap();
        let a = cell.sides[0].cell.cycles.mean;
        let b = cell.sides[1].cell.cycles.mean;
        assert!((a - b).abs() / a < 0.05, "asymmetry: {a} vs {b}");
    }
}
