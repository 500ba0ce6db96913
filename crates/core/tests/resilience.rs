//! End-to-end resilience suite: every recovery path the resilient sweep
//! machinery promises, proven against injected faults.
//!
//! Each scenario follows the same shape — compute a clean study, break
//! something (a panicking cell, an exhausted build budget, a truncated or
//! bit-flipped journal, a drifting fast engine, a runaway cell), run the
//! resilient driver, and assert both the recovery bookkeeping *and* that
//! every unaffected cell is bit-identical to the clean run.
//!
//! A fault plan belongs to the test thread that installs it with
//! [`faultinject::with_plan`] (and to the sweep workers that thread
//! starts), so clean baselines run outside any plan, next to faulted
//! tests, with no lock between them.

use std::path::PathBuf;
use std::time::Duration;

use paxsim_core::faultinject;
use paxsim_core::prelude::*;
use paxsim_core::report::single_to_json;
use paxsim_core::single::SingleStudy;
use paxsim_nas::KernelId;

/// Two-benchmark quick study: 2 benches × (1 serial + 7 parallel) cells.
fn quick2() -> StudyOptions {
    StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is])
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("paxsim_resilience_suite");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// The plain (non-resilient) driver's study, computed with no plan live.
fn clean_single(opts: &StudyOptions) -> SingleStudy {
    paxsim_core::single::run_single_program(opts, &TraceStore::new())
}

/// The final report artifact, as bytes — what "byte-identical" means.
fn report_bytes(s: &SingleStudy) -> String {
    format!(
        "{}{}{}",
        fig3_text(s),
        table2_text(s),
        serde_json::to_string(&single_to_json(s).unwrap()).unwrap()
    )
}

fn assert_cell_eq(a: &Cell, b: &Cell, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.speedup, b.speedup, "{what}: speedup");
    assert_eq!(a.counters, b.counters, "{what}: counters");
}

fn assert_study_eq(a: &SingleStudy, b: &SingleStudy) {
    for (bi, (ra, rb)) in a.cells.iter().zip(&b.cells).enumerate() {
        for (ci, (ca, cb)) in ra.iter().zip(rb).enumerate() {
            assert_cell_eq(ca, cb, &format!("cell [{bi}][{ci}]"));
        }
    }
}

fn assert_renders_finite(s: &SingleStudy) {
    let rendered = format!("{}{}{}", fig2_text(s), fig3_text(s), table2_text(s));
    assert!(!rendered.contains("NaN"), "NaN leaked into a report table");
    assert!(!rendered.contains("inf"), "inf leaked into a report table");
}

// ---------------------------------------------------------------------------
// Cell panic isolation.
// ---------------------------------------------------------------------------

#[test]
fn transient_cell_panic_is_retried_to_a_bit_identical_study() {
    let opts = quick2();
    let clean = clean_single(&opts);
    // Parallel-sweep item 3 panics exactly once; the retry succeeds.
    let res = faultinject::with_plan("cell-panic:3:1", || {
        run_single_program_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap()
    });
    assert!(res.resilience.is_clean(), "{:?}", res.resilience);
    assert!(res.resilience.retries >= 1);
    assert_study_eq(&clean, &res.study);
}

#[test]
fn persistent_cell_panic_poisons_only_that_cell() {
    let opts = quick2();
    let clean = clean_single(&opts);
    // Item 5 of the parallel sweep panics on every attempt.
    let res = faultinject::with_plan("cell-panic:5:100", || {
        run_single_program_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap()
    });
    let r = &res.resilience;
    assert!(!r.is_clean());
    assert_eq!(r.failed_cells.len(), 1, "{:?}", r.failed_cells);
    assert!(
        r.failed_cells[0].key.starts_with("single|ep|"),
        "{}",
        r.failed_cells[0].key
    );
    assert!(
        r.failed_cells[0].error.contains("panicked"),
        "{}",
        r.failed_cells[0].error
    );
    assert_eq!(r.retries, 2, "default policy: two retries, both consumed");

    // The failed parallel item maps to one poisoned cell; all others are
    // bit-identical to the clean study.
    let npar = res.study.configs.len() - 1;
    let (bad_bi, bad_ci) = (5 / npar, 1 + 5 % npar);
    for (bi, (cr, rr)) in clean.cells.iter().zip(&res.study.cells).enumerate() {
        for (ci, (cc, rc)) in cr.iter().zip(rr).enumerate() {
            if (bi, ci) == (bad_bi, bad_ci) {
                assert_eq!(rc.cycles.n, 0, "failed cell must be poisoned");
            } else {
                assert_cell_eq(cc, rc, &format!("cell [{bi}][{ci}]"));
            }
        }
    }
    assert_renders_finite(&res.study);
    // The resilience summary names the failed cell.
    let txt = resilience_text(r);
    assert!(txt.contains(&r.failed_cells[0].key), "{txt}");
}

// ---------------------------------------------------------------------------
// Trace-build failure.
// ---------------------------------------------------------------------------

#[test]
fn exhausted_build_budget_poisons_the_whole_row() {
    let opts = quick2();
    let clean = clean_single(&opts);
    // Every one of the store's bounded build attempts for ep panics.
    let res = faultinject::with_plan("build-panic:ep:3", || {
        run_single_program_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap()
    });
    let r = &res.resilience;
    // The serial baseline failed, so the entire ep row is unusable.
    assert_eq!(
        r.failed_cells.len(),
        res.study.configs.len(),
        "{:?}",
        r.failed_cells
    );
    assert!(r
        .failed_cells
        .iter()
        .all(|f| f.key.starts_with("single|ep|")));
    assert!(
        r.failed_cells[0].error.contains("trace build failed"),
        "{}",
        r.failed_cells[0].error
    );
    for cell in &res.study.cells[0] {
        assert_eq!(cell.cycles.n, 0, "every ep cell must be poisoned");
    }
    // The is row is untouched and bit-identical.
    for (ci, (cc, rc)) in clean.cells[1].iter().zip(&res.study.cells[1]).enumerate() {
        assert_cell_eq(cc, rc, &format!("is cell [{ci}]"));
    }
    assert_renders_finite(&res.study);
}

// ---------------------------------------------------------------------------
// Journal corruption and resume.
// ---------------------------------------------------------------------------

#[test]
fn truncated_journal_tail_is_detected_and_recomputed() {
    let opts = quick2();
    let path = tmp("truncated.jsonl");
    let ropts = ResilienceOptions::default().with_journal(&path);
    let first = run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap();
    assert!(first.resilience.is_clean());

    // Chop into the last record, as a kill mid-append would.
    faultinject::truncate_tail(&path, 17).unwrap();
    let second = run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap();
    let total = opts.benchmarks.len() * second.study.configs.len();
    assert_eq!(second.resilience.corrupt_records, 1);
    assert_eq!(second.resilience.resumed_cells, total - 1);
    assert_eq!(
        report_bytes(&first.study),
        report_bytes(&second.study),
        "resumed report must be byte-identical"
    );
}

#[test]
fn bit_flipped_journal_record_fails_crc_and_is_recomputed() {
    let opts = quick2();
    let path = tmp("bitflip.jsonl");
    let ropts = ResilienceOptions::default().with_journal(&path);
    let first = run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap();
    assert!(first.resilience.is_clean());

    let len = std::fs::metadata(&path).unwrap().len();
    faultinject::flip_bit(&path, len / 2).unwrap();
    let second = run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap();
    let total = opts.benchmarks.len() * second.study.configs.len();
    assert!(second.resilience.corrupt_records >= 1);
    assert!(second.resilience.resumed_cells < total);
    assert!(second.resilience.resumed_cells > 0);
    assert_eq!(
        report_bytes(&first.study),
        report_bytes(&second.study),
        "a CRC-rejected record must be recomputed, not trusted"
    );
}

// ---------------------------------------------------------------------------
// Drift sentinel.
// ---------------------------------------------------------------------------

#[test]
fn injected_engine_drift_is_quarantined_and_repaired_bit_identically() {
    let opts = quick2();
    let clean = clean_single(&opts);
    let ropts = ResilienceOptions::default().with_sampling(1);
    let res = faultinject::with_plan("drift:ep", || {
        run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap()
    });
    let r = &res.resilience;
    assert!(!r.is_clean());
    assert_eq!(r.quarantined, vec!["ep".to_string()]);
    assert!(!r.drift_events.is_empty());
    assert!(r.sentinel_checks > 0);
    // The repair pass re-ran every ep cell on the reference engine.
    assert_eq!(r.repaired_cells, res.study.configs.len());
    assert!(r.failed_cells.is_empty(), "drift is repaired, not failed");
    // A drifting fast path must not leak a single wrong number: the study
    // is bit-identical to the clean run (fast == reference when healthy).
    assert_study_eq(&clean, &res.study);
    let txt = resilience_text(r);
    assert!(txt.contains("drift"), "{txt}");
    assert!(txt.contains("ep"), "{txt}");
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_flags_a_runaway_cell_and_the_sweep_completes() {
    let opts = quick2();
    let ropts = ResilienceOptions::default()
        .with_sampling(0)
        .with_policy(CellPolicy {
            max_retries: 0,
            backoff: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(500)),
        });
    // Serial-sweep item 1 (the is baseline) stalls well past the deadline,
    // once.
    let res = faultinject::with_plan("cell-slow:1:2000:1", || {
        run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap()
    });
    let r = &res.resilience;
    assert_eq!(r.timeouts, 1, "{r:?}");
    // Baseline lost → the whole is row reports failed cells.
    assert_eq!(
        r.failed_cells.len(),
        res.study.configs.len(),
        "{:?}",
        r.failed_cells
    );
    assert!(r
        .failed_cells
        .iter()
        .all(|f| f.key.starts_with("single|is|")));
    assert!(
        r.failed_cells.iter().any(|f| f.error.contains("deadline")),
        "{:?}",
        r.failed_cells
    );
    assert_eq!(res.study.cells.len(), 2, "sweep completed around the stall");
    assert_renders_finite(&res.study);
}

// ---------------------------------------------------------------------------
// Environment-driven injection (the ci.sh pass).
// ---------------------------------------------------------------------------

/// Run by `ci.sh` with `PAXSIM_FAULTS="cell-panic:1:1,build-panic:ep:1"`,
/// which this test alone installs: both faults are single-use, so a
/// resilient study must absorb them (retry the cell, rebuild the trace)
/// and still come out clean — and a second run, with the budgets spent,
/// must reproduce it bit-identically. A no-op when the variable is unset.
#[test]
fn env_fault_plan_is_absorbed_cleanly() {
    let Some(plan) = faultinject::FaultPlan::from_env() else {
        return;
    };
    faultinject::scoped(Some(plan), || {
        let opts = quick2();
        let first =
            run_single_program_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap();
        assert!(first.resilience.is_clean(), "{:?}", first.resilience);
        let second =
            run_single_program_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap();
        assert!(second.resilience.is_clean(), "{:?}", second.resilience);
        assert_study_eq(&first.study, &second.study);
        assert_eq!(report_bytes(&first.study), report_bytes(&second.study));
    });
}
