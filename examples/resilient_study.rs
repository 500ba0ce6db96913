//! Resilient paper regeneration with checkpoint/resume.
//!
//! ```sh
//! cargo run --release --example resilient_study -- /tmp/study.jsonl /tmp/study.report
//! ```
//!
//! Runs the §4.1 single-program and §4.2 multi-program studies through
//! the resilient drivers, journaling every completed cell to the given
//! path and writing the paper-style report to the given file. Kill the
//! process mid-sweep and run it again with the same journal: completed
//! cells are served from the journal (the partial record a kill leaves
//! behind is rejected by its CRC and recomputed) and the final report is
//! byte-identical to an uninterrupted run — `ci.sh` proves exactly that
//! with a SIGKILL smoke test.
//!
//! The resilience summary (resumed cells, corrupt records, retries,
//! drift events) goes to stdout only; the report file holds nothing but
//! study results, so two runs of the same study always compare equal.
//!
//! Set `PAXSIM_FAULTS` (see `paxsim_core::faultinject`) to watch the
//! recovery paths fire on a real sweep.

use paxsim_core::faultinject::{self, FaultPlan};
use paxsim_core::prelude::*;
use paxsim_core::report::{multi_to_json, single_to_json};
use paxsim_nas::Class;

fn main() {
    faultinject::scoped(FaultPlan::from_env(), run);
}

fn run() {
    let mut args = std::env::args().skip(1);
    let (Some(journal), Some(report)) = (args.next(), args.next()) else {
        eprintln!("usage: resilient_study <journal-path> <report-path>");
        std::process::exit(2);
    };

    let opts = StudyOptions::paper(Class::T);
    let store = TraceStore::new();
    let ropts = ResilienceOptions::default().with_journal(&journal);

    let single = run_single_program_resilient(&opts, &store, &ropts)
        .unwrap_or_else(|e| panic!("single-program study: {e}"));
    let multi = run_multi_program_resilient(&opts, &store, &paper_workloads(), &ropts)
        .unwrap_or_else(|e| panic!("multi-program study: {e}"));

    let mut out = String::new();
    out.push_str(&fig2_text(&single.study));
    out.push_str(&fig3_text(&single.study));
    out.push_str(&table2_text(&single.study));
    out.push_str(&headlines_text(&headlines(&single.study)));
    out.push_str(&fig4_text(&multi.study));
    let single_json =
        single_to_json(&single.study).unwrap_or_else(|e| panic!("single-program report: {e}"));
    let multi_json =
        multi_to_json(&multi.study).unwrap_or_else(|e| panic!("multi-program report: {e}"));
    out.push_str(&serde_json::to_string(&single_json).expect("single json"));
    out.push('\n');
    out.push_str(&serde_json::to_string(&multi_json).expect("multi json"));
    out.push('\n');
    if let Err(e) = std::fs::write(&report, &out) {
        panic!("writing report to {report}: {e}");
    }

    println!("report: {report} ({} bytes)", out.len());
    println!("{}", resilience_text(&single.resilience));
    println!("{}", resilience_text(&multi.resilience));
    if !single.resilience.is_clean() || !multi.resilience.is_clean() {
        // Degraded but complete: poisoned cells are visible above.
        std::process::exit(1);
    }
}
