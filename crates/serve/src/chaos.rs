//! Serve-layer chaos hooks: the bridge between the reactor/worker hot
//! paths and [`paxsim_core::faultinject`].
//!
//! Each hook reads the calling thread's fault plan; with none installed
//! that read is the whole cost. Under a plan (`PAXSIM_FAULTS` in the
//! daemon, or [`with_plan`](paxsim_core::faultinject::with_plan) around a
//! [`Server`](crate::Server) start) the hooks fire deterministic faults at
//! their choke points:
//!
//! | hook | fault kind | effect |
//! |---|---|---|
//! | [`worker_job`] | `serve-worker-panic:<period>` | panics inside the worker's isolation boundary |
//! | [`conn_kill`] | `serve-conn-kill:<period>` | reactor drops the connection after dispatch |
//! | [`write_cap`] | `serve-partial-write` | caps one reactor write pass at a single byte |
//! | (in `core::journal`) | `journal-fail` | fails the next journal append |
//! | (in `serve::cache`) | `serve-shard-slow:<ms>` | stalls a shard lookup |
//! | (in `serve::service`) | `serve-batch-panic` | panics the batch-leader executor |
//!
//! The plan counts worker jobs and dispatched frames from its own start
//! for the `<period>` matchers, so a "~1% fault rate" plan is just
//! `serve-worker-panic:97:N` — deterministic, replayable, and countable.
//! The plan also counts every fault it fired
//! ([`FaultPlan::fired`](paxsim_core::faultinject::FaultPlan::fired)),
//! so soak tests can assert *how much* chaos actually happened, not just
//! that the run survived it; the hooks mirror the counts into obs.

use paxsim_core::faultinject;

/// Worker hook: called at the top of every pool-dispatched job, inside
/// the worker's `catch_unwind` boundary. Panics when a
/// `serve-worker-panic:<period>` fault matches this job number.
#[inline]
pub fn worker_job() {
    if let Some(n) = faultinject::serve_worker_panic() {
        static OBS: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.chaos.worker_panics");
        OBS.inc();
        panic!("injected serve worker fault (job {n})");
    }
}

/// Reactor hook: called once per dispatched frame. True when a
/// `serve-conn-kill:<period>` fault matches — the reactor must drop the
/// connection that carried the frame (modelling a peer reset / network
/// partition mid-request).
#[inline]
pub fn conn_kill() -> bool {
    if faultinject::serve_conn_kill() {
        static OBS: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.chaos.conn_kills");
        OBS.inc();
        return true;
    }
    false
}

/// Reactor hook: byte cap for one write pass. `Some(1)` while a
/// `serve-partial-write` fault has budget — the reactor writes a single
/// byte and leaves the rest queued, exercising the partial-write
/// bookkeeping a saturated socket produces.
#[inline]
pub fn write_cap() -> Option<usize> {
    if faultinject::serve_partial_write() {
        static OBS: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.chaos.partial_writes");
        OBS.inc();
        return Some(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxsim_core::faultinject::FaultPlan;
    use std::sync::Arc;

    #[test]
    fn hooks_are_quiet_without_a_plan() {
        worker_job();
        assert!(!conn_kill());
        assert_eq!(write_cap(), None);
    }

    #[test]
    fn worker_panic_fires_on_period_and_is_counted() {
        let plan = Arc::new(FaultPlan::parse("serve-worker-panic:1:1").unwrap());
        faultinject::scoped(Some(plan.clone()), || {
            let r = std::panic::catch_unwind(worker_job);
            assert!(r.is_err(), "period 1 must fire on the next job");
            assert_eq!(plan.fired().0, 1);
            worker_job(); // budget spent: quiet
        });
        assert_eq!(plan.fired(), (1, 0, 0));
    }

    #[test]
    fn partial_write_cap_respects_budget() {
        faultinject::with_plan("serve-partial-write:2", || {
            assert_eq!(write_cap(), Some(1));
            assert_eq!(write_cap(), Some(1));
            assert_eq!(write_cap(), None, "budget of 2 spent");
        });
    }
}
