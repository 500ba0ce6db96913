//! Counts the program already exposes through `paxsim_obs`, read before
//! and after a timed section. They only move while the obs layer is on:
//! the serve workloads run with it on (as the daemon does), and every
//! traced run turns it on.

use crate::report::Report;
use crate::stats::ratio;

const COUNTERS: [&str; 17] = [
    "machine.sim.runs",
    "machine.memo.probes",
    "machine.memo.hits",
    "machine.sched.events_scheduled",
    "machine.sched.cycles_skipped",
    "core.store.hits",
    "core.store.builds",
    "predict.profile.hits",
    "predict.profile.misses",
    "serve.requests",
    "serve.inline_hits",
    "serve.flight.led",
    "serve.flight.joined",
    "serve.batch.batches",
    "serve.batch.merged",
    "serve.predict.audits",
    "serve.predict.fallbacks",
];

#[derive(Debug, Clone, Copy)]
pub struct Counts {
    c: [u64; COUNTERS.len()],
}

impl Counts {
    pub fn take() -> Counts {
        Counts {
            c: COUNTERS.map(|n| paxsim_obs::counter(n).get()),
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counts) -> Counts {
        let mut c = self.c;
        for (v, b) in c.iter_mut().zip(before.c) {
            *v -= b;
        }
        Counts { c }
    }

    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a tracked counter"));
        self.c[i]
    }

    /// Set every per-layer metric that is a ratio or total of these counts.
    pub fn apply(&self, r: &mut Report) {
        let g = |n| self.get(n) as f64;
        r.layer("machine.sim_calls", g("machine.sim.runs"));
        r.layer("machine.memo_probes", g("machine.memo.probes"));
        r.layer(
            "machine.memo_hit_rate",
            ratio(g("machine.memo.hits"), g("machine.memo.probes")),
        );
        r.layer("machine.cycles_skipped", g("machine.sched.cycles_skipped"));
        r.layer("nas.builds", g("core.store.builds"));
        r.layer(
            "core.store_hit_rate",
            ratio(
                g("core.store.hits"),
                g("core.store.hits") + g("core.store.builds"),
            ),
        );
        r.layer(
            "predict.profile_hit_rate",
            ratio(
                g("predict.profile.hits"),
                g("predict.profile.hits") + g("predict.profile.misses"),
            ),
        );
        r.layer(
            "serve.inline_hit_rate",
            ratio(g("serve.inline_hits"), g("serve.requests")),
        );
        r.layer(
            "serve.flight_join_rate",
            ratio(
                g("serve.flight.joined"),
                g("serve.flight.led") + g("serve.flight.joined"),
            ),
        );
        // Each batch holds its leader plus the requests merged into it.
        r.layer(
            "serve.batch_mean",
            ratio(
                g("serve.batch.batches") + g("serve.batch.merged"),
                g("serve.batch.batches"),
            ),
        );
        r.layer(
            "serve.merge_rate",
            ratio(g("serve.batch.merged"), g("serve.flight.led")),
        );
        r.layer("predict.audits", g("serve.predict.audits"));
        r.layer("predict.fallbacks", g("serve.predict.fallbacks"));
    }
}
