//! `serve-cold`: bursts of never-seen exact `simulate` specs, each burst
//! also repeating specs from itself and from earlier bursts, so
//! single-flight joins and cache reads run beside new puts and journal
//! appends. A burst is open: all of its requests are due at its start and
//! are pipelined over two connections at once; the next burst is due when
//! the previous burst's last reply lands. Latency is timed from the due
//! time, so a late generator shows up as latency too (and is reported).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use paxsim_core::prelude::*;
use paxsim_core::store::TraceKey;
use paxsim_machine::sim::JobSpec;
use paxsim_nas::all_kernels;
use paxsim_serve::{protocol, ResultCache};
use serde::Value;

use crate::daemon::{self, Conn, Daemon};
use crate::report::Report;
use crate::rng::{fresh_jitter, Rng};
use crate::stats::{median, percentile};
use crate::study::{table1_configs, timed_simulate, SimTimes};
use crate::sys::TempDir;
use crate::Ctx;

/// New specs per kernel in one burst.
const NEW_PER_KERNEL: usize = 2;
/// Repeats of this burst's own new specs, and of earlier bursts' specs.
const REPEAT_SAME: usize = 4;
const REPEAT_EARLIER: usize = 4;
/// Trials per spec: trial 0 is quiet, so a second, jittered trial makes
/// every new jitter value new engine work.
const TRIALS: u64 = 2;
const CONNECTIONS: usize = 2;

fn spec_line(kernel: &str, config: &str, jitter: u64) -> String {
    format!(
        r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}","trials":{TRIALS},"jitter":{jitter}}}"#
    )
}

/// The seeded burst stream. Every burst shares one never-used jitter
/// value, so its new specs batch together; they differ in kernel and
/// configuration.
pub struct Bursts {
    rng: Rng,
    jitters: HashSet<u64>,
    history: Vec<String>,
}

impl Bursts {
    pub fn new(seed: u64) -> Self {
        Bursts {
            rng: Rng::new(seed),
            jitters: HashSet::new(),
            history: Vec::new(),
        }
    }

    /// A jitter value no earlier spec of this stream used.
    pub fn next_burst(&mut self) -> Vec<String> {
        let jitter = fresh_jitter(&mut self.rng, &mut self.jitters);
        let configs = table1_configs();
        // Every configuration appears equally often in a burst, so bursts
        // of different seeds carry the same mix of engine work.
        let mut perm: Vec<usize> = (0..configs.len()).collect();
        self.rng.shuffle(&mut perm);
        let mut new = Vec::new();
        for (i, k) in all_kernels().into_iter().enumerate() {
            for j in 0..NEW_PER_KERNEL {
                let c = perm[(i * NEW_PER_KERNEL + j) % perm.len()];
                new.push(spec_line(k.name(), &configs[c].name, jitter));
            }
        }
        let mut burst = new.clone();
        let earlier = if self.history.is_empty() {
            0
        } else {
            REPEAT_EARLIER
        };
        for _ in 0..REPEAT_SAME + REPEAT_EARLIER - earlier {
            burst.push(new[self.rng.below(new.len())].clone());
        }
        for _ in 0..earlier {
            burst.push(self.history[self.rng.below(self.history.len())].clone());
        }
        self.rng.shuffle(&mut burst);
        self.history.extend(new);
        burst
    }
}

pub struct State {
    daemon: Daemon,
}

pub fn setup(_seed: u64) -> Result<State, String> {
    let daemon = Daemon::start("cold")?;
    for k in all_kernels() {
        for c in table1_configs() {
            daemon.warm_trace(&spec_line(k.name(), &c.name, 0))?;
        }
    }
    Ok(State { daemon })
}

type Replies = Vec<Result<(String, Instant), String>>;

/// Send one connection's share of a burst and read every reply.
fn run_conn(conn: &mut Conn, lines: &[&str]) -> (Instant, Replies) {
    let t_send = Instant::now();
    let mut replies = Vec::with_capacity(lines.len());
    if let Err(e) = conn.send_all(lines) {
        replies.push(Err(e));
        return (t_send, replies);
    }
    for _ in lines {
        match conn.read_reply() {
            Ok(r) => replies.push(Ok((r.to_string(), Instant::now()))),
            Err(e) => {
                replies.push(Err(e));
                break;
            }
        }
    }
    (t_send, replies)
}

pub fn measure(state: State, ctx: &mut Ctx, r: &mut Report) -> Result<(), String> {
    let daemon = state.daemon;
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let mut stream = Bursts::new(ctx.seed);
    let mut first_reply: HashMap<String, String> = HashMap::new();
    let (mut lat_ms, mut burst_s, mut late_ms) = (vec![], vec![], vec![]);
    let (mut lost, mut mismatch) = (0u64, None);
    let mut failures: HashMap<String, u64> = HashMap::new();
    let t0 = Instant::now();
    let mut due = t0;
    let mut bursts = 0usize;
    while ctx.more(t0, bursts) {
        let burst = stream.next_burst();
        r.attempted += burst.len() as u64;
        let id = bursts as u64;
        let end = ctx
            .rec
            .span("bench.burst", id, |rec| -> Result<Instant, String> {
                let results: Vec<(Instant, Replies)> = std::thread::scope(|s| {
                    let handles: Vec<_> = conns
                        .iter_mut()
                        .enumerate()
                        .map(|(ci, conn)| {
                            let lines: Vec<&str> = burst
                                .iter()
                                .skip(ci)
                                .step_by(CONNECTIONS)
                                .map(String::as_str)
                                .collect();
                            s.spawn(move || run_conn(conn, &lines))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread"))
                        .collect()
                });
                let mut end = due;
                let sent = results.iter().map(|(t, _)| *t).min().unwrap_or(due);
                late_ms.push((sent - due).as_secs_f64() * 1e3);
                for (ci, (_, replies)) in results.into_iter().enumerate() {
                    let lines: Vec<&String> = burst.iter().skip(ci).step_by(CONNECTIONS).collect();
                    let answered = replies.iter().filter(|x| x.is_ok()).count();
                    if answered < lines.len() {
                        lost += (lines.len() - answered) as u64;
                        r.failed += (lines.len() - answered) as u64;
                        conns[ci] = daemon.connect()?;
                    }
                    for (line, reply) in lines.into_iter().zip(replies) {
                        let Ok((reply, at)) = reply else { continue };
                        rec.record("serve.request", id, due, at);
                        end = end.max(at);
                        if let Some(category) = daemon::failure(&reply) {
                            r.failed += 1;
                            *failures.entry(category).or_default() += 1;
                            continue;
                        }
                        lat_ms.push((at - due).as_secs_f64() * 1e3);
                        let first = first_reply
                            .entry(line.clone())
                            .or_insert_with(|| reply.clone());
                        if *first != reply && mismatch.is_none() {
                            mismatch = Some(format!("repeat of {line} answered differently"));
                        }
                    }
                }
                Ok(end)
            })?;
        burst_s.push((end - due).as_secs_f64());
        bursts += 1;
        due = Instant::now();
    }

    let s = r.timing("cold_p50_ms", "ms", &lat_ms);
    r.scalar(
        "cold_p90_ms",
        "ms",
        percentile(&lat_ms, 90.0).unwrap_or(s.p50),
        lat_ms.len(),
    );
    let b = r.timing("cold_burst_s", "s", &burst_s);
    r.timing("cold_send_late_ms", "ms", &late_ms);
    r.e2e("op_p50_ms", b.p50 * 1e3);
    r.scalar(
        "cold_rps",
        "req/s",
        lat_ms.len() as f64 / burst_s.iter().sum::<f64>(),
        lat_ms.len(),
    );
    r.note("bursts", Value::UInt(bursts as u64));
    r.note(
        "burst_width",
        Value::UInt((all_kernels().len() * NEW_PER_KERNEL + REPEAT_SAME + REPEAT_EARLIER) as u64),
    );
    r.note(
        "failures_by_category",
        Value::Object(
            failures
                .into_iter()
                .map(|(k, v)| (k, Value::UInt(v)))
                .collect(),
        ),
    );

    r.check("repeats_byte_identical", mismatch.map_or(Ok(()), Err));
    r.check(
        "no_reply_lost",
        if lost == 0 {
            Ok(())
        } else {
            Err(format!("{lost} requests got no reply"))
        },
    );
    let stats = daemon.stats()?;
    r.check("conservation", daemon::conservation(&stats));

    if ctx.rec.on() {
        probe(&daemon, &mut stream, ctx, r)?;
    }
    r.check(
        "drained",
        if daemon.shutdown() {
            Ok(())
        } else {
            Err("server did not drain".into())
        },
    );
    Ok(())
}

/// Time the miss path's public pieces: a sequential `handle_line` on
/// fresh specs, a journal `put` into a scratch cache, and the engine call
/// behind a cold spec.
fn probe(
    daemon: &Daemon,
    stream: &mut Bursts,
    ctx: &mut Ctx,
    r: &mut Report,
) -> Result<(), String> {
    let svc = &daemon.service;
    let burst = stream.next_burst();
    let mut seen = HashSet::new();
    let fresh: Vec<&String> = burst.iter().filter(|l| seen.insert(*l)).take(6).collect();
    let mut miss_ms = Vec::new();
    for (i, line) in fresh.iter().enumerate() {
        let t = Instant::now();
        let reply = ctx
            .rec
            .span("serve.handle_line", i as u64, |_| svc.handle_line(line));
        miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(e) = daemon::failure(&reply) {
            return Err(format!("sequential miss failed: {e}"));
        }
    }
    r.layer("serve.miss_ms", median(&miss_ms));

    let mut sims = SimTimes::default();
    for (i, line) in fresh.iter().enumerate().take(4) {
        let Ok(paxsim_serve::Request::Simulate { spec, .. }) = protocol::parse_request(line) else {
            return Err(format!("probe line does not parse: {line}"));
        };
        let resolved = spec.resolve().map_err(|e| e.to_string())?;
        let trace = svc
            .store()
            .try_get(TraceKey {
                kernel: resolved.kernel,
                class: resolved.class,
                nthreads: resolved.config.threads,
                schedule: resolved.schedule,
            })
            .map_err(|e| e.to_string())?;
        let job = JobSpec::pinned(trace, resolved.config.contexts.clone())
            .with_jitter(resolved.spec.jitter, 1);
        timed_simulate(
            &mut ctx.rec,
            &mut sims,
            i as u64,
            &resolved.options().machine,
            vec![job],
        );
    }
    sims.apply(r);

    let Ok(paxsim_serve::Request::Simulate { spec, .. }) = protocol::parse_request(fresh[0]) else {
        return Err("probe line does not parse".into());
    };
    let key = spec.resolve().map_err(|e| e.to_string())?.content_hash();
    let sides = svc
        .cache()
        .peek(key)
        .ok_or("answered spec missing from cache")?
        .sides;
    let dir = TempDir::new("cold-put").map_err(|e| e.to_string())?;
    let scratch = ResultCache::open(dir.path(), 256, 8).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(ctx.seed);
    let mut put_us = Vec::new();
    for i in 0..200u64 {
        let hash = ConfigHash(rng.next_u64());
        let t = Instant::now();
        ctx.rec
            .span("serve.put", i, |_| scratch.put(hash, sides.clone()))
            .map_err(|e| e.to_string())?;
        put_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    r.layer("serve.put_us", median(&put_us));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> String {
        let mut b = Bursts::new(seed);
        (0..5)
            .map(|_| b.next_burst().join("\n"))
            .collect::<Vec<_>>()
            .join("\n--\n")
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
    }

    #[test]
    fn bursts_are_wider_than_admission_and_repeat_specs() {
        let mut b = Bursts::new(1);
        let first = b.next_burst();
        let second = b.next_burst();
        // Wider than 2 running + 4 queued on a 2-core host.
        assert!(first.len() > 6);
        let distinct: HashSet<&String> = first.iter().collect();
        assert!(
            distinct.len() < first.len(),
            "a burst repeats its own specs"
        );
        let earlier: HashSet<&String> = first.iter().collect();
        assert!(
            second.iter().any(|l| earlier.contains(l)),
            "a burst repeats earlier specs"
        );
    }
}
