//! `predict-tune`: a fresh cache; per round, for each kernel in seeded
//! order, one budgeted `op=tune` search plus `fidelity=predicted`
//! simulates over seeded (kernel, configuration, jitter) specs, all over
//! one connection with one request outstanding (closed loop). This is the
//! workload that runs `paxsim-predict` and `core::tune`.

use std::collections::HashSet;
use std::time::Instant;

use paxsim_core::prelude::*;
use paxsim_core::store::TraceKey;
use paxsim_nas::{all_kernels, Class};
use paxsim_omp::schedule::Schedule;
use paxsim_predict::{predict_program, profile_program, profile_region_uncached};
use serde::Value;

use crate::daemon::{self, Conn, Daemon};
use crate::report::Report;
use crate::rng::{fresh_jitter, Rng};
use crate::stats::{median, nearest_rank};
use crate::study::table1_configs;
use crate::Ctx;

/// The search grid and budget (the load generator's tune phase).
const TUNE_CONFIGS: [&str; 2] = ["CMP", "CMT"];
const TUNE_SCHEDULES: [&str; 2] = ["static", "dynamic,2"];
const BUDGET: usize = 16;
/// Trials per scored cell; the second is jittered, so each round's fresh
/// jitter makes every search new engine work.
const TRIALS: u64 = 2;
/// Predicted simulates per kernel per round.
const PREDICTED_PER_KERNEL: usize = 3;
/// Predicted specs whose error against the exact tier is measured.
const ERROR_SAMPLE: usize = 32;

fn tune_line(kernel: &str, jitter: u64) -> String {
    let q = |v: &[&str]| {
        v.iter()
            .map(|s| format!(r#""{s}""#))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        r#"{{"op":"tune","kernel":"{kernel}","configs":[{}],"schedules":[{}],"budget":{BUDGET},"trials":{TRIALS},"jitter":{jitter}}}"#,
        q(&TUNE_CONFIGS),
        q(&TUNE_SCHEDULES)
    )
}

fn exact_line(kernel: &str, config: &str, schedule: &str, jitter: u64) -> String {
    format!(
        r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}","schedule":"{schedule}","trials":{TRIALS},"jitter":{jitter}}}"#
    )
}

fn predicted_line(kernel: &str, config: &str, jitter: u64) -> String {
    format!(
        r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}","trials":{TRIALS},"jitter":{jitter},"fidelity":"predicted"}}"#
    )
}

/// One round of the seeded request stream: `(tune line, predicted lines)`
/// per kernel, kernels in seeded order.
pub struct Rounds {
    rng: Rng,
    jitters: HashSet<u64>,
}

pub struct Round {
    pub jitter: u64,
    pub items: Vec<(String, String, Vec<String>)>,
}

impl Rounds {
    pub fn new(seed: u64) -> Self {
        Rounds {
            rng: Rng::new(seed),
            jitters: HashSet::new(),
        }
    }

    pub fn next_round(&mut self) -> Round {
        let jitter = fresh_jitter(&mut self.rng, &mut self.jitters);
        let configs = table1_configs();
        let mut kernels = all_kernels().to_vec();
        self.rng.shuffle(&mut kernels);
        let items = kernels
            .into_iter()
            .map(|k| {
                let predicted = (0..PREDICTED_PER_KERNEL)
                    .map(|_| {
                        let c = &configs[self.rng.below(configs.len())];
                        let j = fresh_jitter(&mut self.rng, &mut self.jitters);
                        predicted_line(k.name(), &c.name, j)
                    })
                    .collect();
                (k.name().to_string(), tune_line(k.name(), jitter), predicted)
            })
            .collect();
        Round { jitter, items }
    }
}

pub struct State {
    daemon: Daemon,
}

pub fn setup() -> Result<State, String> {
    let daemon = Daemon::start("tune")?;
    for k in all_kernels() {
        for c in table1_configs() {
            daemon.warm_trace(&predicted_line(k.name(), &c.name, 0))?;
        }
        for c in TUNE_CONFIGS {
            for s in TUNE_SCHEDULES {
                daemon.warm_trace(&exact_line(k.name(), c, s, 0))?;
            }
        }
    }
    Ok(State { daemon })
}

struct Search {
    kernel: String,
    jitter: u64,
    reply: Value,
}

fn wall_cycles(reply: &Value) -> Option<f64> {
    reply["result"]["sides"].get_index(0)?["cycles"]["mean"].as_f64()
}

pub fn measure(state: State, ctx: &mut Ctx, r: &mut Report) -> Result<(), String> {
    let daemon = state.daemon;
    let mut conn = daemon.connect()?;
    let mut rounds = Rounds::new(ctx.seed);
    let (mut tune_ms, mut predict_ms) = (vec![], vec![]);
    let mut searches: Vec<Search> = Vec::new();
    let mut predicted: Vec<(String, Value)> = Vec::new();
    let t0 = Instant::now();
    let mut done = 0usize;
    while ctx.more(t0, done) {
        let round = rounds.next_round();
        for (kernel, tune, preds) in round.items {
            for (i, line) in std::iter::once(&tune).chain(&preds).enumerate() {
                r.attempted += 1;
                let t = Instant::now();
                let reply = conn.roundtrip(line);
                let end = Instant::now();
                let name = if i == 0 {
                    "serve.tune"
                } else {
                    "serve.request"
                };
                ctx.rec.record(name, r.attempted, t, end);
                let reply = match reply {
                    Ok(reply) if daemon::failure(&reply).is_none() => reply,
                    Ok(_) => {
                        r.failed += 1;
                        continue;
                    }
                    Err(_) => {
                        r.failed += 1;
                        conn = daemon.connect()?;
                        continue;
                    }
                };
                let ms = (end - t).as_secs_f64() * 1e3;
                let v = serde_json::parse(&reply).map_err(|e| format!("reply: {e}"))?;
                if i == 0 {
                    tune_ms.push(ms);
                    searches.push(Search {
                        kernel: kernel.clone(),
                        jitter: round.jitter,
                        reply: v,
                    });
                } else {
                    predict_ms.push(ms);
                    predicted.push((line.clone(), v));
                }
            }
        }
        done += 1;
    }

    let tune_s: Vec<f64> = tune_ms.iter().map(|ms| ms / 1e3).collect();
    let s = r.timing("tune_s", "s", &tune_s);
    r.timing("predict_p50_ms", "ms", &predict_ms);
    r.e2e("op_p50_ms", s.p50 * 1e3);
    r.note("rounds", Value::UInt(done as u64));

    r.check(
        "tune_matches_exhaustive_sweep",
        check_searches(&mut conn, &searches),
    );
    let fallbacks = predicted
        .iter()
        .filter(|(_, v)| v.get("fidelity").is_none())
        .count();
    let malformed = predicted
        .iter()
        .filter(|(_, v)| {
            v.get("fidelity").is_some()
                && (v["fidelity"].as_str() != Some("predicted") || v.get("error_bounds").is_none())
        })
        .count();
    r.check(
        "predicted_replies_declare_fidelity",
        if malformed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{malformed} predicted replies lack fidelity or error_bounds"
            ))
        },
    );
    let stats = daemon.stats()?;
    let stat_fallbacks = stats["predict"]["fallbacks"].as_u64().unwrap_or(0) as usize;
    r.check(
        "fallbacks_accounted",
        if fallbacks <= stat_fallbacks { Ok(()) } else { Err(format!("{fallbacks} exact replies to predicted requests, {stat_fallbacks} fallbacks counted")) },
    );
    r.note("predicted_fallback_replies", Value::UInt(fallbacks as u64));

    // Accuracy, outside the timed section: predicted wall cycles against
    // the exact tier for a seeded sample of the same specs.
    let mut rng = Rng::new(ctx.seed ^ 0xacc);
    let mut sample: Vec<&(String, Value)> = predicted
        .iter()
        .filter(|(_, v)| v.get("fidelity").is_some())
        .collect();
    rng.shuffle(&mut sample);
    let mut errors = Vec::new();
    for (line, v) in sample.into_iter().take(ERROR_SAMPLE) {
        let exact = conn.roundtrip(&line.replace(r#","fidelity":"predicted""#, ""))?;
        let exact = serde_json::parse(&exact).map_err(|e| format!("exact reply: {e}"))?;
        if let (Some(p), Some(e)) = (wall_cycles(v), wall_cycles(&exact)) {
            errors.push((p - e).abs() / e);
        }
    }
    r.scalar(
        "predict_err_p95",
        "ratio",
        nearest_rank(&errors, 95.0),
        errors.len(),
    );
    let stats = daemon.stats()?;
    r.check("conservation", daemon::conservation(&stats));

    if ctx.rec.on() {
        let (mut cells, mut exact_cells) = (0.0, 0.0);
        for s in &searches {
            let t = &s.reply["tune"];
            cells += t["evaluated"].as_f64().unwrap_or(0.0);
            if let Value::Array(rounds) = &t["rounds"] {
                exact_cells += rounds
                    .iter()
                    .filter(|x| x["fidelity"].as_str() == Some("exact"))
                    .map(|x| x["evaluated"].as_f64().unwrap_or(0.0))
                    .sum::<f64>();
            }
        }
        r.layer("core.tune_cells", cells);
        r.layer("core.tune_exact_cells", exact_cells);
        probe(&daemon, ctx, r)?;
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

/// Each search's winner and score must equal the best cell of an
/// exhaustive exact sweep of its grid.
fn check_searches(conn: &mut Conn, searches: &[Search]) -> Result<(), String> {
    for s in searches {
        let t = &s.reply["tune"];
        let best = (
            t["best_config"].as_str(),
            t["best_schedule"].as_str(),
            t["speedup"].as_f64(),
        );
        let mut sweep = Vec::new();
        for c in TUNE_CONFIGS {
            for sch in TUNE_SCHEDULES {
                let reply = conn.roundtrip(&exact_line(&s.kernel, c, sch, s.jitter))?;
                let v = serde_json::parse(&reply).map_err(|e| format!("sweep reply: {e}"))?;
                let speedup = v["result"]["sides"]
                    .get_index(0)
                    .and_then(|side| side["speedup"]["mean"].as_f64())
                    .ok_or_else(|| format!("sweep reply without speedup: {reply}"))?;
                let name = |k: &str| v["spec"][k].as_str().map(str::to_string);
                sweep.push((name("config"), name("schedule"), speedup));
            }
        }
        let top = sweep.iter().map(|x| x.2).fold(f64::NEG_INFINITY, f64::max);
        let winner = sweep
            .iter()
            .find(|x| x.0.as_deref() == best.0 && x.1.as_deref() == best.1)
            .ok_or_else(|| {
                format!(
                    "{}: winner {:?}/{:?} is not in its grid",
                    s.kernel, best.0, best.1
                )
            })?;
        if winner.2 != top || best.2 != Some(top) {
            return Err(format!(
                "{} jitter {}: search picked {:?}/{:?} at {:?}, exhaustive best is {top}",
                s.kernel, s.jitter, best.0, best.1, best.2
            ));
        }
    }
    Ok(())
}

/// Time the prediction tier's public calls: cold profile extraction per
/// trace, and model evaluation on a warm profile.
fn probe(daemon: &Daemon, ctx: &mut Ctx, r: &mut Report) -> Result<(), String> {
    let machine = paxsim_machine::config::MachineConfig::paxville_smp();
    let line = machine.l1d.line as u64;
    let cfg = config_by_name("CMP").ok_or("no CMP configuration")?;
    let (mut profile_ms, mut model_us) = (vec![], vec![]);
    for (i, k) in all_kernels().into_iter().enumerate() {
        let trace = daemon
            .service
            .store()
            .try_get(TraceKey {
                kernel: k,
                class: Class::T,
                nthreads: cfg.threads,
                schedule: Schedule::Static,
            })
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        ctx.rec.span("predict.profile", i as u64, |_| {
            for region in &trace.regions {
                std::hint::black_box(profile_region_uncached(region, line));
            }
        });
        profile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let profile = profile_program(&trace, line);
        for _ in 0..50 {
            let t = Instant::now();
            std::hint::black_box(ctx.rec.span("predict.model", i as u64, |_| {
                predict_program(&profile, &machine, &cfg.contexts)
            }));
            model_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    r.layer("predict.profile_ms", median(&profile_ms));
    r.layer("predict.model_us", median(&model_us));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> String {
        let mut r = Rounds::new(seed);
        (0..3)
            .flat_map(|_| r.next_round().items)
            .map(|(_, t, p)| format!("{t}\n{}", p.join("\n")))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
    }
}
