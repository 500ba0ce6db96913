//! `serve-hot`: the 8 kernels × 8 Table-1 configurations grid, warmed in
//! set-up, then seeded uniform draws from it over one connection with one
//! request outstanding (closed loop). Every request is an inline cache
//! hit, so parse, hash, cache probe, render and the reactor do the work.

use std::time::Instant;

use paxsim_nas::all_kernels;
use paxsim_serve::protocol;

use crate::daemon::{self, Daemon};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::study::table1_configs;
use crate::Ctx;

/// Calls per grid line in each traced per-call probe.
const PROBE_REPS: usize = 20;

pub struct State {
    daemon: Daemon,
    grid: Vec<String>,
    warm: Vec<String>,
}

/// One `simulate` line per (kernel, Table-1 configuration).
pub fn grid() -> Vec<String> {
    let configs = table1_configs();
    all_kernels()
        .iter()
        .flat_map(|k| {
            configs.iter().map(move |c| {
                format!(
                    r#"{{"op":"simulate","kernel":"{}","config":"{}"}}"#,
                    k.name(),
                    c.name
                )
            })
        })
        .collect()
}

pub fn setup() -> Result<State, String> {
    let daemon = Daemon::start("hot")?;
    let grid = grid();
    let mut conn = daemon.connect()?;
    let mut warm = Vec::with_capacity(grid.len());
    for line in &grid {
        let reply = conn.roundtrip(line)?;
        if let Some(e) = daemon::failure(&reply) {
            return Err(format!("warm-up of {line} failed: {e}"));
        }
        warm.push(reply);
    }
    Ok(State { daemon, grid, warm })
}

/// The seeded request stream: indices into the grid.
pub fn draws(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed);
    let n = grid().len();
    std::iter::repeat_with(move || rng.below(n))
}

pub fn measure(state: State, ctx: &mut Ctx, r: &mut Report) -> Result<(), String> {
    let State { daemon, grid, warm } = state;
    let mut conn = daemon.connect()?;
    let mut lat_us = Vec::new();
    let mut mismatch: Option<String> = None;
    let mut draws = draws(ctx.seed);
    let t0 = Instant::now();
    while ctx.more(t0, r.attempted as usize) {
        let i = draws.next().expect("endless stream");
        r.attempted += 1;
        let t = Instant::now();
        let reply = conn.send_all(&[&grid[i]]).and_then(|()| conn.read_reply());
        let end = Instant::now();
        ctx.rec.record("serve.request", r.attempted, t, end);
        match reply {
            Ok(reply) if daemon::failure(reply).is_none() => {
                lat_us.push((end - t).as_secs_f64() * 1e6);
                if reply != warm[i] && mismatch.is_none() {
                    mismatch = Some(format!(
                        "reply to {} differs from its warm-up reply",
                        grid[i]
                    ));
                }
            }
            Ok(_) => r.failed += 1,
            Err(_) => {
                r.failed += 1;
                conn = daemon.connect()?;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let s = r.timing("hot_p50_us", "us", &lat_us);
    let p99 = percentile(&lat_us, 99.0).unwrap_or(s.tail.map_or(s.p50, |t| t.1));
    r.scalar("hot_p99_us", "us", p99, lat_us.len());
    let rps = lat_us.len() as f64 / wall;
    r.scalar("hot_rps", "req/s", rps, lat_us.len());
    r.e2e("op_p50_ms", s.p50 / 1e3);

    r.check("replies_match_warm_up", mismatch.map_or(Ok(()), Err));
    let stats = daemon.stats()?;
    r.check("conservation", daemon::conservation(&stats));
    let expected = grid.len() as u64 + r.attempted;
    let counted = stats["simulate_requests"].as_u64().unwrap_or(0);
    r.check(
        "every_request_counted",
        if counted == expected {
            Ok(())
        } else {
            Err(format!(
                "server counted {counted} simulate requests, client sent {expected}"
            ))
        },
    );

    if ctx.rec.on() {
        probe(&daemon, &grid, r, s.p50)?;
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

/// Time single public calls of the hit path, `PROBE_REPS` per grid line,
/// and report the median per call in µs.
fn probe(daemon: &Daemon, grid: &[String], r: &mut Report, wire_p50_us: f64) -> Result<(), String> {
    let svc = &daemon.service;
    let (mut parse, mut hash, mut peek, mut render, mut hit) =
        (vec![], vec![], vec![], vec![], vec![]);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for line in grid {
        let Ok(paxsim_serve::Request::Simulate { spec, .. }) = protocol::parse_request(line) else {
            return Err(format!("grid line does not parse: {line}"));
        };
        let resolved = spec.resolve().map_err(|e| e.to_string())?;
        let key = resolved.content_hash();
        let rec = svc
            .cache()
            .peek(key)
            .ok_or("warm grid entry missing from cache")?;
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            std::hint::black_box(protocol::parse_request(std::hint::black_box(line)).is_ok());
            parse.push(us(t));
            let t = Instant::now();
            std::hint::black_box(resolved.content_hash());
            hash.push(us(t));
            let t = Instant::now();
            std::hint::black_box(svc.cache().peek(key));
            peek.push(us(t));
            let t = Instant::now();
            std::hint::black_box(protocol::render_result(key, &resolved.spec, &rec));
            render.push(us(t));
            let t = Instant::now();
            std::hint::black_box(svc.try_hit(line));
            hit.push(us(t));
        }
    }
    r.layer("serve.parse_us", median(&parse));
    r.layer("core.hash_us", median(&hash));
    r.layer("serve.probe_us", median(&peek));
    r.layer("serve.render_us", median(&render));
    let try_hit = median(&hit);
    r.layer("serve.try_hit_us", try_hit);
    r.layer("serve.wire_us", wire_p50_us - try_hit);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<usize> = draws(7).take(500).collect();
        let b: Vec<usize> = draws(7).take(500).collect();
        let c: Vec<usize> = draws(8).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(grid().len(), 64);
    }
}
