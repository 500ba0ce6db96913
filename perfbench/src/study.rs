//! `study-T`: the `report all` sequence at class T, three trials, in this
//! process on a fresh `TraceStore` per pass — calibrate, the
//! single-program sections, phases, Figure 4 and Figure 5, rendered as
//! text and JSON. The text is byte-identical to `report --class T all`.

use std::collections::BTreeSet;
use std::time::Instant;

use paxsim_core::prelude::*;
use paxsim_core::report as render;
use paxsim_machine::sim::{simulate, simulate_reference, JobSpec, SimOutcome};
use paxsim_nas::{all_kernels, Class, KernelId};
use paxsim_omp::os::{split_jobs, PlacementPolicy};

use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::ratio;
use crate::{sys, Ctx};

/// The paper's HT-on-8-2 vs HT-off-4-2 slowdown, in percent.
const PAPER_HT_SLOWDOWN_PCT: f64 = 6.7;

pub struct State {
    opts: StudyOptions,
}

pub fn setup() -> State {
    State {
        opts: StudyOptions::paper(Class::T).with_trials(3),
    }
}

/// One pass of the report.
pub struct Pass {
    pub text: String,
    pub json_bytes: usize,
    pub total_s: f64,
    pub fig5_s: f64,
    pub sweeps: SweepClock,
    pub calib_worst: f64,
    pub ht_slowdown_pct: f64,
    pub store: TraceStore,
}

/// CPU and wall seconds spent inside the sweep drivers.
#[derive(Default)]
pub struct SweepClock {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl SweepClock {
    fn run<T>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (c0, w0) = (sys::cpu_seconds(), Instant::now());
        let out = rec.span(name, id, |_| f());
        self.cpu_s += sys::cpu_seconds() - c0;
        self.wall_s += w0.elapsed().as_secs_f64();
        out
    }
}

/// Host time of single calls into `simulate`, by job count.
#[derive(Default)]
pub struct SimTimes {
    pub calls: usize,
    pub ns: f64,
    pub single: (f64, f64),
    pub multi: (f64, f64),
    pub events: f64,
    pub uops: f64,
}

impl SimTimes {
    pub fn add(&mut self, jobs: usize, ns: f64, out: &SimOutcome) {
        let uops = out.total.instructions as f64;
        self.calls += 1;
        self.ns += ns;
        self.events += out.sched.events_scheduled as f64;
        self.uops += uops;
        let slot = if jobs == 1 {
            &mut self.single
        } else {
            &mut self.multi
        };
        slot.0 += ns;
        slot.1 += uops;
    }

    pub fn apply(&self, r: &mut Report) {
        r.layer("machine.sim_ms", ratio(self.ns, self.calls as f64) / 1e6);
        r.layer(
            "machine.single_ns_per_uop",
            ratio(self.single.0, self.single.1),
        );
        r.layer(
            "machine.multi_ns_per_uop",
            ratio(self.multi.0, self.multi.1),
        );
        r.layer(
            "machine.events_per_kuop",
            ratio(self.events, self.uops / 1e3),
        );
    }
}

/// Simulate through a span and add the call to `times`.
pub fn timed_simulate(
    rec: &mut Recorder,
    times: &mut SimTimes,
    id: u64,
    machine: &paxsim_machine::config::MachineConfig,
    jobs: Vec<JobSpec>,
) -> SimOutcome {
    let n = jobs.len();
    let t = Instant::now();
    let out = rec.span("machine.simulate", id, |_| simulate(machine, jobs));
    times.add(n, t.elapsed().as_nanos() as f64, &out);
    out
}

/// The serial baseline plus Table 1's seven parallel configurations.
pub fn table1_configs() -> Vec<HwConfig> {
    let mut v = vec![serial()];
    v.extend(parallel_configs());
    v
}

fn cmp_smp() -> HwConfig {
    config_by_name("CMP-based SMP").expect("Table 1 has CMP-based SMP")
}

/// Every trace key the report builds, in a fixed order.
fn trace_keys(opts: &StudyOptions) -> Vec<TraceKey> {
    let mut set = BTreeSet::new();
    let parallel = parallel_configs();
    for &b in &opts.benchmarks {
        set.insert((b, 1));
        for c in &parallel {
            set.insert((b, c.threads));
        }
    }
    let mut paired: Vec<KernelId> = paper_workloads()
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .collect();
    paired.extend(all_kernels());
    for b in paired {
        set.insert((b, 1));
        for c in parallel.iter().filter(|c| c.threads >= 2) {
            set.insert((b, c.threads / 2));
        }
    }
    set.into_iter()
        .map(|(kernel, nthreads)| TraceKey {
            kernel,
            class: opts.class,
            nthreads,
            schedule: opts.schedule,
        })
        .collect()
}

/// Run the report once. With tracing on, every trace is built up front
/// through timed `TraceStore::get` calls so trace building shows as its
/// own layer.
pub fn run_pass(opts: &StudyOptions, rec: &mut Recorder, sims: &mut SimTimes, id: u64) -> Pass {
    let store = TraceStore::new();
    let t0 = Instant::now();
    let mut text = String::new();
    let mut json_bytes = 0usize;
    let mut out = |rec: &mut Recorder, f: &dyn Fn() -> String| {
        let s = rec.span("core.report", id, |_| f());
        text.push_str(&s);
        text.push('\n');
    };
    let mut sweeps = SweepClock::default();

    if rec.on() {
        for (i, key) in trace_keys(opts).into_iter().enumerate() {
            rec.span("nas.build", i as u64, |_| store.get(key));
        }
    }
    out(rec, &table1_text);
    let cal = rec.span("lmbench.calibrate", id, |_| calibrate(&opts.machine));
    out(rec, &|| platform_text(&cal));

    let single = sweeps.run(rec, "core.single", id, || run_single_program(opts, &store));
    let heads = headlines(&single);
    out(rec, &|| fig2_text(&single));
    out(rec, &|| fig3_text(&single));
    out(rec, &|| table2_text(&single));
    out(rec, &|| headlines_text(&heads));
    out(rec, &|| efficiency_text(&single));
    json_bytes += rec.span("core.report", id, |_| {
        json_len(render::single_to_json(&single))
    });

    let cfg = cmp_smp();
    for &bench in &opts.benchmarks {
        let trace = store.get(TraceKey {
            kernel: bench,
            class: opts.class,
            nthreads: cfg.threads,
            schedule: opts.schedule,
        });
        let run = timed_simulate(
            rec,
            sims,
            id,
            &opts.machine,
            vec![JobSpec::pinned(trace, cfg.contexts.clone())],
        );
        out(rec, &|| {
            phases_text(&format!("{bench} on {}", cfg.name), &run.jobs[0], 6)
        });
    }

    let multi = sweeps.run(rec, "core.multi", id, || {
        run_multi_program(opts, &store, &paper_workloads())
    });
    out(rec, &|| fig4_text(&multi));
    json_bytes += rec.span("core.report", id, |_| {
        json_len(render::multi_to_json(&multi))
    });

    let t5 = Instant::now();
    let opts5 = opts.clone().with_benchmarks(all_kernels().to_vec());
    let cross = sweeps.run(rec, "core.cross", id, || run_cross_product(&opts5, &store));
    out(rec, &|| fig5_text(&cross));
    json_bytes += rec.span("core.report", id, |_| {
        json_len(render::cross_to_json(&cross))
    });
    let fig5_s = t5.elapsed().as_secs_f64();

    Pass {
        text,
        json_bytes,
        total_s: t0.elapsed().as_secs_f64(),
        fig5_s,
        sweeps,
        calib_worst: cal.worst().rel_err(),
        ht_slowdown_pct: heads.ht8_vs_htoff4_slowdown * 100.0,
        store,
    }
}

fn json_len(v: StudyResult<serde_json::Value>) -> usize {
    v.ok()
        .and_then(|v| serde_json::to_string(&v).ok())
        .map_or(0, |s| s.len())
}

/// Jobs of one study cell, built exactly as the sweep drivers build them.
fn cell_jobs(
    opts: &StudyOptions,
    store: &TraceStore,
    kernels: &[KernelId],
    config: &HwConfig,
    trial: usize,
) -> Vec<JobSpec> {
    let jitter = if trial == 0 { 0 } else { opts.jitter_cycles };
    let key = |kernel, nthreads| TraceKey {
        kernel,
        class: opts.class,
        nthreads,
        schedule: opts.schedule,
    };
    if let [k] = kernels {
        let trace = store.get(key(*k, config.threads));
        return vec![
            JobSpec::pinned(trace, config.contexts.clone()).with_jitter(jitter, trial as u64)
        ];
    }
    let placements = split_jobs(&config.contexts, 2, PlacementPolicy::Spread);
    kernels
        .iter()
        .enumerate()
        .map(|(j, &k)| {
            JobSpec::pinned(store.get(key(k, config.threads / 2)), placements[j].clone())
                .with_jitter(jitter, (trial * 2 + j) as u64)
        })
        .collect()
}

fn same_outcome(a: &SimOutcome, b: &SimOutcome) -> bool {
    a.wall_cycles == b.wall_cycles
        && a.total == b.total
        && a.jobs.len() == b.jobs.len()
        && a.jobs.iter().zip(&b.jobs).all(|(x, y)| {
            x.cycles == y.cycles
                && x.counters == y.counters
                && x.regions.len() == y.regions.len()
                && x.regions
                    .iter()
                    .zip(&y.regions)
                    .all(|(r, s)| r.end == s.end && r.cycles == s.cycles)
        })
}

/// Single-job and two-job cells sampled from the study by `seed`.
pub fn sample_cells(seed: u64, opts: &StudyOptions) -> Vec<(Vec<KernelId>, HwConfig, usize)> {
    let mut rng = Rng::new(seed);
    let configs = table1_configs();
    let paired: Vec<HwConfig> = parallel_configs()
        .into_iter()
        .filter(|c| c.threads >= 2)
        .collect();
    let pairs = all_pairs(&all_kernels());
    let mut cells = Vec::new();
    for _ in 0..3 {
        let b = opts.benchmarks[rng.below(opts.benchmarks.len())];
        cells.push((
            vec![b],
            configs[rng.below(configs.len())].clone(),
            rng.below(opts.trials),
        ));
    }
    for _ in 0..2 {
        let (a, b) = pairs[rng.below(pairs.len())];
        cells.push((
            vec![a, b],
            paired[rng.below(paired.len())].clone(),
            rng.below(opts.trials),
        ));
    }
    cells
}

/// What one pass reports back: its timings, the answers the detail line
/// records, a hash of its text, and its process's peak memory.
pub struct PassSummary {
    pub total_s: f64,
    /// CPU seconds the pass's process used, all threads.
    pub cpu_s: f64,
    pub fig5_s: f64,
    pub calib_worst: f64,
    pub ht_slowdown_pct: f64,
    pub text_hash: u64,
    pub json_bytes: usize,
    pub rss_mb: f64,
}

impl PassSummary {
    fn of(p: &Pass) -> Self {
        PassSummary {
            total_s: p.total_s,
            cpu_s: sys::cpu_seconds(),
            fig5_s: p.fig5_s,
            calib_worst: p.calib_worst,
            ht_slowdown_pct: p.ht_slowdown_pct,
            text_hash: paxsim_core::hash::fnv1a(p.text.as_bytes()),
            json_bytes: p.json_bytes,
            rss_mb: sys::peak_rss_mb(),
        }
    }

    fn to_line(&self) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {} {} {:?}",
            self.total_s,
            self.cpu_s,
            self.fig5_s,
            self.calib_worst,
            self.ht_slowdown_pct,
            self.text_hash,
            self.json_bytes,
            self.rss_mb
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [a, u, b, c, d, e, g, h] = f[..] else {
            return None;
        };
        Some(PassSummary {
            total_s: a.parse().ok()?,
            cpu_s: u.parse().ok()?,
            fig5_s: b.parse().ok()?,
            calib_worst: c.parse().ok()?,
            ht_slowdown_pct: d.parse().ok()?,
            text_hash: e.parse().ok()?,
            json_bytes: g.parse().ok()?,
            rss_mb: h.parse().ok()?,
        })
    }
}

/// The body of a `--study-pass` child: one untraced pass, summarised on
/// one stdout line.
pub fn pass_child() {
    let state = setup();
    let pass = run_pass(
        &state.opts,
        &mut Recorder::new(false),
        &mut SimTimes::default(),
        0,
    );
    println!("{}", PassSummary::of(&pass).to_line());
}

/// Run one pass in a fresh process, so the process-global memo table
/// and every other cache start empty, as they do for `report`.
fn pass_in_child() -> Result<PassSummary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", "study-T", "--seed", "0", "--study-pass"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (
        out.status.success(),
        text.lines().last().and_then(PassSummary::parse),
    ) {
        (true, Some(p)) => Ok(p),
        _ => Err(format!("study pass child failed ({})", out.status)),
    }
}

pub fn measure(state: State, ctx: &mut Ctx, r: &mut Report) -> Result<(), String> {
    let opts = state.opts;
    let mut sims = SimTimes::default();
    // Untraced passes each run in a fresh process. The traced run makes
    // one pass in this process, where its spans are recorded; its store
    // serves the output check below.
    let mut passes: Vec<PassSummary> = Vec::new();
    let mut traced: Option<Pass> = None;
    if ctx.rec.on() {
        let pass = ctx
            .rec
            .span("bench.study", 0, |rec| run_pass(&opts, rec, &mut sims, 0));
        passes.push(PassSummary::of(&pass));
        traced = Some(pass);
    } else {
        let t0 = Instant::now();
        while ctx.more(t0, passes.len()) {
            passes.push(pass_in_child()?);
        }
    }
    r.attempted = passes.len() as u64;

    let study_s: Vec<f64> = passes.iter().map(|p| p.total_s).collect();
    let fig5_s: Vec<f64> = passes.iter().map(|p| p.fig5_s).collect();
    let s = r.timing("study_s", "s", &study_s);
    r.timing("fig5_s", "s", &fig5_s);
    let cpu_s: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    r.timing("study_cpu_s", "s", &cpu_s);
    r.e2e("op_p50_ms", s.p50 * 1e3);
    let last_pass = passes.last().expect("at least one pass");
    r.scalar("platform_err_max", "ratio", last_pass.calib_worst, 1);
    r.scalar(
        "ht_gap_pp",
        "pp",
        (last_pass.ht_slowdown_pct - PAPER_HT_SLOWDOWN_PCT).abs(),
        1,
    );
    // The passes' own processes hold the study's memory; this process
    // adds its own peak on top of the report.
    r.e2e(
        "peak_rss_mb",
        passes.iter().map(|p| p.rss_mb).fold(0.0, f64::max),
    );

    // Checks: every pass renders the same bytes, JSON renders, and the
    // fast engine matches the reference engine bit for bit on sampled cells.
    r.check(
        "passes_render_identical_text",
        if passes.iter().all(|p| p.text_hash == passes[0].text_hash) {
            Ok(())
        } else {
            Err("report text differs between passes".into())
        },
    );
    r.check(
        "json_renders",
        if passes.iter().all(|p| p.json_bytes > 0) {
            Ok(())
        } else {
            Err("JSON rendering failed".into())
        },
    );
    let fresh;
    let store = match &traced {
        Some(p) => &p.store,
        None => {
            fresh = TraceStore::new();
            &fresh
        }
    };
    let mut mismatches = Vec::new();
    for (i, (kernels, config, trial)) in sample_cells(ctx.seed, &opts).into_iter().enumerate() {
        let jobs = cell_jobs(&opts, store, &kernels, &config, trial);
        let fast = timed_simulate(
            &mut ctx.rec,
            &mut sims,
            1000 + i as u64,
            &opts.machine,
            jobs.clone(),
        );
        let slow = simulate_reference(&opts.machine, jobs);
        if !same_outcome(&fast, &slow) {
            mismatches.push(format!("{kernels:?} on {} trial {trial}", config.name));
        }
    }
    r.check(
        "simulate_matches_reference",
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(format!("fast engine drifted on {mismatches:?}"))
        },
    );

    if let Some(pass) = &traced {
        sims.apply(r);
        r.layer(
            "nas.build_ms",
            ratio(
                ctx.rec.total_ms("nas.build"),
                ctx.rec.count("nas.build") as f64,
            ),
        );
        r.layer(
            "nas.trace_mb",
            pass.store_bytes(&opts) as f64 / (1024.0 * 1024.0),
        );
        r.layer(
            "lmbench.calibrate_ms",
            ctx.rec.total_ms("lmbench.calibrate"),
        );
        r.layer("core.report_ms", ctx.rec.total_ms("core.report"));
        r.layer(
            "core.pool_busy",
            ratio(pass.sweeps.cpu_s, sys::nproc() as f64 * pass.sweeps.wall_s),
        );
    }
    Ok(())
}

impl Pass {
    /// Packed size of every trace the report uses.
    fn store_bytes(&self, opts: &StudyOptions) -> usize {
        trace_keys(opts)
            .into_iter()
            .map(|k| self.store.get(k).packed_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_matches_the_report_binary() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
        let out = std::process::Command::new(env!("CARGO"))
            .args([
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                manifest,
            ])
            .args([
                "-p",
                "paxsim-bench",
                "--bin",
                "report",
                "--",
                "--class",
                "T",
                "all",
            ])
            .output()
            .expect("run the report binary");
        assert!(out.status.success(), "report binary failed");
        let state = setup();
        let pass = run_pass(
            &state.opts,
            &mut Recorder::new(false),
            &mut SimTimes::default(),
            0,
        );
        assert!(
            pass.text == String::from_utf8_lossy(&out.stdout),
            "study-T text differs from `report --class T all`"
        );
    }
}
