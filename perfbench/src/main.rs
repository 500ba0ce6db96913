//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one named workload in this fresh process, from inputs generated
//! from `--seed`, for `--seconds` of measurement; checks the workload's
//! outputs; and prints a `detail` JSON line followed by the result line
//! (see `report.rs`). `--trace 1` runs the same workload with spans around
//! every call into the crates and reports per-layer metrics instead of the
//! end-to-end ones. Workloads and metrics are described in `README.md`.
//!
//! Internal modes re-invoke this binary in a fresh process:
//! `--setup-only` performs one workload set-up and exits (set-up time is
//! the median over several of these); `--setup-reps 0` skips those
//! set-up samples (used for the untraced comparison run of a traced run);
//! `--study-pass` runs one study-T pass and prints its summary.

mod cold;
mod counters;
mod daemon;
mod hot;
mod report;
mod rng;
mod spans;
mod stats;
mod study;
mod sys;
mod tune;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use crate::report::Report;
use crate::spans::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyT,
    ServeHot,
    ServeCold,
    PredictTune,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::StudyT,
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::PredictTune,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::StudyT => "study-T",
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::PredictTune => "predict-tune",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fresh-process set-ups timed per run. Cheap set-ups take more
    /// samples so their median stays steady.
    fn setup_reps(self) -> usize {
        match self {
            Workload::StudyT => 9,
            _ => 3,
        }
    }
}

/// What one measured section gets: its seed, its length and the span
/// recorder (a no-op when tracing is off).
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub rec: Recorder,
}

impl Ctx {
    /// True while the measured window that began at `t0` is open: another
    /// operation starts until `--seconds` have passed, so the last one may
    /// run past the window, and at least one always runs.
    pub fn more(&self, t0: Instant, done: usize) -> bool {
        done == 0 || t0.elapsed().as_secs_f64() < self.seconds
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    setup_reps: Option<usize>,
    study_pass: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut setup_reps = None;
    let mut study_pass = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let v = value("--workload");
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{v}`"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs an integer")),
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--setup-only" => setup_only = true,
            "--study-pass" => study_pass = true,
            "--setup-reps" => {
                setup_reps = Some(
                    value("--setup-reps")
                        .parse()
                        .unwrap_or_else(|_| usage("--setup-reps needs an integer")),
                )
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_only,
        setup_reps,
        study_pass,
    }
}

/// A workload after set-up, ready to measure.
enum Prepared {
    Study(study::State),
    Hot(hot::State),
    Cold(cold::State),
    Tune(tune::State),
}

fn setup(w: Workload, seed: u64) -> Result<Prepared, String> {
    Ok(match w {
        Workload::StudyT => Prepared::Study(study::setup()),
        Workload::ServeHot => Prepared::Hot(hot::setup()?),
        Workload::ServeCold => Prepared::Cold(cold::setup(seed)?),
        Workload::PredictTune => Prepared::Tune(tune::setup()?),
    })
}

fn measure(p: Prepared, ctx: &mut Ctx, r: &mut Report) -> Result<(), String> {
    match p {
        Prepared::Study(s) => study::measure(s, ctx, r),
        Prepared::Hot(s) => hot::measure(s, ctx, r),
        Prepared::Cold(s) => cold::measure(s, ctx, r),
        Prepared::Tune(s) => tune::measure(s, ctx, r),
    }
}

fn self_cmd(args: &Args) -> Command {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot locate own binary: {e}");
        std::process::exit(1);
    });
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd
}

/// Time `reps` set-ups, each in a fresh process: from spawn until the
/// child reports it is ready to take its first timed operation.
fn setup_samples(args: &Args, reps: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut child = self_cmd(args)
            .arg("--setup-only")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = t0.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up child: {e}"))?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("set-up child failed ({status})"));
        }
        out.push(elapsed);
    }
    Ok(out)
}

/// Run this workload untraced in a fresh process and return its
/// operation median, the base the traced run's overhead is taken against.
fn untraced_op_p50(args: &Args) -> Result<f64, String> {
    let out = self_cmd(args)
        .args(["--trace", "0", "--setup-reps", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn untraced child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = serde_json::parse(last).map_err(|e| format!("untraced child output: {e}"))?;
    if !out.status.success() || v["correct"].as_bool() != Some(true) {
        return Err("untraced child run failed".into());
    }
    v["metrics"]["op_p50_ms"]["value"]
        .as_f64()
        .ok_or_else(|| "untraced child printed no op_p50_ms".into())
}

fn env_value(args: &Args, obs: bool) -> Value {
    let s = |v: &str| Value::String(v.to_string());
    Value::Object(vec![
        ("workload".into(), s(args.workload.name())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("commit".into(), s(&sys::commit())),
        ("nproc".into(), Value::UInt(sys::nproc() as u64)),
        ("paxsim_obs_env".into(), s(&sys::obs_env())),
        ("obs_enabled".into(), Value::Bool(obs)),
    ])
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    if let Some(var) = sys::forbidden_env() {
        fail(&format!(
            "{var} is set; it changes the program being measured, refusing to run"
        ));
    }
    if args.trace {
        // The traced run reads the program's own counters.
        paxsim_obs::set_enabled(true);
    }

    if args.study_pass {
        study::pass_child();
        return;
    }
    if args.setup_only {
        let prepared = setup(args.workload, args.seed).unwrap_or_else(|e| fail(&e));
        println!("ready");
        drop(prepared);
        return;
    }

    let mut report = Report::default();
    // A traced run takes its overhead base from an untraced run in a fresh
    // process; an untraced run times its set-up in fresh processes.
    let untraced = if args.trace {
        Some(untraced_op_p50(&args).unwrap_or_else(|e| fail(&e)))
    } else {
        let reps = args.setup_reps.unwrap_or(args.workload.setup_reps());
        let p50 = if reps > 0 {
            let samples = setup_samples(&args, reps).unwrap_or_else(|e| fail(&e));
            report.timing("setup_s", "s", &samples).p50
        } else {
            0.0
        };
        report.e2e("setup_s", p50);
        None
    };

    let t_setup = Instant::now();
    let prepared = setup(args.workload, args.seed).unwrap_or_else(|e| fail(&e));
    report.scalar("main_setup_s", "s", t_setup.elapsed().as_secs_f64(), 1);

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        rec: Recorder::new(args.trace),
    };
    let before = counters::Counts::take();
    if let Err(e) = measure(prepared, &mut ctx, &mut report) {
        fail(&format!("{} failed: {e}", args.workload.name()));
    }
    counters::Counts::take().since(&before).apply(&mut report);
    let rss = report.e2e_value("peak_rss_mb").unwrap_or(0.0);
    report.e2e("peak_rss_mb", rss.max(sys::peak_rss_mb()));
    report.scalar(
        "error_rate",
        "ratio",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.attempted as usize,
    );

    if args.trace {
        let by_layer = ctx.rec.self_ms_by_layer();
        for (layer, metric) in report::SELF_LAYERS {
            report.layer(metric, by_layer.get(*layer).copied().unwrap_or(0.0));
        }
        report.layer("bench.spans", ctx.rec.len() as f64);
        let traced = report.e2e_value("op_p50_ms").unwrap_or(0.0);
        if let Some(base) = untraced {
            report.layer("bench.trace_overhead", stats::ratio(traced, base));
            report.scalar("untraced_op_p50_ms", "ms", base, 1);
            report.scalar("traced_op_p50_ms", "ms", traced, 1);
        }
        let path = std::path::Path::new(".perfbench").join(format!(
            "trace-{}-{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(".perfbench").and_then(|()| ctx.rec.write_ndjson(&path)) {
            Ok(()) => report.note("spans_file", Value::String(path.display().to_string())),
            Err(e) => report.check("spans_written", Err(format!("{}: {e}", path.display()))),
        }
    } else {
        let missing = report.missing_e2e();
        if !missing.is_empty() {
            fail(&format!("workload set no value for {missing:?}"));
        }
    }

    println!(
        "{}",
        report.detail_line(env_value(&args, paxsim_obs::enabled()))
    );
    println!("{}", report.result_line(args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
