//! The `paxsim-serve` daemon.
//!
//! ```text
//! paxsim-serve [--tcp ADDR] [--unix PATH] [--cache DIR]
//!              [--mem-cap N] [--max-running N] [--max-queue N]
//!              [--deadline-ms N] [--shards N] [--batch-window-ms N]
//!              [--workers N] [--fsync] [--breaker-threshold N]
//!              [--breaker-cooldown-ms N]
//! ```
//!
//! Listens for newline-delimited JSON requests (protocol in DESIGN.md
//! §10) until `SIGTERM`/`SIGINT`, then drains gracefully: in-flight work
//! finishes, new computations are refused, and the process exits 0 once
//! quiet. A `PAXSIM_FAULTS` plan applies to the whole daemon, as it does
//! to a sweep — an injected cell panic is retried, never fatal to the
//! daemon.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paxsim_core::faultinject::{self, FaultPlan};
use paxsim_serve::{ServeConfig, Server, Service};

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

fn install_term_handler() {
    extern "C" {
        // POSIX signal(2); declared directly so the daemon needs no
        // external crate. Handler runs on the signal stack and only
        // flips an atomic — async-signal-safe.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

struct Args {
    tcp: Option<String>,
    unix: Option<PathBuf>,
    cfg: ServeConfig,
    grace: Duration,
}

fn usage() -> ! {
    eprintln!(
        "usage: paxsim-serve [--tcp ADDR] [--unix PATH] [--cache DIR] \
         [--mem-cap N] [--max-running N] [--max-queue N] [--deadline-ms N] \
         [--shards N] [--batch-window-ms N] [--workers N] [--grace-secs N] \
         [--fsync] [--breaker-threshold N] [--breaker-cooldown-ms N]\n\
         at least one of --tcp/--unix is required\n\
         --fsync: fsync every journal append (crash-durable, slower)\n\
         --breaker-threshold: consecutive failures before a config is \
         quarantined (0 disables)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        tcp: None,
        unix: None,
        // The daemon defaults to a small nonzero gather window: 2 ms of
        // cold-miss latency buys merged sweeps under concurrent load
        // (simulations take tens of ms, so the window is noise).
        cfg: ServeConfig {
            batch_window_ms: 2,
            ..ServeConfig::default()
        },
        grace: Duration::from_secs(30),
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    let num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        value(it, flag).parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs a number");
            usage()
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" => args.tcp = Some(value(&mut it, "--tcp")),
            "--unix" => args.unix = Some(PathBuf::from(value(&mut it, "--unix"))),
            "--cache" => args.cfg.cache_dir = PathBuf::from(value(&mut it, "--cache")),
            "--mem-cap" => args.cfg.mem_cap = num(&mut it, "--mem-cap") as usize,
            "--max-running" => args.cfg.max_running = num(&mut it, "--max-running") as usize,
            "--max-queue" => args.cfg.max_queue = num(&mut it, "--max-queue") as usize,
            "--deadline-ms" => args.cfg.default_deadline_ms = Some(num(&mut it, "--deadline-ms")),
            "--shards" => args.cfg.shards = num(&mut it, "--shards") as usize,
            "--batch-window-ms" => args.cfg.batch_window_ms = num(&mut it, "--batch-window-ms"),
            "--workers" => args.cfg.workers = num(&mut it, "--workers") as usize,
            "--grace-secs" => args.grace = Duration::from_secs(num(&mut it, "--grace-secs")),
            "--fsync" => args.cfg.fsync = true,
            "--breaker-threshold" => {
                args.cfg.breaker_threshold = num(&mut it, "--breaker-threshold") as u32;
            }
            "--breaker-cooldown-ms" => {
                args.cfg.breaker_cooldown_ms = num(&mut it, "--breaker-cooldown-ms");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    if args.tcp.is_none() && args.unix.is_none() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let plan = FaultPlan::from_env();
    if plan.is_some() {
        eprintln!("paxsim-serve: PAXSIM_FAULTS plan active");
        faultinject::hide_injected_panics();
    }
    // The server's reactors and workers take the plan over from here.
    faultinject::scoped(plan, || serve(args));
}

fn serve(args: Args) {
    install_term_handler();
    let service = match Service::open(args.cfg.clone()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("paxsim-serve: cannot open cache: {e}");
            std::process::exit(1);
        }
    };
    let server = match Server::start(service.clone(), args.tcp.as_deref(), args.unix.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("paxsim-serve: cannot listen: {e}");
            std::process::exit(1);
        }
    };
    if let Some(addr) = server.tcp_addr() {
        println!("paxsim-serve: listening on tcp {addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("paxsim-serve: listening on unix {}", path.display());
    }
    println!(
        "paxsim-serve: cache {} ({} on disk, {} shards{}), batch window {} ms, {} workers",
        args.cfg.cache_dir.display(),
        service.cache().disk_len(),
        service.cache().shard_count(),
        if service.cache().migrated() > 0 {
            format!(", {} migrated", service.cache().migrated())
        } else {
            String::new()
        },
        args.cfg.batch_window_ms,
        args.cfg.effective_workers(),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !TERM.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("paxsim-serve: term signal, draining…");
    let drained = server.shutdown(args.grace);
    eprintln!(
        "paxsim-serve: {} (hits {} misses {} computed {})",
        if drained {
            "drained cleanly"
        } else {
            "grace period expired"
        },
        service.cache().hits(),
        service.cache().misses(),
        service.computed(),
    );
    std::process::exit(if drained { 0 } else { 1 });
}
