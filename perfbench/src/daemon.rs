//! An in-process `paxsim-serve` daemon on loopback TCP plus the client
//! side the serve workloads use, as `paxsim-loadgen` drives it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use paxsim_core::store::TraceKey;
use paxsim_serve::{ServeConfig, Server, Service};
use serde::Value;

use crate::sys::TempDir;

/// Replies slower than this count as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Daemon {
    pub service: Arc<Service>,
    server: Option<Server>,
    pub addr: String,
    // Dropped after the server, so the cache journals close first.
    _dir: TempDir,
}

impl Daemon {
    /// Open a service on a fresh cache directory with the `paxsim-serve`
    /// binary's defaults (2 ms gather window, admission sized to the
    /// host) and listen on an ephemeral loopback port.
    pub fn start(tag: &str) -> Result<Daemon, String> {
        let dir = TempDir::new(tag).map_err(|e| format!("cache dir: {e}"))?;
        let cfg = ServeConfig {
            cache_dir: dir.path().join("cache"),
            batch_window_ms: 2,
            ..ServeConfig::default()
        };
        let service = Arc::new(Service::open(cfg).map_err(|e| format!("open service: {e}"))?);
        let server = Server::start(service.clone(), Some("127.0.0.1:0"), None)
            .map_err(|e| format!("listen: {e}"))?;
        let addr = server.tcp_addr().ok_or("no tcp address")?.to_string();
        Ok(Daemon {
            service,
            server: Some(server),
            addr,
            _dir: dir,
        })
    }

    /// Build the trace behind `spec` in the service's own store, so the
    /// timed section never pays for a trace build.
    pub fn warm_trace(&self, spec_line: &str) -> Result<(), String> {
        let Ok(paxsim_serve::Request::Simulate { spec, .. }) =
            paxsim_serve::protocol::parse_request(spec_line)
        else {
            return Err(format!("not a simulate request: {spec_line}"));
        };
        let r = spec.resolve().map_err(|e| e.to_string())?;
        for nthreads in [r.config.threads, 1] {
            self.service
                .store()
                .try_get(TraceKey {
                    kernel: r.kernel,
                    class: r.class,
                    nthreads,
                    schedule: r.schedule,
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// `op=stats` over the wire.
    pub fn stats(&self) -> Result<Value, String> {
        let line = self.connect()?.roundtrip(r#"{"op":"stats"}"#)?;
        serde_json::parse(&line).map_err(|e| format!("stats reply: {e}"))
    }

    /// Drain gracefully; false if the grace period ran out.
    pub fn shutdown(mut self) -> bool {
        self.server
            .take()
            .is_some_and(|s| s.shutdown(Duration::from_secs(60)))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            let _ = s.shutdown(Duration::from_secs(60));
        }
    }
}

/// The cross-shard conservation law: Σ shard hits + Σ shard misses ==
/// simulate requests + baseline fetches.
pub fn conservation(stats: &Value) -> Result<(), String> {
    let Value::Array(shards) = &stats["cache"]["shards"] else {
        return Err("stats.cache.shards is not an array".into());
    };
    let field = |v: &Value, k: &str| v[k].as_u64().unwrap_or(0);
    let hits: u64 = shards
        .iter()
        .map(|s| field(s, "mem_hits") + field(s, "disk_hits"))
        .sum();
    let misses: u64 = shards.iter().map(|s| field(s, "misses")).sum();
    let requests = field(stats, "simulate_requests");
    let baselines = field(stats, "baseline_fetches");
    if hits + misses == requests + baselines {
        Ok(())
    } else {
        Err(format!(
            "{hits} hits + {misses} misses != {requests} simulate requests + {baselines} baseline fetches"
        ))
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Write `lines` back to back (pipelined), one request per line.
    pub fn send_all(&mut self, lines: &[&str]) -> Result<(), String> {
        let mut buf = String::new();
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        self.reader
            .get_mut()
            .write_all(buf.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Read one reply line (without its newline).
    pub fn read_reply(&mut self) -> Result<&str, String> {
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) if self.reply.ends_with('\n') => Ok(self.reply.trim_end_matches('\n')),
            Ok(_) => Err("short reply".into()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err("timeout".into())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send_all(&[line])?;
        self.read_reply().map(str::to_string)
    }
}

/// The failure category of a reply: `None` for `"ok":true`, else the
/// protocol's error category (`overloaded`, `shed`, …).
pub fn failure(reply: &str) -> Option<String> {
    if reply.starts_with(r#"{"ok":true"#) {
        return None;
    }
    let v = serde_json::parse(reply).ok();
    Some(
        v.as_ref()
            .and_then(|v| v["error"].as_str().map(str::to_string))
            .unwrap_or_else(|| "malformed".to_string()),
    )
}
