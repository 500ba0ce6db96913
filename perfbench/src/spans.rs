//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the crates is instrumented. A span's
//! layer is its name up to the first dot (`machine.simulate` → `machine`).
//! Spans stay in memory and are written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Request (or operation) id; spans of one request share it.
    req: u64,
}

pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span. A no-op wrapper when tracing is off.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a span timed elsewhere (a request answered on another
    /// thread), nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
                req,
            };
            self.spans.push(span);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time per layer in ms: each span's duration minus the part of
    /// its interval that its children cover (children may overlap, as
    /// concurrent requests inside one burst do).
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one NDJSON line: name, start, end (ns since the
    /// recorder was created), parent index and request id.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            Span {
                name: "core.section",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 0,
            },
            Span {
                name: "serve.request",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "serve.request",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                req: 2,
            },
            Span {
                name: "machine.simulate",
                start_ns: 80,
                end_ns: 90,
                parent: Some(0),
                req: 3,
            },
        ];
        let by = r.self_ms_by_layer();
        // Children cover [10, 60] and [80, 90]: 60 ns of 100.
        assert!((by["core"] - 40e-6).abs() < 1e-12);
        assert!((by["serve"] - 60e-6).abs() < 1e-12);
        assert!((by["machine"] - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("core.x", 0, |_| 7);
        assert_eq!(v, 7);
        assert_eq!(r.len(), 0);
    }
}
