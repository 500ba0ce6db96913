//! The metric catalog and the run's output.
//!
//! Every run prints two JSON lines on stdout. The first, `detail`, holds
//! the environment, each output check, and every named metric with its
//! unit and sample count. The last holds exactly `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics below on an untraced
//! run, the per-layer metrics on a traced one. Both lists must match
//! `BENCHMARK.json` (a test checks this).

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{summarize, Summary};

/// End-to-end metrics, printed by every workload. "Operation" is the
/// workload's unit of work: one class-T report (study-T), one request
/// (serve-hot), one burst (serve-cold) or one `op=tune` search
/// (predict-tune).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload's traced run; 0 where the
/// workload does not reach the layer during its timed section.
pub const LAYERS: &[(&str, &str)] = &[
    ("nas.build_ms", "ms"),
    ("nas.builds", "count"),
    ("nas.trace_mb", "MiB"),
    ("nas.self_ms", "ms"),
    ("machine.sim_ms", "ms"),
    ("machine.sim_calls", "count"),
    ("machine.single_ns_per_uop", "ns"),
    ("machine.multi_ns_per_uop", "ns"),
    ("machine.memo_hit_rate", "ratio"),
    ("machine.memo_probes", "count"),
    ("machine.events_per_kuop", "count"),
    ("machine.cycles_skipped", "count"),
    ("machine.self_ms", "ms"),
    ("lmbench.calibrate_ms", "ms"),
    ("lmbench.self_ms", "ms"),
    ("core.pool_busy", "ratio"),
    ("core.store_hit_rate", "ratio"),
    ("core.report_ms", "ms"),
    ("core.hash_us", "us"),
    ("core.tune_cells", "count"),
    ("core.tune_exact_cells", "count"),
    ("core.self_ms", "ms"),
    ("predict.profile_ms", "ms"),
    ("predict.profile_hit_rate", "ratio"),
    ("predict.model_us", "us"),
    ("predict.audits", "count"),
    ("predict.fallbacks", "count"),
    ("predict.self_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.probe_us", "us"),
    ("serve.inline_hit_rate", "ratio"),
    ("serve.try_hit_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.miss_ms", "ms"),
    ("serve.put_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.merge_rate", "ratio"),
    ("serve.flight_join_rate", "ratio"),
    ("serve.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.spans", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// Layers whose self time the traced run reports, with their metric.
pub const SELF_LAYERS: &[(&str, &str)] = &[
    ("nas", "nas.self_ms"),
    ("machine", "machine.self_ms"),
    ("lmbench", "lmbench.self_ms"),
    ("core", "core.self_ms"),
    ("predict", "predict.self_ms"),
    ("serve", "serve.self_ms"),
    ("bench", "bench.self_ms"),
];

/// Costs with no public boundary to time from outside the crates.
pub const UNMEASURABLE: &[(&str, &str)] = &[
    (
        "serve.admission_wait",
        "not measurable from outside: the admission gate is private to Service",
    ),
    (
        "serve.batch_gather_wait",
        "not measurable from outside: the gather window runs inside Service's batcher",
    ),
];

fn unit_of(catalog: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    catalog.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, Result<(), String>)>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    named: Vec<(String, Value)>,
    notes: Vec<(String, Value)>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Report {
    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(E2E, name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(LAYERS, name).is_some(),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Record a named timing with its median, tail and sample count.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &[f64]) -> Summary {
        let s = summarize(samples);
        let mut entries = vec![
            ("unit", Value::String(unit.to_string())),
            ("samples", Value::UInt(s.n as u64)),
            ("p50", Value::Float(s.p50)),
        ];
        if let Some((p, v)) = s.tail {
            entries.push(("tail_percentile", Value::Float(p)));
            entries.push(("tail", Value::Float(v)));
        }
        if samples.len() <= 16 {
            entries.push((
                "values",
                Value::Array(samples.iter().map(|&v| Value::Float(v)).collect()),
            ));
        }
        self.named.push((name.to_string(), obj(entries)));
        s
    }

    /// Record a named single value (a ratio, an error, a count).
    pub fn scalar(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.named.push((
            name.to_string(),
            obj(vec![
                ("unit", Value::String(unit.to_string())),
                ("samples", Value::UInt(samples as u64)),
                ("value", Value::Float(value)),
            ]),
        ));
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Record an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        if let Err(e) = &result {
            eprintln!("perfbench: check {name} FAILED: {e}");
        }
        self.checks.push((name.to_string(), result));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// The `detail` line.
    pub fn detail_line(&self, env: Value) -> String {
        let checks = Value::Object(
            self.checks
                .iter()
                .map(|(n, r)| {
                    let v = match r {
                        Ok(()) => Value::String("pass".into()),
                        Err(e) => Value::String(format!("FAIL: {e}")),
                    };
                    (n.clone(), v)
                })
                .collect(),
        );
        let unmeasurable = Value::Object(
            UNMEASURABLE
                .iter()
                .map(|(n, why)| (n.to_string(), Value::String(why.to_string())))
                .collect(),
        );
        let v = obj(vec![(
            "detail",
            obj(vec![
                ("env", env),
                ("checks", checks),
                ("metrics", Value::Object(self.named.clone())),
                ("notes", Value::Object(self.notes.clone())),
                ("unmeasurable", unmeasurable),
            ]),
        )]);
        serde_json::to_string(&v).expect("value tree renders")
    }

    /// The contract's last line. Values print with every digit (`{}` on
    /// an f64 is the shortest exact round trip).
    pub fn result_line(&self, traced: bool) -> String {
        let (catalog, values): (&[(&str, &str)], _) = if traced {
            (LAYERS, &self.layers)
        } else {
            (E2E, &self.e2e)
        };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(r#""{name}":{{"value":{v:?},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// End-to-end metrics this report has not set (a workload bug).
    pub fn missing_e2e(&self) -> Vec<&'static str> {
        E2E.iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.e2e.contains_key(n))
            .collect()
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `[{"name": .., "unit": ..}, ..]` out of one BENCHMARK.json list.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        match &doc[key] {
            Value::Array(items) => items
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect(),
            other => panic!("{key} must be a list, got {other:?}"),
        }
    }

    fn own(catalog: &[(&str, &str)]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc =
            serde_json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), own(E2E));
        assert_eq!(listed(&doc, "per_layer"), own(LAYERS));
    }

    #[test]
    fn result_line_prints_every_catalog_metric_with_its_unit() {
        let mut r = Report::default();
        r.check("ok", Ok(()));
        r.attempted = 3;
        r.e2e("op_p50_ms", 1.25);
        let line = r.result_line(false);
        let v = serde_json::parse(&line).expect("result line parses");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(3));
        for (name, unit) in E2E {
            assert_eq!(v["metrics"][*name]["unit"].as_str(), Some(*unit), "{name}");
        }
        assert_eq!(v["metrics"]["op_p50_ms"]["value"].as_f64(), Some(1.25));
        let traced = serde_json::parse(&r.result_line(true)).expect("traced line parses");
        for (name, unit) in LAYERS {
            assert_eq!(
                traced["metrics"][*name]["unit"].as_str(),
                Some(*unit),
                "{name}"
            );
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("a", Ok(()));
        r.check("b", Err("mismatch".into()));
        assert!(!r.correct());
    }
}
