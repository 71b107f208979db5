//! Metric names and units, and the report every run prints.

use std::collections::BTreeMap;

use qrc_predictor::Action;
use serde_json::Value;

/// End-to-end metrics: `(name, unit)`. Every untraced run reports each.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_ok_frac", "frac"),
    ("ok_frac", "frac"),
    ("mean_reward", "reward"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with a fixed name: `(name, unit)`.
const FIXED_PER_LAYER: [(&str, &str); 36] = [
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.scheduler.admission_us", "us"),
    ("serve.scheduler.compute_ms_p50", "ms"),
    ("serve.scheduler.compute_ms_p99", "ms"),
    ("serve.cache.hit_frac", "frac"),
    ("serve.cache.lookups", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.queue.wait_ms_p99", "ms"),
    ("serve.queue.batch_mean", "count"),
    ("serve.registry.start_ms", "ms"),
    ("serve.persist.snapshot_load_ms", "ms"),
    ("serve.persist.snapshot_entries", "count"),
    ("circuit.qasm.parse_us", "us"),
    ("circuit.qasm.emit_us", "us"),
    ("predictor.flow.mask_us", "us"),
    ("predictor.flow.observation_us", "us"),
    ("predictor.flow.steps_per_compile", "count"),
    ("predictor.flow.budget_exhausted_frac", "frac"),
    ("predictor.flow.stuck_served", "count"),
    ("predictor.env.step_us", "us"),
    ("predictor.env.time_frac", "frac"),
    ("passes.out_2q_gates_mean", "count"),
    ("passes.out_depth_mean", "count"),
    ("device.reward_us", "us"),
    ("rl.infer_us", "us"),
    ("rl.infer_batch_us_per_row", "us"),
    ("rl.update_frac", "frac"),
    ("rl.updates", "count"),
    ("proc.cpu_util", "cpu/s"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.latency_samples", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.replayed", "count"),
    ("trace.replay_match_frac", "frac"),
];

/// The metric stem of a compilation action that runs a pass
/// (`route:sabre` → `route.sabre`, any other character outside
/// `[A-Za-z0-9_.-]` → `_`); `None` for platform and device selection,
/// which run none.
pub fn pass_stem(action: &Action) -> Option<String> {
    match action {
        Action::SelectPlatform(_) | Action::SelectDevice(_) => None,
        _ => Some(
            action
                .name()
                .chars()
                .map(|c| match c {
                    ':' => '.',
                    c if c.is_ascii_alphanumeric() || "_.-".contains(c) => c,
                    _ => '_',
                })
                .collect(),
        ),
    }
}

/// Every per-layer metric: `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for stem in Action::all().iter().filter_map(pass_stem) {
        out.push((format!("passes.{stem}.calls"), "count"));
        out.push((format!("passes.{stem}.ms"), "ms"));
    }
    out
}

/// What one run measured.
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Requests (or training runs) attempted.
    pub attempted: u64,
    /// Of those, refused, failed, or answered wrongly.
    pub failed: u64,
    /// Whether every output passed its check.
    pub correct: bool,
}

impl Report {
    /// An empty report of a run whose outputs are, so far, correct.
    pub fn new() -> Report {
        Report {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`). A per-layer metric the
    /// workload never exercises reads 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was not measured.
    pub fn to_line(&self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name.to_string(), unit))
                .collect()
        };
        let metrics: Vec<(String, Value)> = names
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.values.get(&name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                let entry = Value::object(vec![
                    ("value", Value::from(value)),
                    ("unit", Value::from(unit)),
                ]);
                (name, entry)
            })
            .collect();
        serde_json::to_string(&Value::object(vec![
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    fields
        .get(11)
        .zip(fields.get(12))
        .map_or(0.0, |(u, s)| (u + s) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program reports.
    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = serde_json::from_str(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            declared("end_to_end"),
            owned(
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            )
        );
        assert_eq!(declared("per_layer"), owned(per_layer()));
    }

    #[test]
    fn missing_per_layer_metrics_read_zero() {
        let mut report = Report::new();
        report.set("rl.infer_us", 3.0);
        let line = report.to_line(true);
        let value = serde_json::from_str(&line).unwrap();
        let metrics = value.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("rl.infer_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            metrics
                .get("gen.lag_ms_p99")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
