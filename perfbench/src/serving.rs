//! Pieces shared by the two serving workloads: model preparation,
//! set-up timing, scoring replies, the service's own counters, and the
//! traced replay of served requests.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qrc_circuit::qasm;
use qrc_predictor::{task_seed, PersistError};
use qrc_rl::PpoAgent;
use qrc_serve::{
    CacheKey, CacheStatus, CompilationService, CompiledResult, ServeRequest, ServeResponse,
    ServiceConfig, ShardKey, Stage,
};
use serde_json::Value;

use crate::check::{Checker, Verdict};
use crate::client::Exchange;
use crate::metrics::Report;
use crate::replay;
use crate::stats::{mean, median_of_means, tail_percentile};
use crate::trace::Tracer;

/// Set-ups timed in each block of a run's [`Setups`].
pub const SETUPS_PER_BLOCK: usize = 6;

/// The service configuration of both serving workloads: the defaults,
/// with checkpoints under the run's own directory.
pub fn service_config(work_dir: &Path) -> ServiceConfig {
    ServiceConfig {
        models_dir: work_dir.join("models"),
        verbose: false,
        ..ServiceConfig::default()
    }
}

/// Trains every default shard into the models directory (untimed: the
/// timed set-ups then start from complete checkpoints).
pub fn train_models(config: &ServiceConfig) -> Result<(), PersistError> {
    CompilationService::start(config).map(drop)
}

/// Runs `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up timings, taken in small blocks spread over the whole run.
///
/// The machine alternates between fast and slow spells of about half a
/// second, 30–45% apart, and a block of set-ups usually falls within
/// one spell. Set-ups timed back to back see one spell, and their
/// median moved by a quarter from run to run; the median of samples
/// from blocks spread over the run lands in whichever spell holds the
/// middle sample, and still moved by a tenth. So [`Setups::estimate`]
/// is a median of means: group `k` holds the `k`-th set-up of every
/// block, so each group mean spans the whole run, and the median over
/// the groups discards a group that an outlier hit.
pub struct Setups<'a, T> {
    setup: Box<dyn FnMut() -> Result<T, String> + 'a>,
    samples: Vec<f64>,
}

impl<'a, T> Setups<'a, T> {
    /// Samples `setup`, which builds what the workload needs to be ready.
    pub fn new(setup: impl FnMut() -> Result<T, String> + 'a) -> Self {
        Setups {
            setup: Box::new(setup),
            samples: Vec::new(),
        }
    }

    /// Times one block of [`SETUPS_PER_BLOCK`] set-ups. What each one
    /// built is dropped outside its timed window.
    pub fn block(&mut self) -> Result<(), String> {
        for _ in 0..SETUPS_PER_BLOCK {
            let (built, secs) = timed(&mut self.setup);
            drop(built?);
            self.samples.push(secs);
        }
        Ok(())
    }

    /// Median of the [`SETUPS_PER_BLOCK`] group means, group `k`
    /// holding the `k`-th set-up of every block timed so far.
    ///
    /// # Panics
    ///
    /// Panics when no block was timed.
    pub fn estimate(&self) -> f64 {
        median_of_means(&self.samples, SETUPS_PER_BLOCK)
    }
}

/// How a batch of exchanges scored against the output check.
#[derive(Default)]
pub struct Scored {
    /// Latency (ms) of every answered request.
    pub latencies_ms: Vec<f64>,
    /// Generator lateness (ms) of every request.
    pub lags_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests answered correctly.
    pub correct: u64,
    /// Correct answers within the latency limit.
    pub within_slo: u64,
    /// Replies whose output failed the check.
    pub incorrect: u64,
    /// Replies from rollouts that never finished (counted as failed).
    pub stuck: u64,
    /// Rewards of the correct replies.
    pub rewards: Vec<f64>,
    /// Two-qubit gate counts of the correct replies.
    pub two_qubit_gates: Vec<f64>,
    /// Depths of the correct replies.
    pub depths: Vec<f64>,
}

impl Scored {
    /// Scores `log` (answers to `requests`, index-aligned) and adds it.
    pub fn add(
        &mut self,
        checker: &mut Checker,
        requests: &[ServeRequest],
        log: &[Exchange],
        slo_ms: f64,
    ) {
        self.attempted += requests.len() as u64;
        for (i, request) in requests.iter().enumerate() {
            let exchange = log.get(i);
            if let Some(e) = exchange {
                self.lags_ms.push(e.lag_ms());
            }
            let Some((latency, line)) =
                exchange.and_then(|e| e.latency_ms().zip(e.reply.as_ref().map(|r| &r.1)))
            else {
                continue;
            };
            self.latencies_ms.push(latency);
            match checker.check(request, line) {
                Verdict::Correct {
                    reward,
                    two_qubit_gates,
                    depth,
                } => {
                    self.correct += 1;
                    self.within_slo += u64::from(latency <= slo_ms);
                    self.rewards.push(reward);
                    self.two_qubit_gates.push(two_qubit_gates as f64);
                    self.depths.push(depth as f64);
                }
                Verdict::Failed(error) => eprintln!("request {i} failed: {error}"),
                Verdict::Stuck(why) => {
                    eprintln!("request {i} stuck: {why}");
                    self.stuck += 1;
                }
                Verdict::Incorrect(why) => {
                    eprintln!("request {i} answered incorrectly: {why}");
                    self.incorrect += 1;
                }
            }
        }
    }

    /// Writes the request-level end-to-end metrics and the verdict
    /// counts into `report`.
    pub fn report(&self, report: &mut Report) {
        let p50 = tail_percentile(&self.latencies_ms, 50.0);
        let p99 = tail_percentile(&self.latencies_ms, 99.0);
        report.set(
            "latency_p50_ms",
            p50.expect("at least 20 answered requests"),
        );
        report.set(
            "latency_p99_ms",
            p99.expect("at least 1000 answered requests"),
        );
        self.report_counts(report);
    }

    /// Writes the latency-limit, success and output-shape metrics and
    /// the verdict counts into `report`. Refused, failed and unanswered
    /// requests count as attempted, so they miss the latency limit.
    pub fn report_counts(&self, report: &mut Report) {
        report.set(
            "slo_ok_frac",
            self.within_slo as f64 / self.attempted as f64,
        );
        report.set("ok_frac", self.correct as f64 / self.attempted as f64);
        report.set("predictor.flow.stuck_served", self.stuck as f64);
        report.set("gen.latency_samples", self.latencies_ms.len() as f64);
        eprintln!(
            "{} latency samples; {} of {} attempted requests stuck",
            self.latencies_ms.len(),
            self.stuck,
            self.attempted
        );
        report.set("mean_reward", mean(&self.rewards));
        report.set("passes.out_2q_gates_mean", mean(&self.two_qubit_gates));
        report.set("passes.out_depth_mean", mean(&self.depths));
        report.attempted += self.attempted;
        report.failed += self.attempted - self.correct;
        report.correct &= self.incorrect == 0;
    }
}

/// Per-layer counters the service itself keeps, over its lifetime.
pub fn service_layers(service: &CompilationService, report: &mut Report) {
    let stage = |s: Stage| service.stage_histogram(s);
    report.set(
        "serve.scheduler.admission_us",
        stage(Stage::Admission).mean(),
    );
    let compute = stage(Stage::Compute);
    report.set(
        "serve.scheduler.compute_ms_p50",
        compute.quantile(0.5) as f64 / 1e3,
    );
    report.set(
        "serve.scheduler.compute_ms_p99",
        compute.quantile(0.99) as f64 / 1e3,
    );
    report.set(
        "serve.queue.wait_ms_p99",
        stage(Stage::QueueWait).quantile(0.99) as f64 / 1e3,
    );
    let batches = stage(Stage::BatchAssembly).count().max(1);
    let snapshot = service.metrics();
    report.set(
        "serve.queue.batch_mean",
        snapshot.requests as f64 / batches as f64,
    );
    let cache = snapshot.cache;
    report.set("serve.cache.hit_frac", cache.hit_rate());
    report.set("serve.cache.lookups", (cache.hits + cache.misses) as f64);
    report.set("serve.cache.coalesced", snapshot.coalesced_responses as f64);
    report.set("serve.cache.evictions", cache.evictions as f64);
}

/// Replays every request in `log` that the service answered as a
/// cache miss, step by step under the tracer, timing the protocol and
/// circuit calls around it, and checks the replay reproduces the
/// served action list and circuit.
pub fn replay_misses(
    tracer: &mut Tracer,
    service: &CompilationService,
    config: &ServiceConfig,
    requests: &[ServeRequest],
    log: &[Exchange],
) -> ReplayStats {
    let registry = service.registry();
    let mut agents: HashMap<ShardKey, PpoAgent> = HashMap::new();
    let mut rows: HashMap<ShardKey, Vec<Vec<f64>>> = HashMap::new();
    let mut stats = ReplayStats::default();
    for (i, (request, exchange)) in requests.iter().zip(log).enumerate() {
        let rid = i as u64;
        let Some((_, line)) = &exchange.reply else {
            continue;
        };
        let Ok(reply) = serde_json::from_str(line) else {
            continue;
        };
        if let Some(response) = response_of(&reply) {
            tracer.time("serve.protocol.encode", rid, || response.to_line());
        }
        if reply.get("cache").and_then(Value::as_str) != Some("miss") {
            continue;
        }
        let span = tracer.begin("replay.request", rid);
        let circuit = tracer
            .time("circuit.qasm.parse", rid, || qasm::from_qasm(&request.qasm))
            .expect("generated QASM parses");
        let requested =
            ShardKey::for_request(request.objective, request.device_pin, circuit.num_qubits());
        let routed = registry
            .route(requested)
            .expect("every objective has a shard");
        let key = CacheKey {
            circuit_hash: circuit.structural_hash(),
            device_pin: request.device_pin,
            shard: routed.key,
            generation: routed.generation,
        };
        let agent = agents
            .entry(routed.key)
            .or_insert_with(|| replay::agent_of(&routed.model));
        let outcome = replay::rollout(
            tracer,
            rid,
            agent,
            request.objective,
            &circuit,
            request.device_pin,
            task_seed(config.seed, key.mix()),
        );
        stats.replayed += 1;
        if let Ok(outcome) = outcome {
            let text = replay::emit(tracer, rid, &outcome.circuit);
            let served_actions: Vec<&str> = reply
                .get("actions")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_str).collect())
                .unwrap_or_default();
            let same = served_actions == outcome.actions
                && reply.get("qasm").and_then(Value::as_str) == Some(text.as_str())
                && reply.get("reward").and_then(Value::as_f64) == Some(outcome.reward);
            if same {
                stats.matched += 1;
            } else {
                eprintln!("request {i}: traced replay diverged from the served answer");
            }
            stats.add(&outcome);
            rows.entry(routed.key)
                .or_default()
                .extend(outcome.observations);
        }
        tracer.end(span);
    }
    for (key, rows) in &rows {
        stats.batch_rows += replay::time_forward_batch(tracer, &agents[key], rows) as u64;
    }
    stats
}

/// Counts over a set of traced rollouts.
#[derive(Default)]
pub struct ReplayStats {
    /// Served misses replayed.
    pub replayed: u64,
    /// Replays that reproduced the served answer exactly.
    pub matched: u64,
    /// Rollouts that ran.
    pub rollouts: u64,
    /// Policy decisions over those rollouts.
    pub policy_steps: u64,
    /// Rollouts that hit the step budget before *Done*.
    pub exhausted: u64,
    /// Observation rows pushed through `Mlp::forward_batch`.
    pub batch_rows: u64,
}

impl ReplayStats {
    /// Counts one rollout.
    pub fn add(&mut self, outcome: &replay::Rollout) {
        self.rollouts += 1;
        self.policy_steps += outcome.policy_steps as u64;
        self.exhausted += u64::from(outcome.exhausted);
    }

    /// Writes the rollout-level metrics; `true` when every replay of a
    /// served answer reproduced it.
    pub fn report(&self, tracer: &Tracer, report: &mut Report) -> bool {
        let rollouts = self.rollouts.max(1) as f64;
        report.set(
            "predictor.flow.steps_per_compile",
            self.policy_steps as f64 / rollouts,
        );
        report.set(
            "predictor.flow.budget_exhausted_frac",
            self.exhausted as f64 / rollouts,
        );
        let batch_us = tracer.totals().get("rl.forward_batch").map_or(0.0, |t| t.1);
        report.set(
            "rl.infer_batch_us_per_row",
            batch_us / self.batch_rows.max(1) as f64,
        );
        report.set("trace.replayed", self.replayed as f64);
        report.set(
            "trace.replay_match_frac",
            self.matched as f64 / self.replayed.max(1) as f64,
        );
        self.matched == self.replayed
    }
}

/// Rebuilds a [`ServeResponse`] from a reply line's fields, so the
/// traced run can time `ServeResponse::to_line` on real answers.
fn response_of(reply: &Value) -> Option<ServeResponse> {
    let result = if reply.get("ok").and_then(Value::as_bool)? {
        let status = match reply.get("cache").and_then(Value::as_str)? {
            "hit" => CacheStatus::Hit,
            "miss" => CacheStatus::Miss,
            _ => CacheStatus::Coalesced,
        };
        Ok((
            Arc::new(CompiledResult {
                qasm: reply.get("qasm")?.as_str()?.to_string(),
                device: reply
                    .get("device")
                    .and_then(Value::as_str)
                    .and_then(qrc_device::DeviceId::from_name),
                actions: reply
                    .get("actions")?
                    .as_array()?
                    .iter()
                    .filter_map(|a| a.as_str().map(str::to_string))
                    .collect(),
                reward: reply.get("reward")?.as_f64()?,
            }),
            status,
        ))
    } else {
        Err(reply.get("error")?.as_str()?.to_string())
    };
    Some(ServeResponse {
        id: reply.get("id").and_then(Value::as_str).map(str::to_string),
        result,
        micros: reply.get("micros").and_then(Value::as_u64).unwrap_or(1),
        route: None,
        rid: reply.get("rid").and_then(Value::as_u64),
    })
}

/// Derives the replay- and call-level per-layer metrics from the
/// recorded spans.
pub fn span_layers(tracer: &Tracer, report: &mut Report) {
    let totals = tracer.totals();
    let count = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    for (metric, span) in [
        ("serve.protocol.parse_us", "serve.protocol.parse"),
        ("serve.protocol.encode_us", "serve.protocol.encode"),
        ("circuit.qasm.parse_us", "circuit.qasm.parse"),
        ("circuit.qasm.emit_us", "circuit.qasm.emit"),
        ("predictor.flow.mask_us", "predictor.flow.mask"),
        (
            "predictor.flow.observation_us",
            "predictor.flow.observation",
        ),
        ("predictor.env.step_us", "predictor.env.step"),
        ("device.reward_us", "device.reward"),
        ("rl.infer_us", "rl.infer"),
    ] {
        let mean = totals.get(span).map_or(0.0, |&(n, us)| us / n as f64);
        report.set(metric, mean);
    }
    for stem in qrc_predictor::Action::all()
        .iter()
        .filter_map(crate::metrics::pass_stem)
    {
        let span = format!("passes.{stem}");
        report.set(format!("passes.{stem}.calls"), count(&span));
        report.set(format!("passes.{stem}.ms"), total_us(&span) / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_circuit::QuantumCircuit;
    use qrc_device::{Device, DeviceId};
    use qrc_predictor::RewardKind;
    use qrc_serve::OVERLOADED_ERROR;
    use std::time::Duration;

    fn answered(at_ms: u64, line: String) -> Exchange {
        Exchange {
            due: Duration::ZERO,
            sent: Duration::ZERO,
            reply: Some((Duration::from_millis(at_ms), line)),
        }
    }

    #[test]
    fn refused_failed_and_slow_requests_count_against_the_slo() {
        let mut circuit = QuantumCircuit::new(1);
        circuit.rz(0.5, 0).measure(0);
        let text = qasm::to_qasm(&circuit);
        let device = Device::get(DeviceId::IbmqMontreal);
        let reward = RewardKind::ExpectedFidelity.evaluate(&circuit, &device);
        let request = |i: usize| ServeRequest {
            id: Some(format!("t{i}")),
            ..ServeRequest::new(text.clone())
        };
        let ok_reply = |i: usize| {
            serde_json::to_string(&Value::object(vec![
                ("id", Value::from(format!("t{i}"))),
                ("ok", Value::from(true)),
                ("qasm", Value::from(text.clone())),
                ("device", Value::from("ibmq_montreal")),
                ("actions", Value::Array(Vec::new())),
                ("reward", Value::from(reward)),
                ("cache", Value::from("miss")),
            ]))
        };
        let refused = serde_json::to_string(&Value::object(vec![
            ("id", Value::from("t1")),
            ("ok", Value::from(false)),
            ("error", Value::from(OVERLOADED_ERROR)),
        ]));
        let requests: Vec<ServeRequest> = (0..4).map(request).collect();
        let log = vec![
            answered(5, ok_reply(0)),
            answered(1, refused),
            Exchange {
                due: Duration::ZERO,
                sent: Duration::ZERO,
                reply: None,
            },
            answered(900, ok_reply(3)),
        ];
        let mut scored = Scored::default();
        scored.add(&mut Checker::default(), &requests, &log, 100.0);
        assert_eq!(
            (scored.attempted, scored.correct, scored.within_slo),
            (4, 2, 1)
        );
        assert_eq!(scored.incorrect, 0);
        let mut report = Report::new();
        scored.report_counts(&mut report);
        assert_eq!(report.get("slo_ok_frac"), Some(0.25));
        assert_eq!(report.get("ok_frac"), Some(0.5));
        assert_eq!(
            (report.attempted, report.failed, report.correct),
            (4, 2, true)
        );
    }
}
