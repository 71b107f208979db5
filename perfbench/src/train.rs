//! `train`: PPO for the three objective models on the paper suite,
//! with a fixed step budget, then a greedy rollout of each trained
//! policy over the training suite.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use qrc_predictor::{Action, CompilationEnv, OBS_DIM};
use qrc_rl::{Environment, PpoAgent, PpoConfig, Step};
use rand::rngs::StdRng;

use crate::gen::{self, TrainPlan};
use crate::metrics::{cpu_seconds, pass_stem, peak_rss_mb, Report};
use crate::replay;
use crate::serving::{self, ReplayStats, Setups};
use crate::stats::{mean, tail_percentile};
use crate::trace::Tracer;

/// Reward-shaping step penalty, as the service trains its models.
const STEP_PENALTY: f64 = 0.005;

/// Latency limit per environment step: passes on narrow circuits take
/// milliseconds and a PPO update well under a second.
pub const SLO_MS: f64 = 1_000.0;

/// What a model needs before it trains: its environment and agent.
type Built = (CompilationEnv, PpoAgent);

/// A `CompilationEnv` whose calls are timed: every step's start feeds
/// the step-latency samples, and with tracing on each call is a span.
struct TimedEnv<'a> {
    inner: CompilationEnv,
    tracer: &'a mut Tracer,
    rid: u64,
    stems: Vec<Option<String>>,
    last_step: Option<Instant>,
    intervals_ms: Vec<f64>,
    env_s: f64,
    per_action: BTreeMap<String, (u64, f64)>,
    last_env_end: &'a Cell<Instant>,
    /// Seconds spent timing set-ups since the last step, which the
    /// next step interval leaves out.
    paused: &'a Cell<f64>,
}

impl TimedEnv<'_> {
    fn call<T>(&mut self, name: &str, f: impl FnOnce(&mut CompilationEnv) -> T) -> T {
        let start = Instant::now();
        let span = self.tracer.begin(name, self.rid);
        let out = f(&mut self.inner);
        self.tracer.end(span);
        let end = Instant::now();
        self.env_s += (end - start).as_secs_f64();
        self.last_env_end.set(end);
        out
    }
}

impl Environment for TimedEnv<'_> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.call("predictor.env.reset", |env| env.reset(rng))
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> Step {
        let now = Instant::now();
        if let Some(previous) = self.last_step.replace(now) {
            let interval = (now - previous).as_secs_f64() - self.paused.replace(0.0);
            self.intervals_ms.push(interval * 1e3);
        }
        let step = self.call("predictor.env.step", |env| env.step(action, rng));
        if let Some(stem) = &self.stems[action] {
            let slot = self.per_action.entry(stem.clone()).or_default();
            slot.0 += 1;
            slot.1 += now.elapsed().as_secs_f64() * 1e3;
        }
        step
    }

    fn action_mask(&self) -> Vec<bool> {
        self.inner.action_mask()
    }
}

/// What one pass over the training plan produced.
#[derive(Default)]
struct Trained {
    agents: Vec<PpoAgent>,
    wall_s: f64,
    intervals_ms: Vec<f64>,
    env_s: f64,
    update_s: f64,
    updates: u64,
    /// Seconds spent timing set-ups.
    paused_s: f64,
    per_action: BTreeMap<String, (u64, f64)>,
}

/// Builds each model's environment and agent.
fn build(plan: &TrainPlan) -> Vec<Built> {
    plan.runs
        .iter()
        .map(|&(objective, seed)| {
            let env =
                CompilationEnv::new(plan.suite.clone(), objective).with_step_penalty(STEP_PENALTY);
            let agent = PpoAgent::new(OBS_DIM, Action::COUNT, PpoConfig::default(), seed);
            (env, agent)
        })
        .collect()
}

/// Trains one model, timing a block of `setups` (if any) after each
/// PPO update.
fn train_one(
    (env, mut agent): Built,
    rid: u64,
    seed: u64,
    steps: usize,
    tracer: &mut Tracer,
    setups: &mut Option<&mut Setups<'_, Vec<Built>>>,
) -> Trained {
    let last_env_end = Cell::new(Instant::now());
    let (paused, paused_s) = (Cell::new(0.0), Cell::new(0.0));
    let (update_s, updates) = (Cell::new(0.0), Cell::new(0u64));
    let mut timed = TimedEnv {
        inner: env,
        tracer,
        rid,
        stems: Action::all().iter().map(pass_stem).collect(),
        last_step: None,
        intervals_ms: Vec::new(),
        env_s: 0.0,
        per_action: BTreeMap::new(),
        last_env_end: &last_env_end,
        paused: &paused,
    };
    agent.train(&mut timed, steps, seed, |_| {
        update_s.set(update_s.get() + last_env_end.get().elapsed().as_secs_f64());
        updates.set(updates.get() + 1);
        if let Some(setups) = setups.as_deref_mut() {
            let (block, secs) = serving::timed(|| setups.block());
            block.expect("building environments and agents cannot fail");
            paused.set(paused.get() + secs);
            paused_s.set(paused_s.get() + secs);
        }
    });
    Trained {
        intervals_ms: timed.intervals_ms,
        env_s: timed.env_s,
        per_action: timed.per_action,
        update_s: update_s.get(),
        updates: updates.get(),
        paused_s: paused_s.get(),
        agents: vec![agent],
        wall_s: 0.0,
    }
}

/// Trains the three models one after another on this thread: on two
/// cores, three concurrent runs measured the scheduler's time slices
/// (the p99 step interval read 4 ms, 0.8 ms one at a time), and the
/// spare core leaves room for a program that trains in parallel. Time
/// spent on `setups` counts neither in the wall time nor in any step
/// interval.
fn train_all(
    plan: &TrainPlan,
    steps: usize,
    tracer: &mut Tracer,
    mut setups: Option<&mut Setups<'_, Vec<Built>>>,
) -> Trained {
    let begin = Instant::now();
    let mut out = Trained::default();
    for (rid, (built, &(_, seed))) in build(plan).into_iter().zip(&plan.runs).enumerate() {
        let run = train_one(built, rid as u64, seed, steps, tracer, &mut setups);
        out.agents.extend(run.agents);
        out.intervals_ms.extend(run.intervals_ms);
        out.env_s += run.env_s;
        out.update_s += run.update_s;
        out.updates += run.updates;
        out.paused_s += run.paused_s;
        for (stem, (calls, ms)) in run.per_action {
            let slot = out.per_action.entry(stem).or_default();
            slot.0 += calls;
            slot.1 += ms;
        }
    }
    out.wall_s = begin.elapsed().as_secs_f64() - out.paused_s;
    out
}

/// Greedy rollouts of every trained policy over the suite; returns the
/// mean reward.
fn evaluate(
    plan: &TrainPlan,
    agents: &[PpoAgent],
    tracer: &mut Tracer,
    stats: &mut ReplayStats,
    report: &mut Report,
) -> f64 {
    let (mut rewards, mut gates, mut depths) = (Vec::new(), Vec::new(), Vec::new());
    for (run, (agent, &(objective, seed))) in agents.iter().zip(&plan.runs).enumerate() {
        let mut rows = Vec::new();
        for (i, circuit) in plan.suite.iter().enumerate() {
            let rid = (run * plan.suite.len() + i) as u64;
            let outcome = replay::rollout(tracer, rid, agent, objective, circuit, None, seed)
                .expect("an unpinned rollout cannot be rejected");
            replay::emit(tracer, rid, &outcome.circuit);
            rewards.push(outcome.reward);
            gates.push(outcome.circuit.num_two_qubit_gates() as f64);
            depths.push(qrc_circuit::metrics::depth(&outcome.circuit) as f64);
            stats.add(&outcome);
            rows.extend(outcome.observations);
        }
        stats.batch_rows += replay::time_forward_batch(tracer, agent, &rows) as u64;
    }
    report.set("passes.out_2q_gates_mean", mean(&gates));
    report.set("passes.out_depth_mean", mean(&depths));
    mean(&rewards)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, work_dir: &Path) -> Result<Report, String> {
    let plan = gen::train_plan(seed);
    let steps = gen::train_steps(seconds);
    let mut report = Report::new();
    let mut setups = Setups::new(|| Ok(build(&plan)));

    let (begin, cpu_begin) = (Instant::now(), cpu_seconds());
    let trained = train_all(&plan, steps, &mut Tracer::new(false), Some(&mut setups));
    report.set("setup_s", setups.estimate());
    report.set(
        "proc.cpu_util",
        (cpu_seconds() - cpu_begin) / begin.elapsed().as_secs_f64(),
    );
    let total_steps = (steps * plan.runs.len()) as f64;
    report.set("throughput_per_s", total_steps / trained.wall_s);
    let p50 = tail_percentile(&trained.intervals_ms, 50.0).expect("many steps");
    let p99 = tail_percentile(&trained.intervals_ms, 99.0).expect("at least 1000 steps");
    report.set("latency_p50_ms", p50);
    report.set("latency_p99_ms", p99);
    let within = trained
        .intervals_ms
        .iter()
        .filter(|&&ms| ms <= SLO_MS)
        .count();
    report.set(
        "slo_ok_frac",
        within as f64 / trained.intervals_ms.len() as f64,
    );
    report.set("gen.latency_samples", trained.intervals_ms.len() as f64);
    eprintln!("{} latency samples", trained.intervals_ms.len());
    let mut stats = ReplayStats::default();
    let reward = evaluate(
        &plan,
        &trained.agents,
        &mut Tracer::new(false),
        &mut stats,
        &mut report,
    );
    // A training run that fails panics and ends the benchmark run
    // without a result, so a finished run has no failures.
    report.attempted = plan.runs.len() as u64;
    report.set("ok_frac", 1.0);
    report.set("mean_reward", reward);
    report.set("peak_rss_mb", peak_rss_mb());

    if trace {
        let mut tracer = Tracer::new(true);
        let traced = train_all(&plan, steps, &mut tracer, None);
        report.set("trace.overhead_frac", traced.wall_s / trained.wall_s - 1.0);
        report.set("predictor.env.time_frac", traced.env_s / traced.wall_s);
        report.set("rl.update_frac", traced.update_s / traced.wall_s);
        report.set("rl.updates", traced.updates as f64);
        let mut stats = ReplayStats::default();
        let traced_reward = evaluate(&plan, &traced.agents, &mut tracer, &mut stats, &mut report);
        report.correct &= traced_reward == reward;
        stats.report(&tracer, &mut report);
        serving::span_layers(&tracer, &mut report);
        for (stem, (calls, ms)) in &traced.per_action {
            let key = |suffix: &str| format!("passes.{stem}.{suffix}");
            report.set(
                key("calls"),
                report.get(&key("calls")).unwrap_or(0.0) + *calls as f64,
            );
            report.set(key("ms"), report.get(&key("ms")).unwrap_or(0.0) + ms);
        }
        tracer
            .write(&work_dir.join("trace.ndjson"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}
