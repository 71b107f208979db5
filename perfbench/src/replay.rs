//! The traced rollout: a greedy policy rollout driven step by step
//! through the predictor's public functions, each call in a span.
//!
//! It mirrors `TrainedPredictor::compile_request` (same flow seed,
//! same pin handling, same greedy choice), so on a served request it
//! must reproduce the served action list and circuit exactly.

use qrc_circuit::{qasm, QuantumCircuit};
use qrc_device::{Device, DeviceId};
use qrc_predictor::{
    observation_of, Action, CompilationFlow, FlowError, RewardKind, TrainedPredictor,
    MAX_EPISODE_STEPS,
};
use qrc_rl::PpoAgent;

use crate::metrics::pass_stem;
use crate::trace::Tracer;

/// Rows per batched policy forward when timing `Mlp::forward_batch`
/// (the front end's default batch size).
pub const FORWARD_BATCH_ROWS: usize = 16;

/// What one traced rollout produced.
pub struct Rollout {
    /// Action names, as the service reports them.
    pub actions: Vec<String>,
    /// The compiled circuit.
    pub circuit: QuantumCircuit,
    /// The final reward under the rollout's objective (0 unless done).
    pub reward: f64,
    /// Policy decisions taken.
    pub policy_steps: usize,
    /// Whether the rollout ran out of steps before reaching *Done*.
    pub exhausted: bool,
    /// Every observation the policy saw.
    pub observations: Vec<Vec<f64>>,
}

/// The policy network of a trained model, rebuilt from its checkpoint
/// form (the model does not lend out its agent).
pub fn agent_of(model: &TrainedPredictor) -> PpoAgent {
    let value = serde_json::from_str(&model.to_json()).expect("checkpoint JSON parses");
    PpoAgent::from_value(value.get("agent").expect("checkpoint has an agent"))
        .expect("checkpoint agent is well-formed")
}

/// Runs one greedy rollout of `agent` on `circuit`, recording spans
/// under request `rid`.
///
/// # Errors
///
/// Returns the flow's rejection of an infeasible pin.
pub fn rollout(
    tracer: &mut Tracer,
    rid: u64,
    agent: &PpoAgent,
    objective: RewardKind,
    circuit: &QuantumCircuit,
    pin: Option<DeviceId>,
    seed: u64,
) -> Result<Rollout, FlowError> {
    let all = Action::all();
    let mut flow = CompilationFlow::new(circuit.clone(), seed);
    if let Some(pin) = pin {
        flow.pin_device(Device::get(pin))?;
    }
    let mut observations = Vec::new();
    let mut policy_steps = 0;
    for _ in 0..MAX_EPISODE_STEPS {
        if flow.is_done() {
            break;
        }
        let mask = tracer.time("predictor.flow.mask", rid, || flow.action_mask());
        if !mask.iter().any(|&m| m) {
            break;
        }
        let obs = tracer.time("predictor.flow.observation", rid, || observation_of(&flow));
        let choice = tracer.time("rl.infer", rid, || agent.act_greedy(&obs, &mask));
        observations.push(obs);
        policy_steps += 1;
        let action = all[choice];
        let span = match pass_stem(&action) {
            Some(stem) => format!("passes.{stem}"),
            None => "predictor.flow.select".to_string(),
        };
        if tracer.time(span, rid, || flow.apply(action)).is_err() {
            break;
        }
    }
    let exhausted = policy_steps == MAX_EPISODE_STEPS && !flow.is_done();
    let reward = match (flow.is_done(), flow.device()) {
        (true, Some(device)) => tracer.time("device.reward", rid, || {
            objective.evaluate(flow.circuit(), device)
        }),
        _ => 0.0,
    };
    Ok(Rollout {
        actions: flow.history().iter().map(Action::name).collect(),
        reward,
        policy_steps,
        exhausted,
        observations,
        circuit: flow.into_circuit(),
    })
}

/// Times `Mlp::forward_batch` over `rows` in batches of
/// [`FORWARD_BATCH_ROWS`]; returns the rows pushed through.
pub fn time_forward_batch(tracer: &mut Tracer, agent: &PpoAgent, rows: &[Vec<f64>]) -> usize {
    for chunk in rows.chunks(FORWARD_BATCH_ROWS) {
        let logits = tracer.time("rl.forward_batch", 0, || {
            agent.policy().forward_batch(chunk)
        });
        assert_eq!(logits.len(), chunk.len(), "one logit row per observation");
    }
    rows.len()
}

/// Times `qasm::to_qasm` on `circuit`.
pub fn emit(tracer: &mut Tracer, rid: u64, circuit: &QuantumCircuit) -> String {
    tracer.time("circuit.qasm.emit", rid, || qasm::to_qasm(circuit))
}
