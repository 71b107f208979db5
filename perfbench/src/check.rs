//! The output check every served reply goes through.

use std::collections::HashMap;

use qrc_circuit::{qasm, Gate, QuantumCircuit};
use qrc_device::{Device, DeviceId};
use qrc_predictor::MAX_EPISODE_STEPS;
use qrc_serve::ServeRequest;
use qrc_sim::Statevector;
use serde_json::Value;

/// Widest set of touched qubits the distribution check simulates.
pub const SIM_MAX_ACTIVE: usize = 12;

/// Largest difference allowed between two outcome probabilities.
const PROB_TOLERANCE: f64 = 1e-6;

/// Partial qubit matchings the distribution check tries before it
/// reads the two distributions as different.
const MATCH_BUDGET: usize = 10_000;

/// How one reply fared.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// `ok:true` and every check passed.
    Correct {
        /// The reward the reply reported.
        reward: f64,
        /// Two-qubit gates of the compiled circuit.
        two_qubit_gates: usize,
        /// Depth of the compiled circuit.
        depth: usize,
    },
    /// Refused (`overloaded`), answered `ok:false`, or never answered.
    Failed(String),
    /// `ok:true` with reward 0 from a rollout that chose no device or
    /// spent its whole step budget: the service's own report of a
    /// compile that never finished. Counts as failed.
    Stuck(String),
    /// `ok:true` but the output is wrong.
    Incorrect(String),
}

/// Checks replies, remembering verdicts of replies already seen: a
/// cache hit repeats its miss's bytes, and the check is a pure
/// function of request and reply content.
#[derive(Default)]
pub struct Checker {
    seen: HashMap<(String, String), Verdict>,
}

impl Checker {
    /// Checks one reply line against the request it answers.
    pub fn check(&mut self, request: &ServeRequest, reply: &str) -> Verdict {
        let value = match serde_json::from_str(reply) {
            Ok(value) => value,
            Err(e) => return Verdict::Incorrect(format!("reply is not JSON: {e}")),
        };
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            let error = value.get("error").and_then(Value::as_str).unwrap_or("?");
            return Verdict::Failed(error.to_string());
        }
        // The request ID differs between a miss and its hits.
        let unnamed = ServeRequest {
            id: None,
            ..request.clone()
        };
        let key = (unnamed.to_line(), payload(&value));
        if let Some(verdict) = self.seen.get(&key) {
            return verdict.clone();
        }
        let verdict = check_ok_reply(request, &value);
        self.seen.insert(key, verdict.clone());
        verdict
    }
}

/// The parts of a reply its correctness depends on.
fn payload(value: &Value) -> String {
    ["qasm", "device", "actions", "reward"]
        .iter()
        .map(|k| value.get(k).map(serde_json::to_string).unwrap_or_default() + "\u{1f}")
        .collect()
}

fn check_ok_reply(request: &ServeRequest, reply: &Value) -> Verdict {
    let Some(text) = reply.get("qasm").and_then(Value::as_str) else {
        return Verdict::Incorrect("ok reply without qasm".into());
    };
    let circuit = match qasm::from_qasm(text) {
        Ok(circuit) => circuit,
        Err(e) => return Verdict::Incorrect(format!("reply qasm does not parse: {e}")),
    };
    let Some(reward) = reply.get("reward").and_then(Value::as_f64) else {
        return Verdict::Incorrect("reply without reward".into());
    };
    let Some(device) = reply
        .get("device")
        .and_then(Value::as_str)
        .and_then(DeviceId::from_name)
    else {
        if reward == 0.0 && reply.get("device") == Some(&Value::Null) {
            return Verdict::Stuck("rollout chose no device (reward 0)".into());
        }
        return Verdict::Incorrect("reply names no known device".into());
    };
    if request.device_pin.is_some_and(|pin| pin != device) {
        return Verdict::Incorrect(format!("pinned request served on {}", device.name()));
    }
    let device = Device::get(device);
    if !device.check_executable(&circuit) {
        // Only a rollout that spent its whole step budget may end on a
        // circuit the device cannot run, and it must say so by its
        // zero reward.
        let steps = reply
            .get("actions")
            .and_then(Value::as_array)
            .map_or(0, |a| a.len());
        if reward == 0.0 && steps >= MAX_EPISODE_STEPS {
            return Verdict::Stuck(format!(
                "not executable on {} after {steps} actions (reward 0)",
                device.name()
            ));
        }
        return Verdict::Incorrect(format!(
            "not executable on {} after {steps} actions",
            device.name()
        ));
    }
    let expected = request.objective.evaluate(&circuit, &device);
    if (reward - expected).abs() > 1e-12 {
        return Verdict::Incorrect(format!("reward {reward} but the circuit scores {expected}"));
    }
    let input = match qasm::from_qasm(&request.qasm) {
        Ok(input) => input,
        Err(e) => return Verdict::Incorrect(format!("request qasm does not parse: {e}")),
    };
    if let (Some(want), Some(got)) = (Outcomes::of(&input), Outcomes::of(&circuit)) {
        if !want.same_up_to_relabelling(&got) {
            return Verdict::Incorrect("outcome distribution differs from the input".into());
        }
    }
    Verdict::Correct {
        reward,
        two_qubit_gates: circuit.num_two_qubit_gates(),
        depth: qrc_circuit::metrics::depth(&circuit),
    }
}

/// The joint outcome distribution over a circuit's measurements:
/// `probs[x]` is the probability that the `k`-th measurement reads bit
/// `k` of `x`.
#[derive(Debug)]
pub struct Outcomes {
    reads: usize,
    probs: Vec<f64>,
}

impl Outcomes {
    /// Simulates `circuit`, or `None` when it (plus the ancillas below)
    /// touches more than [`SIM_MAX_ACTIVE`] qubits or measures nothing.
    ///
    /// Routing may reuse a measured qubit as a swap path afterwards.
    /// Such a measurement is deferred: a CX copies the qubit onto a
    /// fresh ancilla at the point of measurement, and the ancilla is
    /// read at the end.
    pub fn of(circuit: &QuantumCircuit) -> Option<Outcomes> {
        let ops = circuit.ops();
        let mut active: Vec<u32> = ops
            .iter()
            .flat_map(|op| op.qubits.iter().map(|q| q.0))
            .collect();
        active.sort_unstable();
        active.dedup();
        let reused = |at: usize, q: u32| {
            ops[at + 1..]
                .iter()
                .any(|op| op.gate != Gate::Barrier && op.qubits.iter().any(|r| r.0 == q))
        };
        let ancillas = ops
            .iter()
            .enumerate()
            .filter(|(at, op)| op.gate == Gate::Measure && reused(*at, op.qubits.as_slice()[0].0))
            .count();
        if active.len() + ancillas > SIM_MAX_ACTIVE {
            return None;
        }
        let dense = |q: u32| active.binary_search(&q).expect("active qubit") as u32;
        let mut unitary = QuantumCircuit::new((active.len() + ancillas) as u32);
        let mut next_ancilla = active.len() as u32;
        let mut read: Vec<u32> = Vec::new();
        for (at, op) in ops.iter().enumerate() {
            let qubits: Vec<u32> = op.qubits.iter().map(|q| dense(q.0)).collect();
            match op.gate {
                Gate::Measure if reused(at, op.qubits.as_slice()[0].0) => {
                    unitary.append(Gate::Cx, &[qubits[0], next_ancilla]);
                    read.push(next_ancilla);
                    next_ancilla += 1;
                }
                Gate::Measure => read.push(qubits[0]),
                Gate::Barrier => {}
                gate => {
                    unitary.append(gate, &qubits);
                }
            }
        }
        if read.is_empty() {
            return None;
        }
        let state = Statevector::from_circuit(&unitary).ok()?;
        let reads: Vec<usize> = read.iter().map(|&q| q as usize).collect();
        Some(Outcomes {
            reads: reads.len(),
            probs: marginal(&state.probabilities(), &reads),
        })
    }

    /// Whether `other` is this distribution with its measurements
    /// relabelled.
    ///
    /// A reply carries no layout, and `measure q[p] -> c[p]` ties each
    /// classical bit to the *physical* qubit, so input and output
    /// measure the same qubits under the permutation that layout and
    /// routing chose. The search assigns this distribution's reads one
    /// at a time to reads of `other`, keeping an assignment only while
    /// the marginals over the reads assigned so far agree, and accepts
    /// when a full assignment reproduces the joint distribution. It
    /// gives up (reading "different") after [`MATCH_BUDGET`] tries.
    pub fn same_up_to_relabelling(&self, other: &Outcomes) -> bool {
        let mut budget = MATCH_BUDGET;
        self.reads == other.reads && self.extend(other, &mut Vec::new(), &mut budget)
    }

    fn extend(&self, other: &Outcomes, chosen: &mut Vec<usize>, budget: &mut usize) -> bool {
        if chosen.len() == self.reads {
            return true;
        }
        let prefix: Vec<usize> = (0..=chosen.len()).collect();
        let want = marginal(&self.probs, &prefix);
        for candidate in 0..other.reads {
            if chosen.contains(&candidate) {
                continue;
            }
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            chosen.push(candidate);
            let got = marginal(&other.probs, chosen);
            let agrees = want
                .iter()
                .zip(&got)
                .all(|(a, b)| (a - b).abs() <= PROB_TOLERANCE);
            if agrees && self.extend(other, chosen, budget) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

/// The distribution of bits `positions[0], positions[1], …` of the
/// outcome index under `probs`, as bits `0, 1, …` of the result.
fn marginal(probs: &[f64], positions: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; 1 << positions.len()];
    for (index, p) in probs.iter().enumerate() {
        let outcome = positions
            .iter()
            .enumerate()
            .fold(0usize, |acc, (bit, &pos)| acc | ((index >> pos) & 1) << bit);
        out[outcome] += p;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(circuit: &QuantumCircuit) -> Outcomes {
        Outcomes::of(circuit).expect("small enough to simulate")
    }

    #[test]
    fn relabelled_measurements_match() {
        let mut a = QuantumCircuit::new(3);
        a.h(0).cx(0, 1).ry(0.7, 2);
        a.measure_all();
        let want = outcomes(&a);
        let mut wide = QuantumCircuit::new(30);
        wide.h(20).cx(20, 4).ry(0.7, 11);
        wide.measure_all();
        assert!(
            Outcomes::of(&wide).is_none(),
            "30 measured qubits exceed the simulator budget"
        );
        // The same circuit on physical qubits 20, 4 and 11, measured in
        // another order.
        let mut moved = QuantumCircuit::new(30);
        moved.h(20).cx(20, 4).ry(0.7, 11);
        for q in [4, 11, 20] {
            moved.measure(q);
        }
        assert!(want.same_up_to_relabelling(&outcomes(&moved)));
        // Measuring qubit 20 first and then swapping it away (as a
        // router reusing it as a path would) reads the same outcomes.
        let mut reused = QuantumCircuit::new(30);
        reused.h(20).cx(20, 4).ry(0.7, 11);
        for q in [4, 11, 20] {
            reused.measure(q);
        }
        reused.swap(20, 7).x(7);
        assert!(want.same_up_to_relabelling(&outcomes(&reused)));
    }

    #[test]
    fn altered_outcomes_do_not_match() {
        let circuit = |build: &dyn Fn(&mut QuantumCircuit)| {
            let mut c = QuantumCircuit::new(3);
            build(&mut c);
            c.measure_all();
            outcomes(&c)
        };
        let rotated = circuit(&|c| {
            c.h(0).cx(0, 1).ry(0.7, 2);
        });
        let other_angle = circuit(&|c| {
            c.h(0).cx(0, 1).ry(1.1, 2);
        });
        assert!(!rotated.same_up_to_relabelling(&other_angle));
        // A dropped X.
        let flipped = circuit(&|c| {
            c.x(0).h(1);
        });
        let dropped = circuit(&|c| {
            c.h(1);
        });
        assert!(!flipped.same_up_to_relabelling(&dropped));
        // A wrong basis state: |011> is not |001> under any relabelling.
        let two_set = circuit(&|c| {
            c.x(0).x(1);
        });
        let one_set = circuit(&|c| {
            c.x(0);
        });
        assert!(!two_set.same_up_to_relabelling(&one_set));
        // Two 50/50 two-outcome states: even parity is not odd parity.
        let even = circuit(&|c| {
            c.h(0).cx(0, 1);
        });
        let odd = circuit(&|c| {
            c.h(0).cx(0, 1).x(1);
        });
        assert!(!even.same_up_to_relabelling(&odd));
        assert!(even.same_up_to_relabelling(&circuit(&|c| {
            c.h(2).cx(2, 0);
        })));
    }

    fn reply(text: &str, device: &str, actions: usize, reward: f64) -> String {
        serde_json::to_string(&Value::object(vec![
            ("ok", Value::from(true)),
            ("qasm", Value::from(text)),
            ("device", Value::from(device)),
            (
                "actions",
                Value::Array((0..actions).map(|_| Value::from("synthesize")).collect()),
            ),
            ("reward", Value::from(reward)),
        ]))
    }

    #[test]
    fn only_budget_exhausted_zero_reward_replies_may_be_unexecutable() {
        // CX between qubits OQC Lucy does not couple directly.
        let mut circuit = QuantumCircuit::new(8);
        circuit.cx(0, 4);
        circuit.measure_all();
        let text = qasm::to_qasm(&circuit);
        let request = ServeRequest::new(text.clone());
        assert!(!Device::get(DeviceId::OqcLucy).check_executable(&circuit));
        let mut checker = Checker::default();
        let stuck = checker.check(&request, &reply(&text, "oqc_lucy", MAX_EPISODE_STEPS, 0.0));
        assert!(matches!(stuck, Verdict::Stuck(_)), "{stuck:?}");
        let short = checker.check(&request, &reply(&text, "oqc_lucy", 5, 0.0));
        assert!(matches!(short, Verdict::Incorrect(_)), "{short:?}");
        let scored = checker.check(&request, &reply(&text, "oqc_lucy", MAX_EPISODE_STEPS, 0.5));
        assert!(matches!(scored, Verdict::Incorrect(_)), "{scored:?}");
    }
}
