//! Seeded workload generation. The program under test only ever sees
//! what these functions produce; equal seeds give byte-identical
//! inputs.

use qrc_benchgen::BenchmarkFamily;
use qrc_circuit::{qasm, QuantumCircuit};
use qrc_device::{Device, DeviceId};
use qrc_predictor::{task_seed, RewardKind};
use qrc_serve::{synthetic_mix, ServeRequest, TrafficConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Narrow widths of the cold mix: policy inference and small passes
/// dominate, so these set the median.
pub const COLD_NARROW_WIDTHS: std::ops::RangeInclusive<u32> = 2..=8;
/// Wide widths of the cold mix, straddling IonQ Harmony's 11 qubits:
/// these route on the large devices and set the tail.
pub const COLD_WIDE_WIDTHS: std::ops::RangeInclusive<u32> = 10..=12;
/// Families per narrow `(width, objective, pin)` stratum.
pub const COLD_NARROW_PER_STRATUM: usize = 4;
/// Families per wide `(width, objective, pin)` stratum.
pub const COLD_WIDE_PER_STRATUM: usize = 2;

/// Requests per second of the live mix's open-loop schedule, well
/// below the measured capacity of a warm two-core service.
pub const LIVE_RATE_PER_S: f64 = 150.0;
/// Requests in the earlier window whose snapshot the live service
/// restarts from.
pub const LIVE_EARLIER_WINDOW: usize = 3000;
/// Seed of the two `synthetic_mix` windows of the live mix.
const LIVE_MIX_SEED: u64 = 0x6c69_7665;

/// Largest circuit width of the training suite.
pub const TRAIN_MAX_QUBITS: u32 = 6;
/// Master seed of the training workload's PPO runs.
const TRAIN_PPO_SEED: u64 = 3;
/// PPO rollout length (`PpoConfig::default().steps_per_update`).
const PPO_ROLLOUT: usize = 256;

/// Environment steps each objective's PPO run takes in a run of
/// `seconds`: whole PPO updates, so that the three runs, one after
/// another, take about four fifths of `seconds` (16384 steps each at
/// 20 s).
pub fn train_steps(seconds: u64) -> usize {
    PPO_ROLLOUT * (seconds as usize * 16 / 5).max(1)
}

/// Every pin a request for a `width`-qubit circuit may carry: none, or
/// any built-in device wide enough.
pub fn pins_for(width: u32) -> Vec<Option<DeviceId>> {
    std::iter::once(None)
        .chain(
            DeviceId::ALL
                .into_iter()
                .filter(|&d| Device::get(d).num_qubits() >= width)
                .map(Some),
        )
        .collect()
}

fn request(
    id: String,
    circuit: &QuantumCircuit,
    objective: RewardKind,
    pin: Option<DeviceId>,
) -> ServeRequest {
    ServeRequest {
        id: Some(id),
        qasm: qasm::to_qasm(circuit),
        objective,
        device_pin: pin,
    }
}

/// The cold-compile mix: pairwise-distinct requests over the 22
/// families × narrow and wide widths × 3 objectives × {unpinned, every
/// device wide enough}, in seeded order.
///
/// Each stratum takes its families by a rotation over the family list,
/// so every family appears about equally often. The set is the same
/// for every seed: a routed compile costs anywhere from 5 ms to 700 ms
/// and a stuck rollout 24 policy steps, depending on the family, so a
/// seeded draw of families would move the tail, the failure count and
/// the mean reward by more than any bound.
pub fn cold_compile_requests(seed: u64) -> Vec<ServeRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_6c64);
    let mut picks: Vec<(BenchmarkFamily, u32, RewardKind, Option<DeviceId>)> = Vec::new();
    let (mut narrow_stratum, mut wide_stratum) = (0, 0);
    for width in COLD_NARROW_WIDTHS.chain(COLD_WIDE_WIDTHS) {
        let wide = COLD_WIDE_WIDTHS.contains(&width);
        let families: Vec<BenchmarkFamily> = BenchmarkFamily::ALL
            .into_iter()
            .filter(|f| f.min_qubits() <= width)
            .collect();
        for objective in RewardKind::ALL {
            for pin in pins_for(width) {
                let (stratum, per) = if wide {
                    (&mut wide_stratum, COLD_WIDE_PER_STRATUM)
                } else {
                    (&mut narrow_stratum, COLD_NARROW_PER_STRATUM)
                };
                let start = *stratum * per;
                *stratum += 1;
                let chosen = (0..per).map(|k| families[(start + k) % families.len()]);
                picks.extend(chosen.map(|f| (f, width, objective, pin)));
            }
        }
    }
    picks.shuffle(&mut rng);
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (family, width, objective, pin))| {
            request(format!("c{i}"), &family.generate(width), objective, pin)
        })
        .collect()
}

/// The live mix: an earlier window whose cache snapshot the service
/// restarts from, and the live window itself, both drawn from the
/// same skewed `synthetic_mix` under different seeds.
pub struct LiveMix {
    /// Requests served before the restart (never timed).
    pub earlier: Vec<ServeRequest>,
    /// Requests sent on the open-loop schedule.
    pub live: Vec<ServeRequest>,
    /// When each live request is due, in microseconds from the start
    /// of the schedule (nondecreasing).
    pub due_us: Vec<u64>,
}

/// Generates the live mix for a run of `seconds` seconds.
///
/// Both windows are the same for every seed, and the seed shuffles the
/// live window and draws its arrival times. Which requests miss (first
/// sightings of keys the snapshot lacks) and what they cost then stay
/// fixed; a seeded draw of the mix itself moves the tail and the mean
/// reward by more than any bound.
pub fn live_mix(seed: u64, seconds: u64) -> LiveMix {
    let window = |requests: usize, stream: u64| {
        synthetic_mix(&TrafficConfig {
            requests,
            seed: task_seed(LIVE_MIX_SEED, stream),
            ..TrafficConfig::default()
        })
    };
    let count = (LIVE_RATE_PER_S * seconds as f64).round() as usize;
    let mut live = window(count, 2);
    live.shuffle(&mut StdRng::seed_from_u64(task_seed(seed, 2)));
    for (i, request) in live.iter_mut().enumerate() {
        request.id = Some(format!("l{i}"));
    }
    LiveMix {
        earlier: window(LIVE_EARLIER_WINDOW, 1),
        due_us: poisson_schedule(task_seed(seed, 3), LIVE_RATE_PER_S, count),
        live,
    }
}

/// Arrival offsets (µs) of a Poisson process at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            at += -(1.0 - u).ln() / rate * 1e6;
            at as u64
        })
        .collect()
}

/// The training workload: the paper suite up to
/// [`TRAIN_MAX_QUBITS`] qubits and one PPO seed per objective.
pub struct TrainPlan {
    /// Circuits every objective trains on.
    pub suite: Vec<QuantumCircuit>,
    /// `(objective, PPO seed)` per model, in training order.
    pub runs: Vec<(RewardKind, u64)>,
}

/// Generates the training plan.
///
/// The PPO seeds are fixed and the run seed only orders the three
/// objectives: which passes a policy explores, and so what a training
/// step costs and what reward the policy reaches, depend on its seed
/// so strongly that seeded training moves throughput by 10% and the
/// tail by 30% from seed to seed.
pub fn train_plan(seed: u64) -> TrainPlan {
    let mut runs: Vec<(RewardKind, u64)> = RewardKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, objective)| (objective, task_seed(TRAIN_PPO_SEED, i as u64)))
        .collect();
    runs.shuffle(&mut StdRng::seed_from_u64(seed));
    TrainPlan {
        suite: qrc_benchgen::paper_suite(2, TRAIN_MAX_QUBITS),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(requests: &[ServeRequest]) -> String {
        requests.iter().map(|r| r.to_line() + "\n").collect()
    }

    #[test]
    fn same_seed_generates_byte_identical_workloads() {
        assert_eq!(
            lines(&cold_compile_requests(7)),
            lines(&cold_compile_requests(7))
        );
        assert_ne!(
            lines(&cold_compile_requests(7)),
            lines(&cold_compile_requests(8))
        );
        let (a, b) = (live_mix(7, 2), live_mix(7, 2));
        assert_eq!(lines(&a.earlier), lines(&b.earlier));
        assert_eq!(lines(&a.live), lines(&b.live));
        assert_eq!(a.due_us, b.due_us);
        let c = live_mix(8, 2);
        assert_ne!(a.due_us, c.due_us);
        assert_ne!(lines(&a.live), lines(&c.live));
        assert_eq!(train_plan(7).runs, train_plan(7).runs);
        let orders: std::collections::BTreeSet<Vec<(RewardKind, u64)>> =
            (0..8).map(|s| train_plan(s).runs).collect();
        assert!(orders.len() > 1, "the seed orders the objectives");
    }

    #[test]
    fn cold_requests_are_pairwise_distinct_and_straddle_ionq() {
        let requests = cold_compile_requests(1);
        let mut keys: Vec<(String, &'static str, Option<DeviceId>)> = requests
            .iter()
            .map(|r| (r.qasm.clone(), r.objective.name(), r.device_pin))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), requests.len());
        let ionq = Device::get(DeviceId::IonqHarmony).num_qubits();
        let widths: Vec<u32> = requests
            .iter()
            .map(|r| qasm::from_qasm(&r.qasm).unwrap().num_qubits())
            .collect();
        assert!(widths.iter().any(|&w| w <= ionq));
        assert!(widths.iter().any(|&w| w > ionq));
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        let due = poisson_schedule(3, 100.0, 4000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = 4000.0 / (*due.last().unwrap() as f64 / 1e6);
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }
}
