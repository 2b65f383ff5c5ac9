//! # fasea-bench
//!
//! The workspace's benches and the one harness they all run on
//! ([`harness`]: time budget, timing loop, result [`harness::Table`]
//! and loopback-serving fixtures). Every bench is a plain `main`; each
//! prints one line per cell and, when `FASEA_BENCH_JSON` names a file,
//! writes its table there in the `BENCH_*.json` format that
//! `fasea-exp check-bench` validates.
//!
//! * `round_latency` — per-round time of each algorithm at
//!   `|V| ∈ {100, 500, 1000}` (Table 5's time column).
//! * `dimension_latency` — per-round time at `d ∈ {1, 5, 10, 15, 20}`
//!   (Table 6's time column).
//! * `oracle_greedy` — the greedy arrangement oracle alone (through the
//!   `Oracle` trait), across `|V|` and conflict ratios.
//! * `oracle_compare` — greedy vs tabu oracles: fitness and latency
//!   side by side (the committed `BENCH_oracle.json`).
//! * `linalg_micro` — Cholesky, Sherman–Morrison and quadratic forms at
//!   bandit-relevant dimensions.
//! * `ablations` — the design choices DESIGN.md calls out:
//!   Sherman–Morrison vs full re-factorisation, O(n log n) vs O(n²)
//!   Kendall, counter-hash vs seeded-RNG coin draws.
//! * `datagen_throughput` — arrival-stream generation cost.
//! * `scoring_hot_path`, `wal_append`, `serve_roundtrip`,
//!   `serve_throughput`, `shard_scaling`, `pipeline_throughput`,
//!   `models_residency` — the scoring engine, WAL, serving, sharding,
//!   pipelining and model-store layers (the committed `BENCH_*.json`
//!   tables; each bench's header says how its table is produced).

pub mod harness;

use std::time::Duration;

use fasea_bandit::{
    EpsilonGreedy, Exploit, LinUcb, Policy, RandomPolicy, SelectionView, ThompsonSampling,
};
use fasea_core::Feedback;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};

/// Builds the default-parameter policy by paper name.
///
/// # Panics
/// Panics on an unknown name.
fn policy_by_name(name: &str, dim: usize) -> Box<dyn Policy> {
    match name {
        "UCB" => Box::new(LinUcb::new(dim, 1.0, 2.0)),
        "TS" => Box::new(ThompsonSampling::new(dim, 1.0, 0.1, 7)),
        "eGreedy" => Box::new(EpsilonGreedy::new(dim, 1.0, 0.1, 8)),
        "Exploit" => Box::new(Exploit::new(dim, 1.0)),
        "Random" => Box::new(RandomPolicy::new(9)),
        other => panic!("unknown policy {other}"),
    }
}

/// The paper's five algorithm names in reporting order.
pub const POLICY_NAMES: [&str; 5] = ["UCB", "TS", "eGreedy", "Exploit", "Random"];

/// Mean ns per policy round (select + observe) of each of the paper's
/// algorithms, in [`POLICY_NAMES`] order, on one Table 5/6 cell: a
/// synthetic workload of `num_events` events in dimension `dim`, one
/// pre-generated arrival reused every round (so only the policy round
/// is timed), every arranged event answered `accept`.
pub fn policy_round_ns(
    num_events: usize,
    dim: usize,
    accept: bool,
    budget: Duration,
) -> Vec<(&'static str, f64)> {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        num_events,
        dim,
        seed: 0xBE7C4,
        ..Default::default()
    });
    let arrival = workload.arrivals.arrival(0);
    let remaining = vec![u32::MAX; num_events];
    POLICY_NAMES
        .iter()
        .map(|&name| {
            let mut policy = policy_by_name(name, dim);
            let mut t = 0u64;
            let ns = harness::time_ns(budget, || {
                let view = SelectionView {
                    t,
                    user_capacity: 3,
                    contexts: &arrival.contexts,
                    conflicts: workload.instance.conflicts(),
                    remaining: &remaining,
                };
                let arrangement = policy.select(&view);
                let fb = Feedback::new(vec![accept; arrangement.len()]);
                policy.observe(t, &arrival.contexts, &arrangement, &fb);
                t += 1;
                arrangement.len()
            });
            (name, ns)
        })
        .collect()
}

/// Deterministic oracle input scores in `[0, 1]` for `n` events.
pub fn oracle_scores(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 * 0.7311).sin() + 1.0) / 2.0)
        .collect()
}
