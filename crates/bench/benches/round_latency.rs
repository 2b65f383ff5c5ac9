//! Table 5 (time column): average per-round latency of each algorithm
//! at |V| ∈ {100, 500, 1000}, default d = 20.
//!
//! Each iteration plays one full policy round: score every event,
//! run Oracle-Greedy, and absorb the feedback. Expected shape (paper):
//! Random ≪ eGreedy ≈ Exploit < TS < UCB, with UCB's cost growing
//! fastest in |V| (it pays an O(d²) confidence bound per event).

use fasea_bench::harness::{budget, fixed, Table};
use fasea_bench::policy_round_ns;

const DIM: usize = 20;

fn main() {
    let budget = budget();
    let mut table = Table::new("round_latency", "ns_per_round").meta("dim", DIM);
    for num_events in [100usize, 500, 1000] {
        for (policy, round_ns) in policy_round_ns(num_events, DIM, false, budget) {
            table.push(vec![
                ("policy", policy.into()),
                ("num_events", num_events.into()),
                ("round_ns", fixed(round_ns, 1)),
            ]);
        }
    }
    table.finish();
}
