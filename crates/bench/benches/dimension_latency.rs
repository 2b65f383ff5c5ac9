//! Table 6 (time column): per-round latency at d ∈ {1, 5, 10, 15, 20},
//! default |V| = 500.
//!
//! Expected shape (paper): every algorithm slows as d grows; TS pays an
//! extra O(d³) posterior sample, UCB an O(d²)-per-event bound.

use fasea_bench::harness::{budget, fixed, Table};
use fasea_bench::policy_round_ns;

const NUM_EVENTS: usize = 500;

fn main() {
    let budget = budget();
    let mut table = Table::new("dimension_latency", "ns_per_round").meta("num_events", NUM_EVENTS);
    for dim in [1usize, 5, 10, 15, 20] {
        for (policy, round_ns) in policy_round_ns(NUM_EVENTS, dim, true, budget) {
            table.push(vec![
                ("policy", policy.into()),
                ("dim", dim.into()),
                ("round_ns", fixed(round_ns, 1)),
            ]);
        }
    }
    table.finish();
}
