//! The arrangement oracle alone (Algorithm 2): cost across |V| and
//! conflict ratios. The paper's complexity analysis predicts
//! O(|V| log |V| + c_u·|V|); the conflict ratio only affects the masked
//! conflict probes.

use fasea_bandit::{GreedyOracle, Oracle, OracleWorkspace};
use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_bench::oracle_scores;
use fasea_core::Arrangement;
use fasea_datagen::synthetic::generate_conflicts;
use fasea_stats::rng_from_seed;
use std::time::Duration;

/// ns per greedy arrangement of `n` events at conflict ratio `cr`.
fn arrange_ns(n: usize, cr: f64, conflict_seed: u64, budget: Duration) -> f64 {
    let mut rng = rng_from_seed(conflict_seed);
    let conflicts = generate_conflicts(n, cr, &mut rng);
    let scores = oracle_scores(n);
    let remaining = vec![10u32; n];
    let mut ws = OracleWorkspace::new();
    let mut out = Arrangement::empty();
    time_ns(budget, || {
        GreedyOracle.arrange_into(&scores, &conflicts, &remaining, 5, &mut ws, &mut out);
        out.len()
    })
}

fn main() {
    let budget = budget();
    let mut table = Table::new("oracle_greedy", "ns_per_call");
    let sweeps = [100usize, 500, 1000, 5000]
        .map(|n| ("by_v", n, 0.25, 1))
        .into_iter()
        .chain([0.0f64, 0.25, 0.5, 0.75, 1.0].map(|cr| ("by_cr", 500, cr, 2)));
    for (sweep, n, cr, seed) in sweeps {
        table.push(vec![
            ("sweep", sweep.into()),
            ("num_events", n.into()),
            ("conflict_ratio", fixed(cr, 2)),
            ("arrange_ns", fixed(arrange_ns(n, cr, seed, budget), 1)),
        ]);
    }
    table.finish();
}
