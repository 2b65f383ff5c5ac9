//! Greedy vs tabu arrangement oracles: fitness and latency, side by
//! side, through the [`Oracle`] trait both run in production.
//!
//! For each `|V|` cell the same score vector, conflict graph and
//! capacities are arranged by:
//!
//! * `greedy`        — [`GreedyOracle`] (Algorithm 2, the default);
//! * `tabu-max`      — [`TabuOracle`] maximising expected attendance;
//! * `tabu-balanced` — [`TabuOracle`] with the balanced-fill objective.
//!
//! Two numbers per cell: `rounds_per_sec` (arrange calls per second on
//! a warm workspace) and `attendance` (the sum of positive scores of
//! the arranged events — the MaxAttendance objective, so the greedy row
//! is the baseline the tabu rows must not undercut).
//!
//! The committed `BENCH_oracle.json` is produced by
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_oracle.json cargo bench --bench oracle_compare
//! ```

use fasea_bandit::{OracleOptions, TabuFitness};
use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_bench::oracle_scores;
use fasea_core::Arrangement;
use fasea_datagen::synthetic::generate_conflicts;
use fasea_stats::rng_from_seed;

fn main() {
    let budget = budget();
    let mut table = Table::new("oracle_compare", "rounds_per_sec");
    let variants: &[(&'static str, OracleOptions)] = &[
        ("greedy", OracleOptions::greedy()),
        (
            "tabu-max",
            OracleOptions::tabu().with_tabu_fitness(TabuFitness::MaxAttendance),
        ),
        (
            "tabu-balanced",
            OracleOptions::tabu().with_tabu_fitness(TabuFitness::BalancedFill),
        ),
    ];
    for num_events in [500usize, 5000] {
        let mut rng = rng_from_seed(0x0AC1_E000 ^ num_events as u64);
        let conflicts = generate_conflicts(num_events, 0.25, &mut rng);
        let scores = oracle_scores(num_events);
        let remaining: Vec<u32> = (0..num_events).map(|v| 1 + (v % 7) as u32).collect();
        let cu = 5u32;
        for (label, opts) in variants {
            let oracle = opts.build();
            let mut ws = fasea_bandit::OracleWorkspace::new();
            let mut out = Arrangement::empty();
            oracle.arrange_into(&scores, &conflicts, &remaining, cu, &mut ws, &mut out);
            let attendance: f64 = out
                .events()
                .iter()
                .map(|v| scores[v.index()].max(0.0))
                .sum();
            let arranged = out.len();
            let ns = time_ns(budget, || {
                oracle.arrange_into(&scores, &conflicts, &remaining, cu, &mut ws, &mut out);
                out.len()
            });
            table.push(vec![
                ("oracle", (*label).into()),
                ("num_events", num_events.into()),
                ("rounds_per_sec", fixed(1e9 / ns, 1)),
                ("attendance", fixed(attendance, 3)),
                ("arranged", arranged.into()),
            ]);
        }
    }
    table.finish();
}
