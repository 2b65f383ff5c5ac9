//! Ablation benches for the design choices called out in DESIGN.md §6.
//!
//! * `inverse` — Sherman–Morrison O(d²) maintenance vs a full O(d³)
//!   re-factorisation per observation (the paper's complexity analysis
//!   assumes the latter).
//! * `kendall` — Knight's O(n log n) Kendall τ vs the naive O(n²) pair
//!   count: the harness computes τ at ~110 checkpoints per Figure 2 run
//!   over up to |V| = 1000 events.
//! * `crn` — the counter-hash coin draw vs a seeded-RNG draw per coin,
//!   justifying the stateless common-random-number design on the hot
//!   feedback path.

use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_linalg::{Cholesky, Matrix, ShermanMorrisonInverse, Vector};
use fasea_stats::{kendall_tau, kendall_tau_naive, CoinStream};
use rand::Rng as _;

fn main() {
    let budget = budget();
    let mut table = Table::new("ablations", "ns_per_call");
    let mut push = |ablation: &'static str, variant: &'static str, size: Option<usize>, ns| {
        table.push(vec![
            ("ablation", ablation.into()),
            ("variant", variant.into()),
            ("size", size.into()),
            ("call_ns", fixed(ns, 1)),
        ]);
    };

    for d in [10usize, 20, 64] {
        let x = Vector::from_fn(d, |i| (i as f64 * 0.29).sin() / (d as f64).sqrt());
        let mut sm = ShermanMorrisonInverse::new(d, 1.0);
        let ns = time_ns(budget, || {
            sm.rank1_update(&x).unwrap();
            sm.y_inv()[(0, 0)]
        });
        push("inverse", "sherman_morrison", Some(d), ns);
        let mut y = Matrix::scaled_identity(d, 1.0);
        let ns = time_ns(budget, || {
            y.add_outer(&x, 1.0);
            Cholesky::factor(&y).unwrap().inverse()[(0, 0)]
        });
        push("inverse", "full_refactor", Some(d), ns);
    }

    for n in [100usize, 500, 1000] {
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000003) as f64)
            .collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 40503 + 7) % 999983) as f64).collect();
        let ns = time_ns(budget, || kendall_tau(&a, &b).unwrap());
        push("kendall", "merge_sort", Some(n), ns);
        let ns = time_ns(budget, || kendall_tau_naive(&a, &b).unwrap());
        push("kendall", "naive", Some(n), ns);
    }

    let stream = CoinStream::new(42);
    let mut t = 0u64;
    let ns = time_ns(budget, || {
        t += 1;
        stream.uniform(t, 17)
    });
    push("crn", "counter_hash", None, ns);
    let mut t = 0u64;
    let ns = time_ns(budget, || {
        t += 1;
        fasea_stats::rng_from_seed(t).gen::<f64>()
    });
    push("crn", "seeded_stdrng_per_draw", None, ns);
    table.finish();
}
