//! Linear-algebra micro-benchmarks at bandit-relevant dimensions
//! (d ≤ 20 in the paper; 64 included as headroom).

use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_linalg::{Cholesky, Matrix, ShermanMorrisonInverse, Vector};

fn spd(d: usize) -> Matrix {
    let mut y = Matrix::scaled_identity(d, 1.0);
    for k in 0..2 * d {
        let x = Vector::from_fn(d, |i| ((i * 7 + k * 13) % 17) as f64 / 17.0 - 0.4);
        y.add_outer(&x, 1.0);
    }
    y
}

fn main() {
    let budget = budget();
    let mut table = Table::new("linalg_micro", "ns_per_call");
    let mut push = |op: &'static str, d: usize, ns: f64| {
        table.push(vec![
            ("op", op.into()),
            ("dim", d.into()),
            ("call_ns", fixed(ns, 1)),
        ]);
    };
    let dims = [5usize, 10, 20, 64];

    for d in dims {
        let y = spd(d);
        push(
            "cholesky_factor",
            d,
            time_ns(budget, || Cholesky::factor(&y).unwrap()),
        );
    }

    for d in dims {
        let x = Vector::from_fn(d, |i| (i as f64 * 0.37).sin() / (d as f64).sqrt());
        let mut sm = ShermanMorrisonInverse::new(d, 1.0);
        let ns = time_ns(budget, || {
            sm.rank1_update(&x).unwrap();
            sm.update_count()
        });
        push("sherman_morrison_update", d, ns);
    }

    for d in dims {
        let mut sm = ShermanMorrisonInverse::new(d, 1.0);
        for k in 0..d {
            let x = Vector::from_fn(d, |i| ((i + k) % 5) as f64 / 5.0);
            sm.rank1_update(&x).unwrap();
        }
        let probe = Vector::from_fn(d, |i| (i as f64 * 0.61).cos() / (d as f64).sqrt());
        push(
            "inv_quadratic_form",
            d,
            time_ns(budget, || sm.inv_quadratic_form(&probe)),
        );
    }
    table.finish();
}
