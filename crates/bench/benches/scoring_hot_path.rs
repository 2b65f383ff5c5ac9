//! Per-round UCB scoring latency of the batched `Policy` path, serial
//! vs the [`ScorePool`] parallel engine.
//!
//! Both paths run `select_into` on identical estimator state:
//!
//! * `batched`  — serial `select_into` (zero steady-state allocations);
//! * `parallel` — `select_into` through an 8-thread [`ScorePool`].
//!
//! The parallel path's scores and arrangement are asserted bit-equal to
//! the serial reference before timing, so the ratio is pure overhead or
//! scaling, not numerics. (That the batched kernels are bit-equal to the
//! pre-batching scalar path is pinned by
//! `crates/bandit/tests/batched_equivalence.rs` at this bench's shapes.)
//! The grid is `|V| ∈ {100, 1k, 10k}` × `d ∈ {5, 20}` plus the large
//! cells `|V| = 100k (d = 20)` and `|V| = 1M (d = 5)` that the parallel
//! engine exists for.
//!
//! `parallel_speedup` is meaningful only when the host actually has
//! cores to scale onto — the table records `host_cores` next to
//! `threads` so a single-core host's ≈1.0× is read as a machine
//! property, not a regression.
//!
//! The committed `BENCH_scoring.json` is produced by
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_scoring.json cargo bench --bench scoring_hot_path
//! ```

use fasea_bandit::{LinUcb, Policy, ScorePool, SelectionView};
use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, Feedback};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Pool width for the parallel column.
const POOL_THREADS: usize = 8;

/// Deterministic xorshift so fixtures need no `rand` dependency.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(serial, parallel)` ns per round of one grid cell.
fn bench_cell(
    num_events: usize,
    dim: usize,
    budget: Duration,
    pool: &Arc<ScorePool>,
) -> (f64, f64) {
    let mut rng = XorShift(0x5C0_71A6 ^ (num_events as u64) << 8 ^ dim as u64);
    let contexts = ContextMatrix::from_fn(num_events, dim, |_, _| rng.next_f64());
    // A sparse conflict graph, enough for the oracle's mask checks to
    // run but not to dominate timing.
    let pairs: Vec<(usize, usize)> = (0..num_events / 10)
        .map(|i| (i, i + num_events / 2))
        .collect();
    let conflicts = ConflictGraph::from_pairs(num_events, &pairs);
    let remaining = vec![u32::MAX; num_events];
    let cu = 5u32;

    // Warm a policy so Y⁻¹ and θ̂ are non-trivial. Large cells get a
    // short warm-up — the estimator state only needs to be non-trivial,
    // and 32 full scans of |V| = 1M are pure wait.
    let warm_rounds = if num_events >= 100_000 { 2 } else { 32 };
    let mut policy = LinUcb::new(dim, 1.0, 2.0);
    let mut out = Arrangement::empty();
    for t in 0..warm_rounds {
        let view = SelectionView {
            t,
            user_capacity: cu,
            contexts: &contexts,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        policy.select_into(&view, &mut out);
        let fb = Feedback::new(
            (0..out.len())
                .map(|i| (t as usize + i).is_multiple_of(2))
                .collect(),
        );
        policy.observe(t, &contexts, &out, &fb);
    }

    let view = SelectionView {
        t: warm_rounds,
        user_capacity: cu,
        contexts: &contexts,
        conflicts: &conflicts,
        remaining: &remaining,
    };

    // Serial reference: scores + arrangement the parallel path must hit.
    policy.select_into(&view, &mut out);
    let serial_out = out.clone();
    let serial_scores: Vec<f64> = policy.last_scores().expect("scores after select").to_vec();

    let batched_ns = time_ns(budget, || {
        policy.select_into(black_box(&view), &mut out);
        out.len()
    });

    // Parallel: install the shared pool, prove bit-equality against the
    // serial reference, then time the identical call.
    policy
        .workspace_mut()
        .set_score_pool(Some(Arc::clone(pool)));
    policy.select_into(&view, &mut out);
    assert_eq!(out.events(), serial_out.events(), "parallel path diverges");
    let pooled_scores = policy.last_scores().expect("scores after pooled select");
    for (v, (p, s)) in pooled_scores.iter().zip(&serial_scores).enumerate() {
        assert_eq!(
            p.to_bits(),
            s.to_bits(),
            "parallel score {v} differs in bits"
        );
    }
    let parallel_ns = time_ns(budget, || {
        policy.select_into(black_box(&view), &mut out);
        out.len()
    });
    policy.workspace_mut().set_score_pool(None);

    (batched_ns, parallel_ns)
}

fn main() {
    let budget = budget();
    let pool = ScorePool::shared(POOL_THREADS).expect("multi-thread pool");
    // Keep worker-thread startup out of the first cell's timing.
    pool.wait_ready();
    let mut table = Table::new("scoring_hot_path", "ns_per_round")
        .meta("policy", "UCB")
        .meta("threads", POOL_THREADS)
        .caveat(
            2,
            "parallel_speedup < 1 measures ScorePool dispatch overhead on one core, \
             not a scaling regression",
        );
    for (num_events, dim) in [
        (100usize, 5usize),
        (100, 20),
        (1_000, 5),
        (1_000, 20),
        (10_000, 5),
        (10_000, 20),
        // The cells the parallel engine exists for.
        (100_000, 20),
        (1_000_000, 5),
    ] {
        let (batched_ns, parallel_ns) = bench_cell(num_events, dim, budget, &pool);
        table.push(vec![
            ("num_events", num_events.into()),
            ("dim", dim.into()),
            ("batched_ns", fixed(batched_ns, 1)),
            ("parallel_ns", fixed(parallel_ns, 1)),
            ("parallel_speedup", fixed(batched_ns / parallel_ns, 2)),
        ]);
    }
    table.finish();
}
