//! The batched scoring path must agree with the legacy scalar path.
//!
//! Before the workspace redesign, policies scored one event at a time:
//! clone `θ̂`, then per event `xᵀθ̂ + α·√(xᵀY⁻¹x)` through scalar calls.
//! The batched kernels were written to preserve the exact per-row
//! summation order, so UCB widths and scores are checked bit-for-bit
//! (the determinism/recovery machinery relies on it), including at the
//! `scoring_hot_path` bench's shapes; Exploit is checked to 1e-12.

use fasea_bandit::{Exploit, LinUcb, Policy, RidgeEstimator, SelectionView};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, EventId, Feedback};

/// Deterministic xorshift for reproducible pseudo-random cases without
/// dragging a stats dependency into the test.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `scoring_hot_path` bench grid below |V| = 100k, as `(|V|, d)`.
const BENCH_SHAPES: [(usize, usize); 6] = [
    (100, 5),
    (100, 20),
    (1_000, 5),
    (1_000, 20),
    (10_000, 5),
    (10_000, 20),
];

fn random_contexts(rng: &mut XorShift, n: usize, d: usize) -> ContextMatrix {
    let data: Vec<f64> = (0..n * d).map(|_| rng.next_f64() - 0.3).collect();
    ContextMatrix::from_rows(n, d, data)
}

/// The pre-redesign scalar scoring of UCB, reimplemented against the
/// public estimator API: per-event point estimate plus α times the
/// per-event confidence width.
fn legacy_ucb_scores(estimator: &RidgeEstimator, alpha: f64, contexts: &ContextMatrix) -> Vec<f64> {
    let mut est = estimator.clone();
    (0..contexts.num_events())
        .map(|v| {
            let x = contexts.context(EventId(v));
            est.point_estimate(x) + alpha * est.confidence_width(x)
        })
        .collect()
}

fn legacy_exploit_scores(estimator: &RidgeEstimator, contexts: &ContextMatrix) -> Vec<f64> {
    let mut est = estimator.clone();
    (0..contexts.num_events())
        .map(|v| est.point_estimate(contexts.context(EventId(v))))
        .collect()
}

#[test]
fn batched_ucb_matches_legacy_scalar_path_across_random_cases() {
    let mut rng = XorShift(0x5EED_CAFE);
    // 5..56 events x 2..6 dims, then the bench's shapes.
    let random_shapes = (0..40usize).map(|case| (5 + (case % 4) * 17, 2 + case % 5));
    for (case, (n, d)) in random_shapes.chain(BENCH_SHAPES).enumerate() {
        let mut ucb = LinUcb::new(d, 1.0, 2.0);
        let conflicts = ConflictGraph::new(n);
        let remaining = vec![100u32; n];

        // Random learning history so Y⁻¹ and θ̂ are non-trivial.
        let mut out = Arrangement::empty();
        for t in 0..12 {
            let ctx = random_contexts(&mut rng, n, d);
            let view = SelectionView {
                t,
                user_capacity: 3,
                contexts: &ctx,
                conflicts: &conflicts,
                remaining: &remaining,
            };
            ucb.select_into(&view, &mut out);
            let fb = Feedback::new(
                (0..out.len())
                    .map(|i| (t as usize + i).is_multiple_of(2))
                    .collect(),
            );
            ucb.observe(t, &ctx, &out, &fb);
        }

        let ctx = random_contexts(&mut rng, n, d);
        let view = SelectionView {
            t: 12,
            user_capacity: 3,
            contexts: &ctx,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let legacy = legacy_ucb_scores(ucb.estimator(), ucb.alpha(), &ctx);
        let _ = ucb.select(&view);
        let batched = ucb.last_scores().expect("scores after select");
        assert_eq!(batched.len(), legacy.len());
        for (v, (b, l)) in batched.iter().zip(&legacy).enumerate() {
            assert_eq!(
                b.to_bits(),
                l.to_bits(),
                "case {case} ({n}x{d}), event {v}: batched {b} vs legacy {l}"
            );
        }
    }
}

#[test]
fn batched_exploit_matches_legacy_scalar_path() {
    let mut rng = XorShift(0xD15EA5E);
    for case in 0..20u64 {
        let n = 10 + (case as usize % 3) * 25;
        let d = 3 + (case as usize % 4);
        let mut p = Exploit::new(d, 0.5);
        let conflicts = ConflictGraph::new(n);
        let remaining = vec![50u32; n];

        let mut out = Arrangement::empty();
        for t in 0..10 {
            let ctx = random_contexts(&mut rng, n, d);
            let view = SelectionView {
                t,
                user_capacity: 2,
                contexts: &ctx,
                conflicts: &conflicts,
                remaining: &remaining,
            };
            p.select_into(&view, &mut out);
            let fb = Feedback::new((0..out.len()).map(|i| i % 2 == 0).collect());
            p.observe(t, &ctx, &out, &fb);
        }

        let ctx = random_contexts(&mut rng, n, d);
        let view = SelectionView {
            t: 10,
            user_capacity: 2,
            contexts: &ctx,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let legacy = legacy_exploit_scores(p.estimator(), &ctx);
        let _ = p.select(&view);
        let batched = p.last_scores().expect("scores after select");
        for (v, (b, l)) in batched.iter().zip(&legacy).enumerate() {
            assert!(
                (b - l).abs() <= 1e-12,
                "case {case}, event {v}: batched {b} vs legacy {l}"
            );
        }
    }
}

#[test]
fn batched_ucb_width_pass_is_bit_exact_with_scalar_widths() {
    // The batched width kernel keeps the per-row summation order, so it
    // is bit-identical to the scalar `confidence_width` calls.
    let mut rng = XorShift(0xBEEF);
    for (n, d) in [(33, 5)].into_iter().chain(BENCH_SHAPES) {
        let mut est = RidgeEstimator::new(d, 1.0);
        for _ in 0..50 {
            let x: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
            est.observe(&x, rng.next_f64().round()).unwrap();
        }
        let ctx = random_contexts(&mut rng, n, d);
        let mut batched = vec![0.0; n];
        est.widths_into(ctx.as_slice(), &mut batched);
        for (v, b) in batched.iter().enumerate() {
            let scalar = est.confidence_width(ctx.context(EventId(v)));
            assert_eq!(
                b.to_bits(),
                scalar.to_bits(),
                "{n}x{d}, event {v}: batched width differs in bits"
            );
        }
    }
}
