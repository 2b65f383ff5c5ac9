//! Personalized policies: per-user UCB and Thompson Sampling routed
//! through an [`EstimatorStore`].
//!
//! Both implement `fasea_bandit::Policy`, so every existing driver —
//! `sim::run_simulation`, the durable service, `fasea-serve` — works
//! unchanged. The round's user is derived from `view.t` through a
//! [`UserSchedule`] (the same `mix64(schedule_seed ^ t) % population`
//! map the multi-user workload generator uses), which keeps the
//! one-argument `Policy` interface intact while each round trains a
//! different user's model.
//!
//! ## Determinism
//!
//! * The store's residency machinery is bit-transparent (see
//!   [`crate::store`]), so scores are identical under any memory
//!   budget.
//! * TS's posterior RNG lives on the policy shell, not on any per-user
//!   model: it draws exactly `d` Gaussians per round in round order, so
//!   the stream is positional and independent of residency.

use crate::store::{fnv1a, EstimatorStore, UserId};
use fasea_bandit::{Policy, ScoreWorkspace, SelectionView, SnapshotError};
use fasea_core::{Arrangement, ContextMatrix, EventId, Feedback};
use fasea_stats::crn::mix64;

/// The deterministic round → user map of a multi-user run:
/// `user(t) = mix64(schedule_seed ^ t) mod population`.
#[derive(Debug, Clone, Copy)]
pub struct UserSchedule {
    schedule_seed: u64,
    population: u64,
}

impl UserSchedule {
    /// Creates a schedule over `population` users.
    ///
    /// # Panics
    /// Panics if `population == 0`.
    pub fn new(schedule_seed: u64, population: usize) -> Self {
        assert!(population > 0, "UserSchedule: population must be positive");
        UserSchedule {
            schedule_seed,
            population: population as u64,
        }
    }

    /// The user arriving at round `t`.
    pub fn user_at(&self, t: u64) -> u64 {
        mix64(self.schedule_seed ^ t) % self.population
    }

    /// Number of distinct users.
    pub fn population(&self) -> usize {
        self.population as usize
    }
}

/// The store's cumulative tier counters in the form the workspace
/// publishes to the serving layers.
fn tier_stats(store: &EstimatorStore) -> fasea_bandit::ModelTierStats {
    fasea_bandit::ModelTierStats {
        cohort_hits: store.cohort_hits(),
        sketch_promotions: store.sketch_promotions(),
    }
}

fn snapshot_err(e: crate::ModelsError) -> SnapshotError {
    match e {
        crate::ModelsError::Codec(s)
        | crate::ModelsError::Config(s)
        | crate::ModelsError::Spill(s) => SnapshotError::Corrupt(s),
        _ => SnapshotError::Corrupt("estimator store restore failed"),
    }
}

/// Per-user contextual combinatorial UCB over an [`EstimatorStore`].
#[derive(Debug)]
pub struct PersonalizedUcb {
    store: EstimatorStore,
    schedule: UserSchedule,
    alpha: f64,
    ws: ScoreWorkspace,
}

impl PersonalizedUcb {
    /// Creates per-user UCB with exploration coefficient `alpha`.
    ///
    /// # Panics
    /// Panics if `alpha < 0` or non-finite.
    pub fn new(store: EstimatorStore, schedule: UserSchedule, alpha: f64) -> Self {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "PersonalizedUcb: alpha must be >= 0"
        );
        PersonalizedUcb {
            store,
            schedule,
            alpha,
            ws: ScoreWorkspace::new(),
        }
    }

    /// Read access to the backing store (stats, digests).
    pub fn store(&self) -> &EstimatorStore {
        &self.store
    }

    /// Mutable access to the backing store.
    pub fn store_mut(&mut self) -> &mut EstimatorStore {
        &mut self.store
    }

    /// The round → user schedule.
    pub fn schedule(&self) -> UserSchedule {
        self.schedule
    }

    /// Exploration coefficient α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Policy for PersonalizedUcb {
    fn name(&self) -> &'static str {
        "UCB-P"
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        let n = view.num_events();
        let alpha = self.alpha;
        let (scores, widths) = ws.scores_and_widths_mut(n);
        let user = self.schedule.user_at(view.t);
        let h = self.store.resolve(UserId(user));
        let est = self
            .store
            .estimator_for_select(h, view.t)
            .expect("PersonalizedUcb: estimator access failed");
        let (theta, sm) = est.theta_and_inverse();
        sm.widths_and_dots_into(
            view.contexts.as_slice(),
            view.dim(),
            theta.as_slice(),
            widths,
            scores,
        );
        for v in 0..n {
            scores[v] += alpha * widths[v];
        }
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn observe(
        &mut self,
        t: u64,
        contexts: &ContextMatrix,
        arrangement: &Arrangement,
        feedback: &Feedback,
    ) {
        let user = self.schedule.user_at(t);
        let h = self.store.resolve(UserId(user));
        for (v, accepted) in feedback.zip(arrangement) {
            let r = if accepted { 1.0 } else { 0.0 };
            self.store
                .observe(h, contexts.context(v), r, t)
                .expect("PersonalizedUcb: estimator update failed");
        }
        self.store
            .enforce_budget(t)
            .expect("PersonalizedUcb: budget enforcement failed");
        self.ws.set_model_tier_stats(tier_stats(&self.store));
    }

    fn state_bytes(&self) -> usize {
        self.store.resident_bytes() + self.ws.state_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        self.store.save_state()
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        self.store.restore_state(blob).map_err(snapshot_err)
    }
}

/// Per-user Thompson Sampling over an [`EstimatorStore`].
#[derive(Debug)]
pub struct PersonalizedTs {
    store: EstimatorStore,
    schedule: UserSchedule,
    delta: f64,
    r_sub_gaussian: f64,
    rng: fasea_stats::Rng,
    ws: ScoreWorkspace,
}

impl PersonalizedTs {
    /// Creates per-user TS with confidence parameter `delta` (paper
    /// default δ = 0.1), `R = 1` and a policy-private RNG seed.
    ///
    /// # Panics
    /// Panics if `delta ∉ (0, 1)`.
    pub fn new(store: EstimatorStore, schedule: UserSchedule, delta: f64, seed: u64) -> Self {
        assert!(
            delta > 0.0 && delta < 1.0,
            "PersonalizedTs: delta must be in (0, 1)"
        );
        PersonalizedTs {
            store,
            schedule,
            delta,
            r_sub_gaussian: 1.0,
            rng: fasea_stats::rng_from_seed(seed),
            ws: ScoreWorkspace::new(),
        }
    }

    /// Read access to the backing store (stats, digests).
    pub fn store(&self) -> &EstimatorStore {
        &self.store
    }

    /// Mutable access to the backing store.
    pub fn store_mut(&mut self) -> &mut EstimatorStore {
        &mut self.store
    }

    /// The round → user schedule.
    pub fn schedule(&self) -> UserSchedule {
        self.schedule
    }

    /// The sampling scale `q = R √(9 d ln(t/δ))` at (1-based) time `t`.
    pub fn sampling_scale(&self, t_one_based: u64) -> f64 {
        let d = self.store.dim() as f64;
        let t = t_one_based.max(1) as f64;
        self.r_sub_gaussian * (9.0 * d * (t / self.delta).ln()).sqrt()
    }

    /// FNV-1a digest of the policy RNG's serialized state — the
    /// "policy RNG digest" compared across budget configurations.
    pub fn rng_digest(&self) -> u64 {
        fnv1a(&fasea_stats::rng_state(&self.rng))
    }
}

impl Policy for PersonalizedTs {
    fn name(&self) -> &'static str {
        "TS-P"
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        let n = view.num_events();
        let q = self.sampling_scale(view.t + 1);
        let user = self.schedule.user_at(view.t);
        let h = self.store.resolve(UserId(user));
        let (theta_hat, chol) = {
            let est = self
                .store
                .estimator_for_select(h, view.t)
                .expect("PersonalizedTs: estimator access failed");
            (
                est.theta_hat().clone(),
                est.gram_cholesky()
                    .expect("PersonalizedTs: Y must stay SPD"),
            )
        };
        let theta_tilde =
            fasea_stats::sample_gaussian_with_precision_factor(&theta_hat, q, &chol, &mut self.rng);
        let scores = ws.scores_mut(n);
        for (v, s) in scores.iter_mut().enumerate() {
            let x = view.contexts.context(EventId(v));
            *s = fasea_linalg::dot_slices(x, theta_tilde.as_slice());
        }
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn observe(
        &mut self,
        t: u64,
        contexts: &ContextMatrix,
        arrangement: &Arrangement,
        feedback: &Feedback,
    ) {
        let user = self.schedule.user_at(t);
        let h = self.store.resolve(UserId(user));
        for (v, accepted) in feedback.zip(arrangement) {
            let r = if accepted { 1.0 } else { 0.0 };
            self.store
                .observe(h, contexts.context(v), r, t)
                .expect("PersonalizedTs: estimator update failed");
        }
        self.store
            .enforce_budget(t)
            .expect("PersonalizedTs: budget enforcement failed");
        self.ws.set_model_tier_stats(tier_stats(&self.store));
    }

    fn state_bytes(&self) -> usize {
        self.store.resident_bytes() + self.ws.state_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        let store = self.store.save_state();
        let mut out = Vec::with_capacity(8 + store.len() + 32);
        out.extend_from_slice(&(store.len() as u64).to_le_bytes());
        out.extend_from_slice(&store);
        out.extend_from_slice(&fasea_stats::rng_state(&self.rng));
        out
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        if blob.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let store_len = u64::from_le_bytes(blob[..8].try_into().unwrap()) as usize;
        if blob.len() != 8 + store_len + 32 {
            return Err(SnapshotError::Truncated);
        }
        self.store
            .restore_state(&blob[8..8 + store_len])
            .map_err(snapshot_err)?;
        let rng_state: [u8; 32] = blob[8 + store_len..].try_into().unwrap();
        self.rng = fasea_stats::rng_from_state(rng_state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use fasea_core::{ConflictGraph, ContextMatrix};
    use fasea_store::TempDir;

    fn view<'a>(
        contexts: &'a ContextMatrix,
        conflicts: &'a ConflictGraph,
        remaining: &'a [u32],
        t: u64,
    ) -> SelectionView<'a> {
        SelectionView {
            t,
            user_capacity: 2,
            contexts,
            conflicts,
            remaining,
        }
    }

    fn drive_policy(policy: &mut dyn Policy, rounds: u64) -> Vec<Vec<EventId>> {
        let ctx = ContextMatrix::from_fn(6, 3, |v, j| ((v * 5 + j * 11) % 13) as f64 / 13.0 - 0.3);
        let g = ConflictGraph::from_pairs(6, &[(0, 1), (2, 3)]);
        let remaining = [1_000_000u32; 6];
        let mut picks = Vec::new();
        for t in 0..rounds {
            let a = policy.select(&view(&ctx, &g, &remaining, t));
            // Deterministic synthetic feedback keyed off (t, v).
            let fb: Vec<bool> = a
                .iter()
                .map(|v| mix64(t ^ v.0 as u64).is_multiple_of(3))
                .collect();
            policy.observe(t, &ctx, &a, &Feedback::new(fb));
            picks.push(a.events().to_vec());
        }
        picks
    }

    #[test]
    fn schedule_is_deterministic_and_in_range() {
        let s = UserSchedule::new(0xDEAD, 17);
        for t in 0..1000 {
            assert!(s.user_at(t) < 17);
            assert_eq!(s.user_at(t), s.user_at(t));
        }
        assert_eq!(s.population(), 17);
    }

    #[test]
    fn personalized_ucb_budget_runs_match_unbounded_bit_for_bit() {
        let one = fasea_bandit::RidgeEstimator::new(3, 1.0).state_bytes();
        let dir = TempDir::new("models-policy-ucb-parity");
        let schedule = UserSchedule::new(99, 11);
        let mut tiny = PersonalizedUcb::new(
            EstimatorStore::new(StoreConfig::bounded(3, 1.0, 2 * one, 1200, &dir)).unwrap(),
            schedule,
            2.0,
        );
        let mut unbounded = PersonalizedUcb::new(
            EstimatorStore::new(StoreConfig::unbounded(3, 1.0)).unwrap(),
            schedule,
            2.0,
        );
        let picks_tiny = drive_policy(&mut tiny, 250);
        let picks_unbounded = drive_policy(&mut unbounded, 250);
        assert_eq!(picks_tiny, picks_unbounded, "arrangements diverged");
        assert!(tiny.store().stats().demotions > 0, "budget never bound");
        assert_eq!(tiny.save_state(), unbounded.save_state());
    }

    #[test]
    fn personalized_ts_budget_runs_match_unbounded_bit_for_bit() {
        let one = fasea_bandit::RidgeEstimator::new(3, 1.0).state_bytes();
        let dir = TempDir::new("models-policy-ts-parity");
        let schedule = UserSchedule::new(7, 9);
        let mut tiny = PersonalizedTs::new(
            EstimatorStore::new(StoreConfig::bounded(3, 1.0, one, 300, &dir)).unwrap(),
            schedule,
            0.1,
            42,
        );
        let mut unbounded = PersonalizedTs::new(
            EstimatorStore::new(StoreConfig::unbounded(3, 1.0)).unwrap(),
            schedule,
            0.1,
            42,
        );
        let picks_tiny = drive_policy(&mut tiny, 200);
        let picks_unbounded = drive_policy(&mut unbounded, 200);
        assert_eq!(picks_tiny, picks_unbounded, "arrangements diverged");
        assert!(tiny.store().stats().evictions > 0, "warm tier never bound");
        assert_eq!(tiny.rng_digest(), unbounded.rng_digest());
        assert_eq!(tiny.save_state(), unbounded.save_state());
    }

    #[test]
    fn ts_save_restore_resumes_in_lockstep() {
        let schedule = UserSchedule::new(3, 5);
        let mut a = PersonalizedTs::new(
            EstimatorStore::new(StoreConfig::unbounded(3, 1.0)).unwrap(),
            schedule,
            0.1,
            5,
        );
        drive_policy(&mut a, 60);
        let blob = a.save_state();
        let mut b = PersonalizedTs::new(
            EstimatorStore::new(StoreConfig::unbounded(3, 1.0)).unwrap(),
            schedule,
            0.1,
            999, // seed overwritten by restore
        );
        b.restore_state(&blob).unwrap();
        assert_eq!(a.rng_digest(), b.rng_digest());
        let more_a = drive_policy(&mut a, 40);
        let more_b = drive_policy(&mut b, 40);
        // NB: drive_policy restarts t at 0, which both sides share.
        assert_eq!(more_a, more_b);
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn ucb_restore_rejects_garbage() {
        let mut p = PersonalizedUcb::new(
            EstimatorStore::new(StoreConfig::unbounded(2, 1.0)).unwrap(),
            UserSchedule::new(0, 3),
            1.0,
        );
        assert!(p.restore_state(b"nonsense").is_err());
        assert_eq!(p.name(), "UCB-P");
        assert!(p.state_bytes() > 0);
    }
}
