//! Cross-user pipelined round engine.
//!
//! FASEA's online protocol (Definition 3) is strictly sequential — one
//! user per round, feedback before the next proposal — and every
//! engine so far executed it that way end to end: context generation,
//! scoring, arrangement, and the WAL commit of round `t` all finished
//! before round `t+1` started. But the *compute* of round `t+1` does
//! not depend on round `t`'s durability, only on its in-memory model
//! update. [`RoundPipeline`] exploits that: as soon as round `t`'s
//! feedback has been applied in memory (its log record may still be
//! riding the group-commit queue), the pipeline
//!
//! 1. pre-generates the context blocks of the next `depth - 1`
//!    arrivals, and
//! 2. runs round `t+1`'s `score_into` kernel early, stashing the score
//!    vector in the policy workspace tagged with the current
//!    **model-version epoch**
//!    ([`fasea_bandit::ScoreWorkspace::stash_prefetch`]),
//!
//! then blocks on round `t`'s durability watermark. When round `t+1`
//! is proposed, [`fasea_bandit::Policy::select_into`] consumes the
//! stash iff the round index and epoch still match, and recomputes
//! deterministically otherwise.
//!
//! ## Why the result is bit-identical to the sequential loop
//!
//! The prefetch runs *after* the previous feedback's `observe` and
//! *before* anything else touches the policy, so the policy sees the
//! exact call sequence of the sequential loop — merely earlier in wall
//! time. RNG-consuming policies (TS, eGreedy, Random) therefore draw
//! the same stream; with the in-order guarantee the stash always hits,
//! so no draw ever happens twice. Scores never read `remaining` in any
//! shipped policy, so churn applied between prefetch and propose does
//! not invalidate the stash; the *arrangement* step, which does read
//! `remaining`, always runs fresh at propose time. A crash between
//! prefetch and propose recovers to exactly the unprefetched state
//! because the stash writes nothing to the WAL.
//!
//! Speculation *deeper* than one round — scoring ahead of an
//! unresolved round whose feedback may still touch the model — is the
//! serve actor's territory (`fasea-serve`), gated on
//! [`fasea_bandit::Policy::scoring_is_deterministic`]; this in-process
//! engine never needs it.

use crate::durable::DurableArrangementService;
use crate::service::{ArrangementService, ServiceError};
use fasea_bandit::PrefetchStats;
use fasea_core::{Arrangement, ChurnSchedule, UserArrival};
use std::collections::VecDeque;
use std::ops::DerefMut;

/// The single-user round surface [`RoundPipeline`] drives. Implemented
/// by the in-memory [`ArrangementService`], the durable
/// [`DurableArrangementService`], and every handle that dereferences to
/// one (the sharded coordinator in `fasea-shard`) — so one pipeline
/// implementation serves every backend and the parity gates can compare
/// them pairwise.
pub trait PipelinedBackend {
    /// Rounds completed (proposal + feedback pairs).
    fn rounds_completed(&self) -> u64;

    /// The pending arrangement recovered or left mid-round, if any.
    fn pending_arrangement(&self) -> Option<Arrangement>;

    /// Proposes round `rounds_completed()`'s arrangement.
    ///
    /// # Errors
    /// The backend's protocol/store errors, unchanged.
    fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError>;

    /// Applies feedback in memory and *begins* making it durable,
    /// returning `(reward, token)` where `token` is later passed to
    /// [`PipelinedBackend::wait_durable`]. Backends without a commit
    /// queue complete durability inline and return a no-op token.
    ///
    /// # Errors
    /// The backend's protocol/store errors, unchanged.
    fn feedback_begin(&mut self, accepts: &[bool]) -> Result<(u32, u64), ServiceError>;

    /// Blocks until the record identified by `token` is durable.
    ///
    /// # Errors
    /// The store's poisoning error — the record may or may not be on
    /// disk, so the caller must not acknowledge the round.
    fn wait_durable(&self, token: u64) -> Result<(), ServiceError>;

    /// Applies one lifecycle action at a round boundary.
    ///
    /// # Errors
    /// The backend's protocol/store errors, unchanged.
    fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError>;

    /// Stashes round `t`'s scores early, tagged with the model epoch
    /// (see [`ArrangementService::prefetch_scores`]).
    ///
    /// # Errors
    /// Shape mismatches, as for `propose`.
    fn prefetch_scores(&mut self, t: u64, user: &UserArrival) -> Result<(), ServiceError>;

    /// Cumulative workspace prefetch counters (hits/recomputes).
    fn prefetch_stats(&self) -> PrefetchStats;
}

impl PipelinedBackend for ArrangementService {
    fn rounds_completed(&self) -> u64 {
        ArrangementService::rounds_completed(self)
    }
    fn pending_arrangement(&self) -> Option<Arrangement> {
        self.pending().map(|(a, _)| a.clone())
    }
    fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError> {
        ArrangementService::propose(self, user)
    }
    fn feedback_begin(&mut self, accepts: &[bool]) -> Result<(u32, u64), ServiceError> {
        ArrangementService::feedback(self, accepts).map(|r| (r, 0))
    }
    fn wait_durable(&self, _token: u64) -> Result<(), ServiceError> {
        Ok(())
    }
    fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        self.apply_lifecycle(event, capacity)
    }
    fn prefetch_scores(&mut self, t: u64, user: &UserArrival) -> Result<(), ServiceError> {
        ArrangementService::prefetch_scores(self, t, user)
    }
    fn prefetch_stats(&self) -> PrefetchStats {
        self.policy().workspace().prefetch_stats()
    }
}

impl PipelinedBackend for DurableArrangementService {
    fn rounds_completed(&self) -> u64 {
        DurableArrangementService::rounds_completed(self)
    }
    fn pending_arrangement(&self) -> Option<Arrangement> {
        DurableArrangementService::pending_arrangement(self).cloned()
    }
    fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError> {
        DurableArrangementService::propose(self, user)
    }
    fn feedback_begin(&mut self, accepts: &[bool]) -> Result<(u32, u64), ServiceError> {
        self.feedback_deferred(accepts)
    }
    fn wait_durable(&self, token: u64) -> Result<(), ServiceError> {
        DurableArrangementService::wait_durable(self, token)
    }
    fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        DurableArrangementService::lifecycle(self, event, capacity)
    }
    fn prefetch_scores(&mut self, t: u64, user: &UserArrival) -> Result<(), ServiceError> {
        DurableArrangementService::prefetch_scores(self, t, user)
    }
    fn prefetch_stats(&self) -> PrefetchStats {
        self.service().policy().workspace().prefetch_stats()
    }
}

/// Every handle that dereferences to a durable service — the sharded
/// coordinator (`fasea-shard`) and the serve backend — drives the
/// pipeline through that service: the shard two-phase commit runs
/// inside its `feedback_deferred`.
impl<T: DerefMut<Target = DurableArrangementService>> PipelinedBackend for T {
    fn rounds_completed(&self) -> u64 {
        PipelinedBackend::rounds_completed(&**self)
    }
    fn pending_arrangement(&self) -> Option<Arrangement> {
        PipelinedBackend::pending_arrangement(&**self)
    }
    fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError> {
        PipelinedBackend::propose(&mut **self, user)
    }
    fn feedback_begin(&mut self, accepts: &[bool]) -> Result<(u32, u64), ServiceError> {
        PipelinedBackend::feedback_begin(&mut **self, accepts)
    }
    fn wait_durable(&self, token: u64) -> Result<(), ServiceError> {
        PipelinedBackend::wait_durable(&**self, token)
    }
    fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        PipelinedBackend::lifecycle(&mut **self, event, capacity)
    }
    fn prefetch_scores(&mut self, t: u64, user: &UserArrival) -> Result<(), ServiceError> {
        PipelinedBackend::prefetch_scores(&mut **self, t, user)
    }
    fn prefetch_stats(&self) -> PrefetchStats {
        PipelinedBackend::prefetch_stats(&**self)
    }
}

/// Work-overlap counters of one [`RoundPipeline`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Rounds driven to completion.
    pub rounds: u64,
    /// Rounds whose scores came from a prefetched stash.
    pub prefetch_hits: u64,
    /// Rounds whose stash was stale and recomputed (in-order pipelining
    /// should keep this at 0 — nothing intervenes between stash and
    /// use).
    pub prefetch_recomputes: u64,
    /// Context blocks generated ahead of their round.
    pub contexts_pregenerated: u64,
}

/// Drives the one-user-per-round loop with up to `depth` rounds of
/// work overlap — see the module docs for the mechanism and the
/// determinism argument. `depth = 1` is exactly the sequential loop;
/// any depth produces bit-identical backend state.
#[derive(Debug)]
pub struct RoundPipeline {
    depth: usize,
    // Pre-generated arrivals for future rounds, ordered by round.
    ring: VecDeque<(u64, UserArrival)>,
    stats: PipelineStats,
}

impl RoundPipeline {
    /// A pipeline overlapping up to `depth` rounds (`depth` is clamped
    /// to at least 1; 1 means fully sequential).
    pub fn new(depth: usize) -> Self {
        RoundPipeline {
            depth: depth.max(1),
            ring: VecDeque::new(),
            stats: PipelineStats::default(),
        }
    }

    /// The configured overlap depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Cumulative counters across every [`RoundPipeline::run`] call.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Drives `svc` until `upto` rounds have completed. `arrival_at`
    /// generates the context block of a round (it may be called ahead
    /// of the current round, and at most once per round); `accepts_for`
    /// produces the user's accept/reject answers for a proposed
    /// arrangement; `churn` optionally injects lifecycle actions at
    /// round boundaries, exactly as the sequential loop does.
    ///
    /// Restart-safe: if `svc` recovered mid-round with a pending
    /// arrangement, the pending round is completed first, like the
    /// sequential loop.
    ///
    /// # Errors
    /// The first backend error, unchanged; the pipeline adds no failure
    /// modes of its own.
    pub fn run<B: PipelinedBackend>(
        &mut self,
        svc: &mut B,
        upto: u64,
        mut arrival_at: impl FnMut(u64) -> UserArrival,
        mut accepts_for: impl FnMut(u64, &Arrangement) -> Vec<bool>,
        churn: Option<&ChurnSchedule>,
    ) -> Result<(), ServiceError> {
        let before = svc.prefetch_stats();
        while svc.rounds_completed() < upto {
            let t = svc.rounds_completed();
            // Stale entries can exist after a crash-recovery restart.
            self.ring.retain(|(rt, _)| *rt >= t);
            let arrangement = if let Some(p) = svc.pending_arrangement() {
                p
            } else {
                if let Some(churn) = churn {
                    for action in churn.actions_at(t) {
                        svc.lifecycle(action.event, action.capacity)?;
                    }
                }
                let user = self.take_arrival(t, &mut arrival_at);
                svc.propose(&user)?
            };
            let accepts = accepts_for(t, &arrangement);
            let (_reward, token) = svc.feedback_begin(&accepts)?;
            self.stats.rounds += 1;
            // Round t's model update is applied; its log record may
            // still be in the commit queue. Overlap round t+1's work
            // with that wait, then block on durability before the next
            // round is acknowledged.
            if self.depth >= 2 && t + 1 < upto {
                let horizon = (t + self.depth as u64).min(upto);
                for ft in (t + 1)..horizon {
                    if !self.ring.iter().any(|(rt, _)| *rt == ft) {
                        self.ring.push_back((ft, arrival_at(ft)));
                        self.stats.contexts_pregenerated += 1;
                    }
                }
                if let Some((_, user)) = self.ring.iter().find(|(rt, _)| *rt == t + 1) {
                    svc.prefetch_scores(t + 1, user)?;
                }
            }
            svc.wait_durable(token)?;
        }
        let after = svc.prefetch_stats();
        self.stats.prefetch_hits += after.hits - before.hits;
        self.stats.prefetch_recomputes += after.recomputes - before.recomputes;
        Ok(())
    }

    fn take_arrival(
        &mut self,
        t: u64,
        arrival_at: &mut impl FnMut(u64) -> UserArrival,
    ) -> UserArrival {
        if let Some(pos) = self.ring.iter().position(|(rt, _)| *rt == t) {
            self.ring.remove(pos).map(|(_, u)| u).unwrap()
        } else {
            arrival_at(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::{LinUcb, ThompsonSampling};
    use fasea_core::{ConflictGraph, ContextMatrix, ProblemInstance, ProblemMode};

    fn instance(n: usize) -> ProblemInstance {
        ProblemInstance::new(vec![3; n], ConflictGraph::new(n), 2, ProblemMode::Fasea)
    }

    fn arrival(n: usize, t: u64) -> UserArrival {
        let mut ctx =
            ContextMatrix::from_fn(n, 2, |v, j| (((v + j) as u64 + t) % 5) as f64 * 0.2 + 0.1);
        ctx.normalize_rows();
        UserArrival::new(2, ctx)
    }

    fn accepts(t: u64, a: &Arrangement) -> Vec<bool> {
        (0..a.len())
            .map(|i| !(t as usize + i).is_multiple_of(3))
            .collect()
    }

    fn digest(svc: &ArrangementService) -> (Vec<u32>, u64, Vec<u8>) {
        (
            svc.remaining().to_vec(),
            svc.rounds_completed(),
            svc.policy().save_state(),
        )
    }

    #[test]
    fn depth_one_equals_sequential_and_never_prefetches() {
        let n = 8;
        let mut svc = ArrangementService::new(instance(n), Box::new(LinUcb::new(2, 1.0, 2.0)));
        let mut pipe = RoundPipeline::new(1);
        pipe.run(&mut svc, 20, |t| arrival(n, t), accepts, None)
            .unwrap();
        assert_eq!(pipe.stats().rounds, 20);
        assert_eq!(pipe.stats().prefetch_hits, 0);
        assert_eq!(pipe.stats().contexts_pregenerated, 0);

        let mut seq = ArrangementService::new(instance(n), Box::new(LinUcb::new(2, 1.0, 2.0)));
        for t in 0..20 {
            let a = seq.propose(&arrival(n, t)).unwrap();
            seq.feedback(&accepts(t, &a)).unwrap();
        }
        assert_eq!(digest(&svc), digest(&seq));
    }

    #[test]
    fn deep_pipeline_is_bit_equal_and_all_hits_even_with_rng() {
        // TS consumes RNG in score_into: the in-order prefetch must
        // reproduce the sequential draw stream exactly (every stash
        // hits, no draw happens twice).
        let n = 8;
        let mk = || -> Box<dyn fasea_bandit::Policy> {
            Box::new(ThompsonSampling::new(2, 1.0, 0.1, 0xA11CE))
        };
        let mut seq = ArrangementService::new(instance(n), mk());
        for t in 0..30 {
            let a = seq.propose(&arrival(n, t)).unwrap();
            seq.feedback(&accepts(t, &a)).unwrap();
        }
        for depth in [2usize, 4, 8] {
            let mut svc = ArrangementService::new(instance(n), mk());
            let mut pipe = RoundPipeline::new(depth);
            pipe.run(&mut svc, 30, |t| arrival(n, t), accepts, None)
                .unwrap();
            assert_eq!(digest(&svc), digest(&seq), "depth {depth}");
            // Every round after the first prefetches, and nothing
            // intervenes, so every stash hits.
            assert_eq!(pipe.stats().prefetch_hits, 29, "depth {depth}");
            assert_eq!(pipe.stats().prefetch_recomputes, 0, "depth {depth}");
            assert!(pipe.stats().contexts_pregenerated >= 29, "depth {depth}");
        }
    }

    #[test]
    fn churn_between_prefetch_and_propose_keeps_parity() {
        let n = 6;
        let churn = ChurnSchedule::generate(&[3; 6], 40, 4, 0x77);
        assert!(!churn.actions().is_empty());
        let mut seq = ArrangementService::new(instance(n), Box::new(LinUcb::new(2, 1.0, 2.0)));
        for t in 0..40 {
            for action in churn.actions_at(t) {
                seq.apply_lifecycle(action.event, action.capacity).unwrap();
            }
            let a = seq.propose(&arrival(n, t)).unwrap();
            seq.feedback(&accepts(t, &a)).unwrap();
        }
        let mut svc = ArrangementService::new(instance(n), Box::new(LinUcb::new(2, 1.0, 2.0)));
        let mut pipe = RoundPipeline::new(4);
        pipe.run(&mut svc, 40, |t| arrival(n, t), accepts, Some(&churn))
            .unwrap();
        assert_eq!(digest(&svc), digest(&seq));
        // Churn never touches the model, so the stashes still all hit.
        assert_eq!(pipe.stats().prefetch_recomputes, 0);
    }
}
