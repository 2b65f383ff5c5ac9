//! The sharded coordinator: a [`DurableArrangementService`] whose
//! ranking fans out over shard actors and whose feedback commits
//! cross-shard capacity decrements with a two-phase protocol — both
//! plugged into the service's own round, not wrapped around it.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use fasea_bandit::Policy;
use fasea_core::{Arrangement, ProblemInstance};
use fasea_sim::{CommitParticipant, DurableArrangementService, DurableOptions, ServiceError};
use fasea_store::StoreError;

use crate::actor::{shard_fingerprint, Reply, Request, ShardChannel, ShardState};
use crate::plan::ShardPlan;
use crate::router::{ShardRouter, ShardTimings};

/// A [`DurableArrangementService`] partitioned over N shard actors,
/// with the identical surface — it dereferences to the coordinator —
/// and, by construction, the identical byte-for-byte behaviour.
///
/// Layout under `dir`:
///
/// ```text
/// dir/coordinator/   the coordinator durable service: round WAL + snapshots
/// dir/shard-000/     shard 0's transaction log
/// dir/shard-001/     …
/// ```
///
/// The **coordinator** owns everything decision-making: the policy
/// (scores and RNG), the capacity mirror the oracle reads, the round
/// WAL and snapshots. The **shards** own the authoritative per-event
/// capacity counters of their members plus a transaction log. Two
/// operations cross the boundary:
///
/// * `propose` — the policy scores as usual; the installed routing
///   oracle ([`ShardRouter`]) replaces the local top-k ranking with a
///   fan-out over the shards' [`fasea_bandit::subset_top_k`] answers,
///   merged under the configured oracle's own comparator. Identical
///   arrangements to the single-actor service (merge theorem on the
///   gathered form of [`fasea_bandit::Oracle::arrange_gathered`]).
/// * `feedback` — the coordinator's [`CommitParticipant`] turns accepted
///   events into per-shard write sets. Phase 1 sends
///   `Prepare{txn = round, decs}` to the involved shards in ascending
///   shard order; each makes the prepare durable before acking. Only
///   then does the coordinator append its `Feedback` record — *the*
///   commit decision. Phase 2 fans `Commit{txn}` out in the same order.
///   Recovery resolves an in-doubt prepare by asking whether the
///   coordinator completed the round, then repairs any counter drift
///   against the mirror — see [`crate::actor`]'s state-machine docs.
///
/// Because the two-phase commit runs inside the coordinator's own
/// `feedback`, `lifecycle`, `sync` and `close`, every call through the
/// [`Deref`]/[`DerefMut`] coordinator takes part in it.
///
/// Both orders (shard assignment and commit fan-out) are pure
/// functions of the instance and the round, which is the determinism
/// claim the golden parity tests pin down: an N-shard run's
/// coordinator state — including policy RNG — is byte-identical to the
/// single-actor run's.
pub struct ShardedArrangementService {
    inner: DurableArrangementService,
    plan: Arc<ShardPlan>,
    channels: Arc<Vec<ShardChannel>>,
    timings: Arc<ShardTimings>,
}

impl ShardedArrangementService {
    /// Opens (or creates) the sharded service: opens the coordinator,
    /// opens and replays every shard log, resolves in-doubt
    /// transactions against the coordinator's round counter, repairs
    /// counter drift against the capacity mirror, then spawns the
    /// shard actors and installs the commit participant and the
    /// routing oracle.
    ///
    /// # Errors
    /// Everything [`DurableArrangementService::open`] can return, plus
    /// [`ServiceError::Store`] for shard-log damage.
    pub fn open(
        dir: &Path,
        instance: ProblemInstance,
        policy: Box<dyn Policy>,
        options: DurableOptions,
        num_shards: usize,
    ) -> Result<Self, ServiceError> {
        assert!(num_shards >= 1, "at least one shard");
        let plan = Arc::new(ShardPlan::build(instance.conflicts(), num_shards));
        let capacities = instance.capacities().to_vec();
        // Same oracle the coordinator installs for replay: the router
        // wraps it so the sharded selection matches the local one bit
        // for bit.
        let oracle = options.oracle.build();
        let mut inner =
            DurableArrangementService::open(&dir.join("coordinator"), instance, policy, options)?;

        let fingerprint = inner.fingerprint();
        let mut states = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let state = ShardState::open(
                &dir.join(format!("shard-{s:03}")),
                shard_fingerprint(fingerprint, s),
                plan.members(s).to_vec(),
                &capacities,
                options.segment_bytes,
                options.fsync,
            )
            .map_err(ServiceError::Store)?;
            states.push(state);
        }

        // Recovery: decide every in-doubt transaction from the
        // coordinator's durable history, then repair what torn shard
        // logs lost. Order matters — resolution may apply write sets
        // reconciliation would otherwise double-count.
        let completed = inner.rounds_completed();
        let mirror = inner.service().remaining().to_vec();
        for state in &mut states {
            state
                .resolve_in_doubt(completed)
                .map_err(ServiceError::Store)?;
            state
                .reconcile(&mirror, completed)
                .map_err(ServiceError::Store)?;
        }

        let staging = Arc::new(RwLock::new(Vec::new()));
        let mut channels = Vec::with_capacity(num_shards);
        let mut joins = Vec::with_capacity(num_shards);
        for (s, state) in states.into_iter().enumerate() {
            let (channel, join) = ShardChannel::spawn(state, s, Arc::clone(&staging));
            channels.push(channel);
            joins.push(join);
        }
        let channels = Arc::new(channels);
        let timings = Arc::new(ShardTimings::new());
        let router = Arc::new(ShardRouter::new(
            Arc::clone(&channels),
            staging,
            Arc::clone(&timings),
            oracle,
        ));
        let commit = ShardCommit {
            plan: Arc::clone(&plan),
            channels: Arc::clone(&channels),
            timings: Arc::clone(&timings),
            joins,
            staged: None,
        };
        inner.install_participant(Box::new(commit), router);

        Ok(ShardedArrangementService {
            inner,
            plan,
            channels,
            timings,
        })
    }

    /// The shard plan in force (pure function of instance + N).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Shard `s`'s authoritative `(event, remaining)` counters
    /// (diagnostics/tests — one actor round-trip).
    pub fn shard_remaining(&self, s: usize) -> Vec<(u32, u32)> {
        self.channels[s].send(Request::Remaining);
        match self.channels[s].recv() {
            Reply::Remaining(pairs) => pairs,
            other => panic!("shard answered Remaining with {other:?}"),
        }
    }

    /// Drains the latest shard-route duration sample (µs), if any.
    pub fn take_route_us(&self) -> Option<u64> {
        self.timings.take_route_us()
    }

    /// Drains the latest cross-shard-commit duration sample (µs), if
    /// any.
    pub fn take_commit_us(&self) -> Option<u64> {
        self.timings.take_commit_us()
    }

    /// Drains the peak queue-depth sample of every shard (index =
    /// shard id; `None` = no fan-out since last drain).
    pub fn take_queue_depths(&self) -> Vec<Option<u64>> {
        self.channels
            .iter()
            .map(|ch| ch.take_sampled_depth())
            .collect()
    }

    /// Closes every shard (sync + join actor threads) and then the
    /// coordinator (final sync + snapshot). Returns the coordinator's
    /// snapshot path as [`DurableArrangementService::close`] does.
    ///
    /// # Errors
    /// The coordinator's close error, else the first shard's.
    pub fn close(self) -> Result<Option<PathBuf>, ServiceError> {
        self.inner.close()
    }
}

impl Deref for ShardedArrangementService {
    type Target = DurableArrangementService;

    fn deref(&self) -> &DurableArrangementService {
        &self.inner
    }
}

impl DerefMut for ShardedArrangementService {
    fn deref_mut(&mut self) -> &mut DurableArrangementService {
        &mut self.inner
    }
}

impl std::fmt::Debug for ShardedArrangementService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedArrangementService")
            .field("shards", &self.plan.num_shards())
            .field("rounds_completed", &self.rounds_completed())
            .finish()
    }
}

/// The shards' side of the round commit, installed in the coordinator
/// as its [`CommitParticipant`].
struct ShardCommit {
    plan: Arc<ShardPlan>,
    channels: Arc<Vec<ShardChannel>>,
    timings: Arc<ShardTimings>,
    joins: Vec<JoinHandle<()>>,
    /// The prepared transaction awaiting `finish`: its id, the involved
    /// shards (ascending) and when phase 1 started.
    staged: Option<(u64, Vec<usize>, Instant)>,
}

impl ShardCommit {
    /// Collects one `Done` reply from each of `shards`; the first error
    /// wins.
    fn collect(&self, shards: &[usize]) -> Result<(), StoreError> {
        let mut first_err = None;
        for &s in shards {
            match self.channels[s].recv() {
                Reply::Done(Ok(())) => {}
                Reply::Done(Err(e)) => first_err = first_err.or(Some(e)),
                other => panic!("shard {s} answered with {other:?}"),
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Sends `req` to each of `shards`, then collects their replies.
    fn broadcast(&self, shards: &[usize], req: impl Fn() -> Request) -> Result<(), StoreError> {
        for &s in shards {
            self.channels[s].send(req());
        }
        self.collect(shards)
    }

    fn all_shards(&self) -> Vec<usize> {
        (0..self.channels.len()).collect()
    }
}

impl CommitParticipant for ShardCommit {
    /// Builds the per-shard write sets and durably prepares them on
    /// every involved shard (ascending shard order). A round that
    /// accepted nothing involves no shard.
    fn prepare(
        &mut self,
        txn: u64,
        arrangement: &Arrangement,
        accepted: &[bool],
    ) -> Result<(), StoreError> {
        let mut by_shard: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.plan.num_shards()];
        for (slot, v) in arrangement.iter().enumerate() {
            if accepted[slot] {
                let event = v.index() as u32;
                by_shard[self.plan.shard_of(event)].push((event, 1));
            }
        }
        let involved: Vec<usize> = (0..by_shard.len())
            .filter(|&s| !by_shard[s].is_empty())
            .collect();
        if involved.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        for &s in &involved {
            // Arrangement order is the greedy visiting order; the
            // write-set encoding wants ascending event ids.
            by_shard[s].sort_unstable_by_key(|&(event, _)| event);
            self.channels[s].send(Request::Prepare {
                txn,
                decs: std::mem::take(&mut by_shard[s]),
            });
        }
        for &s in &involved {
            self.channels[s].sample_depth();
        }
        if let Err(e) = self.collect(&involved) {
            // Best effort: unstage what did prepare, then surface the
            // failure. Anything left in-doubt resolves on reopen.
            let _ = self.broadcast(&involved, || Request::Abort { txn });
            return Err(e);
        }
        self.staged = Some((txn, involved, started));
        Ok(())
    }

    /// Fans `Commit` (or, when a coordinator step failed, `Abort`) out
    /// to the involved shards in ascending order.
    fn finish(&mut self, commit: bool) -> Result<(), StoreError> {
        let Some((txn, involved, started)) = self.staged.take() else {
            return Ok(());
        };
        if !commit {
            let _ = self.broadcast(&involved, || Request::Abort { txn });
            return Ok(());
        }
        let result = self.broadcast(&involved, || Request::Commit { txn });
        self.timings.record_commit(started.elapsed());
        result
    }

    /// The coordinator's `Lifecycle` record is the decision: it is
    /// durable (and applied to the capacity mirror) *before* the owning
    /// shard logs and installs its own copy. A crash in between leaves
    /// the shard's counter stale, which recovery's reconciliation
    /// repairs from the mirror — a lost lower shows up as drift-above,
    /// a lost raise as drift-below with no committed round to explain
    /// it.
    fn lifecycle(&mut self, t: u64, event: u32, capacity: u32) -> Result<(), StoreError> {
        let shard = self.plan.shard_of(event);
        self.broadcast(&[shard], || Request::Lifecycle { t, event, capacity })
    }

    /// Barriers every shard log.
    fn sync(&mut self) -> Result<(), StoreError> {
        self.broadcast(&self.all_shards(), || Request::Sync)
    }

    /// Closes every shard log and joins the actor threads.
    fn close(mut self: Box<Self>) -> Result<(), StoreError> {
        let result = self.broadcast(&self.all_shards(), || Request::Close);
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::ThompsonSampling;
    use fasea_core::{ConflictGraph, ContextMatrix, ProblemMode, UserArrival};
    use fasea_store::{FsyncPolicy, TempDir};

    fn instance() -> ProblemInstance {
        // Components {0,5}, {2,3}, singletons 1/4/6/7 — splits across
        // 1..=4 shards in interesting ways.
        ProblemInstance::new(
            vec![9, 9, 9, 9, 9, 9, 9, 9],
            ConflictGraph::from_pairs(8, &[(0, 5), (2, 3)]),
            3,
            ProblemMode::Fasea,
        )
    }

    fn arrival(round: u64) -> UserArrival {
        let mut ctx = ContextMatrix::from_fn(8, 3, |v, j| {
            (((round as usize * 5 + v * 3 + j) % 11) as f64) / 11.0 - 0.3
        });
        ctx.normalize_rows();
        UserArrival::new(2, ctx)
    }

    fn accepts_for(round: u64, a: &Arrangement) -> Vec<bool> {
        a.iter()
            .map(|v| (round as usize + v.index()).is_multiple_of(3))
            .collect()
    }

    fn ts_policy() -> Box<dyn Policy> {
        Box::new(ThompsonSampling::new(3, 1.0, 0.1, 23))
    }

    fn opts() -> DurableOptions {
        let mut o = DurableOptions::default();
        o.fsync = FsyncPolicy::Never;
        o
    }

    fn drive(svc: &mut ShardedArrangementService, rounds: std::ops::Range<u64>) {
        for round in rounds {
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
        }
    }

    /// Full observable state of the single-actor reference run.
    fn reference(rounds: u64) -> (Vec<Vec<bool>>, Vec<u32>, Vec<u8>) {
        let dir = TempDir::new("shard-reference");
        let mut svc =
            DurableArrangementService::open(&dir, instance(), ts_policy(), opts()).unwrap();
        let mut accepts = Vec::new();
        for round in 0..rounds {
            let a = svc.propose(&arrival(round)).unwrap();
            let acc = accepts_for(round, &a);
            svc.feedback(&acc).unwrap();
            accepts.push(acc);
        }
        let remaining = svc.service().remaining().to_vec();
        let policy = svc.service().policy().save_state();
        (accepts, remaining, policy)
    }

    #[test]
    fn sharded_run_is_byte_identical_to_single_actor() {
        let (_, ref_remaining, ref_policy) = reference(40);
        for shards in [1usize, 2, 3, 4] {
            let dir = TempDir::new("shard-parity");
            let mut svc =
                ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), shards)
                    .unwrap();
            drive(&mut svc, 0..40);
            assert_eq!(
                svc.service().remaining(),
                &ref_remaining[..],
                "{shards} shards"
            );
            assert_eq!(
                svc.service().policy().save_state(),
                ref_policy,
                "{shards} shards: policy state (incl. RNG) must match single-actor"
            );
            // Shard counters agree with the coordinator mirror.
            for s in 0..shards {
                for (event, rem) in svc.shard_remaining(s) {
                    assert_eq!(rem, ref_remaining[event as usize]);
                }
            }
            svc.close().unwrap();
        }
    }

    #[test]
    fn clean_close_and_reopen_resumes_identically() {
        let (_, ref_remaining, ref_policy) = reference(30);
        let dir = TempDir::new("shard-reopen");
        {
            let mut svc =
                ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 3).unwrap();
            drive(&mut svc, 0..12);
            svc.close().unwrap();
        }
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 3).unwrap();
        assert_eq!(svc.rounds_completed(), 12);
        drive(&mut svc, 12..30);
        assert_eq!(svc.service().remaining(), &ref_remaining[..]);
        assert_eq!(svc.service().policy().save_state(), ref_policy);
        svc.close().unwrap();
    }

    #[test]
    fn crash_style_drop_recovers_and_continues() {
        let (_, ref_remaining, ref_policy) = reference(30);
        let dir = TempDir::new("shard-crash");
        {
            let mut svc =
                ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 4).unwrap();
            drive(&mut svc, 0..17);
            // Leave a pending proposal in flight, then drop without
            // close — actor threads see the hangup; WAL drops drain.
            let _ = svc.propose(&arrival(17)).unwrap();
        }
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 4).unwrap();
        assert_eq!(svc.rounds_completed(), 17);
        // The pending proposal survives recovery exactly as it does on
        // the single-actor service.
        assert!(svc.has_pending());
        let a = svc.pending_arrangement().unwrap().clone();
        svc.feedback(&accepts_for(17, &a)).unwrap();
        drive(&mut svc, 18..30);
        assert_eq!(svc.service().remaining(), &ref_remaining[..]);
        assert_eq!(svc.service().policy().save_state(), ref_policy);
        for s in 0..4 {
            for (event, rem) in svc.shard_remaining(s) {
                assert_eq!(rem, ref_remaining[event as usize]);
            }
        }
        svc.close().unwrap();
    }

    #[test]
    fn feedback_shape_errors_leave_no_staged_transactions() {
        let dir = TempDir::new("shard-shape");
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 2).unwrap();
        assert!(matches!(
            svc.feedback(&[true]),
            Err(ServiceError::NoPendingProposal)
        ));
        let a = svc.propose(&arrival(0)).unwrap();
        let err = svc.feedback(&vec![true; a.len() + 1]).unwrap_err();
        assert!(matches!(err, ServiceError::FeedbackLengthMismatch { .. }));
        // The round is still pending and completes normally after the
        // shape error — nothing was prepared on any shard.
        svc.feedback(&accepts_for(0, &a)).unwrap();
        assert_eq!(svc.rounds_completed(), 1);
        svc.close().unwrap();
    }

    #[test]
    fn metrics_samples_drain_once() {
        let dir = TempDir::new("shard-metrics");
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 2).unwrap();
        let a = svc.propose(&arrival(0)).unwrap();
        assert!(svc.take_route_us().is_some());
        assert!(svc.take_route_us().is_none(), "drained");
        svc.feedback(&vec![true; a.len()]).unwrap();
        assert!(svc.take_commit_us().is_some());
        assert!(svc.take_commit_us().is_none(), "drained");
        let depths = svc.take_queue_depths();
        assert_eq!(depths.len(), 2);
        assert!(depths.iter().any(|d| d.is_some()));
        svc.close().unwrap();
    }

    /// Every round-surface call through the dereferenced coordinator —
    /// blocking feedback under group commit, lifecycle, sync — takes
    /// part in the shard two-phase commit.
    #[test]
    fn coordinator_reached_through_deref_drives_the_shards() {
        let (_, ref_remaining, ref_policy) = reference(24);
        let dir = TempDir::new("shard-deref");
        let mut sharded = ShardedArrangementService::open(
            &dir,
            instance(),
            ts_policy(),
            opts().with_group_commit(true),
            3,
        )
        .unwrap();
        let coordinator: &mut DurableArrangementService = &mut sharded;
        for round in 0..24 {
            let a = coordinator.propose(&arrival(round)).unwrap();
            coordinator.feedback(&accepts_for(round, &a)).unwrap();
        }
        assert_eq!(coordinator.service().remaining(), &ref_remaining[..]);
        assert!(ref_remaining[0] > 0 && ref_remaining[2] != 4, "non-vacuous");
        coordinator.lifecycle(0, 0).unwrap();
        coordinator.lifecycle(2, 4).unwrap();
        coordinator.sync().unwrap();
        let mirror = coordinator.service().remaining().to_vec();
        assert_eq!((mirror[0], mirror[2]), (0, 4));
        assert_eq!(coordinator.service().policy().save_state(), ref_policy);
        for s in 0..3 {
            for (event, rem) in sharded.shard_remaining(s) {
                assert_eq!(rem, mirror[event as usize], "shard {s} event {event}");
            }
        }
        sharded.close().unwrap();
    }
}
