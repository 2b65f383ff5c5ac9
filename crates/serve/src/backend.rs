//! The actor's service backend: a single-actor
//! [`DurableArrangementService`] or a sharded
//! [`ShardedArrangementService`], behind one enum that dereferences to
//! the durable service.
//!
//! The sharded service is a durable service with its shards plugged in
//! as the commit participant and the routing oracle (see
//! `fasea-shard`), so the actor state machine is written once against
//! [`DurableArrangementService`] and the only sharding-aware code in
//! this crate is the metrics drain in
//! [`BackendService::drain_shard_metrics`].

use std::ops::{Deref, DerefMut};
use std::path::PathBuf;

use fasea_shard::ShardedArrangementService;
use fasea_sim::{DurableArrangementService, ServiceError};

use crate::metrics::Metrics;

/// Either service the actor can own. Construct via the `From` impls
/// (so `Server::spawn` and `ServiceActor::new` accept both transparently).
pub enum BackendService {
    /// The unsharded durable service.
    Single(DurableArrangementService),
    /// The N-shard service with cross-shard two-phase commit.
    Sharded(ShardedArrangementService),
}

impl From<DurableArrangementService> for BackendService {
    fn from(svc: DurableArrangementService) -> Self {
        BackendService::Single(svc)
    }
}

impl From<ShardedArrangementService> for BackendService {
    fn from(svc: ShardedArrangementService) -> Self {
        BackendService::Sharded(svc)
    }
}

impl Deref for BackendService {
    type Target = DurableArrangementService;

    fn deref(&self) -> &DurableArrangementService {
        match self {
            BackendService::Single(s) => s,
            BackendService::Sharded(s) => s,
        }
    }
}

impl DerefMut for BackendService {
    fn deref_mut(&mut self) -> &mut DurableArrangementService {
        match self {
            BackendService::Single(s) => s,
            BackendService::Sharded(s) => s,
        }
    }
}

impl BackendService {
    /// Number of shards (1 for the single-actor backend).
    pub fn num_shards(&self) -> usize {
        match self {
            BackendService::Single(_) => 1,
            BackendService::Sharded(s) => s.num_shards(),
        }
    }

    /// Feeds any pending shard timing / queue-depth samples into the
    /// metrics registry. A no-op on the single-actor backend, so the
    /// three shard histograms stay empty there.
    pub fn drain_shard_metrics(&self, metrics: &Metrics) {
        let BackendService::Sharded(s) = self else {
            return;
        };
        if let Some(us) = s.take_route_us() {
            metrics.shard_route_us.observe_value(us);
        }
        if let Some(us) = s.take_commit_us() {
            metrics.cross_shard_commit_us.observe_value(us);
        }
        for depth in s.take_queue_depths().into_iter().flatten() {
            metrics.shard_queue_depth.observe_value(depth);
        }
    }

    /// Cumulative prefetch hit/recompute counters of the policy
    /// workspace (the actor drains deltas into its metrics).
    pub fn prefetch_stats(&self) -> fasea_bandit::PrefetchStats {
        self.service().policy().workspace().prefetch_stats()
    }

    /// Cumulative model-tier counters of the policy workspace —
    /// cohort-prior select hits and sketch-record promotions, published
    /// by the personalized policies (all-zero for global policies). The
    /// actor drains deltas into its metrics.
    pub fn model_tier_stats(&self) -> fasea_bandit::ModelTierStats {
        self.service().policy().workspace().model_tier_stats()
    }

    /// Closes the backend: shards first, then the coordinator (see
    /// [`DurableArrangementService::close`]).
    ///
    /// # Errors
    /// As [`DurableArrangementService::close`].
    pub fn close(self) -> Result<Option<PathBuf>, ServiceError> {
        match self {
            BackendService::Single(s) => s.close(),
            BackendService::Sharded(s) => s.close(),
        }
    }
}
