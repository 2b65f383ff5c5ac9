//! The coordinator's routing [`Oracle`]: fans the configured oracle's
//! top-k ranking out over the shard actors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use fasea_bandit::{Oracle, OracleWorkspace};
use fasea_core::{Arrangement, ConflictGraph};

use crate::actor::{Reply, Request, ShardChannel};

/// Shard timing samples for the serve metrics layer: the most recent
/// route (candidate fan-out) and cross-shard commit durations, in
/// microseconds, `u64::MAX` meaning "no sample since last drain".
#[derive(Debug, Default)]
pub(crate) struct ShardTimings {
    route_us: AtomicU64,
    commit_us: AtomicU64,
}

const NO_SAMPLE: u64 = u64::MAX;

impl ShardTimings {
    pub(crate) fn new() -> Self {
        ShardTimings {
            route_us: AtomicU64::new(NO_SAMPLE),
            commit_us: AtomicU64::new(NO_SAMPLE),
        }
    }

    fn as_us(d: Duration) -> u64 {
        (d.as_micros() as u64).min(NO_SAMPLE - 1)
    }

    pub(crate) fn record_route(&self, d: Duration) {
        self.route_us.store(Self::as_us(d), Ordering::Relaxed);
    }

    pub(crate) fn record_commit(&self, d: Duration) {
        self.commit_us.store(Self::as_us(d), Ordering::Relaxed);
    }

    pub(crate) fn take_route_us(&self) -> Option<u64> {
        match self.route_us.swap(NO_SAMPLE, Ordering::Relaxed) {
            NO_SAMPLE => None,
            v => Some(v),
        }
    }

    pub(crate) fn take_commit_us(&self) -> Option<u64> {
        match self.commit_us.swap(NO_SAMPLE, Ordering::Relaxed) {
            NO_SAMPLE => None,
            v => Some(v),
        }
    }
}

/// An [`Oracle`] that wraps the configured one: it stages the round's
/// score vector where the shard actors can read it, then runs the
/// wrapped oracle's `arrange_gathered` with a gather callback that fans
/// `TopK{k}` out to every shard and concatenates the answers. Its name
/// is the wrapped oracle's, since its arrangements are too.
///
/// Installed in the coordinator policy's workspace, so the policy's
/// scoring pass and every RNG draw happen exactly once on the
/// coordinator thread — the shards only ever *rank* finished scores,
/// which is why the sharded run is byte-identical to the single-actor
/// run (see the merge-equals-serial argument on
/// [`fasea_bandit::GreedyOracle`]'s gathered path).
pub(crate) struct ShardRouter {
    channels: Arc<Vec<ShardChannel>>,
    staging: Arc<RwLock<Vec<f64>>>,
    timings: Arc<ShardTimings>,
    oracle: Arc<dyn Oracle>,
}

impl ShardRouter {
    pub(crate) fn new(
        channels: Arc<Vec<ShardChannel>>,
        staging: Arc<RwLock<Vec<f64>>>,
        timings: Arc<ShardTimings>,
        oracle: Arc<dyn Oracle>,
    ) -> Self {
        ShardRouter {
            channels,
            staging,
            timings,
            oracle,
        }
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.channels.len())
            .finish()
    }
}

impl Oracle for ShardRouter {
    fn name(&self) -> &'static str {
        self.oracle.name()
    }

    fn arrange_into(
        &self,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        user_capacity: u32,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
    ) {
        let started = Instant::now();
        {
            let mut staged = self.staging.write().expect("score staging poisoned");
            staged.clear();
            staged.extend_from_slice(scores);
        }
        self.oracle.arrange_gathered(
            scores,
            conflicts,
            remaining,
            user_capacity,
            ws,
            out,
            &mut |k, order| {
                for ch in self.channels.iter() {
                    ch.send(Request::TopK { k });
                }
                for ch in self.channels.iter() {
                    ch.sample_depth();
                }
                for ch in self.channels.iter() {
                    match ch.recv() {
                        Reply::TopK(candidates) => order.extend_from_slice(&candidates),
                        other => panic!("shard answered TopK with {other:?}"),
                    }
                }
            },
        );
        self.timings.record_route(started.elapsed());
    }
}
