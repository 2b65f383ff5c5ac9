//! Sharded-service round throughput: rounds/sec of the in-process
//! [`ShardedArrangementService`] at 1, 2 and 4 shards against the
//! single-actor [`DurableArrangementService`] baseline on the same
//! workload.
//!
//! The sharded service is byte-identical to the baseline (see
//! `tests/shard_parity.rs`), so this bench isolates the *cost of the
//! machinery*: per-round the coordinator stages scores, fans
//! `subset_top_k` queries out to the shard actors, merges the ranked
//! candidates, and commits the accepted write sets with durable
//! prepares plus a commit fan-out. Both sides run `FsyncPolicy::Never`
//! so the numbers compare coordination overhead, not disk stalls —
//! with fsync on, per-shard logs would additionally spread the fsync
//! load across files.
//!
//! The committed `BENCH_shard.json` is produced by
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_shard.json \
//!     cargo bench --bench shard_scaling
//! ```

use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_bench::harness::{budget, fixed, Scalar, Table};
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_serve::BackendService;
use fasea_shard::ShardedArrangementService;
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_stats::CoinStream;
use fasea_store::{FsyncPolicy, TempDir};

const SEED: u64 = 0x0005_AA2D_BE7C;
const NUM_EVENTS: usize = 200;
const DIM: usize = 5;

/// One feedback round: CRN acceptance coins keyed on (t, event) so
/// every cell sees the identical trajectory.
fn drive_round(svc: &mut DurableArrangementService, wl: &SyntheticWorkload, coins: &CoinStream) {
    let t = svc.rounds_completed();
    let arrival = wl.arrivals.arrival(t);
    let arrangement = svc.propose(&arrival).unwrap();
    let accepts: Vec<bool> = arrangement
        .events()
        .iter()
        .map(|&v| {
            coins.uniform(t, v.index() as u64) < wl.model.accept_probability(&arrival.contexts, v)
        })
        .collect();
    svc.feedback(&accepts).unwrap();
}

/// `(rounds, rounds/sec)` over `window` at `shards` shards (0 = the
/// single-actor service).
fn run_cell(wl: &SyntheticWorkload, shards: usize, window: Duration) -> (u64, f64) {
    let dir = TempDir::new("bench-shard-scaling");
    let coins = CoinStream::new(SEED ^ 0xFEED);
    let policy = Box::new(LinUcb::new(DIM, 1.0, 2.0));
    let opts = DurableOptions::new()
        .with_fsync(FsyncPolicy::Never)
        .with_segment_bytes(u64::MAX);
    let mut svc: BackendService = if shards == 0 {
        DurableArrangementService::open(&dir, wl.instance.clone(), policy, opts)
            .unwrap()
            .into()
    } else {
        ShardedArrangementService::open(&dir, wl.instance.clone(), policy, opts, shards)
            .unwrap()
            .into()
    };
    // Warm-up outside the timed window.
    for _ in 0..8 {
        drive_round(&mut svc, wl, &coins);
    }
    let mut rounds = 0u64;
    let started = Instant::now();
    let deadline = started + window;
    while Instant::now() < deadline {
        drive_round(&mut svc, wl, &coins);
        rounds += 1;
    }
    let elapsed = started.elapsed();
    svc.close().unwrap();
    (rounds, rounds as f64 / elapsed.as_secs_f64())
}

fn main() {
    let window = budget();
    let wl = SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: SEED,
        ..SyntheticConfig::default()
    });
    let mut table = Table::new("shard_scaling", "rounds_per_sec")
        .meta("fsync", "never")
        .caveat(
            2,
            "the coordinator and every shard actor share one core, so the fan-out \
             rounds are pure overhead and shard scaling is understated",
        );
    let (rounds, base) = run_cell(&wl, 0, window);
    table.push(vec![
        ("mode", "single_actor".into()),
        ("shards", 0usize.into()),
        ("rounds", rounds.into()),
        ("rounds_per_sec", fixed(base, 1)),
        ("relative_to_single_actor", Scalar::Null),
    ]);
    for shards in [1usize, 2, 4] {
        let (rounds, rate) = run_cell(&wl, shards, window);
        table.push(vec![
            ("mode", "sharded".into()),
            ("shards", shards.into()),
            ("rounds", rounds.into()),
            ("rounds_per_sec", fixed(rate, 1)),
            ("relative_to_single_actor", fixed(rate / base, 2)),
        ]);
    }
    table.finish();
}
