//! Write-ahead log append cost per fsync policy, direct vs group
//! commit.
//!
//! The interesting number is the per-round durability tax the FASEA
//! service pays for crash safety. The `direct` rows time the
//! synchronous [`Wal`]: `never` measures pure serialisation (CRC +
//! framing + buffered write), `every8` amortises the fsync over a
//! batch, and `always` is the full synchronous-commit price. The
//! `group` rows time the same `always`-durability guarantee through
//! [`GroupCommitWal`]: a producer enqueues `batch` rounds of records,
//! then waits for the durable watermark to cover the last one — the
//! syncer fsyncs whole batches, so the per-round cost falls as the
//! batch grows while every waited-on record is still on disk before
//! the wait returns.
//!
//! Records mimic a realistic round: a Propose with a |V|×d context
//! block plus its matching Feedback.
//!
//! The committed `BENCH_wal.json` is produced by
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_wal.json cargo bench --bench wal_append
//! ```

use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_store::{FsyncPolicy, GroupCommitWal, Record, TempDir, Wal, WalOptions};
use std::hint::black_box;
use std::time::Duration;

const NUM_EVENTS: u32 = 100;
const DIM: u32 = 10;
const FINGERPRINT: u64 = 0xBEEF;

fn propose_record(t: u64) -> Record {
    let contexts: Vec<f64> = (0..(NUM_EVENTS * DIM) as usize)
        .map(|i| ((i as f64) * 0.137 + t as f64).sin())
        .collect();
    Record::Propose {
        t,
        user_capacity: 5,
        num_events: NUM_EVENTS,
        dim: DIM,
        context_hash: fasea_store::context_hash(&contexts),
        contexts,
        arrangement: vec![1, 7, 12, 40, 99],
    }
}

fn feedback_record(t: u64) -> Record {
    Record::Feedback {
        t,
        accepts: vec![true, false, true, true, false],
    }
}

fn open_wal(dir: &std::path::Path, policy: FsyncPolicy) -> Wal {
    let options = WalOptions {
        segment_bytes: 64 << 20,
        fsync: policy,
    };
    Wal::open(dir, FINGERPRINT, options).unwrap().0
}

/// ns per round (Propose + Feedback appends) through the synchronous
/// WAL under `policy`.
fn direct_round_ns(policy: FsyncPolicy, budget: Duration) -> f64 {
    let dir = TempDir::new("bench-wal-direct");
    let mut wal = open_wal(&dir, policy);
    let mut t = 0u64;
    let ns = time_ns(budget, || {
        wal.append(black_box(&propose_record(t))).unwrap();
        let seq = wal.append(black_box(&feedback_record(t))).unwrap();
        t += 1;
        seq
    });
    drop(wal);
    ns
}

/// ns per round through the group-commit pipeline: `batch` rounds are
/// enqueued back-to-back, then the producer waits for the durable
/// watermark to cover the last record — the syncer shares each fsync
/// across the whole in-flight batch.
fn group_round_ns(batch: u64, budget: Duration) -> f64 {
    let dir = TempDir::new("bench-wal-group");
    let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
    let mut t = 0u64;
    let iter_ns = time_ns(budget, || {
        let mut last = 0u64;
        for _ in 0..batch {
            group.append(black_box(propose_record(t))).unwrap();
            last = group.append(black_box(feedback_record(t))).unwrap();
            t += 1;
        }
        group.wait_durable(last).unwrap()
    });
    group.close().unwrap();
    iter_ns / batch as f64
}

fn main() {
    let budget = budget();
    let mut table = Table::new("wal_append", "ns_per_round").caveat(
        2,
        "group-commit speedups come from batching fsyncs, not parallel execution",
    );
    let direct: Vec<(FsyncPolicy, f64)> = [
        FsyncPolicy::Never,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::Always,
    ]
    .into_iter()
    .map(|policy| (policy, direct_round_ns(policy, budget)))
    .collect();
    let group: Vec<(u64, f64)> = [1u64, 8, 64]
        .into_iter()
        .map(|batch| (batch, group_round_ns(batch, budget)))
        .collect();

    let direct_always = direct
        .iter()
        .find(|(policy, _)| *policy == FsyncPolicy::Always)
        .map(|&(_, ns)| ns)
        .expect("direct/always cell measured");
    let cells = direct
        .iter()
        .map(|&(policy, ns)| ("direct", policy, None, ns))
        .chain(
            group
                .iter()
                .map(|&(batch, ns)| ("group", FsyncPolicy::Always, Some(batch), ns)),
        );
    for (mode, policy, batch, round_ns) in cells {
        let speedup = batch.map(|_| fixed(direct_always / round_ns, 2));
        table.push(vec![
            ("mode", mode.into()),
            ("policy", policy.label().into()),
            ("batch", batch.into()),
            ("round_ns", fixed(round_ns, 1)),
            ("speedup_vs_direct_always", speedup.into()),
        ]);
    }
    table.finish();
}
