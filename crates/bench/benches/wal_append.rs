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
//! Output: one line per cell on stdout. When `FASEA_BENCH_JSON` names a
//! file, the measured table is also written there as JSON — that is how
//! the committed `BENCH_wal.json` is produced:
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_wal.json cargo bench --bench wal_append
//! ```
//!
//! `FASEA_BENCH_MS` bounds the per-measurement budget (default 300 ms)
//! so CI can smoke-run the file without touching committed numbers.

use fasea_store::{FsyncPolicy, GroupCommitWal, Record, TempDir, Wal, WalOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

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

fn budget() -> Duration {
    let ms = std::env::var("FASEA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

/// Mean ns per call of `f`, measured in ~1 ms batches until the budget
/// is spent (same scheme as the workspace's other custom-main benches).
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let warm_start = Instant::now();
    while warm_start.elapsed() < budget / 10 {
        f();
    }
    let probe_start = Instant::now();
    f();
    let probe = probe_start.elapsed().max(Duration::from_nanos(20));
    let batch = (Duration::from_millis(1).as_nanos() / probe.as_nanos()).clamp(1, 100_000) as u64;

    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    let run_start = Instant::now();
    while run_start.elapsed() < budget {
        let batch_start = Instant::now();
        for _ in 0..batch {
            f();
        }
        total += batch_start.elapsed();
        iters += batch;
    }
    total.as_nanos() as f64 / iters.max(1) as f64
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
        black_box(seq);
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
        black_box(group.wait_durable(last).unwrap());
    });
    group.close().unwrap();
    iter_ns / batch as f64
}

struct Cell {
    mode: &'static str,
    policy: String,
    batch: Option<u64>,
    round_ns: f64,
}

fn main() {
    let budget = budget();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut cells = Vec::new();
    for policy in [
        FsyncPolicy::Never,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::Always,
    ] {
        cells.push(Cell {
            mode: "direct",
            policy: policy.label(),
            batch: None,
            round_ns: direct_round_ns(policy, budget),
        });
    }
    for batch in [1u64, 8, 64] {
        cells.push(Cell {
            mode: "group",
            policy: FsyncPolicy::Always.label(),
            batch: Some(batch),
            round_ns: group_round_ns(batch, budget),
        });
    }

    let direct_always = cells
        .iter()
        .find(|c| c.mode == "direct" && c.policy == "always")
        .map(|c| c.round_ns)
        .expect("direct/always cell measured");

    for c in &cells {
        let batch = c
            .batch
            .map_or_else(|| "    -".into(), |b| format!("{b:>5}"));
        let speedup = if c.mode == "group" {
            format!("   vs direct/always: {:.2}x", direct_always / c.round_ns)
        } else {
            String::new()
        };
        println!(
            "wal_append/{}/{:<7} batch: {batch}   {:>12.1} ns/round{speedup}",
            c.mode, c.policy, c.round_ns,
        );
    }

    if let Ok(path) = std::env::var("FASEA_BENCH_JSON") {
        // `check-bench` rejects >1x speedups on a single-core host
        // unless the table says where they come from.
        let caveat = if host_cores == 1 {
            "\n  \"caveat\": \"single-core host: group-commit speedups come from batching fsyncs, not parallel execution\","
        } else {
            ""
        };
        let mut json = format!(
            "{{\n  \"bench\": \"wal_append\",\n  \"units\": \"ns_per_round\",\n  \"host_cores\": {host_cores},{caveat}\n  \"cells\": [\n",
        );
        for (i, c) in cells.iter().enumerate() {
            let batch = c.batch.map_or("null".into(), |b| b.to_string());
            let speedup = if c.mode == "group" {
                format!("{:.2}", direct_always / c.round_ns)
            } else {
                "null".into()
            };
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"policy\": \"{}\", \"batch\": {batch}, \"round_ns\": {:.1}, \"speedup_vs_direct_always\": {speedup}}}{}\n",
                c.mode,
                c.policy,
                c.round_ns,
                if i + 1 == cells.len() { "" } else { "," },
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write FASEA_BENCH_JSON");
        println!("wrote {path}");
    }
}
