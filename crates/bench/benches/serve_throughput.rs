//! End-to-end serving throughput: rounds/sec over loopback TCP as a
//! function of commit mode × concurrent client count, at *equal
//! durability* (every acked round is fsynced before the client sees
//! the reply).
//!
//! `per_round_fsync` is the PR 1/2 baseline: `FsyncPolicy::Always`
//! through the synchronous WAL, so every propose and every feedback
//! pays its own fsync before the actor replies. `group_commit` keeps
//! the identical acked-implies-durable guarantee but batches the
//! fsyncs: the actor applies rounds in memory, withholds the replies,
//! and the commit syncer releases each ack the moment its batch's
//! watermark covers it — N concurrent sessions share one fsync. The
//! headline cell is `group_commit` at 4 clients vs `per_round_fsync`
//! at 4 clients: the pipeline must win at least the fsync sharing.
//!
//! The committed `BENCH_serve.json` is produced by
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_serve.json \
//!     cargo bench --bench serve_throughput
//! ```

use fasea_bench::harness::{
    budget, fixed, serve_window, serve_workload, start_server, Scalar, Table,
};
use fasea_sim::DurableOptions;
use fasea_stats::CoinStream;
use fasea_store::FsyncPolicy;

const SEED: u64 = 0xBE7C_5EED;

fn main() {
    let window = budget();
    let workload = serve_workload(SEED);
    let coins = CoinStream::new(SEED ^ 0xFEED);
    let mut table = Table::new("serve_throughput", "rounds_per_sec")
        .meta("durability", "fsync_before_ack")
        .caveat(
            2,
            "client threads, server workers and the commit syncer share one core; \
             group-commit speedups come from sharing fsyncs across sessions, not \
             parallel compute",
        );
    let mut per_round_fsync = Vec::new();
    for (mode, group_commit) in [("per_round_fsync", false), ("group_commit", true)] {
        for clients in [1usize, 4] {
            let options = DurableOptions::new()
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(group_commit);
            let (handle, _dir) = start_server(&workload, options, 4, 1);
            let (rounds, rate) = serve_window(handle, &workload, &coins, clients, window);
            let speedup = if group_commit {
                let (_, base) = per_round_fsync
                    .iter()
                    .find(|&&(c, _)| c == clients)
                    .expect("baseline measured first");
                fixed(rate / base, 2)
            } else {
                per_round_fsync.push((clients, rate));
                Scalar::Null
            };
            table.push(vec![
                ("mode", mode.into()),
                ("clients", clients.into()),
                ("rounds", rounds.into()),
                ("rounds_per_sec", fixed(rate, 1)),
                ("speedup_vs_per_round_fsync", speedup),
            ]);
        }
    }
    table.finish();
}
