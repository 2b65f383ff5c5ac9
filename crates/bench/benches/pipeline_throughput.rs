//! Pipelined round-engine throughput at *equal durability* (every
//! acked round fsynced before the caller proceeds), at two layers:
//!
//! * **sim** — the [`RoundPipeline`] driving a durable service with
//!   group commit: depth 1 is the sequential loop; depth ≥ 2 prefetches
//!   round t+1's contexts and `score_into` kernel work while round t's
//!   feedback record waits in the commit queue. Even on one core the
//!   overlap is real — the fsync is I/O wait, not compute — but the
//!   *compute* overlap only materialises with cores to spare.
//! * **serve** — a loopback server at `pipeline_depth` ∈ {1, 4} under
//!   four concurrent clients: depth 1 admits one round at a time (each
//!   client's claim waits for the previous round's feedback), depth 4
//!   grants four consecutive rounds at once so network turnaround and
//!   speculative scoring overlap.
//!
//! The committed `BENCH_pipeline.json` is produced by
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_pipeline.json \
//!     cargo bench --bench pipeline_throughput
//! ```

use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_bench::harness::{budget, fixed, serve_window, serve_workload, start_server, Table};
use fasea_datagen::SyntheticWorkload;
use fasea_sim::{DurableArrangementService, DurableOptions, RoundPipeline};
use fasea_stats::CoinStream;
use fasea_store::{FsyncPolicy, TempDir};

const SEED: u64 = 0x919E_5EED;
const CLIENTS: usize = 4;
const CHUNK: u64 = 64;
/// The deepest pipeline measured: below this many cores, prefetch and
/// speculation have no spare core to run on.
const MAX_DEPTH: usize = 4;

fn durable_opts() -> DurableOptions {
    DurableOptions::new()
        .with_fsync(FsyncPolicy::Always)
        .with_group_commit(true)
}

/// Sim layer: the pipelined engine against a group-commit durable
/// service, timed over `window` in fixed-size chunks.
fn run_sim_cell(
    w: &SyntheticWorkload,
    coins: &CoinStream,
    depth: usize,
    window: Duration,
) -> (u64, f64) {
    let dir = TempDir::new("bench-pipe-sim");
    let mut svc = DurableArrangementService::open(
        &dir,
        w.instance.clone(),
        Box::new(LinUcb::new(w.instance.dim(), 1.0, 2.0)),
        durable_opts(),
    )
    .unwrap();
    let mut pipe = RoundPipeline::new(depth);
    let started = Instant::now();
    let deadline = started + window;
    while Instant::now() < deadline {
        let upto = svc.rounds_completed() + CHUNK;
        pipe.run(
            &mut svc,
            upto,
            |t| w.arrivals.arrival(t),
            |t, a| {
                let arrival = w.arrivals.arrival(t);
                a.events()
                    .iter()
                    .map(|&v| {
                        coins.uniform(t, v.index() as u64)
                            < w.model.accept_probability(&arrival.contexts, v)
                    })
                    .collect()
            },
            None,
        )
        .unwrap();
    }
    let elapsed = started.elapsed();
    let rounds = svc.rounds_completed();
    svc.close().unwrap();
    (rounds, rounds as f64 / elapsed.as_secs_f64())
}

fn main() {
    let window = budget();
    let workload = serve_workload(SEED);
    let coins = CoinStream::new(SEED ^ 0xFEED);
    let mut table = Table::new("pipeline_throughput", "rounds_per_sec")
        .meta("durability", "fsync_before_ack")
        .caveat(
            MAX_DEPTH,
            "fewer cores than the deepest pipeline_depth (4): depth>1 gains reflect \
             overlap with fsync I/O wait only and understate multi-core scaling; \
             re-baseline on a host with >= 4 cores before quoting speedups",
        );
    let mut push = |layer: &'static str,
                    depth: usize,
                    clients: usize,
                    (rounds, rate): (u64, f64),
                    base: Option<f64>| {
        table.push(vec![
            ("layer", layer.into()),
            ("pipeline_depth", depth.into()),
            ("clients", clients.into()),
            ("rounds", rounds.into()),
            ("rounds_per_sec", fixed(rate, 1)),
            ("speedup_vs_depth1", base.map(|b| fixed(rate / b, 2)).into()),
        ]);
        rate
    };

    // Sim layer: the pipelined engine against a group-commit durable
    // service.
    let base = push(
        "sim",
        1,
        1,
        run_sim_cell(&workload, &coins, 1, window),
        None,
    );
    for depth in [2usize, MAX_DEPTH] {
        let cell = run_sim_cell(&workload, &coins, depth, window);
        push("sim", depth, 1, cell, Some(base));
    }

    // Serve layer: four concurrent loopback clients against a server at
    // the given admission depth, group commit on, fsync before ack.
    let serve_cell = |depth| {
        let (handle, _dir) = start_server(&workload, durable_opts(), CLIENTS, depth);
        serve_window(handle, &workload, &coins, CLIENTS, window)
    };
    let base = push("serve", 1, CLIENTS, serve_cell(1), None);
    push(
        "serve",
        MAX_DEPTH,
        CLIENTS,
        serve_cell(MAX_DEPTH),
        Some(base),
    );
    table.finish();
}
