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
//! Output: one line per cell on stdout. When `FASEA_BENCH_JSON` names a
//! file, the measured table is also written there as JSON — that is how
//! the committed `BENCH_pipeline.json` is produced:
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_pipeline.json \
//!     cargo bench --bench pipeline_throughput
//! ```
//!
//! `FASEA_BENCH_MS` bounds the per-cell measurement window (default
//! 300 ms) so CI can smoke-run the file without touching committed
//! numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_core::EventId;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_serve::{ClientConfig, ServeClient, Server, ServerConfig};
use fasea_sim::{DurableArrangementService, DurableOptions, RoundPipeline};
use fasea_stats::CoinStream;
use fasea_store::{FsyncPolicy, TempDir};

const SEED: u64 = 0x919E_5EED;
const NUM_EVENTS: usize = 30;
const DIM: usize = 5;
const CLIENTS: usize = 4;
const CHUNK: u64 = 64;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: SEED,
        ..SyntheticConfig::default()
    })
}

fn budget() -> Duration {
    let ms = std::env::var("FASEA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

fn durable_opts() -> DurableOptions {
    DurableOptions::new()
        .with_fsync(FsyncPolicy::Always)
        .with_group_commit(true)
}

struct Cell {
    layer: &'static str,
    depth: usize,
    clients: usize,
    rounds: u64,
    rounds_per_sec: f64,
}

/// Sim layer: the pipelined engine against a group-commit durable
/// service, timed over `window` in fixed-size chunks.
fn run_sim_cell(depth: usize, window: Duration) -> Cell {
    let dir = TempDir::new("bench-pipe-sim");
    let w = workload();
    let mut svc = DurableArrangementService::open(
        &dir,
        w.instance.clone(),
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        durable_opts(),
    )
    .unwrap();
    let coins = CoinStream::new(SEED ^ 0xFEED);
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
    Cell {
        layer: "sim",
        depth,
        clients: 1,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.as_secs_f64(),
    }
}

fn drive_one_round(client: &mut ServeClient, workload: &SyntheticWorkload, coins: &CoinStream) {
    let claimed = client.claim().unwrap();
    let t = claimed.t;
    let arrival = workload.arrivals.arrival(t);
    let arrangement = match claimed.pending {
        Some(pending) => pending,
        None => {
            client
                .propose(
                    arrival.capacity,
                    NUM_EVENTS as u32,
                    DIM as u32,
                    arrival.contexts.as_slice().to_vec(),
                )
                .unwrap()
                .1
        }
    };
    let accepts: Vec<bool> = arrangement
        .iter()
        .map(|&v| {
            coins.uniform(t, v as u64)
                < workload
                    .model
                    .accept_probability(&arrival.contexts, EventId(v as usize))
        })
        .collect();
    client.feedback(&accepts).unwrap();
}

/// Serve layer: four concurrent loopback clients against a server at
/// the given admission depth, group commit on, fsync before ack.
fn run_serve_cell(depth: usize, window: Duration) -> Cell {
    let dir = TempDir::new("bench-pipe-serve");
    let svc = DurableArrangementService::open(
        &dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        durable_opts(),
    )
    .unwrap();
    let handle = Server::spawn(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS,
            pipeline_depth: depth,
            stats_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Warm up the connection path outside the timed window.
    {
        let wl = workload();
        let coins = CoinStream::new(SEED ^ 0xFEED);
        let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        for _ in 0..4 {
            drive_one_round(&mut client, &wl, &coins);
        }
    }

    let completed = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + window;
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            let completed = &completed;
            s.spawn(move || {
                let wl = workload();
                let coins = CoinStream::new(SEED ^ 0xFEED);
                let mut client = ServeClient::connect(
                    addr,
                    ClientConfig {
                        read_timeout: Duration::from_secs(120),
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                while Instant::now() < deadline {
                    drive_one_round(&mut client, &wl, &coins);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed();

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none(), "{:?}", report.close.error);

    let rounds = completed.load(Ordering::Relaxed);
    Cell {
        layer: "serve",
        depth,
        clients: CLIENTS,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.as_secs_f64(),
    }
}

fn main() {
    let window = budget();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_depth = 4usize;
    if host_cores < max_depth {
        println!(
            "WARNING: host has {host_cores} core(s) but the deepest measured pipeline_depth \
             is {max_depth} — prefetch and speculation have no spare cores to run on, so \
             depth>1 numbers measure I/O overlap only and UNDERSTATE multi-core scaling. \
             Re-baseline on a host with >= {max_depth} cores before quoting speedups."
        );
    }

    let mut cells = Vec::new();
    for depth in [1usize, 2, 4] {
        let cell = run_sim_cell(depth, window);
        println!(
            "pipeline_throughput/sim/depth={}   {:>8} rounds   {:>10.1} rounds/sec",
            cell.depth, cell.rounds, cell.rounds_per_sec,
        );
        cells.push(cell);
    }
    for depth in [1usize, 4] {
        let cell = run_serve_cell(depth, window);
        println!(
            "pipeline_throughput/serve/depth={}/clients={}   {:>8} rounds   {:>10.1} rounds/sec",
            cell.depth, cell.clients, cell.rounds, cell.rounds_per_sec,
        );
        cells.push(cell);
    }

    let baseline = |layer: &str| {
        cells
            .iter()
            .find(|c| c.layer == layer && c.depth == 1)
            .map(|c| c.rounds_per_sec)
    };
    for c in cells.iter().filter(|c| c.depth > 1) {
        if let Some(base) = baseline(c.layer) {
            println!(
                "{} depth {} vs depth 1: {:.2}x",
                c.layer,
                c.depth,
                c.rounds_per_sec / base,
            );
        }
    }

    if let Ok(path) = std::env::var("FASEA_BENCH_JSON") {
        // `check-bench` rejects >1x speedups on a single-core host
        // unless the table says where they come from.
        let caveat = if host_cores == 1 {
            "\n  \"caveat\": \"single-core host: depth>1 gains reflect overlap with fsync I/O wait only; compute overlap needs more cores (see the bench's stdout warning)\","
        } else {
            ""
        };
        let mut json = format!(
            "{{\n  \"bench\": \"pipeline_throughput\",\n  \"units\": \"rounds_per_sec\",\n  \"durability\": \"fsync_before_ack\",\n  \"host_cores\": {host_cores},{caveat}\n  \"cells\": [\n",
        );
        for (i, c) in cells.iter().enumerate() {
            let speedup = match (c.depth, baseline(c.layer)) {
                (d, Some(base)) if d > 1 => format!("{:.2}", c.rounds_per_sec / base),
                _ => "null".into(),
            };
            json.push_str(&format!(
                "    {{\"layer\": \"{}\", \"pipeline_depth\": {}, \"clients\": {}, \"rounds\": {}, \"rounds_per_sec\": {:.1}, \"speedup_vs_depth1\": {speedup}}}{}\n",
                c.layer,
                c.depth,
                c.clients,
                c.rounds,
                c.rounds_per_sec,
                if i + 1 == cells.len() { "" } else { "," },
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write FASEA_BENCH_JSON");
        println!("wrote {path}");
    }
}
