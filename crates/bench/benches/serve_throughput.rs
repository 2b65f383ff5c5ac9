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
//! Output: one line per cell on stdout. When `FASEA_BENCH_JSON` names
//! a file, the measured table is also written there as JSON — that is
//! how the committed `BENCH_serve.json` is produced:
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_serve.json \
//!     cargo bench --bench serve_throughput
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
use fasea_serve::{ClientConfig, ServeClient, Server, ServerConfig, ServerHandle};
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_stats::CoinStream;
use fasea_store::{FsyncPolicy, TempDir};

const SEED: u64 = 0xBE7C_5EED;
const NUM_EVENTS: usize = 30;
const DIM: usize = 5;

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

fn start_server(tag: &str, group_commit: bool) -> (ServerHandle, TempDir) {
    let dir = TempDir::new(&format!("bench-serve-tput-{tag}"));
    let svc = DurableArrangementService::open(
        &dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new()
            .with_fsync(FsyncPolicy::Always)
            .with_group_commit(group_commit),
    )
    .unwrap();
    let handle = Server::spawn(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            stats_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (handle, dir)
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

struct Cell {
    mode: &'static str,
    clients: usize,
    rounds: u64,
    rounds_per_sec: f64,
}

/// Runs `clients` loopback sessions against a fresh server for the
/// budget window and reports aggregate completed rounds/sec.
fn run_cell(mode: &'static str, group_commit: bool, clients: usize, window: Duration) -> Cell {
    let (handle, _dir) = start_server(&format!("{mode}-{clients}"), group_commit);
    let addr = handle.local_addr().to_string();

    // Warm up connections + the policy state outside the timed window.
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
        for _ in 0..clients {
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
        mode,
        clients,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.as_secs_f64(),
    }
}

fn main() {
    let window = budget();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_cores == 1 {
        println!(
            "warning: single-core host — client threads, server workers and the \
             commit syncer share one core, so multi-client scaling is understated"
        );
    }

    let grid: &[(&'static str, bool, usize)] = &[
        ("per_round_fsync", false, 1),
        ("per_round_fsync", false, 4),
        ("group_commit", true, 1),
        ("group_commit", true, 4),
    ];
    let mut cells = Vec::new();
    for &(mode, group_commit, clients) in grid {
        let cell = run_cell(mode, group_commit, clients, window);
        println!(
            "serve_throughput/{}/clients={}   {:>8} rounds   {:>10.1} rounds/sec",
            cell.mode, cell.clients, cell.rounds, cell.rounds_per_sec,
        );
        cells.push(cell);
    }

    let baseline = |clients: usize| {
        cells
            .iter()
            .find(|c| c.mode == "per_round_fsync" && c.clients == clients)
            .map(|c| c.rounds_per_sec)
    };
    for c in cells.iter().filter(|c| c.mode == "group_commit") {
        if let Some(base) = baseline(c.clients) {
            println!(
                "group_commit vs per_round_fsync at {} client(s): {:.2}x",
                c.clients,
                c.rounds_per_sec / base,
            );
        }
    }

    if let Ok(path) = std::env::var("FASEA_BENCH_JSON") {
        // `check-bench` rejects >1x speedups on a single-core host
        // unless the table says where they come from.
        let caveat = if host_cores == 1 {
            "\n  \"caveat\": \"single-core host: group-commit speedups come from sharing fsyncs across sessions, not parallel compute\","
        } else {
            ""
        };
        let mut json = format!(
            "{{\n  \"bench\": \"serve_throughput\",\n  \"units\": \"rounds_per_sec\",\n  \"durability\": \"fsync_before_ack\",\n  \"host_cores\": {host_cores},{caveat}\n  \"cells\": [\n",
        );
        for (i, c) in cells.iter().enumerate() {
            let speedup = match (c.mode, baseline(c.clients)) {
                ("group_commit", Some(base)) => format!("{:.2}", c.rounds_per_sec / base),
                _ => "null".into(),
            };
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"clients\": {}, \"rounds\": {}, \"rounds_per_sec\": {:.1}, \"speedup_vs_per_round_fsync\": {speedup}}}{}\n",
                c.mode,
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
