//! Serving-layer benches: full claim→propose→feedback round latency
//! over loopback TCP (single client, varying worker counts), aggregate
//! multi-client throughput, and the pure wire codec cost.
//!
//! Uses `FsyncPolicy::Never` so the numbers measure the serving stack
//! (framing, actor hop, scheduling), not the disk.

use std::sync::atomic::{AtomicU64, Ordering};

use fasea_bench::harness::{
    budget, drive_one_round, fixed, patient_client, serve_workload, start_server, time_ns, Table,
};
use fasea_serve::{decode_request, encode_request, Request};
use fasea_sim::DurableOptions;
use fasea_stats::CoinStream;
use fasea_store::FsyncPolicy;

const SEED: u64 = 0xBE7C_5EED;
/// Rounds per timed iteration of the multi-client cells.
const BATCH: u64 = 64;

fn main() {
    let budget = budget();
    let workload = serve_workload(SEED);
    let coins = CoinStream::new(SEED ^ 0xFEED);
    let options = || DurableOptions::new().with_fsync(FsyncPolicy::Never);
    let mut table = Table::new("serve_roundtrip", "ns_per_op").meta("fsync", "never");
    let mut push = |op: &'static str, workers: Option<usize>, clients: Option<usize>, ns| {
        table.push(vec![
            ("op", op.into()),
            ("workers", workers.into()),
            ("clients", clients.into()),
            ("op_ns", fixed(ns, 1)),
        ]);
    };

    // One full protocol round, single session, as a function of the
    // worker pool size (the actor serialises rounds either way; this
    // measures the pool's overhead, not parallel speedup).
    for workers in [1usize, 4] {
        let (handle, _dir) = start_server(&workload, options(), workers, 1);
        let mut client = patient_client(&handle.local_addr().to_string());
        let ns = time_ns(budget, || drive_one_round(&mut client, &workload, &coins));
        drop(client);
        handle.initiate_shutdown();
        handle.join();
        push("round", Some(workers), Some(1), ns);
    }

    // Aggregate per-round cost with concurrent sessions contending for
    // the sequential round stream: each timed iteration completes
    // `BATCH` rounds across the sessions.
    for clients in [1usize, 4] {
        let (handle, _dir) = start_server(&workload, options(), 4, 1);
        let addr = handle.local_addr().to_string();
        let batch_ns = time_ns(budget, || {
            let done = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..clients {
                    let (addr, done, workload, coins) = (&addr, &done, &workload, &coins);
                    s.spawn(move || {
                        let mut client = patient_client(addr);
                        while done.fetch_add(1, Ordering::Relaxed) < BATCH {
                            drive_one_round(&mut client, workload, coins);
                        }
                    });
                }
            });
        });
        handle.initiate_shutdown();
        handle.join();
        push(
            "multi_client_round",
            Some(4),
            Some(clients),
            batch_ns / BATCH as f64,
        );
    }

    // The codec alone: encode + decode one PROPOSE payload (the largest
    // request — `|V| × d` context doubles).
    let (n, d) = (workload.instance.num_events(), workload.instance.dim());
    let request = Request::Propose {
        user_capacity: 3,
        num_events: n as u32,
        dim: d as u32,
        contexts: (0..n * d).map(|i| i as f64 * 0.01).collect(),
    };
    let encoded = encode_request(42, &request);
    push(
        "propose_encode",
        None,
        None,
        time_ns(budget, || encode_request(42, &request)),
    );
    push(
        "propose_decode",
        None,
        None,
        time_ns(budget, || decode_request(&encoded).unwrap()),
    );
    table.finish();
}
