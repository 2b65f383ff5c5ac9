//! Serving-layer benches: full claim→propose→feedback round latency
//! over loopback TCP (single client, varying worker counts), aggregate
//! multi-client throughput, and the pure wire codec cost.
//!
//! Uses `FsyncPolicy::Never` so the numbers measure the serving stack
//! (framing, actor hop, scheduling), not the disk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fasea_bandit::LinUcb;
use fasea_core::EventId;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_serve::{
    decode_request, encode_request, ClientConfig, Request, ServeClient, Server, ServerConfig,
    ServerHandle,
};
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_stats::CoinStream;
use fasea_store::{FsyncPolicy, TempDir};
use std::hint::black_box;

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

fn start_server(tag: &str, workers: usize) -> (ServerHandle, TempDir) {
    let dir = TempDir::new(&format!("bench-serve-{tag}-{workers}"));
    let svc = DurableArrangementService::open(
        &dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .unwrap();
    let handle = Server::spawn(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            stats_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (handle, dir)
}

fn drive_one_round(
    client: &mut ServeClient,
    workload: &SyntheticWorkload,
    coins: &CoinStream,
) -> u64 {
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
    client.feedback(&accepts).unwrap().0
}

/// One full protocol round over loopback, single session, as a function
/// of the worker pool size (1 vs 4 — the actor serialises rounds either
/// way; this measures the pool's overhead, not parallel speedup).
fn bench_round_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_round_latency");
    for &workers in &[1usize, 4] {
        let (handle, dir) = start_server("latency", workers);
        let addr = handle.local_addr().to_string();
        let wl = workload();
        let coins = CoinStream::new(SEED ^ 0xFEED);
        let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| black_box(drive_one_round(&mut client, &wl, &coins)))
        });
        drop(client);
        handle.initiate_shutdown();
        handle.join();
        drop(dir);
    }
    group.finish();
}

/// Aggregate rounds/sec with concurrent sessions contending for the
/// sequential round stream.
fn bench_multi_client_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    const BATCH: u64 = 64;
    group.throughput(Throughput::Elements(BATCH));
    for &clients in &[1usize, 4] {
        let (handle, dir) = start_server("throughput", 4);
        let addr = handle.local_addr().to_string();
        group.bench_with_input(BenchmarkId::new("clients", clients), &clients, |b, _| {
            b.iter(|| {
                let done = AtomicU64::new(0);
                std::thread::scope(|s| {
                    for _ in 0..clients {
                        let addr = addr.clone();
                        let done = &done;
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
                            while done.fetch_add(1, Ordering::Relaxed) < BATCH {
                                drive_one_round(&mut client, &wl, &coins);
                            }
                        });
                    }
                });
            })
        });
        handle.initiate_shutdown();
        handle.join();
        drop(dir);
    }
    group.finish();
}

/// The codec alone: encode + decode one PROPOSE payload (the largest
/// request — `|V| × d` context doubles).
fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_codec");
    let request = Request::Propose {
        user_capacity: 3,
        num_events: NUM_EVENTS as u32,
        dim: DIM as u32,
        contexts: (0..NUM_EVENTS * DIM).map(|i| i as f64 * 0.01).collect(),
    };
    let encoded = encode_request(42, &request);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("propose_encode", |b| {
        b.iter(|| black_box(encode_request(42, &request)))
    });
    group.bench_function("propose_decode", |b| {
        b.iter(|| black_box(decode_request(&encoded).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_round_latency,
    bench_multi_client_throughput,
    bench_codec
);
criterion_main!(benches);
