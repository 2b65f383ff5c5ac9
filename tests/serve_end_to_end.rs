//! End-to-end serving-layer checks at the workspace level:
//!
//! 1. **Wire parity** — several concurrent clients drive a live server
//!    with CRN feedback; the final accounting must be *identical* to an
//!    in-process run of the same seed (the networked service is
//!    observationally equivalent to the library).
//! 2. **Crash resume** — a server process dies with a proposal
//!    outstanding; a new server over the same directory recovers from
//!    the WAL, hands the pending round to the first network claimant,
//!    and the completed run still matches the uninterrupted reference.

use std::sync::atomic::{AtomicU64, Ordering};

use fasea::core::EventId;
use fasea::serve::{ClientConfig, ServeClient, Server, ServerConfig, ServerHandle};
use fasea::sim::{ArrangementService, DurableOptions};
use fasea::store::TempDir;
use fasea::{DurableArrangementService, FsyncPolicy};
use fasea_experiments::serve_cmd::WorkloadSpec;

const ROUNDS: u64 = 200;
const CLIENTS: usize = 3;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        seed: 0xE2E_5EED,
        events: 10,
        dim: 3,
        policy: "ucb".into(),
        users: 10_000,
        model_budget_mb: 0,
        ..WorkloadSpec::default()
    }
}

fn open_service(dir: &std::path::Path) -> DurableArrangementService {
    let spec = spec();
    DurableArrangementService::open(
        dir,
        spec.workload().instance,
        spec.policy().unwrap(),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .unwrap()
}

fn start_server(dir: &std::path::Path) -> ServerHandle {
    start_server_depth(dir, 1)
}

fn start_server_depth(dir: &std::path::Path, pipeline_depth: usize) -> ServerHandle {
    Server::spawn(
        open_service(dir),
        "127.0.0.1:0",
        ServerConfig {
            stats_interval: None,
            pipeline_depth,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Drives rounds over the wire until the server's counter reaches
/// `rounds`; returns how many this session completed.
fn drive(addr: &str, rounds: u64, fed: &AtomicU64) {
    let spec = spec();
    let workload = spec.workload();
    let coins = spec.feedback_coins();
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap();
    loop {
        let claimed = client.claim().unwrap();
        if claimed.t >= rounds {
            client.release().unwrap();
            return;
        }
        let t = claimed.t;
        let arrival = workload.arrivals.arrival(t);
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        workload.instance.num_events() as u32,
                        workload.instance.dim() as u32,
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
        fed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The uninterrupted in-process reference: same workload, same policy,
/// same coins.
fn reference(rounds: u64) -> (u64, u64, u64) {
    let spec = spec();
    let workload = spec.workload();
    let coins = spec.feedback_coins();
    let mut svc = ArrangementService::new(workload.instance.clone(), spec.policy().unwrap());
    for t in 0..rounds {
        let arrival = workload.arrivals.arrival(t);
        let arrangement = svc.propose(&arrival).unwrap();
        let accepts: Vec<bool> = arrangement
            .events()
            .iter()
            .map(|&v| {
                coins.uniform(t, v.index() as u64)
                    < workload.model.accept_probability(&arrival.contexts, v)
            })
            .collect();
        svc.feedback(&accepts).unwrap();
    }
    (
        svc.rounds_completed(),
        svc.accounting().total_arranged(),
        svc.accounting().total_rewards(),
    )
}

fn server_triple(addr: &str) -> (u64, u64, u64) {
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    (
        stats.rounds_completed,
        stats.total_arranged,
        stats.total_rewards,
    )
}

#[test]
fn concurrent_clients_match_in_process_run() {
    let dir = TempDir::new("serve-e2e-parity");
    let handle = start_server(&dir);
    let addr = handle.local_addr().to_string();
    let fed = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| drive(&addr, ROUNDS, &fed));
        }
    });
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS, "every round fed once");
    assert_eq!(
        server_triple(&addr),
        reference(ROUNDS),
        "networked accounting must equal the in-process run"
    );

    // Zero protocol errors end to end.
    let metrics = handle.metrics();
    assert_eq!(metrics.protocol_errors.get(), 0);
    assert_eq!(metrics.decode_errors.get(), 0);
    assert_eq!(metrics.overloaded.get(), 0);

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none());
    assert_eq!(report.close.rounds_completed, ROUNDS);
    assert!(report.close.snapshot.is_some(), "drain must snapshot");
}

/// Optimistic concurrent admission (`pipeline_depth > 1`): concurrent
/// clients hold several consecutive rounds at once, yet the accounting
/// still equals the strictly sequential in-process run, and the STATS
/// response carries the pipeline observability fields the loadgen
/// prints (`prefetch_hit`, `prefetch_recompute`, `conflict_replays`,
/// and the `pipeline_depth` histogram).
#[test]
fn pipelined_admission_matches_sequential_and_reports_stats() {
    let dir = TempDir::new("serve-e2e-pipelined");
    let handle = start_server_depth(&dir, 4);
    let addr = handle.local_addr().to_string();
    let fed = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| drive(&addr, ROUNDS, &fed));
        }
    });
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS, "every round fed once");
    assert_eq!(
        server_triple(&addr),
        reference(ROUNDS),
        "depth-4 admission must equal the sequential run"
    );

    let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    for name in ["prefetch_hit", "prefetch_recompute", "conflict_replays"] {
        assert!(
            stats.counter(name).is_some(),
            "STATS must export the {name} counter"
        );
    }
    let depth_hist = stats
        .histograms
        .iter()
        .find(|h| h.name == "pipeline_depth")
        .expect("STATS must export the pipeline_depth histogram");
    assert!(depth_hist.count > 0, "every grant records its depth");
    assert!(
        depth_hist.max_us > 1,
        "concurrent clients must actually overlap rounds (observed depth > 1)"
    );
    let text = stats.render();
    for needle in [
        "prefetch_hit=",
        "prefetch_recompute=",
        "conflict_replays=",
        "hist pipeline_depth",
    ] {
        assert!(
            text.contains(needle),
            "loadgen STATS output missing {needle}"
        );
    }

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none());
    assert_eq!(report.close.rounds_completed, ROUNDS);
}

#[test]
fn crash_with_pending_round_resumes_over_the_wire() {
    let dir = TempDir::new("serve-e2e-resume");
    let crash_at: u64 = 40;

    // Phase 1: a service dies with round `crash_at` proposed but not
    // answered (drop without close = crash; the WAL holds the record).
    {
        let spec = spec();
        let workload = spec.workload();
        let coins = spec.feedback_coins();
        let mut svc = open_service(&dir);
        for t in 0..crash_at {
            let arrival = workload.arrivals.arrival(t);
            let arrangement = svc.propose(&arrival).unwrap();
            let accepts: Vec<bool> = arrangement
                .events()
                .iter()
                .map(|&v| {
                    coins.uniform(t, v.index() as u64)
                        < workload.model.accept_probability(&arrival.contexts, v)
                })
                .collect();
            svc.feedback(&accepts).unwrap();
        }
        svc.propose(&workload.arrivals.arrival(crash_at)).unwrap();
        svc.sync().unwrap();
        // svc dropped here without feedback and without close().
    }

    // Phase 2: a fresh server recovers the directory; network clients
    // pick up mid-stream. The first claimant receives the pending
    // arrangement for round `crash_at` and answers it without
    // re-proposing.
    let handle = start_server(&dir);
    let addr = handle.local_addr().to_string();
    let info = ServeClient::connect(addr.clone(), ClientConfig::default())
        .unwrap()
        .info()
        .unwrap();
    assert_eq!(info.rounds_completed, crash_at);
    assert!(info.has_pending, "handshake must advertise recovery state");

    let fed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| drive(&addr, ROUNDS, &fed));
        }
    });
    // The pending round plus everything after it, each exactly once.
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS - crash_at);
    assert_eq!(
        server_triple(&addr),
        reference(ROUNDS),
        "crash + network resume must equal the uninterrupted run"
    );

    handle.initiate_shutdown();
    assert!(handle.join().close.error.is_none());
}
