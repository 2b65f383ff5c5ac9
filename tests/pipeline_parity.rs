//! Pipelined round-engine acceptance suite, driven end-to-end through
//! the `fasea` facade:
//!
//! 1. **Depth parity** — for every policy the repo ships (all seven),
//!    both arrangement oracles, and churn on/off, a [`RoundPipeline`]
//!    run at depth ∈ {1, 2, 4, 8} must leave the durable service in a
//!    state byte-identical to the strictly sequential loop: capacities,
//!    regret accounting, and the policy's full saved state *including
//!    its RNG position*. In-order prefetching must also never recompute
//!    (every stash hits).
//! 2. **Commit-queue overlap** — the same parity holds when feedback
//!    records genuinely ride the group-commit queue while the next
//!    round's scores are prefetched.
//! 3. **Sharded backends** — a depth-4 pipeline over the N-shard
//!    coordinator (N ∈ {1, 2, 4}) equals the sequential single-actor
//!    run.
//! 4. **Kill matrix** — a depth-4 pipelined run's WAL is torn at every
//!    record boundary; every crash image recovers and a pipelined
//!    continuation converges byte-identically to the uninterrupted
//!    reference.
//! 5. **Serving crash with rounds in flight** — a `pipeline_depth = 4`
//!    server dies with the head proposal logged *and* a future round
//!    granted with a buffered proposal (≥ 2 rounds in flight). Recovery
//!    must lose no acked round, surface the pending proposal, and the
//!    continuation must match the sequential in-process reference.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fasea::bandit::{
    EpsilonGreedy, Exploit, LinUcb, Opt, OracleOptions, Policy, RandomPolicy, StaticScorePolicy,
    ThompsonSampling,
};
use fasea::core::{ChurnSchedule, EventId};
use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
use fasea::serve::{ClientConfig, ServeClient, Server, ServerConfig};
use fasea::sim::{ArrangementService, DurableOptions, RoundPipeline};
use fasea::store::{wal, FaultFile, TempDir};
use fasea::{DurableArrangementService, FsyncPolicy, ShardedArrangementService};

const DIM: usize = 3;
const NUM_EVENTS: usize = 12;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: 0x0009_717E_5EED,
        ..SyntheticConfig::default()
    })
}

/// All seven policies, fresh per call so two runs start identically.
fn all_policies() -> Vec<(&'static str, Box<dyn Policy>)> {
    let w = workload();
    let static_scores: Vec<f64> = (0..NUM_EVENTS)
        .map(|v| ((v * 37) % 23) as f64 / 23.0)
        .collect();
    vec![
        (
            "ucb",
            Box::new(LinUcb::new(DIM, 1.0, 2.0)) as Box<dyn Policy>,
        ),
        (
            "ts",
            Box::new(ThompsonSampling::new(DIM, 1.0, 0.1, 0xA11CE)),
        ),
        (
            "egreedy",
            Box::new(EpsilonGreedy::new(DIM, 1.0, 0.1, 0xB0B)),
        ),
        ("exploit", Box::new(Exploit::new(DIM, 1.0))),
        ("opt", Box::new(Opt::new(w.model.clone()))),
        ("random", Box::new(RandomPolicy::new(0xC0DE))),
        (
            "static",
            Box::new(StaticScorePolicy::new("static", static_scores)),
        ),
    ]
}

fn policy_named(name: &str) -> Box<dyn Policy> {
    all_policies()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| p)
        .unwrap()
}

fn opts() -> DurableOptions {
    DurableOptions::new()
        .with_segment_bytes(u64::MAX)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshots_kept(1)
}

/// Everything that must match between a pipelined and a sequential run.
#[derive(Debug, Clone, PartialEq)]
struct StateDigest {
    t: u64,
    remaining: Vec<u32>,
    arranged: u64,
    rewards: u64,
    has_pending: bool,
    policy_state: Vec<u8>,
}

fn digest_of(svc: &ArrangementService, t: u64, has_pending: bool) -> StateDigest {
    StateDigest {
        t,
        remaining: svc.remaining().to_vec(),
        arranged: svc.accounting().total_arranged(),
        rewards: svc.accounting().total_rewards(),
        has_pending,
        policy_state: svc.policy().save_state(),
    }
}

fn digest_single(svc: &DurableArrangementService) -> StateDigest {
    digest_of(svc.service(), svc.rounds_completed(), svc.has_pending())
}

fn digest_sharded(svc: &ShardedArrangementService) -> StateDigest {
    digest_of(svc.service(), svc.rounds_completed(), svc.has_pending())
}

/// CRN acceptance for round `t` — identical no matter which engine
/// executes the round.
fn accepts_for(w: &SyntheticWorkload, t: u64, arranged: &[EventId]) -> Vec<bool> {
    let coins = fasea::stats::CoinStream::new(0xFEED_C0DE);
    let arrival = w.arrivals.arrival(t);
    arranged
        .iter()
        .map(|&v| {
            coins.uniform(t, v.index() as u64) < w.model.accept_probability(&arrival.contexts, v)
        })
        .collect()
}

/// The strictly sequential reference loop (churn optional).
fn run_sequential(
    svc: &mut DurableArrangementService,
    w: &SyntheticWorkload,
    churn: Option<&ChurnSchedule>,
    upto: u64,
) {
    while svc.rounds_completed() < upto {
        let t = svc.rounds_completed();
        let a = if let Some(p) = svc.pending_arrangement() {
            p.clone()
        } else {
            if let Some(churn) = churn {
                for action in churn.actions_at(t) {
                    svc.lifecycle(action.event, action.capacity).unwrap();
                }
            }
            svc.propose(&w.arrivals.arrival(t)).unwrap()
        };
        let accepts = accepts_for(w, t, a.events());
        svc.feedback(&accepts).unwrap();
    }
}

/// Drives `svc` through the pipelined engine and returns its stats.
fn run_pipelined<B: fasea::sim::PipelinedBackend>(
    svc: &mut B,
    w: &SyntheticWorkload,
    churn: Option<&ChurnSchedule>,
    depth: usize,
    upto: u64,
) -> fasea::sim::PipelineStats {
    let mut pipe = RoundPipeline::new(depth);
    pipe.run(
        svc,
        upto,
        |t| w.arrivals.arrival(t),
        |t, a| accepts_for(w, t, a.events()),
        churn,
    )
    .unwrap();
    pipe.stats()
}

/// Deterministic churn with several re-plans inside every horizon used
/// below.
fn churn_schedule(upto: u64) -> ChurnSchedule {
    let churn = ChurnSchedule::generate(workload().instance.capacities(), upto, 3, 0x5);
    assert!(!churn.actions().is_empty());
    churn
}

#[test]
fn pipeline_depths_bit_equal_for_every_policy_oracle_and_churn() {
    const ROUNDS: u64 = 48;
    let w = workload();
    let churn = churn_schedule(ROUNDS);
    for (name, _) in all_policies() {
        for (oracle_name, oracle) in [
            ("greedy", OracleOptions::greedy()),
            ("tabu", OracleOptions::tabu()),
        ] {
            for churned in [false, true] {
                let schedule = churned.then_some(&churn);
                let cell = format!("{name}/{oracle_name}/churn={churned}");
                let ref_dir = TempDir::new("pipe-par-depth-ref");
                let reference = {
                    let mut svc = DurableArrangementService::open(
                        &ref_dir,
                        w.instance.clone(),
                        policy_named(name),
                        opts().with_oracle(oracle),
                    )
                    .unwrap();
                    run_sequential(&mut svc, &w, schedule, ROUNDS);
                    let d = digest_single(&svc);
                    drop(svc);
                    d
                };

                for depth in [1usize, 2, 4, 8] {
                    let dir = TempDir::new("pipe-par-depth");
                    let mut svc = DurableArrangementService::open(
                        &dir,
                        w.instance.clone(),
                        policy_named(name),
                        opts().with_oracle(oracle),
                    )
                    .unwrap();
                    let stats = run_pipelined(&mut svc, &w, schedule, depth, ROUNDS);
                    assert_eq!(
                        digest_single(&svc),
                        reference,
                        "{cell}: depth {depth} diverged from the sequential run"
                    );
                    assert_eq!(
                        stats.prefetch_recomputes, 0,
                        "{cell}: in-order prefetch must never go stale"
                    );
                    if depth >= 2 {
                        assert_eq!(
                            stats.prefetch_hits,
                            ROUNDS - 1,
                            "{cell}: every round after the first must hit its stash"
                        );
                    } else {
                        assert_eq!(stats.prefetch_hits, 0, "{cell}: depth 1 never prefetches");
                    }
                    drop(svc);
                }
            }
        }
    }
}

/// Feedback records genuinely ride the group-commit queue while the
/// next round's scores are prefetched — the overlap the pipeline
/// exists for — and the result is still bit-equal.
#[test]
fn pipelined_group_commit_overlap_is_bit_equal() {
    const ROUNDS: u64 = 40;
    let w = workload();
    let churn = churn_schedule(ROUNDS);
    let ref_dir = TempDir::new("pipe-par-gc-ref");
    let reference = {
        let mut svc = DurableArrangementService::open(
            &ref_dir,
            w.instance.clone(),
            policy_named("ts"),
            opts(),
        )
        .unwrap();
        run_sequential(&mut svc, &w, Some(&churn), ROUNDS);
        let d = digest_single(&svc);
        drop(svc);
        d
    };
    let dir = TempDir::new("pipe-par-gc-pipe");
    let mut svc = DurableArrangementService::open(
        &dir,
        w.instance.clone(),
        policy_named("ts"),
        opts().with_group_commit(true),
    )
    .unwrap();
    let stats = run_pipelined(&mut svc, &w, Some(&churn), 4, ROUNDS);
    assert_eq!(
        digest_single(&svc),
        reference,
        "group-commit pipelined run diverged"
    );
    assert_eq!(stats.prefetch_hits, ROUNDS - 1);
    assert_eq!(stats.prefetch_recomputes, 0);
    svc.close().unwrap();
}

#[test]
fn pipelined_sharded_backend_matches_sequential_single_actor() {
    const ROUNDS: u64 = 48;
    let w = workload();
    let churn = churn_schedule(ROUNDS);
    for name in ["ucb", "ts"] {
        let ref_dir = TempDir::new("pipe-par-shard-ref");
        let reference = {
            let mut svc = DurableArrangementService::open(
                &ref_dir,
                w.instance.clone(),
                policy_named(name),
                opts(),
            )
            .unwrap();
            run_sequential(&mut svc, &w, Some(&churn), ROUNDS);
            let d = digest_single(&svc);
            drop(svc);
            d
        };
        for shards in [1usize, 2, 4] {
            let dir = TempDir::new("pipe-par-shard-pipe");
            let mut svc = ShardedArrangementService::open(
                &dir,
                w.instance.clone(),
                policy_named(name),
                opts(),
                shards,
            )
            .unwrap();
            let stats = run_pipelined(&mut svc, &w, Some(&churn), 4, ROUNDS);
            assert_eq!(
                digest_sharded(&svc),
                reference,
                "{name}: depth-4 pipeline over {shards} shards diverged"
            );
            assert_eq!(stats.prefetch_recomputes, 0, "{name}/{shards}");
            svc.close().unwrap();
        }
    }
}

const KILL_ROUNDS: u64 = 24;
const KILL_END: u64 = 40;

/// Tears a depth-4 pipelined run's WAL at every record boundary; every
/// crash image must recover and a pipelined continuation must converge
/// byte-identically to the uninterrupted sequential reference.
#[test]
fn pipelined_kill_matrix_recovers_byte_identically() {
    let w = workload();
    let churn = churn_schedule(KILL_END);

    // The uninterrupted sequential reference at the final horizon.
    let reference_final = {
        let dir = TempDir::new("pipe-par-kill-seq-ref");
        let mut svc =
            DurableArrangementService::open(&dir, w.instance.clone(), policy_named("ts"), opts())
                .unwrap();
        run_sequential(&mut svc, &w, Some(&churn), KILL_END);
        let d = digest_single(&svc);
        drop(svc);
        d
    };

    // Crash image: a depth-4 pipelined run synced at KILL_ROUNDS, then
    // dropped without close.
    let base = TempDir::new("pipe-par-kill-base");
    let fingerprint = {
        let mut svc =
            DurableArrangementService::open(&base, w.instance.clone(), policy_named("ts"), opts())
                .unwrap();
        run_pipelined(&mut svc, &w, Some(&churn), 4, KILL_ROUNDS);
        svc.sync().unwrap();
        svc.fingerprint()
    };

    let (records, boundaries, torn) = wal::scan(&base, fingerprint).unwrap();
    assert!(torn.is_none());
    assert!(records.len() >= 2 * KILL_ROUNDS as usize);
    let scratch = TempDir::new("pipe-par-kill-scratch");
    for (k, (segment, offset)) in boundaries.iter().enumerate() {
        let _ = fs::remove_dir_all(&scratch);
        fs::create_dir_all(&scratch).unwrap();
        for entry in fs::read_dir(&base).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), scratch.join(entry.file_name())).unwrap();
        }
        FaultFile::new(scratch.join(segment.file_name().unwrap()))
            .torn_write(*offset)
            .unwrap();
        let mut svc = DurableArrangementService::open(
            &scratch,
            w.instance.clone(),
            policy_named("ts"),
            opts(),
        )
        .unwrap_or_else(|e| panic!("cut at boundary {k}: recovery failed: {e}"));
        assert!(
            svc.rounds_completed() <= KILL_ROUNDS,
            "cut at boundary {k}: recovered beyond the crash image"
        );
        run_pipelined(&mut svc, &w, Some(&churn), 4, KILL_END);
        assert_eq!(
            digest_single(&svc),
            reference_final,
            "cut at boundary {k}: pipelined continuation diverged"
        );
        drop(svc);
    }
}

// ---- serving crash with concurrent rounds in flight ----

fn serve_config() -> ServerConfig {
    ServerConfig {
        stats_interval: None,
        pipeline_depth: 4,
        claim_wait_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn open_serve_service(dir: &std::path::Path) -> DurableArrangementService {
    DurableArrangementService::open(
        dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .unwrap()
}

fn drive_wire(addr: &str, rounds: u64, fed: &AtomicU64) {
    let w = workload();
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap();
    loop {
        let claimed = client.claim().unwrap();
        if claimed.t >= rounds {
            client.release().unwrap();
            return;
        }
        let t = claimed.t;
        let arrival = w.arrivals.arrival(t);
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        w.instance.num_events() as u32,
                        w.instance.dim() as u32,
                        arrival.contexts.as_slice().to_vec(),
                    )
                    .unwrap()
                    .1
            }
        };
        let events: Vec<EventId> = arrangement.iter().map(|&v| EventId(v as usize)).collect();
        let accepts = accepts_for(&w, t, &events);
        client.feedback(&accepts).unwrap();
        fed.fetch_add(1, Ordering::Relaxed);
    }
}

fn wire_reference(rounds: u64) -> (u64, u64, u64) {
    let w = workload();
    let mut svc = ArrangementService::new(w.instance.clone(), Box::new(LinUcb::new(DIM, 1.0, 2.0)));
    for t in 0..rounds {
        let arrival = w.arrivals.arrival(t);
        let arrangement = svc.propose(&arrival).unwrap();
        let accepts = accepts_for(&w, t, arrangement.events());
        svc.feedback(&accepts).unwrap();
    }
    (
        svc.rounds_completed(),
        svc.accounting().total_arranged(),
        svc.accounting().total_rewards(),
    )
}

/// A `pipeline_depth = 4` server dies with ≥ 2 rounds in flight: the
/// head round's proposal is durably logged, and a *future* round is
/// granted with a buffered (speculatively scored) proposal that never
/// reached the WAL. Recovery must lose no acked round, hand the
/// pending proposal to the first claimant, drop the never-executed
/// future round without a trace, and the continuation must equal the
/// sequential in-process reference.
#[test]
fn pipelined_server_crash_with_rounds_in_flight_loses_no_acked_round() {
    const ROUNDS: u64 = 90;
    const CRASH_AT: u64 = 40;
    let dir = TempDir::new("pipe-par-serve-crash");
    let w = workload();

    // Phase 1: drive to the crash round, then strand two rounds.
    {
        let handle =
            Server::spawn(open_serve_service(&dir), "127.0.0.1:0", serve_config()).unwrap();
        let addr = handle.local_addr().to_string();
        let fed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drive_wire(&addr, CRASH_AT, &fed));
            }
        });
        assert_eq!(fed.load(Ordering::Relaxed), CRASH_AT);

        // Head round CRASH_AT: proposal logged, feedback never sent.
        let mut head = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        let claimed = head.claim().unwrap();
        assert_eq!(claimed.t, CRASH_AT);
        let arrival = w.arrivals.arrival(CRASH_AT);
        head.propose(
            arrival.capacity,
            w.instance.num_events() as u32,
            w.instance.dim() as u32,
            arrival.contexts.as_slice().to_vec(),
        )
        .unwrap();

        // Future round CRASH_AT + 1: granted concurrently, its proposal
        // buffered in the actor (LinUcb scores it speculatively) but
        // never executed — the second in-flight round at crash time.
        let mut future = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        let claimed = future.claim().unwrap();
        assert_eq!(
            claimed.t,
            CRASH_AT + 1,
            "depth-4 server must overlap grants"
        );
        let future_thread = std::thread::spawn(move || {
            let arrival = workload().arrivals.arrival(CRASH_AT + 1);
            // Withheld until promotion, which never comes: the reply is
            // an error once the server drains. Either way the proposal
            // was buffered first, which is what the crash image needs.
            let _ = future.propose(
                arrival.capacity,
                NUM_EVENTS as u32,
                DIM as u32,
                arrival.contexts.as_slice().to_vec(),
            );
        });
        // Let the actor buffer (and speculate on) the future proposal.
        std::thread::sleep(Duration::from_millis(300));

        drop(head);
        handle.initiate_shutdown();
        let report = handle.join();
        assert!(report.close.error.is_none());
        future_thread.join().unwrap();
    }

    // Phase 2: recovery. No acked round lost, the pending head proposal
    // survives, the buffered future round left no trace.
    let handle = Server::spawn(open_serve_service(&dir), "127.0.0.1:0", serve_config()).unwrap();
    let addr = handle.local_addr().to_string();
    let info = ServeClient::connect(addr.clone(), ClientConfig::default())
        .unwrap()
        .info()
        .unwrap();
    assert_eq!(info.rounds_completed, CRASH_AT, "an acked round was lost");
    assert!(
        info.has_pending,
        "the logged proposal must survive the crash"
    );

    let fed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| drive_wire(&addr, ROUNDS, &fed));
        }
    });
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS - CRASH_AT);

    let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        (
            stats.rounds_completed,
            stats.total_arranged,
            stats.total_rewards
        ),
        wire_reference(ROUNDS),
        "pipelined crash + resume must equal the sequential run"
    );

    handle.initiate_shutdown();
    assert!(handle.join().close.error.is_none());
}
