//! Crash-and-reopen walkthrough for [`fasea::DurableArrangementService`].
//!
//! The demo runs the FASEA loop against a WAL-backed service, "crashes"
//! it twice — once between rounds and once with a proposal outstanding
//! — and reopens it each time, printing what recovery found. At the end
//! it re-runs the same seed without any crash and shows that the regret
//! accounting is identical: durability is invisible to the learner.
//!
//! ```text
//! cargo run --release --example durable_service
//! ```

use fasea::bandit::{Policy, ThompsonSampling};
use fasea::core::{
    Arrangement, ConflictGraph, ContextMatrix, ProblemInstance, ProblemMode, UserArrival,
};
use fasea::sim::DurableOptions;
use fasea::store::TempDir;
use fasea::{DurableArrangementService, FsyncPolicy};
use std::path::Path;

const NUM_EVENTS: usize = 10;
const DIM: usize = 4;
const SEED: u64 = 42;

fn instance() -> ProblemInstance {
    ProblemInstance::new(
        vec![40; NUM_EVENTS],
        ConflictGraph::from_pairs(NUM_EVENTS, &[(0, 1), (4, 9)]),
        DIM,
        ProblemMode::Fasea,
    )
}

fn policy() -> Box<dyn Policy> {
    Box::new(ThompsonSampling::new(DIM, 1.0, 0.1, SEED))
}

fn options() -> DurableOptions {
    DurableOptions::new()
        .with_segment_bytes(16 << 10) // small segments so rotation shows up
        .with_fsync(FsyncPolicy::EveryN(8))
        .with_snapshots_kept(2)
}

fn arrival(round: u64) -> UserArrival {
    let mut ctx = ContextMatrix::from_fn(NUM_EVENTS, DIM, |v, j| {
        (((round as usize * 11 + v * 3 + j * 5) % 13) as f64) / 13.0 - 0.3
    });
    ctx.normalize_rows();
    UserArrival::new(3, ctx)
}

/// The hidden acceptance rule standing in for real users.
fn accepts(round: u64, a: &Arrangement) -> Vec<bool> {
    a.iter()
        .map(|v| (round as usize + v.index()).is_multiple_of(2))
        .collect()
}

fn open(dir: &Path) -> DurableArrangementService {
    DurableArrangementService::open(dir, instance(), policy(), options()).expect("open")
}

fn run_until(svc: &mut DurableArrangementService, upto: u64) {
    while svc.rounds_completed() < upto {
        let round = svc.rounds_completed();
        let a = match svc.pending_arrangement() {
            Some(p) => p.clone(), // a recovered mid-round proposal
            None => svc.propose(&arrival(round)).expect("propose"),
        };
        svc.feedback(&accepts(round, &a)).expect("feedback");
    }
}

fn main() {
    let dir = TempDir::new("durable-demo");

    println!("durable service in {}", dir.display());

    // Phase 1: 30 rounds, snapshot, then "crash" (drop without closing).
    {
        let mut svc = open(&dir);
        run_until(&mut svc, 30);
        let snap = svc.snapshot().expect("snapshot");
        println!(
            "ran 30 rounds, snapshot at {} (WAL seq {})",
            snap.file_name().unwrap().to_string_lossy(),
            svc.next_seq()
        );
        run_until(&mut svc, 45);
        println!("ran to round 45, crashing between rounds…");
    }

    // Phase 2: recover, run on, crash again mid-proposal.
    {
        let mut svc = open(&dir);
        println!(
            "reopened: {} rounds recovered, pending proposal: {}",
            svc.rounds_completed(),
            svc.has_pending()
        );
        run_until(&mut svc, 60);
        let a = svc.propose(&arrival(60)).expect("propose");
        println!(
            "proposed {:?} for round 60, crashing before feedback…",
            a.events()
        );
    }

    // Phase 3: the outstanding proposal survives the crash — FASEA
    // arrangements are irrevocable, so recovery re-surfaces it instead
    // of silently drawing a new one.
    let final_acc = {
        let mut svc = open(&dir);
        let pending = svc.pending_arrangement().expect("pending survived").clone();
        println!(
            "reopened: round {} proposal {:?} recovered as pending",
            svc.rounds_completed(),
            pending.events()
        );
        svc.feedback(&accepts(60, &pending)).expect("feedback");
        run_until(&mut svc, 100);
        *svc.service().accounting()
    };
    println!(
        "crashed run finished: {} rounds, {} arranged, {} accepted (ratio {:.3})",
        final_acc.rounds(),
        final_acc.total_arranged(),
        final_acc.total_rewards(),
        final_acc.accept_ratio()
    );

    // Control: same seed, no crashes, fresh directory.
    let control_dir = dir.join("control");
    let control_acc = {
        let mut svc = open(&control_dir);
        run_until(&mut svc, 100);
        *svc.service().accounting()
    };
    assert_eq!(
        final_acc, control_acc,
        "crash-recovered accounting must match the uninterrupted run"
    );
    println!("uninterrupted control run matches exactly — recovery is lossless.");
}
