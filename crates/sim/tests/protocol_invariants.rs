//! Exhaustive small-model check of the [`ArrangementService`] protocol
//! state machine.
//!
//! The FASEA protocol (Definition 3) admits exactly one legal order:
//! propose, then feedback of matching length, strictly alternating.
//! This test enumerates *every* interleaving of
//! {propose, correct-length feedback, wrong-length feedback} up to a
//! fixed depth and checks each step against an independent mirror of
//! the protocol state: the exact `ServiceError` for illegal steps, and
//! that illegal steps leave `rounds_completed`, remaining capacities,
//! and the pending proposal untouched. A second section drives the
//! durable service through crash recovery with a proposal outstanding
//! and asserts the same discipline holds on the recovered pending
//! round.

use fasea_bandit::{LinUcb, Policy, RandomPolicy};
use fasea_core::{
    Arrangement, ConflictGraph, ContextMatrix, ProblemInstance, ProblemMode, UserArrival,
};
use fasea_sim::{ArrangementService, DurableArrangementService, DurableOptions, ServiceError};
use fasea_store::{FsyncPolicy, TempDir};

const NUM_EVENTS: usize = 4;
const DIM: usize = 2;
const DEPTH: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// A well-formed propose.
    Propose,
    /// Feedback whose length matches the pending arrangement (or 0 when
    /// nothing is pending — i.e. feedback-without-propose).
    FeedbackOk,
    /// Feedback whose length is pending-length + 1 (always wrong).
    FeedbackWrong,
}

const OPS: [Op; 3] = [Op::Propose, Op::FeedbackOk, Op::FeedbackWrong];

fn instance() -> ProblemInstance {
    ProblemInstance::new(
        vec![2; NUM_EVENTS],
        ConflictGraph::from_pairs(NUM_EVENTS, &[(0, 1)]),
        DIM,
        ProblemMode::Fasea,
    )
}

fn arrival(t: u64) -> UserArrival {
    let cells: Vec<f64> = (0..NUM_EVENTS * DIM)
        .map(|i| ((t as usize * NUM_EVENTS * DIM + i) % 7) as f64 / 7.0)
        .collect();
    UserArrival::new(2, ContextMatrix::from_rows(NUM_EVENTS, DIM, cells))
}

/// Independent mirror of the protocol state the service must maintain.
struct Mirror {
    rounds: u64,
    remaining: Vec<u32>,
    pending: Option<Arrangement>,
}

fn assert_feasible(arr: &Arrangement, remaining: &[u32], user_capacity: u32) {
    assert!(arr.len() <= user_capacity as usize, "over user capacity");
    let events = arr.events();
    for (i, &v) in events.iter().enumerate() {
        assert!(remaining[v.index()] > 0, "arranged a full event");
        assert!(
            !events[i + 1..].contains(&v),
            "duplicate event in arrangement"
        );
    }
    // The one conflict pair in the instance must never co-occur.
    let has = |idx: usize| events.iter().any(|v| v.index() == idx);
    assert!(!(has(0) && has(1)), "conflicting events arranged together");
}

/// Runs one op sequence against a fresh service, checking every step.
fn check_sequence(seq: &[Op], make_policy: &dyn Fn() -> Box<dyn Policy>) {
    let mut svc = ArrangementService::new(instance(), make_policy());
    let mut mirror = Mirror {
        rounds: 0,
        remaining: vec![2; NUM_EVENTS],
        pending: None,
    };
    for (step, &op) in seq.iter().enumerate() {
        let ctx = format!("seq {seq:?} step {step}");
        match op {
            Op::Propose => {
                let result = svc.propose(&arrival(mirror.rounds));
                match &mirror.pending {
                    Some(_) => assert!(
                        matches!(result, Err(ServiceError::FeedbackPending)),
                        "{ctx}: propose-on-pending must fail FeedbackPending, got {result:?}"
                    ),
                    None => {
                        let arr = result.unwrap_or_else(|e| panic!("{ctx}: legal propose: {e}"));
                        assert_feasible(&arr, &mirror.remaining, 2);
                        mirror.pending = Some(arr);
                    }
                }
            }
            Op::FeedbackOk => {
                let len = mirror.pending.as_ref().map_or(0, Arrangement::len);
                let accepts: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
                let result = svc.feedback(&accepts);
                match mirror.pending.take() {
                    Some(arr) => {
                        let reward =
                            result.unwrap_or_else(|e| panic!("{ctx}: legal feedback: {e}"));
                        let want: u32 = accepts.iter().filter(|&&b| b).count() as u32;
                        assert_eq!(reward, want, "{ctx}: reward must count accepts");
                        for (i, &v) in arr.events().iter().enumerate() {
                            if accepts[i] {
                                mirror.remaining[v.index()] -= 1;
                            }
                        }
                        mirror.rounds += 1;
                    }
                    None => assert!(
                        matches!(result, Err(ServiceError::NoPendingProposal)),
                        "{ctx}: feedback-without-propose must fail NoPendingProposal, \
                         got {result:?}"
                    ),
                }
            }
            Op::FeedbackWrong => {
                let len = mirror.pending.as_ref().map_or(0, Arrangement::len);
                let accepts = vec![true; len + 1];
                let result = svc.feedback(&accepts);
                match &mirror.pending {
                    Some(_) => assert!(
                        matches!(
                            result,
                            Err(ServiceError::FeedbackLengthMismatch { expected, got })
                                if expected == len && got == len + 1
                        ),
                        "{ctx}: wrong-length feedback must report the exact lengths, \
                         got {result:?}"
                    ),
                    None => assert!(
                        matches!(result, Err(ServiceError::NoPendingProposal)),
                        "{ctx}: feedback-without-propose must fail NoPendingProposal, \
                         got {result:?}"
                    ),
                }
            }
        }
        // Whatever happened, the observable state must match the mirror.
        assert_eq!(svc.rounds_completed(), mirror.rounds, "{ctx}: rounds");
        assert_eq!(svc.remaining(), &mirror.remaining[..], "{ctx}: capacities");
        assert_eq!(
            svc.has_pending(),
            mirror.pending.is_some(),
            "{ctx}: pending flag"
        );
        if let (Some((pending, _)), Some(want)) = (svc.pending(), mirror.pending.as_ref()) {
            assert_eq!(pending, want, "{ctx}: pending arrangement identity");
        }
    }
}

#[test]
fn every_interleaving_up_to_depth() {
    type PolicyFactory = Box<dyn Fn() -> Box<dyn Policy>>;
    let policies: [(&str, PolicyFactory); 2] = [
        ("ucb", Box::new(|| Box::new(LinUcb::new(DIM, 1.0, 2.0)))),
        ("random", Box::new(|| Box::new(RandomPolicy::new(11)))),
    ];
    for (_, make_policy) in &policies {
        let mut seq = vec![Op::Propose; DEPTH];
        let total = OPS.len().pow(DEPTH as u32);
        for code in 0..total {
            let mut c = code;
            for slot in seq.iter_mut() {
                *slot = OPS[c % OPS.len()];
                c /= OPS.len();
            }
            check_sequence(&seq, make_policy.as_ref());
        }
    }
}

/// Crash with a proposal outstanding, recover, and check that the
/// recovered pending round enforces the same protocol discipline.
#[test]
fn feedback_discipline_after_recovery_pending() {
    let dir = TempDir::new("protocol-invariants");
    let options = DurableOptions::new().with_fsync(FsyncPolicy::Always);
    let make_policy = || -> Box<dyn Policy> { Box::new(LinUcb::new(DIM, 1.0, 2.0)) };

    let arr_len = {
        let mut svc =
            DurableArrangementService::open(&dir, instance(), make_policy(), options).unwrap();
        // One full round, then a proposal left hanging ("crash": drop
        // without close; the WAL already holds both records).
        let first = svc.propose(&arrival(0)).unwrap();
        svc.feedback(&vec![true; first.len()]).unwrap();
        svc.propose(&arrival(1)).unwrap().len()
    };

    let mut svc =
        DurableArrangementService::open(&dir, instance(), make_policy(), options).unwrap();
    assert_eq!(svc.rounds_completed(), 1, "completed round must survive");
    assert!(svc.has_pending(), "outstanding proposal must be recovered");
    assert_eq!(svc.pending_arrangement().unwrap().len(), arr_len);

    // Propose on the recovered pending round: refused, state unchanged.
    let result = svc.propose(&arrival(1));
    assert!(matches!(result, Err(ServiceError::FeedbackPending)));
    assert_eq!(svc.rounds_completed(), 1);
    assert!(svc.has_pending());

    // Wrong-length feedback: exact error, pending preserved.
    let result = svc.feedback(&vec![true; arr_len + 1]);
    assert!(matches!(
        result,
        Err(ServiceError::FeedbackLengthMismatch { expected, got })
            if expected == arr_len && got == arr_len + 1
    ));
    assert_eq!(svc.rounds_completed(), 1);
    assert!(svc.has_pending());

    // Correct feedback completes the recovered round.
    svc.feedback(&vec![true; arr_len]).unwrap();
    assert_eq!(svc.rounds_completed(), 2);
    assert!(!svc.has_pending());

    // And feedback-without-propose is refused again afterwards.
    assert!(matches!(
        svc.feedback(&[]),
        Err(ServiceError::NoPendingProposal)
    ));
}
