//! Golden spill-determinism test: a store-backed personalized policy
//! run under a *tiny* memory budget — forcing constant COW
//! materialization, quantized demotion, warm eviction, and spill-log
//! faulting — must be **bit-equal** to the same run with an unbounded
//! store, for every observable: the arrangement digest, the regret
//! accounting, the OPT co-simulation, the complete serialized policy
//! state, and (for Thompson Sampling) the posterior-RNG position.
//!
//! This is the `fasea-models` headline contract (residency is a cache,
//! never an approximation, on the decision path), checked through the
//! real multi-user runner across both shipped policies. The budget is
//! sized so the test is vacuous-proof: it asserts the constrained run
//! actually demoted, evicted, and faulted.

use fasea::bandit::Policy;
use fasea::datagen::{MultiUserConfig, MultiUserWorkload, SyntheticConfig};
use fasea::models::{
    EstimatorStore, PersonalizedTs, PersonalizedUcb, StoreConfig, StoreStats, UserSchedule,
};
use fasea::sim::run_multi_user_stored;
use fasea::stats::crn::mix64;
use fasea::store::TempDir;
use std::path::Path;

const DIM: usize = 5;
const HORIZON: u64 = 1500;
const SEED: u64 = 0x60_1DE2;

fn workload() -> MultiUserWorkload {
    MultiUserWorkload::generate(MultiUserConfig {
        base: SyntheticConfig {
            num_events: 25,
            dim: DIM,
            seed: SEED,
            ..Default::default()
        },
        population: 60,
        heterogeneity: 0.9,
    })
}

/// One exact d=5 model is (2·25 + 3·5)·8 = 520 bytes plus estimator
/// overhead; a hot budget of 2 KiB holds only a couple of models for a
/// population of 60, so nearly every round faults, and a warm budget of
/// 256 bytes keeps the quantized tier churning too.
fn tiny_budget(dir: &Path) -> StoreConfig {
    StoreConfig::bounded(DIM, 1.0, 2048, 256, dir)
}

fn schedule() -> UserSchedule {
    let w = workload();
    UserSchedule::new(w.schedule_seed(), w.population())
}

fn open(config: StoreConfig) -> EstimatorStore {
    EstimatorStore::new(config).expect("open store")
}

/// Runs the budgeted and the unbounded instance of one policy over the
/// same workload and asserts bit-equality of everything observable,
/// plus the vacuity guards. Returns nothing: panics describe the first
/// divergence.
fn check_pair<P: Policy>(
    tag: &str,
    mut budgeted: P,
    mut unbounded: P,
    stats_of: impl Fn(&P) -> StoreStats,
) {
    let w = workload();
    let rb = run_multi_user_stored(&w, &mut budgeted, HORIZON, SEED ^ 0xFB);
    let ru = run_multi_user_stored(&w, &mut unbounded, HORIZON, SEED ^ 0xFB);

    // Bit-equality of everything observable.
    assert_eq!(
        rb.arrangement_digest, ru.arrangement_digest,
        "{tag}: arrangements diverged under the memory budget"
    );
    assert_eq!(
        rb.accounting.total_rewards(),
        ru.accounting.total_rewards(),
        "{tag}: rewards diverged"
    );
    assert_eq!(
        rb.accounting.total_arranged(),
        ru.accounting.total_arranged(),
        "{tag}: arranged totals diverged"
    );
    assert_eq!(rb.opt_rewards, ru.opt_rewards, "{tag}: OPT diverged");
    assert_eq!(
        budgeted.save_state(),
        unbounded.save_state(),
        "{tag}: serialized policy state diverged"
    );

    // Vacuity guard: the budget must have actually bound.
    let stats = stats_of(&budgeted);
    assert_eq!(stats.users, 60, "{tag}: population not fully seen");
    assert!(
        stats.demotions > 100,
        "{tag}: budget never demoted (demotions={})",
        stats.demotions
    );
    assert!(
        stats.evictions > 10,
        "{tag}: warm tier never evicted (evictions={})",
        stats.evictions
    );
    assert!(
        stats.faults > 100,
        "{tag}: spill never faulted back (faults={})",
        stats.faults
    );
    let unbounded_stats = stats_of(&unbounded);
    assert_eq!(unbounded_stats.demotions, 0);
    assert_eq!(unbounded_stats.spilled, 0);
}

#[test]
fn tiny_budget_ucb_run_is_bit_equal_to_unbounded() {
    let dir = TempDir::new("models-golden-ucb");
    check_pair(
        "ucb",
        PersonalizedUcb::new(open(tiny_budget(&dir)), schedule(), 2.0),
        PersonalizedUcb::new(open(StoreConfig::unbounded(DIM, 1.0)), schedule(), 2.0),
        |p| p.store().stats(),
    );
}

#[test]
fn tiny_budget_ts_run_is_bit_equal_to_unbounded() {
    let seed = mix64(SEED ^ 0x75);
    let dir = TempDir::new("models-golden-ts");
    let budgeted = PersonalizedTs::new(open(tiny_budget(&dir)), schedule(), 0.1, seed);
    let unbounded = PersonalizedTs::new(
        open(StoreConfig::unbounded(DIM, 1.0)),
        schedule(),
        0.1,
        seed,
    );
    check_pair("ts", budgeted, unbounded, |p| p.store().stats());
}

#[test]
fn ts_posterior_rng_position_is_residency_independent() {
    // The TS Gaussian stream is positional (d draws per round) — a
    // budgeted and an unbounded run end at the same RNG state even
    // though their residency histories differ completely.
    let seed = mix64(SEED ^ 0x75);
    let dir = TempDir::new("models-golden-ts-rng");
    let mut budgeted = PersonalizedTs::new(open(tiny_budget(&dir)), schedule(), 0.1, seed);
    let mut unbounded = PersonalizedTs::new(
        open(StoreConfig::unbounded(DIM, 1.0)),
        schedule(),
        0.1,
        seed,
    );
    let w = workload();
    let _ = run_multi_user_stored(&w, &mut budgeted, 500, SEED ^ 0xFB);
    let _ = run_multi_user_stored(&w, &mut unbounded, 500, SEED ^ 0xFB);
    assert_eq!(budgeted.rng_digest(), unbounded.rng_digest());
}

#[test]
fn budgeted_state_restores_into_an_unbounded_store_and_continues_in_lockstep() {
    // Crash-safe restore across *different* budget configurations: a
    // blob saved mid-run by the tiny-budget policy restores into a
    // fresh unbounded policy losslessly.
    let seed = mix64(SEED ^ 0x75);
    let w = workload();
    let dir = TempDir::new("models-golden-restore");
    let mut budgeted = PersonalizedTs::new(open(tiny_budget(&dir)), schedule(), 0.1, seed);
    let _ = run_multi_user_stored(&w, &mut budgeted, 400, SEED ^ 0xFB);

    let blob = budgeted.save_state();
    let mut resumed = PersonalizedTs::new(
        open(StoreConfig::unbounded(DIM, 1.0)),
        schedule(),
        0.1,
        seed,
    );
    resumed
        .restore_state(&blob)
        .expect("restore across budget configurations");
    assert_eq!(blob, resumed.save_state(), "restore is not lossless");
}
