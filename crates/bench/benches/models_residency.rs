//! Million-user estimator store: residency accounting, COW
//! materialization rate, and the steady-state cost of running a
//! personalized round mix under a memory budget.
//!
//! Two phases per cell:
//!
//! * **seed** — every user in the population observes one reward
//!   through [`EstimatorStore::observe`]. In flat mode the store
//!   materializes `U` distinct private models (and, under a budget,
//!   demotes/spills the overflow as it goes) — the store's worst case.
//!   In cohort mode the same observation *folds* into the user's
//!   cohort prior instead, so the seed phase prices the fold path at
//!   zero private bytes per user.
//! * **steady** — the hash schedule of the multi-user workload replays
//!   a select + observe round mix for a fixed time budget. Warm/spilled
//!   users fault exact bits (or, in sketched mode, reconstruct from
//!   rank-r sketch records) back in, so this prices the fault path at
//!   the cell's residency ratio.
//!
//! Four cells per population: unbounded-exact-flat (the memory
//! ceiling), bounded-exact-flat (the PR-9 baseline), bounded-exact
//! with a cohort prior chain, and bounded-sketched with cohorts — the
//! last two document what the three-level chain and the sublinear
//! warm tier buy at the same budget.
//!
//! Every cell states the work it did: `cohort_folds` observations went
//! into a shared cohort prior and `private_updates` (all observations
//! minus the folds) into a user's own model. A cohort cell whose users
//! mostly stay below `COHORT_FOLDS` observations is mostly folds, so its
//! throughput is not comparable with a flat cell's.
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_models.json cargo bench --bench models_residency
//! ```
//!
//! `FASEA_BENCH_USERS` scales the full population (default 1 000 000);
//! `FASEA_BENCH_MS` bounds the steady-phase budget per cell (default
//! 300 ms) so CI can smoke-run the file without touching committed
//! numbers; `FASEA_BENCH_COHORTS` overrides the cohort count of the
//! cohort cells (default 256).

use fasea_bench::harness::{budget, fixed, Cell, Table};
use fasea_models::{EstimatorStore, StoreConfig, UserId, UserSchedule};
use fasea_stats::crn::mix64;
use fasea_store::TempDir;
use std::hint::black_box;
use std::time::{Duration, Instant};

const DIM: usize = 8;
const LAMBDA: f64 = 1.0;
const HOT_BUDGET: usize = 64 << 20;
const WARM_BUDGET: usize = 16 << 20;
/// Observations a cold user folds into its cohort prior before
/// materializing — matches the `fasea-exp multi-user` default.
const COHORT_FOLDS: u64 = 8;
const SKETCH_RANK: usize = 4;

fn full_population() -> usize {
    std::env::var("FASEA_BENCH_USERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1_000_000)
        .max(100)
}

fn cohort_count() -> usize {
    std::env::var("FASEA_BENCH_COHORTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256)
        .max(1)
}

/// A cheap deterministic context vector for round `t` (unit-scale
/// entries; the store does not care about its statistics).
fn context(t: u64, x: &mut [f64]) {
    let mut h = mix64(t ^ 0xC0DE);
    for v in x.iter_mut() {
        h = mix64(h);
        *v = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// One bench configuration: tier budget × prior chain × state
/// representation.
#[derive(Clone, Copy)]
struct Mode {
    bounded: bool,
    cohorts: usize,
    sketched: bool,
}

impl Mode {
    fn state(&self) -> &'static str {
        if self.sketched {
            "sketched"
        } else {
            "exact"
        }
    }

    fn tag(&self) -> String {
        format!(
            "{}-{}-c{}",
            if self.bounded { "bounded" } else { "unbounded" },
            self.state(),
            self.cohorts
        )
    }
}

fn run_cell(population: usize, mode: Mode, steady_budget: Duration) -> Cell {
    let dir = TempDir::new(&format!("bench-models-{population}-{}", mode.tag()));
    let mut config = if mode.bounded {
        StoreConfig::bounded(DIM, LAMBDA, HOT_BUDGET, WARM_BUDGET, &dir)
    } else {
        StoreConfig::unbounded(DIM, LAMBDA)
    };
    if mode.cohorts > 0 {
        config = config.with_cohorts(mode.cohorts, mix64(0xC040_0947), COHORT_FOLDS);
    }
    if mode.sketched {
        config = config.with_sketched(SKETCH_RANK);
    }
    let mut store = EstimatorStore::new(config).expect("open store");
    let mut x = vec![0.0f64; DIM];

    // Seed: one observation per user — a COW materialization in flat
    // mode, a cohort fold in cohort mode. Budget enforced as the
    // runner does after every observe.
    let seed_start = Instant::now();
    for u in 0..population as u64 {
        context(u, &mut x);
        let h = store.resolve(UserId(u));
        store.observe(h, &x, (u % 2) as f64, u).expect("observe");
        store.enforce_budget(u).expect("budget enforcement");
    }
    let seed_secs = seed_start.elapsed().as_secs_f64().max(1e-9);

    // Steady state: the multi-user hash schedule, one select + one
    // observe per round, until the time budget is spent.
    let schedule = UserSchedule::new(mix64(0x5EED ^ population as u64), population);
    let mut t = population as u64;
    let steady_start = Instant::now();
    let mut steady_rounds = 0u64;
    while steady_start.elapsed() < steady_budget {
        for _ in 0..256 {
            let user = UserId(schedule.user_at(t));
            context(t, &mut x);
            let h = store.resolve(user);
            let est = store.estimator_for_select(h, t).expect("select access");
            black_box(est.point_estimate(&x));
            store.observe(h, &x, (t % 2) as f64, t).expect("observe");
            store.enforce_budget(t).expect("budget enforcement");
            t += 1;
            steady_rounds += 1;
        }
    }
    let steady_secs = steady_start.elapsed().as_secs_f64().max(1e-9);

    let stats = store.stats();
    assert_eq!(stats.users, population, "every user must be interned");
    if mode.cohorts == 0 {
        // Flat chain: the seed phase COW-materializes everybody.
        assert_eq!(stats.cold, 0, "seed phase leaves no cold users");
    } else {
        // Cohort chain: one seed observation < COHORT_FOLDS, so users
        // stay cold until the steady mix pushes them past the
        // threshold — the fold and hit counters must show the cohort
        // tier actually carried traffic.
        assert!(stats.cohorts_materialized > 0, "no cohort materialized");
        assert!(stats.cohort_folds > 0, "no observations folded");
        assert!(stats.cohort_hits > 0, "no selects served by a cohort");
    }
    if mode.bounded {
        assert!(
            stats.hot_bytes <= HOT_BUDGET && stats.warm_bytes <= WARM_BUDGET,
            "tier accounting over budget: hot {}B/{}B warm {}B/{}B",
            stats.hot_bytes,
            HOT_BUDGET,
            stats.warm_bytes,
            WARM_BUDGET
        );
    }
    if mode.sketched && stats.faults > 0 {
        assert!(
            stats.sketch_promotions > 0,
            "sketched cell faulted {} times without a sketch promotion",
            stats.faults
        );
    }
    let observations = population as u64 + steady_rounds;
    vec![
        ("population", population.into()),
        ("bounded", mode.bounded.into()),
        ("cohorts", mode.cohorts.into()),
        ("state", mode.state().into()),
        (
            "sketch_rank",
            if mode.sketched { SKETCH_RANK } else { 0 }.into(),
        ),
        (
            "seed_users_per_sec",
            fixed(population as f64 / seed_secs, 0),
        ),
        (
            "steady_rounds_per_sec",
            fixed(steady_rounds as f64 / steady_secs, 0),
        ),
        ("steady_rounds", steady_rounds.into()),
        (
            "resident_mb",
            fixed(store.resident_bytes() as f64 / (1 << 20) as f64, 1),
        ),
        (
            "spill_file_mb",
            fixed(stats.spill_file_bytes as f64 / (1 << 20) as f64, 1),
        ),
        ("cold", stats.cold.into()),
        ("hot", stats.hot.into()),
        ("warm", stats.warm.into()),
        ("spilled", stats.spilled.into()),
        ("faults", stats.faults.into()),
        ("demotions", stats.demotions.into()),
        ("evictions", stats.evictions.into()),
        ("cohort_hits", stats.cohort_hits.into()),
        ("cohort_folds", stats.cohort_folds.into()),
        (
            "private_updates",
            (observations - stats.cohort_folds).into(),
        ),
    ]
}

fn main() {
    let steady_budget = budget();
    let full = full_population();
    let cohorts = cohort_count();

    let modes = [
        Mode {
            bounded: false,
            cohorts: 0,
            sketched: false,
        },
        Mode {
            bounded: true,
            cohorts: 0,
            sketched: false,
        },
        Mode {
            bounded: true,
            cohorts,
            sketched: false,
        },
        Mode {
            bounded: true,
            cohorts,
            sketched: true,
        },
    ];
    let mut table = Table::new("models_residency", "users_or_rounds_per_sec")
        .meta("dim", DIM)
        .meta("hot_budget_mb", HOT_BUDGET >> 20)
        .meta("warm_budget_mb", WARM_BUDGET >> 20);
    for population in [(full / 10).max(100), full] {
        for mode in modes {
            table.push(run_cell(population, mode, steady_budget));
        }
    }
    table.finish();
}
