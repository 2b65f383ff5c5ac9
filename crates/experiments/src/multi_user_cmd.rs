//! `fasea-exp multi-user` — drive a population of recurring users
//! through a store-backed personalized policy (`fasea-models`).
//!
//! ```text
//! fasea-exp multi-user [--users N] [--t N] [--events N] [--dim D]
//!                      [--seed S] [--heterogeneity H]
//!                      [--policy multi-ucb|multi-ts]
//!                      [--budget-mb M] [--warm-budget-kb K]
//!                      [--cohorts N] [--cohort-folds K]
//!                      [--state exact|sketched] [--sketch-rank R]
//!                      [--spill-dir DIR] [--verify-determinism 0|1]
//! ```
//!
//! With `--budget-mb 0` (the default) every materialized model stays
//! hot. A positive budget bounds the exact-f64 tier to that many
//! mebibytes (and the quantized warm tier to `--warm-budget-kb`,
//! default a quarter of the hot budget), spilling the overflow through
//! the CRC-framed spill log under `--spill-dir` (default: a
//! process-private temp directory, removed afterwards).
//!
//! `--cohorts N` turns on the three-level cohort prior chain: users
//! hash into `N` cohorts, each cold user's first `--cohort-folds`
//! observations train a shared per-cohort prior instead of
//! materializing private state, and cold selections read through the
//! cohort. `--state sketched` additionally demotes private state as a
//! rank-`--sketch-rank` frequent-directions sketch (`O(r·d)` warm
//! bytes instead of `O(d²)`), reconstructed against the cohort prior
//! on promotion.
//!
//! `--verify-determinism 1` runs the same workload twice — once under
//! the budget, once unbounded — and asserts bit-equality of the
//! arrangement digest, the accounting, the OPT co-simulation, and the
//! full policy state blob (estimator bits; for TS also the RNG
//! position): the store's headline contract, checked end to end from
//! the command line. In `--state sketched` the budgeted run is lossy
//! by design (sketch reconstruction), so the check relaxes to *regret
//! parity*: the budgeted run's regret must stay within tolerance of
//! the exact-state control run.

use crate::serve_cmd::{parse_flags, parse_u64};
use fasea_bandit::Policy;
use fasea_datagen::{MultiUserConfig, MultiUserWorkload, SyntheticConfig};
use fasea_models::{
    EstimatorStore, PersonalizedTs, PersonalizedUcb, StoreConfig, StoreStats, UserSchedule,
};
use fasea_sim::{run_multi_user_stored, AsciiTable, MultiUserRunResult};
use fasea_stats::crn::mix64;
use fasea_store::TempDir;
use std::path::{Path, PathBuf};

/// Parsed flags of the `multi-user` subcommand.
#[derive(Debug, Clone)]
pub struct MultiUserSpec {
    /// Population size `U`.
    pub users: usize,
    /// Rounds to run.
    pub horizon: u64,
    /// Events `|V|`.
    pub events: usize,
    /// Context dimension `d`.
    pub dim: usize,
    /// Master seed.
    pub seed: u64,
    /// Population heterogeneity `h ∈ [0, 1]`.
    pub heterogeneity: f64,
    /// `multi-ucb` or `multi-ts`.
    pub policy: String,
    /// Hot-tier budget in MiB (0 = unbounded).
    pub budget_mb: u64,
    /// Warm-tier budget in KiB (0 = a quarter of the hot budget).
    pub warm_budget_kb: u64,
    /// Cohort count for the prior chain (0 = flat, no cohorts).
    pub cohorts: usize,
    /// Cold observations folded into the cohort prior before a user
    /// COW-materializes (only meaningful with `cohorts > 0`).
    pub cohort_folds: u64,
    /// Per-user state mode: `exact` or `sketched`.
    pub state: String,
    /// Sketch rank `r` (only meaningful with `--state sketched`).
    pub sketch_rank: usize,
    /// Spill directory (`None` = process-private temp, removed after).
    pub spill_dir: Option<PathBuf>,
    /// Re-run unbounded and assert bit-equality.
    pub verify_determinism: bool,
}

impl Default for MultiUserSpec {
    fn default() -> Self {
        MultiUserSpec {
            users: 10_000,
            horizon: 50_000,
            events: 50,
            dim: 8,
            seed: 0x00FA_5EA0_0517,
            heterogeneity: 0.8,
            policy: "multi-ucb".into(),
            budget_mb: 0,
            warm_budget_kb: 0,
            cohorts: 0,
            cohort_folds: 8,
            state: "exact".into(),
            sketch_rank: 4,
            spill_dir: None,
            verify_determinism: false,
        }
    }
}

/// A store-backed policy, kept as a concrete enum so the driver can
/// reach the [`EstimatorStore`] for stats after the run (the `Policy`
/// trait alone does not expose it).
pub enum StorePolicy {
    /// Per-user UCB.
    Ucb(PersonalizedUcb),
    /// Per-user Thompson Sampling.
    Ts(PersonalizedTs),
}

impl StorePolicy {
    /// The policy as a trait object for the runner.
    pub fn as_policy_mut(&mut self) -> &mut dyn Policy {
        match self {
            StorePolicy::Ucb(p) => p,
            StorePolicy::Ts(p) => p,
        }
    }

    /// The backing store.
    pub fn store(&self) -> &EstimatorStore {
        match self {
            StorePolicy::Ucb(p) => p.store(),
            StorePolicy::Ts(p) => p.store(),
        }
    }

    /// Full state blob (estimator bits; for TS also the RNG state).
    pub fn save_state(&self) -> Vec<u8> {
        match self {
            StorePolicy::Ucb(p) => p.save_state(),
            StorePolicy::Ts(p) => p.save_state(),
        }
    }

    /// TS posterior-RNG digest (None for UCB).
    pub fn rng_digest(&self) -> Option<u64> {
        match self {
            StorePolicy::Ucb(_) => None,
            StorePolicy::Ts(p) => Some(p.rng_digest()),
        }
    }
}

impl MultiUserSpec {
    /// Generates the deterministic multi-user workload for this spec.
    pub fn workload(&self) -> MultiUserWorkload {
        MultiUserWorkload::generate(MultiUserConfig {
            base: SyntheticConfig {
                num_events: self.events,
                dim: self.dim,
                seed: self.seed,
                ..Default::default()
            },
            population: self.users,
            heterogeneity: self.heterogeneity,
        })
    }

    /// The deterministic cohort salt of this spec — derived from the
    /// master seed with a constant distinct from the schedule salt, so
    /// cohort assignment and round→user mapping stay independent.
    pub fn cohort_salt(&self) -> u64 {
        mix64(self.seed ^ 0xC040_0947)
    }

    fn store_config(&self, spill_dir: Option<&Path>) -> Result<StoreConfig, String> {
        let mut config = if self.budget_mb == 0 {
            StoreConfig::unbounded(self.dim, 1.0)
        } else {
            let dir = spill_dir.ok_or("a bounded budget needs a spill directory")?;
            let hot = (self.budget_mb as usize) << 20;
            let warm = if self.warm_budget_kb > 0 {
                (self.warm_budget_kb as usize) << 10
            } else {
                hot / 4
            };
            StoreConfig::bounded(self.dim, 1.0, hot, warm, dir)
        };
        if self.cohorts > 0 {
            config = config.with_cohorts(self.cohorts, self.cohort_salt(), self.cohort_folds);
        }
        match self.state.as_str() {
            "exact" => {}
            "sketched" => config = config.with_sketched(self.sketch_rank),
            other => return Err(format!("unknown state '{other}' (exact|sketched)")),
        }
        Ok(config)
    }

    /// Builds the store-backed policy for this spec. `spill_dir` is
    /// required iff `budget_mb > 0`.
    pub fn build_policy(&self, spill_dir: Option<&Path>) -> Result<StorePolicy, String> {
        let config = self.store_config(spill_dir)?;
        let store = EstimatorStore::new(config).map_err(|e| format!("open store: {e}"))?;
        // Same salt as MultiUserWorkload::generate, so policy and
        // workload agree on who arrives at every round.
        let schedule = UserSchedule::new(mix64(self.seed ^ 0x5C4E_D01E), self.users);
        match self.policy.as_str() {
            "multi-ucb" => Ok(StorePolicy::Ucb(PersonalizedUcb::new(store, schedule, 2.0))),
            "multi-ts" => Ok(StorePolicy::Ts(PersonalizedTs::new(
                store,
                schedule,
                0.1,
                mix64(self.seed ^ 0x7507_11CE),
            ))),
            other => Err(format!("unknown policy '{other}' (multi-ucb|multi-ts)")),
        }
    }
}

/// Entry point of `fasea-exp multi-user`.
///
/// # Errors
/// Flag parse failures, store open failures, or — under
/// `--verify-determinism 1` — any bit divergence between the budgeted
/// and the unbounded run.
pub fn multi_user_main(args: &[String]) -> Result<(), String> {
    let mut spec = MultiUserSpec::default();
    for (flag, value) in parse_flags(args)? {
        match flag.as_str() {
            "users" => spec.users = parse_u64(&flag, &value)? as usize,
            "t" => spec.horizon = parse_u64(&flag, &value)?,
            "events" => spec.events = parse_u64(&flag, &value)? as usize,
            "dim" => spec.dim = parse_u64(&flag, &value)? as usize,
            "seed" => spec.seed = parse_u64(&flag, &value)?,
            "heterogeneity" => {
                spec.heterogeneity = value
                    .parse::<f64>()
                    .map_err(|_| format!("invalid number '{value}' for --heterogeneity"))?
            }
            "policy" => spec.policy = value,
            "budget-mb" => spec.budget_mb = parse_u64(&flag, &value)?,
            "warm-budget-kb" => spec.warm_budget_kb = parse_u64(&flag, &value)?,
            "cohorts" => spec.cohorts = parse_u64(&flag, &value)? as usize,
            "cohort-folds" => spec.cohort_folds = parse_u64(&flag, &value)?,
            "state" => spec.state = value,
            "sketch-rank" => spec.sketch_rank = parse_u64(&flag, &value)? as usize,
            "spill-dir" => spec.spill_dir = Some(value.into()),
            "verify-determinism" => spec.verify_determinism = value == "1" || value == "true",
            other => return Err(format!("unknown flag --{other} for multi-user")),
        }
    }

    // Without --spill-dir the run spills into a scratch directory that
    // is removed when it ends.
    let scratch;
    let spill_dir = match &spec.spill_dir {
        Some(dir) => dir.as_path(),
        None => {
            scratch = TempDir::new("multi-user");
            &*scratch
        }
    };
    print!("{}", run_spec(&spec, spill_dir)?);
    Ok(())
}

/// Runs the spec (and, if requested, the unbounded control run),
/// returning the rendered report. Split from [`multi_user_main`] so
/// tests can exercise the full path without a process.
pub fn run_spec(spec: &MultiUserSpec, spill_dir: &Path) -> Result<String, String> {
    let workload = spec.workload();
    let spill = (spec.budget_mb > 0).then_some(spill_dir);
    let mut policy = spec.build_policy(spill)?;
    let result = run_multi_user_stored(
        &workload,
        policy.as_policy_mut(),
        spec.horizon,
        spec.seed ^ 0xFB,
    );

    let mut out = String::new();
    let mut table = AsciiTable::new(&[
        "policy", "users", "rounds", "rewards", "OPT", "regret", "digest",
    ]);
    let regret = result.opt_rewards as i64 - result.accounting.total_rewards() as i64;
    table.row(vec![
        spec.policy.clone(),
        spec.users.to_string(),
        result.accounting.rounds().to_string(),
        result.accounting.total_rewards().to_string(),
        result.opt_rewards.to_string(),
        regret.to_string(),
        format!("{:#018x}", result.arrangement_digest),
    ]);
    out.push_str(&table.render());
    out.push_str(&render_store_stats(&policy.store().stats()));

    if spec.verify_determinism {
        let control_spec = MultiUserSpec {
            budget_mb: 0,
            warm_budget_kb: 0,
            state: "exact".into(),
            ..spec.clone()
        };
        let mut control = control_spec.build_policy(None)?;
        let control_result = run_multi_user_stored(
            &workload,
            control.as_policy_mut(),
            spec.horizon,
            spec.seed ^ 0xFB,
        );
        if spec.state == "sketched" {
            // Sketch reconstruction is lossy by design; the gate is
            // regret parity with the exact-state control run.
            verify_regret_parity(&result, &control_result)?;
            out.push_str("determinism: OK — sketched run regret within tolerance of exact run\n");
        } else {
            verify_bit_equal(&result, &control_result, &policy, &control)?;
            out.push_str("determinism: OK — budgeted run bit-equal to unbounded run\n");
        }
    }
    Ok(out)
}

/// Asserts the sketched run's regret stays within tolerance of the
/// exact-state control run: the absolute regret gap must not exceed
/// 2% of OPT plus a small-horizon slack.
pub fn verify_regret_parity(
    sketched: &MultiUserRunResult,
    exact: &MultiUserRunResult,
) -> Result<(), String> {
    let regret =
        |r: &MultiUserRunResult| r.opt_rewards as i64 - r.accounting.total_rewards() as i64;
    let gap = (regret(sketched) - regret(exact)).abs();
    let tolerance = (exact.opt_rewards as f64 * 0.02).ceil() as i64 + 25;
    if gap > tolerance {
        return Err(format!(
            "sketched regret diverged: sketched {} vs exact {} (gap {gap} > tolerance {tolerance})",
            regret(sketched),
            regret(exact)
        ));
    }
    Ok(())
}

/// Asserts the budgeted and unbounded runs are bit-equal:
/// arrangements, accounting, OPT, the complete policy state blob and
/// (for TS) the posterior-RNG position.
pub fn verify_bit_equal(
    budgeted: &MultiUserRunResult,
    unbounded: &MultiUserRunResult,
    budgeted_policy: &StorePolicy,
    unbounded_policy: &StorePolicy,
) -> Result<(), String> {
    if budgeted.arrangement_digest != unbounded.arrangement_digest {
        return Err(format!(
            "arrangement digest diverged: {:#x} vs {:#x}",
            budgeted.arrangement_digest, unbounded.arrangement_digest
        ));
    }
    if budgeted.accounting.total_rewards() != unbounded.accounting.total_rewards()
        || budgeted.accounting.total_arranged() != unbounded.accounting.total_arranged()
    {
        return Err("accounting diverged between budgeted and unbounded runs".into());
    }
    if budgeted.opt_rewards != unbounded.opt_rewards {
        return Err("OPT co-simulation diverged (coin stream desync)".into());
    }
    if budgeted_policy.rng_digest() != unbounded_policy.rng_digest() {
        return Err("TS posterior-RNG position diverged".into());
    }
    if budgeted_policy.save_state() != unbounded_policy.save_state() {
        return Err("policy state blobs diverged between budgeted and unbounded runs".into());
    }
    Ok(())
}

fn render_store_stats(s: &StoreStats) -> String {
    format!(
        "store: users={} cold={} hot={} warm={} spilled={} hot_bytes={} warm_bytes={}\n\
         traffic: materializations={} faults={} demotions={} evictions={} \
         spill_live={}B spill_file={}B appends={} compactions={}\n\
         cohorts: materialized={} cohort_bytes={} hits={} folds={} sketch_promotions={}\n",
        s.users,
        s.cold,
        s.hot,
        s.warm,
        s.spilled,
        s.hot_bytes,
        s.warm_bytes,
        s.cow_materializations,
        s.faults,
        s.demotions,
        s.evictions,
        s.spill_live_bytes,
        s.spill_file_bytes,
        s.spill_appends,
        s.spill_compactions,
        s.cohorts_materialized,
        s.cohort_bytes,
        s.cohort_hits,
        s.cohort_folds,
        s.sketch_promotions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: &str) -> MultiUserSpec {
        MultiUserSpec {
            users: 40,
            horizon: 800,
            events: 20,
            dim: 4,
            seed: 77,
            heterogeneity: 0.9,
            policy: policy.into(),
            budget_mb: 1,
            warm_budget_kb: 1,
            cohorts: 0,
            cohort_folds: 8,
            state: "exact".into(),
            sketch_rank: 2,
            spill_dir: None,
            verify_determinism: true,
        }
    }

    #[test]
    fn verify_determinism_passes_for_both_policies() {
        for policy in ["multi-ucb", "multi-ts"] {
            let dir = TempDir::new(&format!("multi-user-cmd-{policy}"));
            let report = run_spec(&small(policy), &dir).expect("run_spec failed");
            assert!(report.contains("determinism: OK"), "{report}");
            assert!(report.contains("store: users="), "{report}");
        }
    }

    #[test]
    fn cohort_mode_budgeted_run_is_bit_equal_to_unbounded() {
        let spec = MultiUserSpec {
            cohorts: 8,
            cohort_folds: 3,
            ..small("multi-ucb")
        };
        let dir = TempDir::new("multi-user-cmd-cohort-parity");
        let report = run_spec(&spec, &dir).expect("run_spec failed");
        assert!(report.contains("determinism: OK"), "{report}");
        assert!(report.contains("cohorts: materialized="), "{report}");
    }

    #[test]
    fn sketched_mode_passes_regret_parity_at_d_16() {
        // 400 users at d = 16 overflow the 1 MiB hot budget, so the
        // run demotes (and later promotes) through sketch records —
        // the regret-parity gate is exercised, not vacuous.
        let spec = MultiUserSpec {
            users: 400,
            dim: 16,
            horizon: 1500,
            cohorts: 4,
            cohort_folds: 2,
            state: "sketched".into(),
            sketch_rank: 4,
            ..small("multi-ucb")
        };
        let dir = TempDir::new("multi-user-cmd-sketched-parity");
        let report = run_spec(&spec, &dir).expect("run_spec failed");
        assert!(
            report.contains("regret within tolerance"),
            "sketched parity gate missing: {report}"
        );
        assert!(
            !report.contains("demotions=0 "),
            "budget never bound — parity gate vacuous: {report}"
        );
    }

    #[test]
    fn unknown_state_is_rejected() {
        let spec = MultiUserSpec {
            state: "fuzzy".into(),
            budget_mb: 0,
            ..small("multi-ucb")
        };
        assert!(spec.build_policy(None).is_err());
    }

    #[test]
    fn schedule_matches_the_workload_generator() {
        let spec = small("multi-ucb");
        let w = spec.workload();
        let dir = TempDir::new("multi-user-cmd-sched");
        let policy = spec.build_policy(Some(&dir)).unwrap();
        let schedule = match &policy {
            StorePolicy::Ucb(p) => p.schedule(),
            StorePolicy::Ts(p) => p.schedule(),
        };
        for t in 0..500 {
            assert_eq!(schedule.user_at(t) as usize, w.user_at(t), "t={t}");
        }
        drop(policy);
    }

    #[test]
    fn unknown_policy_is_rejected() {
        let spec = MultiUserSpec {
            policy: "nope".into(),
            budget_mb: 0,
            ..small("nope")
        };
        assert!(spec.build_policy(None).is_err());
    }

    #[test]
    fn bounded_budget_without_spill_dir_is_rejected() {
        let spec = small("multi-ucb");
        assert!(spec.build_policy(None).is_err());
    }
}
