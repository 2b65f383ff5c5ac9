//! The estimator store: millions of per-user models behind one API.
//!
//! ## Residency tiers
//!
//! ```text
//! cold (COW prior)   0 private bytes   reads alias the shared prior
//!   │ first observe (copy-on-write clone)
//! hot                exact f64         RidgeEstimator resident in RAM
//!   │ hot budget exceeded → demote (exact bits appended to spill log)
//! warm               quantized i16     approximate copy in RAM,
//!   │ warm budget exceeded → evict     exact bits on disk
//! spilled            0 resident bytes  exact bits on disk only
//! ```
//!
//! Any access that can influence an arrangement or an update
//! ([`EstimatorStore::estimator_for_select`] /
//! [`EstimatorStore::estimator_for_observe`]) faults the exact state
//! back to hot; the quantized copy only serves approximate reads
//! ([`EstimatorStore::approx_point_estimate`]). Because the spill codec
//! is bit-preserving ([`crate::codec`]), a model that travelled
//! hot → warm → spilled → hot is indistinguishable from one that never
//! left memory — the foundation of the store's determinism contract.
//!
//! ## Eviction determinism
//!
//! Demotion/eviction order is the `BTreeSet<(last_access_seq, handle)>`
//! order: least-recently-accessed first, allocation-order handle as the
//! tiebreak. Both keys are pure functions of the round sequence, so two
//! runs with identical access sequences demote identical victims — no
//! hash-map iteration order, no wall-clock, no pointer values.
//! Demotions happen in *runs*: one sweep pops every over-budget victim,
//! stages their spill records into one reused write buffer, and commits
//! them as a single batch — steady-state demotion is allocation-free.
//!
//! ## Cohort prior chain
//!
//! With [`StoreConfig::with_cohorts`], priors form a three-level
//! copy-on-write chain **global prior → cohort prior → user delta**.
//! Users hash deterministically into cohorts
//! (`mix64(salt ^ user) % cohorts`); each user's first `fold_obs`
//! observations *fold* into the shared per-cohort estimator while the
//! user stays cold, and selects for cold users read through their
//! (materialized) cohort prior instead of the global one
//! (`cohort_hits`). Past the fold threshold the user copy-on-writes
//! from the cohort prior. With `fold_obs = 0` cohort priors never train
//! and the store is bit-equal to a flat-prior store.
//!
//! ## Sketched state mode
//!
//! With [`StoreConfig::with_sketched`], per-user durable state is a
//! rank-`r` frequent-directions sketch of the user's Gram update rows
//! plus the exact `b` vector — `O(r·d)` bytes instead of `O(d²)`. Hot
//! slots still carry an exact estimator (plus the live sketch); demoted
//! slots keep only a tiny quantized `θ̂`/`b` copy
//! ([`crate::quant::SketchWarm`]) and promotion *reconstructs* the Gram
//! against the current cohort (or global) prior. Reconstruction is
//! lossy in `Y` but bit-exact in the sketch rows and `b`, so the
//! sketched tier is gated by regret parity rather than bit equality;
//! updates must go through [`EstimatorStore::observe`] so the sketch
//! sees every context row.

use crate::codec::{
    decode_exact, decode_sketch, encode_exact, encode_exact_into, encode_sketch_into,
    exact_blob_len, SketchRecord,
};
use crate::quant::{QuantizedModel, SketchWarm};
use crate::spill::{SpillLog, KIND_COHORT, KIND_USER_EXACT, KIND_USER_SKETCH};
use crate::ModelsError;
use fasea_bandit::RidgeEstimator;
use fasea_linalg::{Cholesky, FrequentDirections};
use fasea_stats::crn::mix64;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;

/// Cap on recycled warm-tier code buffers kept for reuse.
const QUANT_POOL_CAP: usize = 64;

/// A platform user identity (EBSN member id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

/// A stable, dense handle to one user's model. Handles are allocated in
/// [`EstimatorStore::resolve`] order and never invalidated — residency
/// changes underneath them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelHandle(u32);

impl ModelHandle {
    /// Dense slot index of this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-user durable state representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateMode {
    /// Full `O(d²)` exact state; bit-preserving spill round trips.
    Exact,
    /// Rank-`r` frequent-directions sketch + exact `b`, `O(r·d)` bytes;
    /// promotion reconstructs against the prior chain.
    Sketched,
}

/// Configuration of an [`EstimatorStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Context dimension `d` of every model.
    pub dim: usize,
    /// Ridge strength λ of every model (and of the prior).
    pub lambda: f64,
    /// Byte budget for the hot (exact f64) tier. `usize::MAX` disables
    /// demotion.
    pub hot_budget_bytes: usize,
    /// Byte budget for the warm (quantized) tier. `usize::MAX` disables
    /// eviction to the spilled tier.
    pub warm_budget_bytes: usize,
    /// Directory for the spill log. Required whenever either budget is
    /// bounded — a demoted model's exact bits must live somewhere.
    pub spill_dir: Option<PathBuf>,
    /// Instance fingerprint stamped into the spill log header.
    pub fingerprint: u64,
    /// Number of cohorts in the prior chain; `0` disables cohorts.
    pub cohorts: usize,
    /// Salt for the deterministic user → cohort hash.
    pub cohort_salt: u64,
    /// Observations folded into the cohort prior before a user
    /// copy-on-write materializes. `0` means cohort priors never train.
    pub cohort_fold_obs: u64,
    /// Per-user durable state representation.
    pub state: StateMode,
    /// Sketch rank `r` (used only in [`StateMode::Sketched`]).
    pub sketch_rank: usize,
}

impl StoreConfig {
    /// Unbounded store: every materialized model stays hot forever.
    pub fn unbounded(dim: usize, lambda: f64) -> Self {
        StoreConfig {
            dim,
            lambda,
            hot_budget_bytes: usize::MAX,
            warm_budget_bytes: usize::MAX,
            spill_dir: None,
            fingerprint: mix64(dim as u64 ^ lambda.to_bits()),
            cohorts: 0,
            cohort_salt: 0,
            cohort_fold_obs: 0,
            state: StateMode::Exact,
            sketch_rank: 0,
        }
    }

    /// Budgeted store spilling through `dir`.
    pub fn bounded(
        dim: usize,
        lambda: f64,
        hot_budget_bytes: usize,
        warm_budget_bytes: usize,
        dir: impl Into<PathBuf>,
    ) -> Self {
        StoreConfig {
            hot_budget_bytes,
            warm_budget_bytes,
            spill_dir: Some(dir.into()),
            ..StoreConfig::unbounded(dim, lambda)
        }
    }

    /// Enables the cohort prior chain: `cohorts` deterministic cohorts
    /// under `salt`, folding each user's first `fold_obs` observations
    /// into their cohort prior before private materialization. The
    /// spill-log fingerprint is perturbed so cohort and flat stores
    /// never share a spill directory.
    pub fn with_cohorts(mut self, cohorts: usize, salt: u64, fold_obs: u64) -> Self {
        self.cohorts = cohorts;
        self.cohort_salt = salt;
        self.cohort_fold_obs = fold_obs;
        if cohorts > 0 {
            self.fingerprint = mix64(
                self.fingerprint ^ mix64(0x00C0_0947 ^ cohorts as u64) ^ mix64(salt ^ fold_obs),
            );
        }
        self
    }

    /// Switches per-user durable state to the rank-`rank`
    /// frequent-directions sketch. Fingerprint-perturbing: sketched and
    /// exact stores never share a spill directory.
    pub fn with_sketched(mut self, rank: usize) -> Self {
        self.state = StateMode::Sketched;
        self.sketch_rank = rank;
        self.fingerprint = mix64(self.fingerprint ^ mix64(0x005C_E7C4 ^ rank as u64));
        self
    }
}

#[derive(Debug)]
enum Residency {
    /// Cold: aliases the shared prior chain; zero private bytes.
    Prior,
    /// Hot: exact f64 state resident.
    Hot(Box<RidgeEstimator>),
    /// Warm: quantized copy resident, exact bits in the spill log.
    Warm(Box<QuantizedModel>),
    /// Warm in sketched mode: quantized `θ̂`/`b` resident, sketch
    /// record in the spill log.
    WarmSketch(Box<SketchWarm>),
    /// Spilled: durable bits in the spill log only.
    Spilled,
}

#[derive(Debug)]
struct Slot {
    user: u64,
    residency: Residency,
    last_access: u64,
    /// Hot state newer than the spill log's copy (re-demotion of a
    /// clean fault-in skips the redundant append).
    dirty: bool,
    /// Observations folded into the cohort prior while cold.
    folds: u64,
    /// Live frequent-directions sketch (sketched mode, hot slots only).
    sketch: Option<Box<FrequentDirections>>,
}

/// A point-in-time snapshot of store occupancy and traffic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Users interned via [`EstimatorStore::resolve`].
    pub users: usize,
    /// Cold users still aliasing the COW prior.
    pub cold: usize,
    /// Models resident as exact f64 state.
    pub hot: usize,
    /// Models resident as quantized state (exact bits on disk).
    pub warm: usize,
    /// Models with no resident state (exact bits on disk).
    pub spilled: usize,
    /// Bytes of hot-tier model state.
    pub hot_bytes: usize,
    /// Bytes of warm-tier model state.
    pub warm_bytes: usize,
    /// Copy-on-write materializations (first observe per user).
    pub cow_materializations: u64,
    /// Exact-state fault-ins from the spill log.
    pub faults: u64,
    /// Hot → warm demotions.
    pub demotions: u64,
    /// Warm → spilled evictions.
    pub evictions: u64,
    /// Live bytes in the spill log.
    pub spill_live_bytes: u64,
    /// Total spill log file size (dead frames included).
    pub spill_file_bytes: u64,
    /// Appends to the spill log since open.
    pub spill_appends: u64,
    /// Spill log compactions since open.
    pub spill_compactions: u64,
    /// Cohort priors currently materialized.
    pub cohorts_materialized: usize,
    /// Bytes of materialized cohort priors.
    pub cohort_bytes: usize,
    /// Selects served by a cohort prior instead of the global prior.
    pub cohort_hits: u64,
    /// Observations folded into cohort priors (users still cold).
    pub cohort_folds: u64,
    /// Sketch-record promotions (Gram reconstructions) from the spill
    /// log.
    pub sketch_promotions: u64,
}

/// Millions of per-user [`RidgeEstimator`]s behind a stable
/// `UserId -> ModelHandle` API — COW prior, quantized residency,
/// WAL-framed spill. See the module docs for the tier lifecycle.
#[derive(Debug)]
pub struct EstimatorStore {
    config: StoreConfig,
    prior: RidgeEstimator,
    slots: Vec<Slot>,
    by_user: HashMap<u64, u32>,
    /// Hot slots, least-recently-accessed first.
    lru_hot: BTreeSet<(u64, u32)>,
    /// Warm slots, least-recently-accessed first.
    lru_warm: BTreeSet<(u64, u32)>,
    hot_bytes: usize,
    warm_bytes: usize,
    /// Slots that have left the Prior tier (hot + warm + spilled).
    private: usize,
    spill: Option<SpillLog>,
    /// Materialized per-cohort priors (index = cohort id).
    cohort_priors: Vec<Option<Box<RidgeEstimator>>>,
    /// Cohort priors trained since the last [`EstimatorStore::sync`].
    cohort_dirty: Vec<bool>,
    cohort_bytes: usize,
    /// Recycled warm-tier models: demotion re-quantizes into these
    /// instead of allocating fresh code buffers. The `Box` is the
    /// recycled allocation — `Residency::Warm` stores boxes, so the
    /// pool must hand back the exact pointee that moves into the slot.
    #[allow(clippy::vec_box)]
    quant_pool: Vec<Box<QuantizedModel>>,
    /// Reused victim buffer for batched demotion.
    demote_buf: Vec<(u32, Box<RidgeEstimator>, Option<Box<FrequentDirections>>)>,
    /// Reused spill-record encode buffer.
    encode_buf: Vec<u8>,
    cow_materializations: u64,
    faults: u64,
    demotions: u64,
    evictions: u64,
    cohort_hits: u64,
    cohort_folds: u64,
    sketch_promotions: u64,
}

const SAVE_MAGIC: &[u8; 8] = b"FASEAMS2";

impl EstimatorStore {
    /// Creates a store whose COW prior is the cold-start ridge state
    /// (`Y = λI`, `b = 0`).
    pub fn new(config: StoreConfig) -> Result<Self, ModelsError> {
        let prior = RidgeEstimator::new(config.dim, config.lambda);
        Self::with_prior(config, prior)
    }

    /// Creates a store with a pre-trained shared prior — e.g. a global
    /// estimator fitted on pooled history. Fresh users score through it
    /// at zero marginal memory until their first observation.
    pub fn with_prior(config: StoreConfig, prior: RidgeEstimator) -> Result<Self, ModelsError> {
        if config.dim == 0 {
            return Err(ModelsError::Config("dim must be positive"));
        }
        if !(config.lambda.is_finite() && config.lambda > 0.0) {
            return Err(ModelsError::Config("lambda must be finite and positive"));
        }
        if prior.dim() != config.dim {
            return Err(ModelsError::Config("prior dimension mismatch"));
        }
        let bounded =
            config.hot_budget_bytes != usize::MAX || config.warm_budget_bytes != usize::MAX;
        if bounded && config.spill_dir.is_none() {
            return Err(ModelsError::Config(
                "bounded budgets require a spill directory (exact bits must live somewhere)",
            ));
        }
        if config.cohorts > u32::MAX as usize {
            return Err(ModelsError::Config("cohort count exceeds u32"));
        }
        if config.state == StateMode::Sketched && config.sketch_rank == 0 {
            return Err(ModelsError::Config(
                "sketched state mode requires a positive sketch rank",
            ));
        }
        let spill = match &config.spill_dir {
            Some(dir) => Some(SpillLog::open(dir, config.fingerprint)?),
            None => None,
        };
        // Rehydrate cohort priors persisted by a previous run's sync()
        // — crash-restart continuity for the cohort chain even without
        // a snapshot (per-user fold counters live only in snapshots).
        let mut cohort_priors: Vec<Option<Box<RidgeEstimator>>> =
            (0..config.cohorts).map(|_| None).collect();
        let mut cohort_bytes = 0usize;
        if let Some(sp) = &spill {
            if config.cohorts > 0 {
                for key in sp.live_keys_sorted(KIND_COHORT) {
                    let idx = usize::try_from(key)
                        .ok()
                        .filter(|&i| i < config.cohorts)
                        .ok_or(ModelsError::Spill("cohort record out of range"))?;
                    let blob = sp
                        .read(KIND_COHORT, key)?
                        .ok_or(ModelsError::Spill("listed cohort record vanished"))?;
                    let est = Box::new(decode_exact(&blob)?);
                    if est.dim() != config.dim {
                        return Err(ModelsError::Config("cohort record dimension mismatch"));
                    }
                    cohort_bytes += est.state_bytes();
                    cohort_priors[idx] = Some(est);
                }
            }
        }
        let cohort_dirty = vec![false; config.cohorts];
        Ok(EstimatorStore {
            config,
            prior,
            slots: Vec::new(),
            by_user: HashMap::new(),
            lru_hot: BTreeSet::new(),
            lru_warm: BTreeSet::new(),
            hot_bytes: 0,
            warm_bytes: 0,
            private: 0,
            spill,
            cohort_priors,
            cohort_dirty,
            cohort_bytes,
            quant_pool: Vec::new(),
            demote_buf: Vec::new(),
            encode_buf: Vec::new(),
            cow_materializations: 0,
            faults: 0,
            demotions: 0,
            evictions: 0,
            cohort_hits: 0,
            cohort_folds: 0,
            sketch_promotions: 0,
        })
    }

    /// The cohort of `user` under this store's salt.
    pub fn cohort_of(&self, user: u64) -> usize {
        debug_assert!(self.config.cohorts > 0);
        (mix64(self.config.cohort_salt ^ user) % self.config.cohorts as u64) as usize
    }

    /// The prior a cold `user` reads through — their materialized
    /// cohort prior if the chain is enabled and trained, the global
    /// prior otherwise.
    fn base_prior_for(&self, user: u64) -> &RidgeEstimator {
        if self.config.cohorts > 0 {
            if let Some(cp) = &self.cohort_priors[self.cohort_of(user)] {
                return cp;
            }
        }
        &self.prior
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Context dimension `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Read access to the shared COW prior.
    pub fn prior(&self) -> &RidgeEstimator {
        &self.prior
    }

    /// Interns `user`, returning its stable handle. A fresh user costs
    /// one slot entry (it aliases the prior — no model state).
    pub fn resolve(&mut self, user: UserId) -> ModelHandle {
        if let Some(&idx) = self.by_user.get(&user.0) {
            return ModelHandle(idx);
        }
        let idx = u32::try_from(self.slots.len()).expect("more than 2^32 users");
        self.slots.push(Slot {
            user: user.0,
            residency: Residency::Prior,
            last_access: 0,
            dirty: false,
            folds: 0,
            sketch: None,
        });
        self.by_user.insert(user.0, idx);
        ModelHandle(idx)
    }

    /// Looks up an already-interned user.
    pub fn lookup(&self, user: UserId) -> Option<ModelHandle> {
        self.by_user.get(&user.0).copied().map(ModelHandle)
    }

    /// Number of interned users.
    pub fn num_users(&self) -> usize {
        self.slots.len()
    }

    /// The user owning `handle`.
    pub fn user_of(&self, handle: ModelHandle) -> Option<UserId> {
        self.slots.get(handle.index()).map(|s| UserId(s.user))
    }

    fn check(&self, handle: ModelHandle) -> Result<usize, ModelsError> {
        let idx = handle.index();
        if idx >= self.slots.len() {
            return Err(ModelsError::UnknownHandle);
        }
        Ok(idx)
    }

    fn lru_remove(&mut self, idx: usize) {
        let key = (self.slots[idx].last_access, idx as u32);
        match self.slots[idx].residency {
            Residency::Hot(_) => {
                self.lru_hot.remove(&key);
            }
            Residency::Warm(_) | Residency::WarmSketch(_) => {
                self.lru_warm.remove(&key);
            }
            _ => {}
        }
    }

    fn lru_insert(&mut self, idx: usize) {
        let key = (self.slots[idx].last_access, idx as u32);
        match self.slots[idx].residency {
            Residency::Hot(_) => {
                self.lru_hot.insert(key);
            }
            Residency::Warm(_) | Residency::WarmSketch(_) => {
                self.lru_warm.insert(key);
            }
            _ => {}
        }
    }

    fn touch(&mut self, idx: usize, seq: u64) {
        self.lru_remove(idx);
        self.slots[idx].last_access = seq;
        self.lru_insert(idx);
    }

    /// The spill record kind private user state travels as.
    fn user_kind(&self) -> u8 {
        match self.config.state {
            StateMode::Exact => KIND_USER_EXACT,
            StateMode::Sketched => KIND_USER_SKETCH,
        }
    }

    /// Rebuilds a hot estimator from a sketch record: Gram = current
    /// base prior Gram + `BᵀB`, `θ̂ = Y⁻¹ b`. Lossy in `Y` (the base
    /// prior may have trained since demotion — cohort learning flows
    /// into promoted users), bit-exact in the sketch rows and `b`.
    fn reconstruct_from_sketch(
        &self,
        rec: &SketchRecord,
        user: u64,
    ) -> Result<Box<RidgeEstimator>, ModelsError> {
        if rec.sketch.dim() != self.config.dim {
            return Err(ModelsError::Codec("sketch record dimension mismatch"));
        }
        let mut y = self.base_prior_for(user).gram_matrix().clone();
        rec.sketch.add_gram_to(&mut y);
        let chol = Cholesky::factor(&y).map_err(ModelsError::Linalg)?;
        let y_inv = chol.inverse();
        let theta = chol.solve(&rec.b);
        RidgeEstimator::from_exact_parts(
            rec.lambda,
            y,
            y_inv,
            rec.b.clone(),
            theta,
            false,
            rec.observations,
            rec.recomputes,
        )
        .map(Box::new)
        .map_err(ModelsError::Linalg)
    }

    /// Faults the durable state of a Warm/Spilled slot back to Hot.
    fn fault_in(&mut self, idx: usize) -> Result<(), ModelsError> {
        let user = self.slots[idx].user;
        let kind = self.user_kind();
        let spill = self
            .spill
            .as_mut()
            .ok_or(ModelsError::Spill("no spill log configured"))?;
        let blob = spill.read(kind, user)?.ok_or(ModelsError::Spill(
            "non-resident model missing from spill log",
        ))?;
        self.lru_remove(idx);
        match std::mem::replace(&mut self.slots[idx].residency, Residency::Spilled) {
            Residency::Warm(q) => {
                self.warm_bytes -= q.state_bytes();
                if self.quant_pool.len() < QUANT_POOL_CAP {
                    self.quant_pool.push(q);
                }
            }
            Residency::WarmSketch(w) => {
                self.warm_bytes -= w.state_bytes();
            }
            Residency::Spilled => {}
            _ => unreachable!("fault_in is only called on non-hot private slots"),
        }
        let est = match self.config.state {
            StateMode::Exact => Box::new(decode_exact(&blob)?),
            StateMode::Sketched => {
                let rec = decode_sketch(&blob)?;
                let est = self.reconstruct_from_sketch(&rec, user)?;
                self.slots[idx].sketch = Some(Box::new(rec.sketch));
                self.sketch_promotions += 1;
                est
            }
        };
        self.hot_bytes += est.state_bytes()
            + self.slots[idx]
                .sketch
                .as_ref()
                .map_or(0, |s| s.state_bytes());
        self.slots[idx].residency = Residency::Hot(est);
        self.slots[idx].dirty = false;
        self.lru_insert(idx);
        self.faults += 1;
        Ok(())
    }

    /// Borrows the estimator backing `handle` for *scoring* at round
    /// `seq`. A cold user reads through the shared prior (no
    /// materialization); a demoted user's exact state is faulted back
    /// in first.
    pub fn estimator_for_select(
        &mut self,
        handle: ModelHandle,
        seq: u64,
    ) -> Result<&mut RidgeEstimator, ModelsError> {
        let idx = self.check(handle)?;
        match self.slots[idx].residency {
            Residency::Prior => {
                if self.config.cohorts > 0 {
                    let c = self.cohort_of(self.slots[idx].user);
                    if self.cohort_priors[c].is_some() {
                        self.cohort_hits += 1;
                        return Ok(self.cohort_priors[c].as_mut().unwrap());
                    }
                }
                return Ok(&mut self.prior);
            }
            Residency::Hot(_) => {}
            Residency::Warm(_) | Residency::WarmSketch(_) | Residency::Spilled => {
                self.fault_in(idx)?
            }
        }
        self.touch(idx, seq);
        match &mut self.slots[idx].residency {
            Residency::Hot(est) => Ok(est),
            _ => unreachable!("fault_in leaves the slot hot"),
        }
    }

    /// Makes `handle`'s slot hot and dirty for an update: materializes
    /// a cold user copy-on-write from its prior chain (cohort prior if
    /// trained, global prior otherwise), faults a demoted user back in.
    fn promote_for_observe(&mut self, idx: usize, seq: u64) -> Result<(), ModelsError> {
        match self.slots[idx].residency {
            Residency::Prior => {
                let est = Box::new(self.base_prior_for(self.slots[idx].user).clone());
                let mut added = est.state_bytes();
                if self.config.state == StateMode::Sketched {
                    let sk = Box::new(FrequentDirections::new(
                        self.config.sketch_rank,
                        self.config.dim,
                    ));
                    added += sk.state_bytes();
                    self.slots[idx].sketch = Some(sk);
                }
                self.hot_bytes += added;
                self.slots[idx].residency = Residency::Hot(est);
                self.private += 1;
                self.cow_materializations += 1;
            }
            Residency::Hot(_) => {}
            Residency::Warm(_) | Residency::WarmSketch(_) | Residency::Spilled => {
                self.fault_in(idx)?
            }
        }
        self.slots[idx].dirty = true;
        self.touch(idx, seq);
        Ok(())
    }

    /// Borrows the estimator backing `handle` for an *update* at round
    /// `seq`. A cold user is materialized copy-on-write (its prior
    /// chain is cloned into private hot state); the slot is marked
    /// dirty. Unavailable in sketched mode — updates must flow through
    /// [`EstimatorStore::observe`] so the sketch sees every context
    /// row. Note this path never folds into cohort priors; use
    /// [`EstimatorStore::observe`] for the full chain behaviour.
    pub fn estimator_for_observe(
        &mut self,
        handle: ModelHandle,
        seq: u64,
    ) -> Result<&mut RidgeEstimator, ModelsError> {
        if self.config.state == StateMode::Sketched {
            return Err(ModelsError::Config(
                "sketched state mode: use EstimatorStore::observe so the sketch sees every row",
            ));
        }
        let idx = self.check(handle)?;
        self.promote_for_observe(idx, seq)?;
        match &mut self.slots[idx].residency {
            Residency::Hot(est) => Ok(est),
            _ => unreachable!("observe access leaves the slot hot"),
        }
    }

    /// Applies one observation `(x, r)` to `handle` at round `seq` —
    /// the store-mediated update path, and the only one that drives the
    /// full prior chain:
    ///
    /// * a cold user's first [`StoreConfig::cohort_fold_obs`]
    ///   observations *fold* into their cohort prior (the user stays
    ///   cold at zero private bytes);
    /// * past the threshold the user materializes copy-on-write and the
    ///   observation lands in private hot state;
    /// * in sketched mode the context row is also streamed into the
    ///   user's frequent-directions sketch.
    pub fn observe(
        &mut self,
        handle: ModelHandle,
        x: &[f64],
        r: f64,
        seq: u64,
    ) -> Result<(), ModelsError> {
        let idx = self.check(handle)?;
        if matches!(self.slots[idx].residency, Residency::Prior)
            && self.config.cohorts > 0
            && self.slots[idx].folds < self.config.cohort_fold_obs
        {
            let c = self.cohort_of(self.slots[idx].user);
            if self.cohort_priors[c].is_none() {
                let est = Box::new(self.prior.clone());
                self.cohort_bytes += est.state_bytes();
                self.cohort_priors[c] = Some(est);
            }
            self.cohort_priors[c]
                .as_mut()
                .unwrap()
                .observe(x, r)
                .map_err(ModelsError::Linalg)?;
            self.cohort_dirty[c] = true;
            self.slots[idx].folds += 1;
            self.cohort_folds += 1;
            self.slots[idx].last_access = seq;
            return Ok(());
        }
        self.promote_for_observe(idx, seq)?;
        let slot = &mut self.slots[idx];
        let Residency::Hot(est) = &mut slot.residency else {
            unreachable!("observe access leaves the slot hot");
        };
        est.observe(x, r).map_err(ModelsError::Linalg)?;
        if let Some(sk) = slot.sketch.as_mut() {
            sk.update(x);
        }
        Ok(())
    }

    /// Approximate point estimate `xᵀθ̃` answered from the *resident*
    /// representation without faulting: quantized for warm slots, exact
    /// for hot, prior for cold. `None` for spilled slots — answering
    /// would cost a disk fault, which is the caller's call to make.
    pub fn approx_point_estimate(&self, handle: ModelHandle, x: &[f64]) -> Option<f64> {
        let slot = self.slots.get(handle.index())?;
        match &slot.residency {
            Residency::Prior => Some(
                x.iter()
                    .zip(self.base_prior_for(slot.user).theta_hat_cached().as_slice())
                    .map(|(a, b)| a * b)
                    .sum(),
            ),
            Residency::Hot(est) => Some(
                x.iter()
                    .zip(est.theta_hat_cached().as_slice())
                    .map(|(a, b)| a * b)
                    .sum(),
            ),
            Residency::Warm(q) => Some(q.approx_point_estimate(x)),
            Residency::WarmSketch(w) => Some(w.approx_point_estimate(x)),
            Residency::Spilled => None,
        }
    }

    /// Demotes least-recently-accessed hot slots in one batched sweep
    /// until the hot tier fits its budget. Three phases — pop victims,
    /// stage all spill records into one reused write buffer (single
    /// seek + write at commit), build warm representations from
    /// recycled buffers — so steady-state demotion performs no
    /// per-victim allocation.
    fn shrink_hot_to_budget(&mut self) -> Result<(), ModelsError> {
        if self.hot_bytes <= self.config.hot_budget_bytes {
            return Ok(());
        }
        let mut victims = std::mem::take(&mut self.demote_buf);
        debug_assert!(victims.is_empty());
        while self.hot_bytes > self.config.hot_budget_bytes {
            let Some((_, idx)) = self.lru_hot.pop_first() else {
                break;
            };
            let i = idx as usize;
            let residency = std::mem::replace(&mut self.slots[i].residency, Residency::Spilled);
            let Residency::Hot(est) = residency else {
                unreachable!("lru_hot only holds hot slots");
            };
            let sketch = self.slots[i].sketch.take();
            self.hot_bytes -= est.state_bytes() + sketch.as_ref().map_or(0, |s| s.state_bytes());
            victims.push((idx, est, sketch));
        }
        if victims.is_empty() {
            self.demote_buf = victims;
            return Ok(());
        }
        let kind = self.user_kind();
        {
            let spill = self
                .spill
                .as_mut()
                .ok_or(ModelsError::Spill("no spill log configured"))?;
            spill.batch_begin();
            for (idx, est, sketch) in &victims {
                let slot = &self.slots[*idx as usize];
                if slot.dirty || !spill.contains(kind, slot.user) {
                    self.encode_buf.clear();
                    match self.config.state {
                        StateMode::Exact => encode_exact_into(est, &mut self.encode_buf),
                        StateMode::Sketched => encode_sketch_into(
                            sketch.as_ref().expect("sketched hot slots carry a sketch"),
                            est.b_vector(),
                            est.lambda(),
                            est.observations(),
                            est.theta_recomputes(),
                            &mut self.encode_buf,
                        ),
                    }
                    spill.batch_add(kind, slot.user, &self.encode_buf)?;
                }
            }
            spill.batch_commit()?;
        }
        for (idx, est, _sketch) in victims.drain(..) {
            let i = idx as usize;
            let warm = match self.config.state {
                StateMode::Exact => {
                    let q = match self.quant_pool.pop() {
                        Some(mut q) => {
                            q.requantize(&est);
                            q
                        }
                        None => Box::new(QuantizedModel::quantize(&est)),
                    };
                    self.warm_bytes += q.state_bytes();
                    Residency::Warm(q)
                }
                StateMode::Sketched => {
                    let w = Box::new(SketchWarm::from_estimator(&est));
                    self.warm_bytes += w.state_bytes();
                    Residency::WarmSketch(w)
                }
            };
            self.slots[i].residency = warm;
            self.slots[i].dirty = false;
            self.lru_insert(i);
            self.demotions += 1;
        }
        self.demote_buf = victims;
        Ok(())
    }

    fn evict_lru_warm(&mut self) -> Result<bool, ModelsError> {
        let Some((_, idx)) = self.lru_warm.pop_first() else {
            return Ok(false);
        };
        let idx = idx as usize;
        match std::mem::replace(&mut self.slots[idx].residency, Residency::Spilled) {
            Residency::Warm(q) => {
                self.warm_bytes -= q.state_bytes();
                if self.quant_pool.len() < QUANT_POOL_CAP {
                    self.quant_pool.push(q);
                }
            }
            Residency::WarmSketch(w) => {
                self.warm_bytes -= w.state_bytes();
            }
            _ => unreachable!("lru_warm only holds warm slots"),
        }
        self.evictions += 1;
        Ok(true)
    }

    /// Enforces the memory budgets at round `seq`: demotes
    /// least-recently-accessed hot slots (in one batched sweep) until
    /// the hot tier fits, then evicts least-recently-accessed warm
    /// slots until the warm tier fits. Deterministic: victim order is
    /// `(last_access, handle)`.
    pub fn enforce_budget(&mut self, _seq: u64) -> Result<(), ModelsError> {
        self.shrink_hot_to_budget()?;
        while self.warm_bytes > self.config.warm_budget_bytes {
            if !self.evict_lru_warm()? {
                break;
            }
        }
        Ok(())
    }

    /// Flushes the spill log to disk, first persisting any cohort
    /// priors trained since the last sync — a crash-restart without a
    /// snapshot keeps the cohort chain's learning.
    pub fn sync(&mut self) -> Result<(), ModelsError> {
        if let Some(spill) = &mut self.spill {
            spill.batch_begin();
            for (c, dirty) in self.cohort_dirty.iter_mut().enumerate() {
                if *dirty {
                    if let Some(est) = &self.cohort_priors[c] {
                        self.encode_buf.clear();
                        encode_exact_into(est, &mut self.encode_buf);
                        spill.batch_add(KIND_COHORT, c as u64, &self.encode_buf)?;
                    }
                    *dirty = false;
                }
            }
            spill.batch_commit()?;
            spill.sync()?;
        }
        Ok(())
    }

    /// Resident bytes across tiers, prior chain included — the store's
    /// contribution to a policy's `state_bytes()`.
    pub fn resident_bytes(&self) -> usize {
        self.hot_bytes + self.warm_bytes + self.cohort_bytes + self.prior.state_bytes()
    }

    /// Selects served by a cohort prior instead of the global prior.
    pub fn cohort_hits(&self) -> u64 {
        self.cohort_hits
    }

    /// Sketch-record promotions from the spill log.
    pub fn sketch_promotions(&self) -> u64 {
        self.sketch_promotions
    }

    /// Occupancy and traffic snapshot.
    pub fn stats(&self) -> StoreStats {
        let hot = self.lru_hot.len();
        let warm = self.lru_warm.len();
        StoreStats {
            users: self.slots.len(),
            cold: self.slots.len() - self.private,
            hot,
            warm,
            spilled: self.private - hot - warm,
            hot_bytes: self.hot_bytes,
            warm_bytes: self.warm_bytes,
            cow_materializations: self.cow_materializations,
            faults: self.faults,
            demotions: self.demotions,
            evictions: self.evictions,
            spill_live_bytes: self.spill.as_ref().map_or(0, |s| s.live_bytes()),
            spill_file_bytes: self.spill.as_ref().map_or(0, |s| s.file_bytes()),
            spill_appends: self.spill.as_ref().map_or(0, |s| s.appends()),
            spill_compactions: self.spill.as_ref().map_or(0, |s| s.compactions()),
            cohorts_materialized: self.cohort_priors.iter().filter(|c| c.is_some()).count(),
            cohort_bytes: self.cohort_bytes,
            cohort_hits: self.cohort_hits,
            cohort_folds: self.cohort_folds,
            sketch_promotions: self.sketch_promotions,
        }
    }

    /// Serialises the complete logical state — prior, every user's
    /// exact model bits (read back from the spill log for non-hot
    /// slots) and access stamps. **Residency-independent**: a budgeted
    /// store and an unbounded store that processed the same rounds
    /// produce byte-identical blobs.
    pub fn save_state(&self) -> Vec<u8> {
        let d = self.config.dim;
        let per_user = 8 + 8 + 1 + 4 + exact_blob_len(d);
        let mut out = Vec::with_capacity(64 + exact_blob_len(d) + self.slots.len() * per_user / 4);
        out.extend_from_slice(SAVE_MAGIC);
        out.extend_from_slice(&(d as u32).to_le_bytes());
        out.extend_from_slice(&self.config.lambda.to_le_bytes());
        let prior_blob = encode_exact(&self.prior);
        out.extend_from_slice(&(prior_blob.len() as u32).to_le_bytes());
        out.extend_from_slice(&prior_blob);
        // Cohort-prior section (before the slots: sketched slot
        // restore reconstructs against these). Counts are written even
        // when zero so a cohorts-off snapshot is byte-identical to a
        // cohorts-untrained one.
        let materialized: Vec<(usize, &Box<RidgeEstimator>)> = self
            .cohort_priors
            .iter()
            .enumerate()
            .filter_map(|(c, e)| e.as_ref().map(|e| (c, e)))
            .collect();
        out.extend_from_slice(&(materialized.len() as u32).to_le_bytes());
        for (c, est) in materialized {
            out.extend_from_slice(&(c as u32).to_le_bytes());
            let blob = encode_exact(est);
            out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        // Fold-counter section: users whose early observations folded
        // into their cohort prior, in slot order.
        let folded: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.folds > 0)
            .map(|s| (s.user, s.folds))
            .collect();
        out.extend_from_slice(&(folded.len() as u64).to_le_bytes());
        for (user, folds) in folded {
            out.extend_from_slice(&user.to_le_bytes());
            out.extend_from_slice(&folds.to_le_bytes());
        }
        out.extend_from_slice(&(self.slots.len() as u64).to_le_bytes());
        for slot in &self.slots {
            out.extend_from_slice(&slot.user.to_le_bytes());
            out.extend_from_slice(&slot.last_access.to_le_bytes());
            match &slot.residency {
                Residency::Prior => out.push(0),
                Residency::Hot(est) => match self.config.state {
                    StateMode::Exact => {
                        out.push(1);
                        let blob = encode_exact(est);
                        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                        out.extend_from_slice(&blob);
                    }
                    StateMode::Sketched => {
                        out.push(2);
                        let mut blob = Vec::new();
                        encode_sketch_into(
                            slot.sketch
                                .as_ref()
                                .expect("sketched hot slots carry a sketch"),
                            est.b_vector(),
                            est.lambda(),
                            est.observations(),
                            est.theta_recomputes(),
                            &mut blob,
                        );
                        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                        out.extend_from_slice(&blob);
                    }
                },
                Residency::Warm(_) | Residency::WarmSketch(_) | Residency::Spilled => {
                    // Non-hot slots are never dirty: the spill log holds
                    // their authoritative durable bits.
                    out.push(match self.config.state {
                        StateMode::Exact => 1,
                        StateMode::Sketched => 2,
                    });
                    let kind = self.user_kind();
                    let blob = self
                        .spill
                        .as_ref()
                        .and_then(|s| s.read(kind, slot.user).ok().flatten())
                        .expect("non-resident model missing from spill log");
                    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                    out.extend_from_slice(&blob);
                }
            }
        }
        out
    }

    /// 64-bit FNV-1a digest of [`EstimatorStore::save_state`] — a cheap
    /// residency-independent fingerprint of the store's logical state.
    pub fn state_digest(&self) -> u64 {
        fnv1a(&self.save_state())
    }

    /// Restores the logical state saved by
    /// [`EstimatorStore::save_state`]. Every private model comes back
    /// *hot* (and dirty); the next [`EstimatorStore::enforce_budget`]
    /// re-demotes to fit. Any existing spill log content is superseded
    /// and cleared.
    pub fn restore_state(&mut self, blob: &[u8]) -> Result<(), ModelsError> {
        let mut buf = blob;
        let magic = take(&mut buf, 8)?;
        if magic != SAVE_MAGIC {
            return Err(ModelsError::Codec("not an estimator store snapshot"));
        }
        let dim = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        if dim != self.config.dim {
            return Err(ModelsError::Config("snapshot dimension mismatch"));
        }
        let lambda = f64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap());
        if lambda.to_bits() != self.config.lambda.to_bits() {
            return Err(ModelsError::Config("snapshot lambda mismatch"));
        }
        let prior_len = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        let prior = decode_exact(take(&mut buf, prior_len)?)?;

        // Cohort-prior section.
        let ncoh = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        let mut cohort_priors: Vec<Option<Box<RidgeEstimator>>> =
            (0..self.config.cohorts).map(|_| None).collect();
        let mut cohort_bytes = 0usize;
        for _ in 0..ncoh {
            let c = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
            let len = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
            let est = Box::new(decode_exact(take(&mut buf, len)?)?);
            if c >= self.config.cohorts {
                return Err(ModelsError::Config(
                    "snapshot cohort id exceeds configured cohort count",
                ));
            }
            if cohort_priors[c].is_some() {
                return Err(ModelsError::Codec("duplicate cohort in snapshot"));
            }
            cohort_bytes += est.state_bytes();
            cohort_priors[c] = Some(est);
        }

        // Fold-counter section (applied to slots after they parse).
        let nfolds = u64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap()) as usize;
        let mut folds_by_user = Vec::with_capacity(nfolds);
        for _ in 0..nfolds {
            let user = u64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap());
            let folds = u64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap());
            folds_by_user.push((user, folds));
        }

        let count = u64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap()) as usize;
        let mut slots = Vec::with_capacity(count);
        let mut by_user = HashMap::with_capacity(count);
        let mut lru_hot = BTreeSet::new();
        let mut hot_bytes = 0usize;
        let mut private = 0usize;
        for idx in 0..count {
            let user = u64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap());
            let last_access = u64::from_le_bytes(take(&mut buf, 8)?.try_into().unwrap());
            let tag = take(&mut buf, 1)?[0];
            let mut sketch = None;
            let residency = match tag {
                0 => Residency::Prior,
                1 => {
                    if self.config.state != StateMode::Exact {
                        return Err(ModelsError::Config(
                            "exact snapshot restored into a sketched store",
                        ));
                    }
                    let len = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
                    let est = Box::new(decode_exact(take(&mut buf, len)?)?);
                    hot_bytes += est.state_bytes();
                    private += 1;
                    lru_hot.insert((last_access, idx as u32));
                    Residency::Hot(est)
                }
                2 => {
                    if self.config.state != StateMode::Sketched {
                        return Err(ModelsError::Config(
                            "sketched snapshot restored into an exact store",
                        ));
                    }
                    let len = u32::from_le_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
                    let rec = decode_sketch(take(&mut buf, len)?)?;
                    // Reconstruct against the *restored* prior chain,
                    // not self's current one.
                    let base = if self.config.cohorts > 0 {
                        let c = (mix64(self.config.cohort_salt ^ user) % self.config.cohorts as u64)
                            as usize;
                        cohort_priors[c].as_deref().unwrap_or(&prior)
                    } else {
                        &prior
                    };
                    if rec.sketch.dim() != self.config.dim {
                        return Err(ModelsError::Codec("sketch record dimension mismatch"));
                    }
                    let mut y = base.gram_matrix().clone();
                    rec.sketch.add_gram_to(&mut y);
                    let chol = Cholesky::factor(&y).map_err(ModelsError::Linalg)?;
                    let y_inv = chol.inverse();
                    let theta = chol.solve(&rec.b);
                    let est = Box::new(
                        RidgeEstimator::from_exact_parts(
                            rec.lambda,
                            y,
                            y_inv,
                            rec.b.clone(),
                            theta,
                            false,
                            rec.observations,
                            rec.recomputes,
                        )
                        .map_err(ModelsError::Linalg)?,
                    );
                    let sk = Box::new(rec.sketch);
                    hot_bytes += est.state_bytes() + sk.state_bytes();
                    sketch = Some(sk);
                    private += 1;
                    lru_hot.insert((last_access, idx as u32));
                    Residency::Hot(est)
                }
                _ => return Err(ModelsError::Codec("unknown slot tag")),
            };
            if by_user.insert(user, idx as u32).is_some() {
                return Err(ModelsError::Codec("duplicate user in snapshot"));
            }
            slots.push(Slot {
                user,
                residency,
                last_access,
                dirty: tag != 0,
                folds: 0,
                sketch,
            });
        }
        if !buf.is_empty() {
            return Err(ModelsError::Codec("trailing bytes after store snapshot"));
        }
        for (user, folds) in folds_by_user {
            let idx = *by_user
                .get(&user)
                .ok_or(ModelsError::Codec("fold counter for unknown user"))?;
            slots[idx as usize].folds = folds;
        }
        if let Some(spill) = &mut self.spill {
            spill.clear()?;
        }
        self.prior = prior;
        self.slots = slots;
        self.by_user = by_user;
        self.lru_hot = lru_hot;
        self.lru_warm = BTreeSet::new();
        self.hot_bytes = hot_bytes;
        self.warm_bytes = 0;
        self.private = private;
        self.cohort_bytes = cohort_bytes;
        self.cohort_priors = cohort_priors;
        // The spill log was cleared: every restored cohort prior must
        // be re-persisted at the next sync.
        self.cohort_dirty = vec![true; self.config.cohorts];
        Ok(())
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], ModelsError> {
    if buf.len() < n {
        return Err(ModelsError::Codec("store snapshot is truncated"));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// 64-bit FNV-1a.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_store::TempDir;

    fn context(user: u64, t: u64, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|i| {
                let z = fasea_stats::crn::mix64(user ^ t.wrapping_mul(31) ^ i as u64);
                (z % 1000) as f64 / 1000.0 - 0.5
            })
            .collect()
    }

    /// Drives `rounds` rounds of a fixed access trace against `store`.
    fn drive(store: &mut EstimatorStore, users: u64, rounds: u64) {
        let dim = store.dim();
        for t in 0..rounds {
            let user = fasea_stats::crn::mix64(t ^ 0xFACE) % users;
            let h = store.resolve(UserId(user));
            let x = context(user, t, dim);
            // Select: read a width through the current inverse.
            let _ = store
                .estimator_for_select(h, t)
                .unwrap()
                .confidence_width(&x);
            let r = (fasea_stats::crn::mix64(user ^ t) % 2) as f64;
            store.observe(h, &x, r, t).unwrap();
            store.enforce_budget(t).unwrap();
        }
    }

    #[test]
    fn cold_users_cost_zero_private_bytes() {
        let mut store = EstimatorStore::new(StoreConfig::unbounded(4, 1.0)).unwrap();
        for u in 0..1000 {
            let h = store.resolve(UserId(u));
            let _ = store
                .estimator_for_select(h, u)
                .unwrap()
                .confidence_width(&[0.1, 0.2, 0.3, 0.4]);
        }
        let s = store.stats();
        assert_eq!(s.users, 1000);
        assert_eq!(s.cold, 1000);
        assert_eq!(s.hot_bytes, 0);
        assert_eq!(s.cow_materializations, 0);
        // First observe materializes exactly one private model.
        let h = store.lookup(UserId(7)).unwrap();
        store
            .estimator_for_observe(h, 1000)
            .unwrap()
            .observe(&[0.1, 0.2, 0.3, 0.4], 1.0)
            .unwrap();
        let s = store.stats();
        assert_eq!(s.cow_materializations, 1);
        assert_eq!(s.hot, 1);
        assert_eq!(s.cold, 999);
        assert_eq!(s.hot_bytes, store.prior().state_bytes());
    }

    #[test]
    fn resolve_is_idempotent_and_handles_are_stable() {
        let mut store = EstimatorStore::new(StoreConfig::unbounded(2, 1.0)).unwrap();
        let a = store.resolve(UserId(99));
        let b = store.resolve(UserId(11));
        assert_eq!(store.resolve(UserId(99)), a);
        assert_ne!(a, b);
        assert_eq!(store.user_of(a), Some(UserId(99)));
        assert_eq!(store.lookup(UserId(11)), Some(b));
        assert_eq!(store.lookup(UserId(12)), None);
        assert!(store
            .estimator_for_select(ModelHandle(77), 0)
            .is_err_and(|e| matches!(e, ModelsError::UnknownHandle)));
    }

    #[test]
    fn bounded_budget_without_spill_dir_is_rejected() {
        let cfg = StoreConfig {
            hot_budget_bytes: 4096,
            ..StoreConfig::unbounded(3, 1.0)
        };
        assert!(matches!(
            EstimatorStore::new(cfg),
            Err(ModelsError::Config(_))
        ));
    }

    #[test]
    fn budget_pressure_demotes_evicts_and_faults() {
        let dir = TempDir::new("models-store-pressure");
        let one = RidgeEstimator::new(4, 1.0).state_bytes();
        // Room for ~3 hot models and ~4 warm models.
        let cfg = StoreConfig::bounded(4, 1.0, 3 * one, 400, &dir);
        let mut store = EstimatorStore::new(cfg).unwrap();
        drive(&mut store, 12, 400);
        let s = store.stats();
        assert!(s.hot_bytes <= 3 * one);
        assert!(s.demotions > 0, "no demotions under pressure: {s:?}");
        assert!(s.evictions > 0, "no evictions under pressure: {s:?}");
        assert!(s.faults > 0, "no fault-ins under pressure: {s:?}");
        assert_eq!(s.cold + s.hot + s.warm + s.spilled, s.users);
    }

    #[test]
    fn budgeted_store_is_bit_equal_to_unbounded() {
        let dir = TempDir::new("models-store-parity");
        let one = RidgeEstimator::new(3, 0.5).state_bytes();
        let mut tiny = EstimatorStore::new(StoreConfig::bounded(3, 0.5, one, one, &dir)).unwrap();
        let mut unbounded = EstimatorStore::new(StoreConfig::unbounded(3, 0.5)).unwrap();
        drive(&mut tiny, 9, 300);
        drive(&mut unbounded, 9, 300);
        assert!(tiny.stats().demotions > 0);
        // Logical state identical down to the byte, residency aside.
        assert_eq!(tiny.save_state(), unbounded.save_state());
        assert_eq!(tiny.state_digest(), unbounded.state_digest());
        // And live reads agree bit-for-bit.
        for u in 0..9 {
            let (ht, hu) = (
                tiny.lookup(UserId(u)).unwrap(),
                unbounded.lookup(UserId(u)).unwrap(),
            );
            let x = context(u, 7777, 3);
            let a = tiny
                .estimator_for_select(ht, 10_000)
                .unwrap()
                .confidence_width(&x);
            let b = unbounded
                .estimator_for_select(hu, 10_000)
                .unwrap()
                .confidence_width(&x);
            assert_eq!(a.to_bits(), b.to_bits(), "user {u} width bits differ");
        }
    }

    #[test]
    fn save_restore_round_trip_preserves_logical_state() {
        let dir = TempDir::new("models-store-snap");
        let one = RidgeEstimator::new(3, 1.0).state_bytes();
        let mut store =
            EstimatorStore::new(StoreConfig::bounded(3, 1.0, 2 * one, 1024, &dir)).unwrap();
        drive(&mut store, 8, 200);
        let blob = store.save_state();
        let digest = store.state_digest();

        let dir2 = TempDir::new("models-store-snap2");
        let mut fresh =
            EstimatorStore::new(StoreConfig::bounded(3, 1.0, 2 * one, 1024, &dir2)).unwrap();
        fresh.restore_state(&blob).unwrap();
        assert_eq!(fresh.state_digest(), digest);
        assert_eq!(fresh.num_users(), store.num_users());
        // Continuing in lockstep keeps the two stores bit-equal.
        drive(&mut store, 8, 50);
        drive(&mut fresh, 8, 50);
        assert_eq!(fresh.state_digest(), store.state_digest());
        // Garbage is rejected.
        assert!(fresh.restore_state(b"junk").is_err());
    }

    #[test]
    fn approx_reads_never_fault() {
        let dir = TempDir::new("models-store-approx");
        let one = RidgeEstimator::new(3, 1.0).state_bytes();
        let mut store = EstimatorStore::new(StoreConfig::bounded(3, 1.0, one, 700, &dir)).unwrap();
        drive(&mut store, 6, 120);
        let faults_before = store.stats().faults;
        let mut answered = 0;
        for u in 0..6 {
            let h = store.lookup(UserId(u)).unwrap();
            if let Some(p) = store.approx_point_estimate(h, &[0.2, -0.1, 0.4]) {
                assert!(p.is_finite());
                answered += 1;
            }
        }
        assert!(answered > 0, "warm/hot slots must answer approximate reads");
        assert_eq!(store.stats().faults, faults_before, "approx reads faulted");
    }

    #[test]
    fn clean_redemotion_skips_spill_append() {
        let dir = TempDir::new("models-store-clean");
        let one = RidgeEstimator::new(2, 1.0).state_bytes();
        let mut store =
            EstimatorStore::new(StoreConfig::bounded(2, 1.0, one, usize::MAX, &dir)).unwrap();
        // Two users ping-ponging through a one-model hot tier.
        for u in [1u64, 2] {
            let h = store.resolve(UserId(u));
            store
                .estimator_for_observe(h, u)
                .unwrap()
                .observe(&[0.1, 0.2], 1.0)
                .unwrap();
            store.enforce_budget(u).unwrap();
        }
        // Select-only traffic faults models in clean; once both users'
        // latest bits are on disk, re-demoting them must not re-append
        // identical state. The first two select rounds may still spill
        // the not-yet-persisted hot resident; after that, steady state.
        let mut steady_appends = None;
        for t in 10..30u64 {
            let h = store.resolve(UserId(1 + (t % 2)));
            let _ = store
                .estimator_for_select(h, t)
                .unwrap()
                .confidence_width(&[0.3, 0.4]);
            store.enforce_budget(t).unwrap();
            if t == 12 {
                steady_appends = Some(store.stats().spill_appends);
            }
        }
        assert_eq!(
            Some(store.stats().spill_appends),
            steady_appends,
            "clean fault-ins were re-spilled"
        );
        assert!(store.stats().faults > 10);
    }

    #[test]
    fn cohort_mode_with_zero_folds_is_bit_equal_to_flat() {
        // fold_obs = 0: cohort priors never train, so every access path
        // reduces to the flat global prior — including the save blob
        // (section counts are always written).
        let dir_flat = TempDir::new("models-store-k0-flat");
        let dir_coh = TempDir::new("models-store-k0-coh");
        let one = RidgeEstimator::new(3, 1.0).state_bytes();
        let mut flat =
            EstimatorStore::new(StoreConfig::bounded(3, 1.0, 2 * one, 512, &dir_flat)).unwrap();
        let mut coh = EstimatorStore::new(
            StoreConfig::bounded(3, 1.0, 2 * one, 512, &dir_coh).with_cohorts(8, 0xC0FFEE, 0),
        )
        .unwrap();
        drive(&mut flat, 10, 250);
        drive(&mut coh, 10, 250);
        assert_eq!(coh.save_state(), flat.save_state());
        let s = coh.stats();
        assert_eq!(s.cohort_hits, 0);
        assert_eq!(s.cohort_folds, 0);
        assert_eq!(s.cohorts_materialized, 0);
    }

    #[test]
    fn cohort_folding_keeps_users_cold_then_materializes() {
        let mut store =
            EstimatorStore::new(StoreConfig::unbounded(3, 1.0).with_cohorts(4, 0x5A17, 2)).unwrap();
        let h = store.resolve(UserId(42));
        let x = [0.2, -0.1, 0.4];
        // First two observations fold into the cohort prior.
        store.observe(h, &x, 1.0, 0).unwrap();
        store.observe(h, &x, 0.0, 1).unwrap();
        let s = store.stats();
        assert_eq!(s.cold, 1, "user must stay cold while folding");
        assert_eq!(s.cohort_folds, 2);
        assert_eq!(s.cohorts_materialized, 1);
        assert_eq!(s.cow_materializations, 0);
        assert!(s.cohort_bytes > 0);
        // A cold select now reads through the trained cohort prior.
        let folded_obs = store.estimator_for_select(h, 2).unwrap().observations();
        assert_eq!(folded_obs, 2);
        assert_eq!(store.stats().cohort_hits, 1);
        // A cold user in an *untrained* cohort still reads the global
        // prior (no hit).
        let mut other = None;
        for u in 0..64 {
            if store.cohort_of(u) != store.cohort_of(42) {
                other = Some(u);
                break;
            }
        }
        let h2 = store.resolve(UserId(other.unwrap()));
        assert_eq!(store.estimator_for_select(h2, 3).unwrap().observations(), 0);
        assert_eq!(store.stats().cohort_hits, 1);
        // The third observation copy-on-writes from the cohort prior.
        store.observe(h, &x, 1.0, 4).unwrap();
        let s = store.stats();
        assert_eq!(s.cow_materializations, 1);
        assert_eq!(s.cohort_folds, 2, "materialized users no longer fold");
        let est = store.estimator_for_select(h, 5).unwrap();
        assert_eq!(
            est.observations(),
            3,
            "private state starts from the cohort"
        );
        let _ = est;
    }

    #[test]
    fn cohort_budgeted_store_is_bit_equal_to_unbounded() {
        let dir = TempDir::new("models-store-coh-parity");
        let one = RidgeEstimator::new(3, 0.5).state_bytes();
        let cfg_tiny = StoreConfig::bounded(3, 0.5, one, one, &dir).with_cohorts(4, 0xBEEF, 3);
        let cfg_unb = StoreConfig::unbounded(3, 0.5).with_cohorts(4, 0xBEEF, 3);
        let mut tiny = EstimatorStore::new(cfg_tiny).unwrap();
        let mut unbounded = EstimatorStore::new(cfg_unb).unwrap();
        drive(&mut tiny, 9, 300);
        drive(&mut unbounded, 9, 300);
        assert!(tiny.stats().demotions > 0);
        assert!(
            tiny.stats().cohort_folds > 0,
            "vacuous: no folding happened"
        );
        assert_eq!(tiny.save_state(), unbounded.save_state());
        assert_eq!(tiny.state_digest(), unbounded.state_digest());
    }

    #[test]
    fn sketched_demotion_round_trips_sketch_rows_and_b() {
        let dir = TempDir::new("models-store-sketched");
        let one = RidgeEstimator::new(4, 1.0).state_bytes();
        let cfg = StoreConfig::bounded(4, 1.0, 2 * one, 512, &dir).with_sketched(2);
        let mut store = EstimatorStore::new(cfg).unwrap();
        drive(&mut store, 8, 300);
        let s = store.stats();
        assert!(s.demotions > 0, "no demotions under pressure: {s:?}");
        assert!(s.sketch_promotions > 0, "no sketch promotions: {s:?}");
        // The durable state (sketch rows + b) is residency-independent:
        // saving, restoring into a fresh store, and saving again is a
        // byte-identical round trip.
        let blob = store.save_state();
        let dir2 = TempDir::new("models-store-sketched2");
        let cfg2 = StoreConfig::bounded(4, 1.0, 2 * one, 512, &dir2).with_sketched(2);
        let mut fresh = EstimatorStore::new(cfg2).unwrap();
        fresh.restore_state(&blob).unwrap();
        assert_eq!(fresh.save_state(), blob);
        // The exact-state API is closed off in sketched mode.
        let h = store.lookup(UserId(0)).unwrap();
        assert!(matches!(
            store.estimator_for_observe(h, 9999),
            Err(ModelsError::Config(_))
        ));
    }

    #[test]
    fn sketched_warm_tier_is_smaller_than_exact_mode_warm_tier() {
        // Same trace, same budgets: sketched-mode demoted slots hold
        // SketchWarm (2d codes) instead of the quantized triangle.
        let dim = 16;
        let one = RidgeEstimator::new(dim, 1.0).state_bytes();
        let dir_e = TempDir::new("models-store-warmsz-e");
        let dir_s = TempDir::new("models-store-warmsz-s");
        let mut exact =
            EstimatorStore::new(StoreConfig::bounded(dim, 1.0, one, usize::MAX, &dir_e)).unwrap();
        let mut sketched = EstimatorStore::new(
            StoreConfig::bounded(dim, 1.0, one, usize::MAX, &dir_s).with_sketched(2),
        )
        .unwrap();
        drive(&mut exact, 6, 100);
        drive(&mut sketched, 6, 100);
        let (we, ws) = (exact.stats(), sketched.stats());
        assert!(we.warm > 0 && ws.warm > 0);
        assert!(
            ws.warm_bytes * 2 <= we.warm_bytes,
            "sketched warm {} vs exact warm {}",
            ws.warm_bytes,
            we.warm_bytes
        );
    }

    #[test]
    fn lru_tie_break_under_equal_last_access_is_byte_stable() {
        // Several users observed at the same sequence number: victim
        // order must fall back to handle order, and two identical runs
        // must produce byte-identical state and stats.
        fn run() -> (Vec<u8>, StoreStats, u64) {
            let dir = TempDir::new("models-store-tiebreak");
            let one = RidgeEstimator::new(2, 1.0).state_bytes();
            let mut store =
                EstimatorStore::new(StoreConfig::bounded(2, 1.0, 2 * one, 300, &dir)).unwrap();
            // Six users all touched at seq 7, then budget enforcement:
            // the (last_access, handle) key decides victims by handle.
            for u in 0..6u64 {
                let h = store.resolve(UserId(u));
                store.observe(h, &[0.1 * u as f64, 0.2], 1.0, 7).unwrap();
            }
            store.enforce_budget(7).unwrap();
            // Handles 0..4 (oldest by tiebreak) must have been demoted
            // first; the last-resolved survivors stay hot.
            let s = store.stats();
            let blob = store.save_state();
            let digest = store.state_digest();
            (blob, s, digest)
        }
        let (blob_a, stats_a, digest_a) = run();
        let (blob_b, stats_b, digest_b) = run();
        assert_eq!(blob_a, blob_b);
        assert_eq!(stats_a, stats_b);
        assert_eq!(digest_a, digest_b);
        assert!(stats_a.demotions > 0);
    }

    #[test]
    fn compaction_interleaved_with_faulting_keeps_parity() {
        // Enough dirty re-spills of a tiny population to trip the
        // spill log's compaction floor (1 MiB of garbage) while faults
        // keep promoting records back — parity with an unbounded twin
        // must survive the generation switch.
        let dir = TempDir::new("models-store-compact-fault");
        let one = RidgeEstimator::new(8, 1.0).state_bytes();
        let mut tiny = EstimatorStore::new(StoreConfig::bounded(8, 1.0, one, 600, &dir)).unwrap();
        let mut unbounded = EstimatorStore::new(StoreConfig::unbounded(8, 1.0)).unwrap();
        drive(&mut tiny, 3, 2500);
        drive(&mut unbounded, 3, 2500);
        let s = tiny.stats();
        assert!(
            s.spill_compactions > 0,
            "trace too small to trigger compaction: {s:?}"
        );
        assert!(s.faults > 0);
        assert_eq!(tiny.save_state(), unbounded.save_state());
    }

    #[test]
    fn spill_survives_reopen_via_same_config() {
        let dir = TempDir::new("models-store-reopen");
        let one = RidgeEstimator::new(2, 1.0).state_bytes();
        let cfg = StoreConfig::bounded(2, 1.0, one, one, &dir);
        let digest;
        {
            let mut store = EstimatorStore::new(cfg.clone()).unwrap();
            drive(&mut store, 5, 80);
            store.sync().unwrap();
            digest = store.state_digest();
            assert!(store.stats().demotions > 0);
        }
        // A new store over the same directory sees the spilled frames
        // (the slot map is rebuilt from a snapshot in real use; here we
        // check the log itself survives with its fingerprint).
        let store = EstimatorStore::new(cfg).unwrap();
        assert!(store.stats().spill_live_bytes > 0);
        let _ = digest;
    }
}
