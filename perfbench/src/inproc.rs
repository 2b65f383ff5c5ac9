//! In-process workloads: `sim-wide` and `multiuser-spill`.
//!
//! Both drive an [`ArrangementService`] directly — no wire, no WAL — and
//! time each `propose` and `feedback` call from outside. Each round's
//! context block is generated before the round, off the timed path.
//!
//! The run is cut into [`SEGMENTS`] time slices; each timing figure is the
//! median of the better half of the quiet slices (see [`crate::put_timing`]).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fasea_bandit::{LinUcb, Policy, ScorePool};
use fasea_core::{LinearPayoffModel, ProblemInstance};
use fasea_datagen::{ArrivalGenerator, CapacityModel, SyntheticConfig, SyntheticWorkload};
use fasea_models::{EstimatorStore, PersonalizedUcb, StoreConfig, UserSchedule};
use fasea_sim::ArrangementService;
use fasea_stats::crn::mix64;
use fasea_stats::CoinStream;

use crate::arith::{arranged_holds, median, unstolen_rate, Arranged, Reservoir, Summary};
use crate::host::{fnv1a, peak_rss_mib, RunDir, StealMeter};
use crate::probe::Probe;
use crate::report::Outcome;
use crate::trace::{per_round_us, totals_by_name, SharedTrace, Trace};
use crate::{
    accepts, coins_for, conflict_build, layer_shares, overhead_pct, put_timing, RunCtx,
    SegmentFigures, Shares, Triple, SEGMENTS,
};

/// Rounds at the start of a run left out of the latency figures while
/// caches fill.
const WARMUP_ROUNDS: u64 = 16;

/// Set-ups per run; `setup_s` is their median. A `multiuser-spill`
/// set-up takes about 2 ms, so it takes many to steady the median.
const WIDE_SETUPS: usize = 7;
const SPILL_SETUPS: usize = 61;

/// Latency samples kept per time slice; percentiles come from this
/// uniform sample when a slice runs more rounds.
const SAMPLES_PER_SLICE: usize = 8_192;

/// What one time slice measured.
struct Slice {
    /// (propose, propose + feedback) milliseconds of timed rounds.
    samples: Reservoir<(f64, f64)>,
    /// Timed rounds (after warm-up) and their summed call time.
    timed: u64,
    busy_ms: f64,
    /// All rounds of the slice and the events they arranged.
    rounds: u64,
    arranged: u64,
    steal_pct: f64,
}

/// A generated workload's arrival stream and ground truth. Its instance
/// moves into the service, so the benchmark holds no second copy of it.
struct Inputs {
    model: LinearPayoffModel,
    arrivals: ArrivalGenerator,
}

impl Inputs {
    fn split(workload: SyntheticWorkload) -> (ProblemInstance, Inputs) {
        let SyntheticWorkload {
            instance,
            model,
            arrivals,
            ..
        } = workload;
        (instance, Inputs { model, arrivals })
    }
}

struct Driven {
    rounds: u64,
    slices: Vec<Slice>,
    gen_us: f64,
    window: Triple,
    window_digest: u64,
    available_events: usize,
}

/// Runs [`SEGMENTS`] time slices of `seconds / SEGMENTS` each, and more
/// until at least `window` rounds are done. `digest` is read once, right
/// after round `window`.
fn drive(
    svc: &mut ArrangementService,
    inputs: &Inputs,
    coins: &CoinStream,
    seconds: f64,
    window: u64,
    trace: Option<&SharedTrace>,
    mut digest: impl FnMut(&ArrangementService) -> u64,
) -> Result<Driven, String> {
    let slice_len = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut slices: Vec<Slice> = Vec::new();
    let mut gen = Duration::ZERO;
    let mut window_at = None;
    let begin = |name, t| trace.map(|tr| tr.lock().expect("trace lock").begin(name, t));
    let end = |id: Option<usize>| {
        if let (Some(tr), Some(id)) = (trace, id) {
            tr.lock().expect("trace lock").end(id);
        }
    };
    let mut t = 0u64;
    let mut steal = StealMeter::start();
    while t < window || slices.len() < SEGMENTS {
        let mut slice = Slice {
            samples: Reservoir::new(SAMPLES_PER_SLICE),
            timed: 0,
            busy_ms: 0.0,
            rounds: 0,
            arranged: 0,
            steal_pct: 0.0,
        };
        let started = Instant::now();
        while started.elapsed() < slice_len {
            let g0 = Instant::now();
            let arrival = inputs.arrivals.arrival(t);
            gen += g0.elapsed();

            let span = begin("sim.propose", t);
            let p0 = Instant::now();
            let arrangement = svc
                .propose(&arrival)
                .map_err(|e| format!("propose t={t}: {e}"))?;
            let p1 = Instant::now();
            end(span);
            let answers = accepts(&inputs.model, coins, t, &arrival, arrangement.events());
            let span = begin("sim.feedback", t);
            let f0 = Instant::now();
            svc.feedback(&answers)
                .map_err(|e| format!("feedback t={t}: {e}"))?;
            let f1 = Instant::now();
            end(span);

            if t >= WARMUP_ROUNDS {
                let p = (p1 - p0).as_secs_f64() * 1e3;
                let r = p + (f1 - f0).as_secs_f64() * 1e3;
                slice.samples.push((p, r));
                slice.timed += 1;
                slice.busy_ms += r;
            }
            slice.rounds += 1;
            slice.arranged += arrangement.len() as u64;
            t += 1;
            if t == window {
                window_at = Some((Triple::of_service(svc), digest(svc)));
            }
        }
        slice.steal_pct = steal.lap();
        slices.push(slice);
    }
    let (window, window_digest) = window_at.expect("the loop runs at least `window` rounds");
    Ok(Driven {
        rounds: t,
        slices,
        gen_us: gen.as_secs_f64() * 1e6 / t as f64,
        window,
        window_digest,
        available_events: svc.available_events(),
    })
}

/// The correctness replica: the same rounds through a differently
/// configured service, untimed. Returns the wall time it took.
fn replay(
    svc: &mut ArrangementService,
    inputs: &Inputs,
    coins: &CoinStream,
    rounds: u64,
) -> Result<f64, String> {
    let started = Instant::now();
    for t in 0..rounds {
        let arrival = inputs.arrivals.arrival(t);
        let arrangement = svc
            .propose(&arrival)
            .map_err(|e| format!("replica propose t={t}: {e}"))?;
        let answers = accepts(&inputs.model, coins, t, &arrival, arrangement.events());
        svc.feedback(&answers)
            .map_err(|e| format!("replica feedback t={t}: {e}"))?;
    }
    Ok(started.elapsed().as_secs_f64())
}

fn remaining_digest(svc: &ArrangementService) -> u64 {
    let bytes: Vec<u8> = svc
        .remaining()
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Fills the end-to-end figures and the checks every in-process run shares.
fn finish(out: &mut Outcome, driven: &Driven, setups: &[f64], instance: &ProblemInstance) {
    let segments: Vec<SegmentFigures> = driven
        .slices
        .iter()
        .map(|s| {
            let (propose, round): (Vec<f64>, Vec<f64>) = s.samples.items().iter().copied().unzip();
            SegmentFigures {
                rounds_per_s: unstolen_rate(s.timed, s.busy_ms / 1e3, s.steal_pct),
                rounds_per_s_wall: s.timed as f64 / (s.busy_ms / 1e3),
                steal_pct: s.steal_pct,
                ..SegmentFigures::latencies(&round, &propose)
            }
        })
        .collect();
    let pooled = |f: fn(&(f64, f64)) -> f64| {
        driven
            .slices
            .iter()
            .flat_map(|s| s.samples.items().iter().map(f))
            .collect::<Vec<f64>>()
    };
    let propose = Summary::of(&pooled(|s| s.0), 99.0);
    let round = Summary::of(&pooled(|s| s.1), 99.0);
    out.attempted = driven.rounds;
    put_timing(out, &segments);
    let e = &mut out.end_to_end;
    e.put(
        "accepted_per_round",
        driven.window.accepted as f64 / driven.window.rounds as f64,
        "events/round",
    );
    e.put("setup_s", median(setups), "s");
    e.put(
        "peak_rss_mb",
        peak_rss_mib(std::process::id()).unwrap_or(f64::NAN),
        "MiB",
    );
    let f = &mut out.facts;
    f.int("rounds", driven.rounds);
    f.int(
        "latency_samples",
        driven.slices.iter().map(|s| s.samples.seen()).sum(),
    );
    f.int("latency_samples_kept", round.n as u64);
    f.int("segments", driven.slices.len() as u64);
    f.num("round_p99_ms_pooled", round.tail);
    f.num("round_p99_percentile_pooled", round.tail_p);
    f.num("propose_p99_ms_pooled", propose.tail);
    f.num("round_mean_ms", round.mean);
    f.int("window_rounds", driven.window.rounds);
    f.int("window_arranged", driven.window.arranged);
    f.int("window_accepted", driven.window.accepted);
    f.int("setups", setups.len() as u64);
    f.num("bench.gen_us", driven.gen_us);
    f.int("available_events_end", driven.available_events as u64);

    // Steady work: seats must not run out inside the timed window.
    out.check(driven.available_events * 2 >= instance.num_events(), || {
        format!(
            "seats ran out: {} of {} events still available",
            driven.available_events,
            instance.num_events()
        )
    });
    let last = driven.slices.last().expect("at least one slice");
    let window = Arranged {
        events: driven.window.arranged,
        rounds: driven.window.rounds,
    };
    let held = arranged_holds(
        window,
        Arranged {
            events: last.arranged,
            rounds: last.rounds,
        },
    );
    out.check(held.is_ok(), || held.unwrap_err());
}

/// Per-layer figures from an in-process trace.
fn traced_layers(out: &mut Outcome, trace: &Trace, rounds: u64, models: bool) {
    let totals = totals_by_name(trace.spans());
    let mean_us = |name: &str, self_time: bool| per_round_us(&totals, name, self_time, rounds);
    let sim_self = mean_us("sim.propose", true) + mean_us("sim.feedback", true);
    let round = mean_us("sim.propose", false) + mean_us("sim.feedback", false);
    let score = mean_us("bandit.score", false);
    let oracle = mean_us("bandit.oracle", false);
    let observe = mean_us("bandit.observe", false);
    let p = &mut out.per_layer;
    p.put("sim.propose_us", mean_us("sim.propose", true), "us");
    p.put("sim.feedback_us", mean_us("sim.feedback", true), "us");
    p.put("bandit.score_us", score, "us");
    p.put("bandit.oracle_us", oracle, "us");
    p.put("bandit.observe_us", observe, "us");
    let mut shares = Shares {
        sim: sim_self,
        ..Shares::default()
    };
    if models {
        // The personalized policy routes scoring and updates through the
        // model store; only the arrangement step is plain bandit code.
        shares.models = score + observe;
        shares.bandit = oracle;
        out.facts.num("models.score_us", score);
        out.facts.num("models.observe_us", observe);
    } else {
        shares.bandit = score + oracle + observe;
    }
    layer_shares(out, &shares, round);
}

/// `sim-wide`: |V| = 20 000, d = 20, about ten conflicts per event, UCB
/// with serial scoring, greedy oracle. The replica scores on a 2-thread
/// `ScorePool` and must arrange bit for bit what the timed run arranged.
///
/// The timed run scores serially because on a shared 2-vCPU host the
/// second vCPU is often not really there: 2-thread rounds ran at 205 to
/// 510 rounds/s between runs of one seed, depending on it.
pub fn sim_wide(ctx: &RunCtx) -> Result<Outcome, String> {
    let events = if ctx.smoke { 4_000 } else { 20_000 };
    let window = if ctx.smoke { 20 } else { 1_000 };
    let config = SyntheticConfig {
        num_events: events,
        dim: 20,
        conflict_ratio: 10.0 / (events - 1) as f64,
        seed: ctx.seed,
        ..SyntheticConfig::default()
    };
    let trace = ctx.trace.then(|| Trace::shared(Instant::now()));
    let ucb = |trace: Option<SharedTrace>| -> Box<dyn Policy> {
        match trace {
            Some(tr) => Box::new(Probe::new(LinUcb::new(20, 1.0, 2.0), Some(tr)).0),
            None => Box::new(LinUcb::new(20, 1.0, 2.0)),
        }
    };
    let build = |trace: Option<SharedTrace>| {
        let (instance, inputs) = Inputs::split(SyntheticWorkload::generate(config.clone()));
        (inputs, ArrangementService::new(instance, ucb(trace)))
    };
    let pool = Arc::new(ScorePool::new(2));
    pool.wait_ready();
    let pooled_replica = |instance: &ProblemInstance, trace: Option<SharedTrace>| {
        let mut svc = ArrangementService::new(instance.clone(), ucb(trace));
        svc.install_score_pool(Some(Arc::clone(&pool)));
        svc
    };
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..WIDE_SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(trace.clone()));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, mut svc) = built.expect("built at least once");
    let coins = coins_for(ctx.seed);
    let digest =
        |svc: &ArrangementService| fnv1a(&svc.policy().save_state()) ^ remaining_digest(svc);
    let driven = drive(
        &mut svc,
        &inputs,
        &coins,
        ctx.seconds,
        window,
        trace.as_ref(),
        digest,
    )?;
    let mut out = Outcome::default();
    finish(&mut out, &driven, &setups, svc.instance());
    // The replicas' copy is made only after the peak RSS was read.
    let instance = svc.instance().clone();
    drop(svc);

    // Replica: two score threads must arrange exactly what serial
    // scoring arranged.
    let mut replica = pooled_replica(&instance, None);
    let plain_s = replay(&mut replica, &inputs, &coins, window)?;
    out.check(Triple::of_service(&replica) == driven.window, || {
        format!(
            "accounting after {window} rounds: 2-thread replica {:?} != run {:?}",
            Triple::of_service(&replica),
            driven.window
        )
    });
    out.check(digest(&replica) == driven.window_digest, || {
        format!("learner/capacity digest after {window} rounds differs from the 2-thread replica")
    });
    drop(replica);

    if let Some(trace) = trace {
        let mut replica = pooled_replica(&instance, Some(Trace::shared(Instant::now())));
        let traced_s = replay(&mut replica, &inputs, &coins, window)?;
        drop(replica);
        let mut again = pooled_replica(&instance, None);
        let plain_after = replay(&mut again, &inputs, &coins, window)?;
        out.per_layer.put(
            "bench.trace_overhead_pct",
            overhead_pct(plain_s, traced_s, plain_after),
            "%",
        );
        let trace = Arc::try_unwrap(trace)
            .map_err(|_| "trace still shared".to_string())?
            .into_inner()
            .expect("trace lock");
        traced_layers(&mut out, &trace, driven.rounds, false);
        out.per_layer.put("bench.gen_us", driven.gen_us, "us");
        conflict_build(&mut out, &config);
        ctx.write_trace(&trace);
    }
    Ok(out)
}

/// Store settings of `multiuser-spill`.
struct SpillShape {
    users: usize,
    hot_bytes: usize,
    warm_bytes: usize,
    cohorts: usize,
    folds: u64,
    window: u64,
}

fn spill_shape(smoke: bool) -> SpillShape {
    if smoke {
        SpillShape {
            users: 600,
            hot_bytes: 96 << 10,
            warm_bytes: 24 << 10,
            cohorts: 16,
            folds: 4,
            window: 2_000,
        }
    } else {
        SpillShape {
            users: 4_000,
            hot_bytes: 512 << 10,
            warm_bytes: 128 << 10,
            cohorts: 64,
            folds: 4,
            window: 20_000,
        }
    }
}

/// `multiuser-spill`: per-user UCB over a bounded estimator store whose
/// working set is several times its hot + warm budget.
pub fn multiuser_spill(ctx: &RunCtx, run_dir: &RunDir) -> Result<Outcome, String> {
    let shape = spill_shape(ctx.smoke);
    let config = SyntheticConfig {
        num_events: 300,
        dim: 8,
        capacity: CapacityModel {
            mean: 5_000.0,
            std: 1_000.0,
        },
        seed: ctx.seed,
        ..SyntheticConfig::default()
    };
    let schedule = UserSchedule::new(mix64(ctx.seed ^ 0x5C4E_D01E), shape.users);
    let cohort_salt = mix64(ctx.seed ^ 0xC040_0947);
    let store_config = |spill: Option<std::path::PathBuf>| {
        let base = match spill {
            Some(dir) => StoreConfig::bounded(8, 1.0, shape.hot_bytes, shape.warm_bytes, dir),
            None => StoreConfig::unbounded(8, 1.0),
        };
        base.with_cohorts(shape.cohorts, cohort_salt, shape.folds)
    };
    let trace = ctx.trace.then(|| Trace::shared(Instant::now()));
    type Shared = Arc<Mutex<PersonalizedUcb>>;
    let build = |spill: std::path::PathBuf, trace: Option<SharedTrace>| -> Result<_, String> {
        let (instance, inputs) = Inputs::split(SyntheticWorkload::generate(config.clone()));
        let store = EstimatorStore::new(store_config(Some(spill)))
            .map_err(|e| format!("open model store: {e}"))?;
        let (probe, handle) = Probe::new(PersonalizedUcb::new(store, schedule, 2.0), trace);
        let svc = ArrangementService::new(instance, Box::new(probe));
        Ok((inputs, svc, handle))
    };
    let mut setups = Vec::new();
    let mut built: Option<(Inputs, ArrangementService, Shared)> = None;
    for i in 0..SPILL_SETUPS {
        drop(built.take());
        // The run directory is the benchmark's, made before the clock starts.
        let spill = run_dir
            .sub(&format!("spill-{i}"))
            .map_err(|e| format!("spill dir: {e}"))?;
        let t0 = Instant::now();
        built = Some(build(spill, trace.clone())?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, mut svc, handle) = built.expect("built at least once");
    let coins = coins_for(ctx.seed);
    let store_digest = |h: &Shared| h.lock().expect("policy lock").store().state_digest();
    let driven = drive(
        &mut svc,
        &inputs,
        &coins,
        ctx.seconds,
        shape.window,
        trace.as_ref(),
        |svc| store_digest(&handle) ^ remaining_digest(svc),
    )?;
    let mut out = Outcome::default();
    finish(&mut out, &driven, &setups, svc.instance());
    let stats = handle.lock().expect("policy lock").store().stats();
    let resident = handle.lock().expect("policy lock").store().resident_bytes();
    let arranged = svc.accounting().total_arranged();
    let instance = svc.instance().clone();
    drop(svc);

    let rounds = driven.rounds as f64;
    let private = arranged.saturating_sub(stats.cohort_folds);
    let f = &mut out.facts;
    f.int("users", shape.users as u64);
    f.int("hot_budget_bytes", shape.hot_bytes as u64);
    f.int("warm_budget_bytes", shape.warm_bytes as u64);
    f.int("models.faults", stats.faults);
    f.int("models.demotions", stats.demotions);
    f.int("models.evictions", stats.evictions);
    f.int("models.cohort_folds", stats.cohort_folds);
    f.int("models.private_updates", private);
    f.int("models.cold_users_end", stats.cold as u64);
    f.int("models.spill_appends", stats.spill_appends);
    f.int("models.spill_file_bytes", stats.spill_file_bytes);
    f.int("models.resident_bytes", resident as u64);
    f.num("visits_per_user", rounds / shape.users as f64);

    // Replica: the same rounds through an unbounded store must reach the
    // same logical state (exact mode is residency-independent).
    let unbounded = |trace: Option<SharedTrace>| -> Result<(ArrangementService, Shared), String> {
        let store =
            EstimatorStore::new(store_config(None)).map_err(|e| format!("replica store: {e}"))?;
        let (probe, handle) = Probe::new(PersonalizedUcb::new(store, schedule, 2.0), trace);
        let svc = ArrangementService::new(instance.clone(), Box::new(probe));
        Ok((svc, handle))
    };
    let (mut replica, replica_handle) = unbounded(None)?;
    let plain_s = replay(&mut replica, &inputs, &coins, shape.window)?;
    out.check(Triple::of_service(&replica) == driven.window, || {
        format!(
            "accounting after {} rounds: unbounded replica {:?} != run {:?}",
            shape.window,
            Triple::of_service(&replica),
            driven.window
        )
    });
    out.check(
        store_digest(&replica_handle) ^ remaining_digest(&replica) == driven.window_digest,
        || {
            format!(
                "store digest after {} rounds differs from the unbounded replica",
                shape.window
            )
        },
    );
    drop(replica);

    if let Some(trace) = trace {
        let (mut replica, _) = unbounded(Some(Trace::shared(Instant::now())))?;
        let traced_s = replay(&mut replica, &inputs, &coins, shape.window)?;
        drop(replica);
        let (mut again, _) = unbounded(None)?;
        let plain_after = replay(&mut again, &inputs, &coins, shape.window)?;
        out.per_layer.put(
            "bench.trace_overhead_pct",
            overhead_pct(plain_s, traced_s, plain_after),
            "%",
        );
        let trace = Arc::try_unwrap(trace)
            .map_err(|_| "trace still shared".to_string())?
            .into_inner()
            .expect("trace lock");
        traced_layers(&mut out, &trace, driven.rounds, true);
        out.per_layer.put("bench.gen_us", driven.gen_us, "us");
        let p = &mut out.per_layer;
        p.put(
            "models.faults_per_round",
            stats.faults as f64 / rounds,
            "count",
        );
        p.put(
            "models.demotions_per_round",
            stats.demotions as f64 / rounds,
            "count",
        );
        p.put(
            "models.evictions_per_round",
            stats.evictions as f64 / rounds,
            "count",
        );
        p.put(
            "models.private_update_frac",
            private as f64 / arranged.max(1) as f64,
            "ratio",
        );
        p.put(
            "models.resident_mb",
            resident as f64 / (1 << 20) as f64,
            "MiB",
        );
        p.put(
            "models.spill_bytes_per_round",
            stats.spill_file_bytes as f64 / rounds,
            "B/round",
        );
        conflict_build(&mut out, &config);
        ctx.write_trace(&trace);
    }
    Ok(out)
}
