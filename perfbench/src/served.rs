//! Served workloads: `serve-paper` and `serve-scaled`.
//!
//! The real server (`fasea-exp serve`) runs as a child process on the
//! paper's Table-4 universe with fsync-before-ack and group commit. One
//! run has three phases:
//!
//! 1. open loop: arrivals on a fixed schedule at [`OPEN_RATE`], each
//!    timed from its due time, over two connections;
//! 2. closed loop: two connections, each sending its next round when
//!    the previous one is acknowledged;
//! 3. SIGKILL, then a restart on the same directory (recovery).
//!
//! Context blocks come from a ring of [`RING`] arrivals generated before
//! the first phase, so no context is generated on the timed path; round
//! `t` uses ring entry `t mod RING` with its own acceptance coins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_core::{EventId, UserArrival};
use fasea_datagen::SyntheticWorkload;
use fasea_experiments::serve_cmd::WorkloadSpec;
use fasea_serve::{
    BackendService, ClientConfig, ClientError, Metrics, ServeClient, WireHistogram, WireStats,
};
use fasea_shard::ShardedArrangementService;
use fasea_sim::{ArrangementService, DurableArrangementService, DurableOptions, ServiceError};
use fasea_stats::CoinStream;
use fasea_store::FsyncPolicy;

use crate::arith::{
    arranged_holds, due_offset, lateness, median, phase_rounds, unstolen_rate, Arranged, Summary,
};
use crate::host::{dir_bytes, peak_rss_mib, RunDir, ServerChild, StealMeter};
use crate::probe::Probe;
use crate::report::Outcome;
use crate::trace::{per_round_us, totals_by_name, SharedTrace, Trace};
use crate::{
    accepts, conflict_build, layer_shares, overhead_pct, put_timing, RunCtx, SegmentFigures,
    Shares, Triple, SEGMENTS,
};

/// Open-loop arrival rate, rounds per second, the same for both served
/// workloads. It sits well under the closed-loop capacity the served
/// workloads keep even while other tenants load a 2-vCPU host (~200
/// rounds/s at 25 % steal; ~600–750 on a quiet host), so the open loop
/// measures round latency rather than a queue that builds whenever the
/// host slows.
pub const OPEN_RATE: f64 = 100.0;
/// Distinct context blocks the arrivals cycle through.
pub const RING: usize = 256;
/// Load connections (and load threads).
const CONNECTIONS: usize = 2;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;
/// Untimed rounds per connection before the open loop starts.
const WARMUP_ROUNDS: u64 = 32;
/// Share of each segment given to its open loop.
const OPEN_SHARE: f64 = 0.6;
/// Rounds the traced run replays in-process through the durable service.
const DURABLE_REPLAY_ROUNDS: u64 = 1_000;
/// Churn period and horizon of `serve-scaled`.
const CHURN_PERIOD: u64 = 100;
const CHURN_HORIZON: u64 = 100_000;

/// What distinguishes the two served workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    shards: usize,
    pipeline_depth: usize,
    churn: bool,
}

impl Shape {
    /// `serve-paper`: single actor, pipeline depth 1, static universe.
    pub fn paper() -> Shape {
        Shape {
            shards: 0,
            pipeline_depth: 1,
            churn: false,
        }
    }

    /// `serve-scaled`: two shards, pipeline depth 2, event churn.
    pub fn scaled() -> Shape {
        Shape {
            shards: 2,
            pipeline_depth: 2,
            churn: true,
        }
    }
}

fn spec(seed: u64, shape: Shape) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        events: 500,
        dim: 20,
        policy: "ucb".into(),
        churn_period: if shape.churn { CHURN_PERIOD } else { 0 },
        churn_horizon: CHURN_HORIZON,
        ..WorkloadSpec::default()
    }
}

fn server_args(spec: &WorkloadSpec, shape: Shape, dir: &std::path::Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "--dir",
        &dir.display().to_string(),
        "--seed",
        &spec.seed.to_string(),
        "--events",
        &spec.events.to_string(),
        "--dim",
        &spec.dim.to_string(),
        "--policy",
        &spec.policy,
        "--fsync",
        "always",
        "--group-commit",
        "1",
        "--pipeline-depth",
        &shape.pipeline_depth.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if shape.shards > 0 {
        args.extend(["--shards".to_string(), shape.shards.to_string()]);
    }
    if shape.churn {
        args.extend([
            "--churn".to_string(),
            CHURN_PERIOD.to_string(),
            "--churn-horizon".to_string(),
            CHURN_HORIZON.to_string(),
        ]);
    }
    args
}

fn client_config() -> ClientConfig {
    ClientConfig {
        // A round that takes longer than this counts as timed out.
        read_timeout: Duration::from_secs(10),
        reconnect_attempts: 3,
        ..ClientConfig::default()
    }
}

/// Everything the load side needs to run a round.
struct Load<'a> {
    addr: &'a str,
    workload: &'a SyntheticWorkload,
    ring: &'a [UserArrival],
    coins: &'a CoinStream,
}

/// When one round was sent, claimed, proposed and acknowledged.
#[derive(Debug, Clone, Copy)]
struct RoundTimes {
    t: u64,
    sent: Instant,
    claimed: Instant,
    proposed: Instant,
    acked: Instant,
}

impl Load<'_> {
    /// Claim → propose → feedback for whatever round the server grants.
    fn round(&self, client: &mut ServeClient) -> Result<RoundTimes, ClientError> {
        let sent = Instant::now();
        let claimed = client.claim()?;
        let claimed_at = Instant::now();
        let t = claimed.t;
        let arrival = &self.ring[t as usize % RING];
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        self.workload.instance.num_events() as u32,
                        self.workload.instance.dim() as u32,
                        arrival.contexts.as_slice().to_vec(),
                    )?
                    .1
            }
        };
        let proposed = Instant::now();
        let events: Vec<EventId> = arrangement.iter().map(|&v| EventId(v as usize)).collect();
        let answers = accepts(&self.workload.model, self.coins, t, arrival, &events);
        client.feedback(&answers)?;
        Ok(RoundTimes {
            t,
            sent,
            claimed: claimed_at,
            proposed,
            acked: Instant::now(),
        })
    }

    fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(self.addr.to_string(), client_config())
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: Instant,
    times: Option<RoundTimes>,
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

impl Arrival {
    /// Due time to durable feedback acknowledgement.
    fn round_ms(&self) -> Option<f64> {
        self.times.map(|t| ms_between(self.due, t.acked))
    }

    /// Due time to arrangement received: the user's wait.
    fn propose_ms(&self) -> Option<f64> {
        self.times.map(|t| ms_between(self.due, t.proposed))
    }

    /// How late the generator sent it.
    fn late_ms(&self) -> Option<f64> {
        self.times
            .map(|t| lateness(self.due, t.sent).as_secs_f64() * 1e3)
    }
}

/// One open-loop + closed-loop segment.
struct Segment {
    arrivals: Vec<Arrival>,
    /// Closed-loop rounds acknowledged, their wall time, and the steal
    /// during them.
    closed: (u64, f64, f64),
    steal_pct: f64,
    /// Both phases' rounds and the events they arranged.
    arranged: Arranged,
}

/// Phase 1: `n` arrivals at `rate`, shared by the connections. Each
/// arrival is sent at its due time, or as soon as a connection is free.
fn open_loop(
    load: &Load<'_>,
    clients: &mut [ServeClient],
    n: u64,
    rate: f64,
) -> Result<(Vec<Arrival>, u64), String> {
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let per_thread = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || -> Result<(Vec<Arrival>, u64), String> {
                    let mut arrivals = Vec::new();
                    let mut failed = 0;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            return Ok((arrivals, failed));
                        }
                        let due = start + due_offset(k, rate);
                        wait_until(due);
                        match load.round(client) {
                            Ok(times) => arrivals.push(Arrival {
                                due,
                                times: Some(times),
                            }),
                            Err(e) => {
                                eprintln!("perfbench: open-loop arrival {k}: {e}");
                                failed += 1;
                                arrivals.push(Arrival { due, times: None });
                                client.reconnect().map_err(|e| format!("reconnect: {e}"))?;
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("an open-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    let mut failed = 0;
    for r in per_thread {
        let (arrivals, f) = r?;
        all.extend(arrivals);
        failed += f;
    }
    all.sort_by_key(|a| a.due);
    Ok((all, failed))
}

/// How long before an arrival's due time the generator stops sleeping
/// and spins, so a late timer wake-up is absorbed before the due time
/// instead of being charged to the arrival.
const SPIN_BEFORE_DUE: Duration = Duration::from_millis(1);

/// Returns at `due`: sleeps until [`SPIN_BEFORE_DUE`] before it, then
/// spins. Returns at once when `due` has passed.
fn wait_until(due: Instant) {
    if let Some(wait) = due
        .checked_sub(SPIN_BEFORE_DUE)
        .and_then(|wake| wake.checked_duration_since(Instant::now()))
    {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many rounds per connection.
    Rounds(u64),
    /// This many seconds after the loop starts.
    After(f64),
}

/// A closed loop over the connections: each sends its next round when the
/// previous one is acknowledged. Returns rounds acknowledged, rounds
/// failed, and the loop's wall time up to the last acknowledgement.
fn closed_loop(
    load: &Load<'_>,
    clients: &mut [ServeClient],
    stop: Stop,
) -> Result<(u64, u64, f64), String> {
    let start = Instant::now();
    let per_thread = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || -> Result<(u64, u64, Instant), String> {
                    let (mut acked, mut failed) = (0, 0);
                    let mut last = start;
                    let go_on = |done: u64| match stop {
                        Stop::Rounds(n) => done < n,
                        Stop::After(secs) => start.elapsed().as_secs_f64() < secs,
                    };
                    while go_on(acked + failed) {
                        match load.round(client) {
                            Ok(times) => {
                                acked += 1;
                                last = times.acked;
                            }
                            Err(e) => {
                                eprintln!("perfbench: closed-loop round: {e}");
                                failed += 1;
                                client.reconnect().map_err(|e| format!("reconnect: {e}"))?;
                            }
                        }
                    }
                    Ok((acked, failed, last))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a closed-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    let (mut acked, mut failed, mut end) = (0, 0, start);
    for r in per_thread {
        let (a, f, last) = r?;
        acked += a;
        failed += f;
        end = end.max(last);
    }
    Ok((acked, failed, (end - start).as_secs_f64()))
}

fn stats(addr: &str) -> Result<WireStats, String> {
    ServeClient::connect(addr.to_string(), client_config())
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))
}

fn hist<'a>(s: &'a WireStats, name: &str) -> Option<&'a WireHistogram> {
    s.histograms.iter().find(|h| h.name == name)
}

fn hist_mean(s: &WireStats, name: &str) -> f64 {
    hist(s, name).map_or(0.0, |h| h.sum_us as f64 / h.count.max(1) as f64)
}

/// Starts a server and connects to it; returns it with the seconds from
/// spawn to a completed handshake.
fn start_server(
    ctx: &RunCtx,
    args: &[String],
    fingerprint: u64,
) -> Result<(ServerChild, f64), String> {
    let t0 = Instant::now();
    let server = ServerChild::spawn(&ctx.server_bin, args)?;
    let client = ServeClient::connect(server.addr.clone(), client_config())
        .map_err(|e| format!("handshake: {e}"))?;
    let ready = t0.elapsed().as_secs_f64();
    let info = client.info().ok_or("handshake carried no server info")?;
    if info.fingerprint != fingerprint {
        return Err(format!(
            "server fingerprint {:#x} != workload {fingerprint:#x}",
            info.fingerprint
        ));
    }
    Ok((server, ready))
}

/// Replays rounds `0..rounds` in-process through a plain service with
/// the server's churn, contexts and coins. Returns the accounting after
/// `checkpoint` rounds and at the end, and the wall time.
fn replica(
    spec: &WorkloadSpec,
    load: &Load<'_>,
    rounds: u64,
    checkpoint: u64,
    trace: Option<SharedTrace>,
) -> Result<(Triple, Triple, f64), String> {
    let policy = Probe::new(LinUcb::new(spec.dim, 1.0, 2.0), trace.clone()).0;
    let mut svc = ArrangementService::new(load.workload.instance.clone(), Box::new(policy));
    svc.install_oracle(Some(spec.oracle.build()));
    let churn = spec.churn();
    let mut at_checkpoint = Triple::of_service(&svc);
    let started = Instant::now();
    let span = |name, t| {
        trace
            .as_ref()
            .map(|tr| tr.lock().expect("trace lock").begin(name, t))
    };
    let end = |id: Option<usize>| {
        if let (Some(tr), Some(id)) = (&trace, id) {
            tr.lock().expect("trace lock").end(id);
        }
    };
    for t in 0..rounds {
        for action in churn.actions_at(t) {
            svc.apply_lifecycle(action.event, action.capacity)
                .map_err(|e| format!("replica lifecycle t={t}: {e}"))?;
        }
        let arrival = &load.ring[t as usize % RING];
        let id = span("sim.propose", t);
        let arrangement = svc
            .propose(arrival)
            .map_err(|e| format!("replica propose t={t}: {e}"))?;
        end(id);
        let answers = accepts(
            &load.workload.model,
            load.coins,
            t,
            arrival,
            arrangement.events(),
        );
        let id = span("sim.feedback", t);
        svc.feedback(&answers)
            .map_err(|e| format!("replica feedback t={t}: {e}"))?;
        end(id);
        if t + 1 == checkpoint {
            at_checkpoint = Triple::of_service(&svc);
        }
    }
    Ok((
        at_checkpoint,
        Triple::of_service(&svc),
        started.elapsed().as_secs_f64(),
    ))
}

/// Store and shard costs per round from the in-process durable replay.
struct ReplayCosts {
    /// Self time of the durable propose + feedback calls beyond the
    /// policy, µs per round (sim self time plus WAL encode and append).
    durable_self_us: f64,
    wait_durable_us: f64,
    route_us: f64,
    commit_us: f64,
    accounting: Triple,
}

fn wait_durable(svc: &BackendService, lsn: u64) -> Result<(), ServiceError> {
    match svc {
        BackendService::Single(s) => s.wait_durable(lsn),
        BackendService::Sharded(s) => s.wait_durable(lsn),
    }
}

/// Replays rounds `0..rounds` through the server's own backend type with
/// the server's options, timing the store calls from outside. Shard
/// timings go through the backend's metrics drain, as in the server.
fn durable_replay(
    svc: &mut BackendService,
    spec: &WorkloadSpec,
    load: &Load<'_>,
    rounds: u64,
    trace: &SharedTrace,
) -> Result<ReplayCosts, String> {
    let churn = spec.churn();
    let metrics = Metrics::default();
    let span = |name, t| trace.lock().expect("trace lock").begin(name, t);
    let end = |id| trace.lock().expect("trace lock").end(id);
    let err = |what: &str, t: u64, e: ServiceError| format!("durable replay {what} t={t}: {e}");
    for t in 0..rounds {
        for action in churn.actions_at(t) {
            svc.lifecycle(action.event, action.capacity)
                .map_err(|e| err("lifecycle", t, e))?;
        }
        let arrival = &load.ring[t as usize % RING];
        let id = span("store.propose", t);
        let (arrangement, lsn) = svc
            .propose_deferred(arrival)
            .map_err(|e| err("propose", t, e))?;
        end(id);
        let id = span("store.wait_durable", t);
        wait_durable(svc, lsn).map_err(|e| err("wait", t, e))?;
        end(id);
        let answers = accepts(
            &load.workload.model,
            load.coins,
            t,
            arrival,
            arrangement.events(),
        );
        let id = span("store.feedback", t);
        let (_, lsn) = svc
            .feedback_deferred(&answers)
            .map_err(|e| err("feedback", t, e))?;
        end(id);
        let id = span("store.wait_durable", t);
        wait_durable(svc, lsn).map_err(|e| err("wait", t, e))?;
        end(id);
        svc.drain_shard_metrics(&metrics);
    }
    let guard = trace.lock().expect("trace lock");
    let totals = totals_by_name(guard.spans());
    let per_round = |name: &str, self_time: bool| per_round_us(&totals, name, self_time, rounds);
    let hist_sum = |h: &fasea_serve::Histogram| h.snapshot("").sum_us as f64 / rounds as f64;
    Ok(ReplayCosts {
        durable_self_us: per_round("store.propose", true) + per_round("store.feedback", true),
        wait_durable_us: per_round("store.wait_durable", false),
        route_us: hist_sum(&metrics.shard_route_us),
        commit_us: hist_sum(&metrics.cross_shard_commit_us),
        accounting: Triple::of_service(svc.service()),
    })
}

/// Runs one served workload.
pub fn run(ctx: &RunCtx, run_dir: &RunDir, shape: Shape) -> Result<Outcome, String> {
    let spec = spec(ctx.seed, shape);
    let workload = spec.workload();
    let coins = spec.feedback_coins();
    let fingerprint = spec.fingerprint()?;
    let mut out = Outcome::default();

    // Context ring, generated before anything is timed.
    let g0 = Instant::now();
    let ring: Vec<UserArrival> = (0..RING as u64)
        .map(|t| workload.arrivals.arrival(t))
        .collect();
    let gen_us = g0.elapsed().as_secs_f64() * 1e6 / RING as f64;

    // Set-up: several start-ups on fresh directories; the last one serves.
    let mut setups = Vec::new();
    let mut server = None;
    let mut main_dir = None;
    for i in 0..SETUP_SPAWNS {
        drop(server.take());
        let dir = run_dir
            .sub(&format!("serve-{i}"))
            .map_err(|e| format!("run dir: {e}"))?;
        let (child, ready) = start_server(ctx, &server_args(&spec, shape, &dir), fingerprint)?;
        setups.push(ready);
        server = Some(child);
        main_dir = Some(dir);
    }
    let mut server = server.expect("at least one start-up");
    let main_dir = main_dir.expect("at least one start-up");
    let addr = server.addr.clone();
    let load = Load {
        addr: &addr,
        workload: &workload,
        ring: &ring,
        coins: &coins,
    };

    // Connections, then a short untimed closed loop so lazy set-up on
    // both sides (first allocations, page faults, caches) is done before
    // anything is timed.
    let mut clients = (0..CONNECTIONS)
        .map(|_| load.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let (_, warm_failed, _) = closed_loop(&load, &mut clients, Stop::Rounds(WARMUP_ROUNDS))?;
    let before = stats(&addr)?;

    // Phases 1 and 2, interleaved: each segment runs an open loop and
    // then a closed loop; each timing figure is the median of the better
    // half of the segments (see `put_timing`).
    let seg_secs = ctx.seconds / SEGMENTS as f64;
    let n_seg = (OPEN_RATE * seg_secs * OPEN_SHARE).round().max(1.0) as u64;
    let mut segments: Vec<Segment> = Vec::new();
    let mut phase_errors = Vec::new();
    let (mut open_failed, mut closed_acked, mut closed_failed) = (0, 0, 0);
    let mut first_open: Option<WireStats> = None;
    let mut last = before.clone();
    let mut steal = StealMeter::start();
    for _ in 0..SEGMENTS {
        let (arrivals, failed) = open_loop(&load, &mut clients, n_seg, OPEN_RATE)?;
        let after_open = stats(&addr)?;
        phase_errors.extend(
            phase_rounds(
                last.rounds_completed,
                after_open.rounds_completed,
                n_seg - failed,
            )
            .err(),
        );
        open_failed += failed;

        let mut closed_steal = StealMeter::start();
        let (acked, failed, wall) = closed_loop(
            &load,
            &mut clients,
            Stop::After(seg_secs * (1.0 - OPEN_SHARE)),
        )?;
        let closed = (acked, wall, closed_steal.lap());
        let after_closed = stats(&addr)?;
        phase_errors.extend(
            phase_rounds(
                after_open.rounds_completed,
                after_closed.rounds_completed,
                acked,
            )
            .err(),
        );
        closed_acked += acked;
        closed_failed += failed;
        segments.push(Segment {
            arrivals,
            closed,
            steal_pct: steal.lap(),
            arranged: Arranged {
                events: after_closed.total_arranged - last.total_arranged,
                rounds: after_closed.rounds_completed - last.rounds_completed,
            },
        });
        first_open.get_or_insert(after_open);
        last = after_closed;
    }
    drop(clients);
    let after_open = first_open.expect("at least one segment");
    let after_closed = last;
    let total_rounds = after_closed.rounds_completed;
    let n_open = n_seg * segments.len() as u64;

    // Phase 3: SIGKILL and recovery on the same directory.
    let peak_rss = peak_rss_mib(server.pid()).unwrap_or(f64::NAN);
    let disk_bytes = dir_bytes(&main_dir);
    server.kill();
    let (mut recovered, recovery_s) =
        start_server(ctx, &server_args(&spec, shape, &main_dir), fingerprint)?;
    let recovered_stats = stats(&recovered.addr)?;
    let clean_shutdown = ServeClient::connect(recovered.addr.clone(), client_config())
        .and_then(|mut c| c.shutdown_server())
        .is_ok()
        && recovered.wait_exit(Duration::from_secs(20));

    // Correctness: an in-process replica of the same rounds.
    let (replica_open, replica_final, plain_replica_s) = replica(
        &spec,
        &load,
        total_rounds,
        after_open.rounds_completed,
        None,
    )?;

    // Figures.
    let figures: Vec<SegmentFigures> = segments
        .iter()
        .map(|s| {
            let of = |f: fn(&Arrival) -> Option<f64>| {
                s.arrivals.iter().filter_map(f).collect::<Vec<_>>()
            };
            let (acked, wall, steal_pct) = s.closed;
            SegmentFigures {
                rounds_per_s: unstolen_rate(acked, wall, steal_pct),
                rounds_per_s_wall: acked as f64 / wall,
                steal_pct: s.steal_pct,
                ..SegmentFigures::latencies(&of(Arrival::round_ms), &of(Arrival::propose_ms))
            }
        })
        .collect();
    let arrivals: Vec<Arrival> = segments
        .iter()
        .flat_map(|s| s.arrivals.iter().copied())
        .collect();
    let pooled = |f: fn(&Arrival) -> Option<f64>| arrivals.iter().filter_map(f).collect::<Vec<_>>();
    let round = Summary::of(&pooled(Arrival::round_ms), 99.0);
    let propose = Summary::of(&pooled(Arrival::propose_ms), 99.0);
    let late = Summary::of(&pooled(Arrival::late_ms), 99.0);
    out.attempted = WARMUP_ROUNDS * CONNECTIONS as u64 + n_open + closed_acked + closed_failed;
    out.failed = warm_failed + open_failed + closed_failed;
    put_timing(&mut out, &figures);
    let e = &mut out.end_to_end;
    e.put(
        "accepted_per_round",
        (after_open.total_rewards - before.total_rewards) as f64 / n_seg as f64,
        "events/round",
    );
    e.put("setup_s", median(&setups), "s");
    e.put("peak_rss_mb", peak_rss, "MiB");

    // Output checks.
    out.check(phase_errors.is_empty(), || {
        format!("phase round counts: {}", phase_errors.join("; "))
    });
    out.check(Triple::of_stats(&after_open) == replica_open, || {
        format!(
            "after the open loop the server has {:?}, the in-process replica {replica_open:?}",
            Triple::of_stats(&after_open)
        )
    });
    out.check(
        recovered.recovered_rounds == total_rounds && !recovered_stats.has_pending,
        || {
            format!(
                "recovery: {} rounds (pending={}) of {total_rounds} acknowledged",
                recovered.recovered_rounds, recovered_stats.has_pending
            )
        },
    );
    out.check(Triple::of_stats(&recovered_stats) == replica_final, || {
        format!(
            "after recovery the server has {:?}, the in-process replica {replica_final:?}",
            Triple::of_stats(&recovered_stats)
        )
    });
    out.check(clean_shutdown, || {
        "recovered server did not shut down cleanly".into()
    });
    // Steady work: seats must last, and the last segment must arrange as
    // the first open loop (the accepted_per_round window) did.
    out.check(
        after_closed.available_events as usize * 2 >= workload.instance.num_events(),
        || {
            format!(
                "seats ran out: {} of {} events still available",
                after_closed.available_events,
                workload.instance.num_events()
            )
        },
    );
    let window = Arranged {
        events: after_open.total_arranged - before.total_arranged,
        rounds: after_open.rounds_completed - before.rounds_completed,
    };
    let last_segment = segments.last().expect("at least one segment").arranged;
    let held = arranged_holds(window, last_segment);
    out.check(held.is_ok(), || held.unwrap_err());

    // Work counts and facts.
    let fsync_batches = hist(&after_closed, "fsync_batch_size").map_or(0, |h| h.count);
    let lifecycle_records = spec
        .churn()
        .actions()
        .iter()
        .filter(|a| a.at < total_rounds)
        .count() as u64;
    let counter = |name: &str| after_closed.counter(name).unwrap_or(0);
    let f = &mut out.facts;
    f.text("fsync", "always, group commit");
    f.num("open_rate_per_s", OPEN_RATE);
    f.int("rounds_warmup", before.rounds_completed);
    f.int("rounds_open", n_open);
    f.int("rounds_closed", closed_acked);
    f.int("rounds", total_rounds);
    f.int("arranged", after_closed.total_arranged);
    f.int("accepted", after_closed.total_rewards);
    f.int(
        "available_events_end",
        u64::from(after_closed.available_events),
    );
    f.int("latency_samples", round.n as u64);
    f.int("segments", segments.len() as u64);
    f.num("round_p99_ms_pooled", round.tail);
    f.num("round_p99_percentile_pooled", round.tail_p);
    f.num("propose_p99_ms_pooled", propose.tail);
    f.num("round_mean_ms", round.mean);
    f.num("bench.late_p99_ms", late.tail);
    f.num("bench.late_tail_percentile", late.tail_p);
    f.num("bench.gen_us", gen_us);
    f.int("disk_bytes", disk_bytes);
    f.num(
        "disk_bytes_per_round",
        disk_bytes as f64 / total_rounds.max(1) as f64,
    );
    f.int("fsync_batches", fsync_batches);
    f.int("lifecycle_records", lifecycle_records);
    f.int("conflict_replays", counter("conflict_replays"));
    f.int("prefetch_hits", counter("prefetch_hit"));
    f.int("prefetch_recomputes", counter("prefetch_recompute"));
    f.num("recovery_s", recovery_s);
    f.int("recovered_rounds", recovered.recovered_rounds);
    f.int("setups", setups.len() as u64);

    if ctx.trace {
        traced(
            ctx,
            &mut out,
            &spec,
            shape,
            &load,
            run_dir,
            &Traced {
                arrivals: &arrivals,
                stats: &after_closed,
                total_rounds,
                recovery_s,
                disk_bytes,
                gen_us,
                plain_replica_s,
            },
        )?;
    }
    Ok(out)
}

/// What the traced part needs from the measured run.
struct Traced<'a> {
    arrivals: &'a [Arrival],
    stats: &'a WireStats,
    total_rounds: u64,
    recovery_s: f64,
    disk_bytes: u64,
    gen_us: f64,
    plain_replica_s: f64,
}

fn traced(
    ctx: &RunCtx,
    out: &mut Outcome,
    spec: &WorkloadSpec,
    shape: Shape,
    load: &Load<'_>,
    run_dir: &RunDir,
    m: &Traced<'_>,
) -> Result<(), String> {
    let epoch = m.arrivals.first().map_or_else(Instant::now, |a| a.due);

    // Client spans: each arrival's round, its lateness and its three RPCs.
    let mut client = Trace::new(epoch);
    for a in m.arrivals {
        let Some(t) = a.times else { continue };
        let round = client.record("bench.round", t.t, a.due, t.acked, None);
        client.record("bench.late", t.t, a.due, t.sent, Some(round));
        client.record("serve.claim_rpc", t.t, t.sent, t.claimed, Some(round));
        client.record("serve.propose_rpc", t.t, t.claimed, t.proposed, Some(round));
        client.record("serve.feedback_rpc", t.t, t.proposed, t.acked, Some(round));
    }
    let rpc_p50 = |name: &str| {
        let samples: Vec<f64> = client
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        Summary::of(&samples, 99.0).p50
    };
    let sent_to_ack_us: Vec<f64> = m
        .arrivals
        .iter()
        .filter_map(|a| a.times.map(|t| (t.acked - t.sent).as_secs_f64() * 1e6))
        .collect();
    let client_round_us = sent_to_ack_us.iter().sum::<f64>() / sent_to_ack_us.len().max(1) as f64;

    // In-process replica with the probe: sim and bandit self times. Its
    // accounting after the durable replay's rounds checks that replay.
    let replay_rounds = DURABLE_REPLAY_ROUNDS.min(m.total_rounds);
    let replica_trace = Trace::shared(epoch);
    let (replay_check, _, traced_replica_s) = replica(
        spec,
        load,
        m.total_rounds,
        replay_rounds,
        Some(replica_trace.clone()),
    )?;
    let (_, _, plain_after_s) = replica(spec, load, m.total_rounds, replay_rounds, None)?;
    let replica_trace = std::sync::Arc::try_unwrap(replica_trace)
        .map_err(|_| "replica trace still shared".to_string())?
        .into_inner()
        .expect("trace lock");
    let totals = totals_by_name(replica_trace.spans());
    let mean_us =
        |name: &str, self_time: bool| per_round_us(&totals, name, self_time, m.total_rounds);
    let sim_self = mean_us("sim.propose", true) + mean_us("sim.feedback", true);
    let bandit = mean_us("bandit.score", false)
        + mean_us("bandit.oracle", false)
        + mean_us("bandit.observe", false);

    // Durable replay of a prefix: store (and shard) costs per round.
    let replay_dir = run_dir
        .sub("durable-replay")
        .map_err(|e| format!("run dir: {e}"))?;
    let replay_trace = Trace::shared(epoch);
    let probe = Probe::new(LinUcb::new(spec.dim, 1.0, 2.0), Some(replay_trace.clone())).0;
    let options = DurableOptions::new()
        .with_fsync(FsyncPolicy::Always)
        .with_group_commit(true)
        .with_oracle(spec.oracle);
    let instance = load.workload.instance.clone();
    let mut svc: BackendService = if shape.shards > 0 {
        ShardedArrangementService::open(
            &replay_dir,
            instance,
            Box::new(probe),
            options,
            shape.shards,
        )
        .map_err(|e| format!("open sharded replay: {e}"))?
        .into()
    } else {
        DurableArrangementService::open(&replay_dir, instance, Box::new(probe), options)
            .map_err(|e| format!("open durable replay: {e}"))?
            .into()
    };
    let costs = durable_replay(&mut svc, spec, load, replay_rounds, &replay_trace)?;
    drop(svc);
    out.check(costs.accounting == replay_check, || {
        format!(
            "durable replay reached {:?}, the plain replica {replay_check:?}",
            costs.accounting
        )
    });
    let replay_trace = std::sync::Arc::try_unwrap(replay_trace)
        .map_err(|_| "replay trace still shared".to_string())?
        .into_inner()
        .expect("trace lock");
    // The durable calls' self time holds the sim layer's own work too;
    // the plain replica measured that part on its own.
    let append_us = (costs.durable_self_us - sim_self).max(0.0);
    let shard_us = costs.route_us + costs.commit_us;
    let store_us = append_us + costs.wait_durable_us;
    let serve_us = (client_round_us - bandit - sim_self - store_us - shard_us).max(0.0);

    let s = m.stats;
    let rounds = m.total_rounds.max(1) as f64;
    let counter = |name: &str| s.counter(name).unwrap_or(0) as f64;
    let p = &mut out.per_layer;
    p.put("bench.gen_us", m.gen_us, "us");
    p.put(
        "bench.trace_overhead_pct",
        overhead_pct(m.plain_replica_s, traced_replica_s, plain_after_s),
        "%",
    );
    p.put("sim.propose_us", mean_us("sim.propose", true), "us");
    p.put("sim.feedback_us", mean_us("sim.feedback", true), "us");
    p.put("bandit.score_us", mean_us("bandit.score", false), "us");
    p.put("bandit.oracle_us", mean_us("bandit.oracle", false), "us");
    p.put("bandit.observe_us", mean_us("bandit.observe", false), "us");
    p.put(
        "bandit.arranged_per_round",
        s.total_arranged as f64 / rounds,
        "events/round",
    );
    p.put(
        "serve.requests_per_round",
        counter("requests") / rounds,
        "count",
    );
    let hits = counter("prefetch_hit");
    let attempts = hits + counter("prefetch_recompute");
    p.put(
        "serve.prefetch_hit_ratio",
        if attempts > 0.0 { hits / attempts } else { 0.0 },
        "ratio",
    );
    p.put(
        "serve.conflict_replays_per_round",
        counter("conflict_replays") / rounds,
        "count",
    );
    let batches = hist(s, "fsync_batch_size");
    p.put(
        "store.fsync_batch_mean",
        hist_mean(s, "fsync_batch_size"),
        "records",
    );
    p.put(
        "store.fsyncs_per_round",
        batches.map_or(0.0, |h| h.count as f64) / rounds,
        "count",
    );
    p.put(
        "store.disk_bytes_per_round",
        m.disk_bytes as f64 / rounds,
        "B/round",
    );
    p.put(
        "store.replay_rounds_per_s",
        m.total_rounds as f64 / m.recovery_s,
        "rounds/s",
    );
    p.put(
        "shard.cross_shard_frac",
        hist(s, "cross_shard_commit_us").map_or(0.0, |h| h.count as f64) / rounds,
        "ratio",
    );
    p.put(
        "shard.queue_depth_p95",
        hist(s, "shard_queue_depth").map_or(0.0, |h| h.p95_us as f64),
        "count",
    );
    layer_shares(
        out,
        &Shares {
            serve: serve_us,
            store: store_us,
            shard: shard_us,
            sim: sim_self,
            bandit,
            models: 0.0,
        },
        client_round_us,
    );
    conflict_build(out, &load.workload.config);

    let f = &mut out.facts;
    f.num("serve.claim_rpc_us_p50", rpc_p50("serve.claim_rpc"));
    f.num("serve.propose_rpc_us_p50", rpc_p50("serve.propose_rpc"));
    f.num("serve.feedback_rpc_us_p50", rpc_p50("serve.feedback_rpc"));
    f.num("serve.decode_us_mean", hist_mean(s, "decode_us"));
    f.num(
        "serve.decode_us_p95",
        hist(s, "decode_us").map_or(0.0, |h| h.p95_us as f64),
    );
    f.num("serve.queue_wait_us_mean", hist_mean(s, "queue_wait_us"));
    f.num(
        "serve.queue_wait_us_p95",
        hist(s, "queue_wait_us").map_or(0.0, |h| h.p95_us as f64),
    );
    f.num("store.append_us", append_us);
    f.num("store.wait_durable_us", costs.wait_durable_us);
    f.num(
        "store.commit_latency_us_mean",
        hist_mean(s, "commit_latency_us"),
    );
    f.num("store.recovery_s", m.recovery_s);
    f.num("shard.route_us", costs.route_us);
    f.num("shard.commit_us", costs.commit_us);
    f.int("replay.rounds", replay_rounds);
    f.num("client_round_us_mean", client_round_us);

    let mut all = client;
    all.absorb(replica_trace);
    all.absorb(replay_trace);
    ctx.write_trace(&all);
    Ok(())
}
