//! FASEA benchmark: four workloads from load generator to fsync.
//!
//! ```text
//! perfbench --server <fasea-exp> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --server <fasea-exp> --smoke
//! ```
//!
//! Run through `python3 perfbench/run.py`, which builds both binaries
//! first. The last line of standard output is the JSON result; the line
//! before it (`report {...}`) carries work counts, host facts and the
//! percentile each tail figure was taken at. Traced runs (`--trace 1`)
//! also write their spans to `.bench_runs/traces/`.

mod arith;
mod host;
mod inproc;
mod probe;
mod report;
mod served;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use fasea_core::{EventId, LinearPayoffModel, UserArrival};
use fasea_datagen::SyntheticConfig;
use fasea_experiments::serve_cmd::WorkloadSpec;
use fasea_stats::CoinStream;

use crate::report::{Json, Outcome};

/// The workloads, in the order the smoke mode runs them.
pub const WORKLOADS: [&str; 4] = ["serve-paper", "serve-scaled", "sim-wide", "multiuser-spill"];

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("rounds_per_s", "rounds/s"),
    ("propose_p50_ms", "ms"),
    ("accepted_per_round", "events/round"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Percentile of the per-segment tail figures on the report line. Tails
/// are reported, not gated: on a shared host they swing between runs by
/// more than any useful bound (see NOTES.md).
pub const TAIL_P: f64 = 90.0;

/// Measured segments (time slices) per run.
pub const SEGMENTS: usize = 12;

/// Per-layer metrics every traced run prints, with their units. A layer
/// a workload does not run reports 0 for its shares and counts.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("bench.gen_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("sim.propose_us", "us"),
    ("sim.feedback_us", "us"),
    ("sim.share_pct", "%"),
    ("bandit.score_us", "us"),
    ("bandit.oracle_us", "us"),
    ("bandit.observe_us", "us"),
    ("bandit.arranged_per_round", "events/round"),
    ("bandit.share_pct", "%"),
    ("core.conflict_build_ms", "ms"),
    ("core.conflict_rss_mb", "MiB"),
    ("serve.share_pct", "%"),
    ("serve.requests_per_round", "count"),
    ("serve.prefetch_hit_ratio", "ratio"),
    ("serve.conflict_replays_per_round", "count"),
    ("store.share_pct", "%"),
    ("store.fsync_batch_mean", "records"),
    ("store.fsyncs_per_round", "count"),
    ("store.disk_bytes_per_round", "B/round"),
    ("store.replay_rounds_per_s", "rounds/s"),
    ("shard.share_pct", "%"),
    ("shard.cross_shard_frac", "ratio"),
    ("shard.queue_depth_p95", "count"),
    ("models.share_pct", "%"),
    ("models.faults_per_round", "count"),
    ("models.demotions_per_round", "count"),
    ("models.evictions_per_round", "count"),
    ("models.private_update_frac", "ratio"),
    ("models.resident_mb", "MiB"),
    ("models.spill_bytes_per_round", "B/round"),
];

/// Most spans a traced run writes to its trace file.
const TRACE_FILE_SPANS: usize = 200_000;

/// One run's settings.
pub struct RunCtx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer figures) instead of end-to-end figures.
    pub trace: bool,
    /// Smaller inputs for the smoke mode.
    pub smoke: bool,
    /// The `fasea-exp` binary the served workloads start.
    pub server_bin: PathBuf,
}

impl RunCtx {
    /// Writes a traced run's spans to `.bench_runs/traces/<workload>-seed<n>.jsonl`
    /// — the first [`TRACE_FILE_SPANS`] of them; the per-layer figures use all.
    pub fn write_trace(&self, trace: &trace::Trace) {
        let dir = PathBuf::from(host::RUNS_ROOT).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", self.workload, self.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| trace.write_jsonl(&path, TRACE_FILE_SPANS));
        match written {
            Ok(()) => eprintln!(
                "perfbench: wrote {} of {} spans to {}",
                trace.spans().len().min(TRACE_FILE_SPANS),
                trace.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
}

/// The shared acceptance coins of seed `seed`: the same stream
/// `fasea-exp loadgen` uses, keyed on `(t, v)`.
pub fn coins_for(seed: u64) -> CoinStream {
    WorkloadSpec {
        seed,
        ..WorkloadSpec::default()
    }
    .feedback_coins()
}

/// The user's answers to an arrangement: event `v` is accepted when the
/// round's coin for `(t, v)` falls under its true acceptance probability.
pub fn accepts(
    model: &LinearPayoffModel,
    coins: &CoinStream,
    t: u64,
    arrival: &UserArrival,
    events: &[EventId],
) -> Vec<bool> {
    events
        .iter()
        .map(|&v| {
            coins.uniform(t, v.index() as u64) < model.accept_probability(&arrival.contexts, v)
        })
        .collect()
}

/// Mean time per round each layer spent, in µs, for the share figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shares {
    pub serve: f64,
    pub store: f64,
    pub shard: f64,
    pub sim: f64,
    pub bandit: f64,
    pub models: f64,
}

/// Puts each layer's share of the mean round time `round_us`.
pub fn layer_shares(out: &mut Outcome, s: &Shares, round_us: f64) {
    let pct = |v: f64| 100.0 * v / round_us;
    let p = &mut out.per_layer;
    p.put("serve.share_pct", pct(s.serve), "%");
    p.put("store.share_pct", pct(s.store), "%");
    p.put("shard.share_pct", pct(s.shard), "%");
    p.put("sim.share_pct", pct(s.sim), "%");
    p.put("bandit.share_pct", pct(s.bandit), "%");
    p.put("models.share_pct", pct(s.models), "%");
    out.facts.num("share_base_round_us", round_us);
}

/// Accounting after some number of rounds: the triple the output checks
/// compare between a run and its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple {
    pub rounds: u64,
    pub arranged: u64,
    pub accepted: u64,
}

impl Triple {
    /// An in-process service's accounting.
    pub fn of_service(svc: &fasea_sim::ArrangementService) -> Triple {
        Triple {
            rounds: svc.rounds_completed(),
            arranged: svc.accounting().total_arranged(),
            accepted: svc.accounting().total_rewards(),
        }
    }

    /// A server's accounting from its `STATS` reply.
    pub fn of_stats(s: &fasea_serve::WireStats) -> Triple {
        Triple {
            rounds: s.rounds_completed,
            arranged: s.total_arranged,
            accepted: s.total_rewards,
        }
    }
}

/// Timing figures of one measured segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentFigures {
    /// Rounds per second of the time the host did not steal.
    pub rounds_per_s: f64,
    /// Rounds per wall-clock second.
    pub rounds_per_s_wall: f64,
    pub round_p50_ms: f64,
    pub round_p90_ms: f64,
    pub propose_p50_ms: f64,
    pub propose_p90_ms: f64,
    /// Steal during the segment, percent of the run's CPU time.
    pub steal_pct: f64,
}

impl SegmentFigures {
    /// Percentiles of one segment's latency samples.
    pub fn latencies(round_ms: &[f64], propose_ms: &[f64]) -> SegmentFigures {
        let round = arith::Summary::of(round_ms, TAIL_P);
        let propose = arith::Summary::of(propose_ms, TAIL_P);
        SegmentFigures {
            round_p50_ms: round.p50,
            round_p90_ms: round.tail,
            propose_p50_ms: propose.p50,
            propose_p90_ms: propose.tail,
            ..SegmentFigures::default()
        }
    }
}

/// Puts the timing figures, each the median of the better half of the
/// quiet segments (`arith::quiet_segments`), and lists every segment's
/// values on the report line. `round_p50_ms` and the p90 tails go to the
/// report line only: on the served workloads they follow the host's load
/// by more than any bound (see NOTES.md).
pub fn put_timing(out: &mut Outcome, segments: &[SegmentFigures]) {
    use arith::{better_half, quiet_segments, Better};
    let steals: Vec<f64> = segments.iter().map(|s| s.steal_pct).collect();
    let quiet = quiet_segments(&steals);
    type Field = (&'static str, fn(&SegmentFigures) -> f64, Better);
    let fields: [Field; 6] = [
        ("rounds_per_s", |s| s.rounds_per_s, Better::Higher),
        ("rounds_per_s_wall", |s| s.rounds_per_s_wall, Better::Higher),
        ("round_p50_ms", |s| s.round_p50_ms, Better::Lower),
        ("round_p90_ms", |s| s.round_p90_ms, Better::Lower),
        ("propose_p50_ms", |s| s.propose_p50_ms, Better::Lower),
        ("propose_p90_ms", |s| s.propose_p90_ms, Better::Lower),
    ];
    for (name, get, better) in fields {
        let values: Vec<f64> = segments.iter().map(get).collect();
        let kept: Vec<f64> = quiet.iter().map(|&i| values[i]).collect();
        let figure = better_half(&kept, better);
        match END_TO_END.iter().find(|(n, _)| *n == name) {
            Some(&(name, unit)) => out.end_to_end.put(name, figure, unit),
            None => out.facts.num(name, figure),
        }
        out.facts
            .text(&format!("segments.{name}"), report::list(&values));
    }
    out.facts.text("segments.steal_pct", report::list(&steals));
    out.facts.int("segments_quiet", quiet.len() as u64);
}

/// Tracing overhead in percent: a traced replay's wall time against the
/// mean of the same untraced replay run just before and just after it,
/// so cache warm-up does not count for or against the traced one.
pub fn overhead_pct(plain_before_s: f64, traced_s: f64, plain_after_s: f64) -> f64 {
    (traced_s / ((plain_before_s + plain_after_s) / 2.0) - 1.0) * 100.0
}

/// Times building the workload's conflict graph on its own and measures
/// how much resident memory it holds.
pub fn conflict_build(out: &mut Outcome, config: &SyntheticConfig) {
    let rss0 = host::rss_mib().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut rng = fasea_stats::rng_from_seed(config.seed);
    let graph = fasea_datagen::synthetic::generate_conflicts(
        config.num_events,
        config.conflict_ratio,
        &mut rng,
    );
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rss1 = host::rss_mib().unwrap_or(0.0);
    out.facts
        .int("core.conflict_pairs", graph.num_conflicts() as u64);
    drop(graph);
    out.per_layer.put("core.conflict_build_ms", build_ms, "ms");
    out.per_layer
        .put("core.conflict_rss_mb", (rss1 - rss0).max(0.0), "MiB");
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    server: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        server: PathBuf::from(".bench_build/release/fasea-exp"),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--server" => args.server = PathBuf::from(&value),
            "--commit" => args.commit = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let run_dir = host::RunDir::create(&format!("{}-seed{}", ctx.workload, ctx.seed))
        .map_err(|e| format!("create run directory: {e}"))?;
    match ctx.workload {
        "serve-paper" => served::run(ctx, &run_dir, served::Shape::paper()),
        "serve-scaled" => served::run(ctx, &run_dir, served::Shape::scaled()),
        "sim-wide" => inproc::sim_wide(ctx),
        "multiuser-spill" => inproc::multiuser_spill(ctx, &run_dir),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The result line: every metric of the run's kind, in declaration order.
fn result_line(ctx: &RunCtx, out: &Outcome) -> String {
    let (names, given) = if ctx.trace {
        (&PER_LAYER[..], &out.per_layer)
    } else {
        (&END_TO_END[..], &out.end_to_end)
    };
    let mut metrics = report::Metrics::default();
    for &(name, unit) in names {
        metrics.put(name, given.get(name).unwrap_or(0.0), unit);
    }
    let correct = out.correct();
    let failed = if correct { out.failed } else { out.attempted };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(out.attempted.max(1))),
        ("failed".into(), Json::Int(failed)),
        ("metrics".into(), metrics.to_json()),
    ])
    .render()
}

fn report_line(ctx: &RunCtx, commit: &str, out: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_string(), Json::Str(ctx.workload.into())),
        ("seed".into(), Json::Int(ctx.seed)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("trace".into(), Json::Bool(ctx.trace)),
        ("commit".into(), Json::Str(commit.into())),
        ("host_cores".into(), Json::Int(host::cores() as u64)),
        ("cpus_allowed".into(), Json::Str(host::cpus_allowed())),
        ("host_ram_mib".into(), Json::Num(host::ram_mib())),
        ("attempted".into(), Json::Int(out.attempted)),
        ("failed".into(), Json::Int(out.failed)),
        (
            "check_failures".into(),
            Json::Str(out.check_failures.join("; ")),
        ),
    ];
    fields.extend(out.facts.0.iter().cloned());
    format!("report {}", Json::Obj(fields).render())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&'static str> = if args.smoke {
        WORKLOADS.to_vec()
    } else {
        match args
            .workload
            .as_deref()
            .and_then(|w| WORKLOADS.iter().find(|&&n| n == w))
        {
            Some(&w) => vec![w],
            None => {
                eprintln!("perfbench: --workload must be one of {WORKLOADS:?}");
                std::process::exit(2);
            }
        }
    };
    let mut all_ok = true;
    for workload in names {
        let ctx = RunCtx {
            workload,
            seed: args.seed,
            seconds: if args.smoke { 1.0 } else { args.seconds },
            trace: args.trace || args.smoke,
            smoke: args.smoke,
            server_bin: args.server.clone(),
        };
        let mut steal = host::StealMeter::start();
        match run(&ctx) {
            Ok(mut out) => {
                out.facts.num("host_steal_pct", steal.lap());
                all_ok &= out.correct();
                println!("{}", report_line(&ctx, &args.commit, &out));
                println!("{}", result_line(&ctx, &out));
            }
            Err(e) => {
                eprintln!("perfbench: {workload} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.smoke && !all_ok {
        eprintln!("perfbench: smoke run found failed checks");
        std::process::exit(1);
    }
}
