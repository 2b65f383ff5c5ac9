//! The one bench harness every `benches/*.rs` `main` runs on: the time
//! budget, the timing loop, the result [`Table`] (stdout lines plus the
//! `BENCH_*.json` document `fasea-exp check-bench` reads), and the
//! loopback-serving fixtures the serve benches share.
//!
//! The environment variables it reads:
//!
//! * `FASEA_BENCH_MS` — per-measurement time budget in milliseconds
//!   (default 300, floor 10), so CI can smoke-run a bench in a fraction
//!   of a second without touching committed numbers;
//! * `FASEA_BENCH_JSON` — when set, [`Table::finish`] writes the table
//!   to that path as JSON.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_serve::{ClientConfig, ServeClient, Server, ServerConfig, ServerHandle};
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_stats::CoinStream;
use fasea_store::TempDir;

/// The per-measurement time budget: `FASEA_BENCH_MS` milliseconds
/// (default 300, at least 10).
pub fn budget() -> Duration {
    let ms = std::env::var("FASEA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

/// Mean nanoseconds per call of `f`. Warms up for a tenth of `budget`,
/// sizes a batch to take about 1 ms from one probe call, then times
/// whole batches until `budget` is spent. Each result goes through
/// [`black_box`] so the measured work is not optimised away.
pub fn time_ns<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let warm_start = Instant::now();
    while warm_start.elapsed() < budget / 10 {
        black_box(f());
    }
    let probe_start = Instant::now();
    black_box(f());
    let probe = probe_start.elapsed().max(Duration::from_nanos(20));
    let batch = (Duration::from_millis(1).as_nanos() / probe.as_nanos()).clamp(1, 100_000) as u64;

    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    let run_start = Instant::now();
    while run_start.elapsed() < budget {
        let batch_start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        total += batch_start.elapsed();
        iters += batch;
    }
    total.as_nanos() as f64 / iters.max(1) as f64
}

/// One scalar of a table: the only value kinds a `BENCH_*.json` cell
/// may hold.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A JSON string.
    Str(String),
    /// A JSON number, already rendered at the precision it is reported
    /// with (see [`fixed`]).
    Num(String),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`: the field does not apply to this cell.
    Null,
}

/// `x` rendered with `decimals` digits after the point; `null` when `x`
/// is not finite, since JSON has no NaN or infinity.
pub fn fixed(x: f64, decimals: usize) -> Scalar {
    if x.is_finite() {
        Scalar::Num(format!("{x:.decimals$}"))
    } else {
        Scalar::Null
    }
}

impl From<&str> for Scalar {
    fn from(s: &str) -> Self {
        Scalar::Str(s.to_string())
    }
}

impl From<String> for Scalar {
    fn from(s: String) -> Self {
        Scalar::Str(s)
    }
}

impl From<bool> for Scalar {
    fn from(b: bool) -> Self {
        Scalar::Bool(b)
    }
}

impl From<u64> for Scalar {
    fn from(n: u64) -> Self {
        Scalar::Num(n.to_string())
    }
}

impl From<usize> for Scalar {
    fn from(n: usize) -> Self {
        Scalar::Num(n.to_string())
    }
}

impl<T: Into<Scalar>> From<Option<T>> for Scalar {
    fn from(value: Option<T>) -> Self {
        value.map_or(Scalar::Null, Into::into)
    }
}

impl Scalar {
    fn json(&self) -> String {
        match self {
            Scalar::Str(s) => json_string(s),
            Scalar::Num(n) => n.clone(),
            Scalar::Bool(b) => b.to_string(),
            Scalar::Null => "null".into(),
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One row of a [`Table`]: ordered `(key, value)` pairs.
pub type Cell = Vec<(&'static str, Scalar)>;

/// A bench's result table. It records the bench name, its units, any
/// top-level metadata and the host's core count, prints one stdout line
/// per cell as the cell is pushed, and on [`Table::finish`] writes the
/// whole table to `FASEA_BENCH_JSON` when that variable is set.
pub struct Table {
    bench: &'static str,
    units: &'static str,
    host_cores: usize,
    meta: Vec<(&'static str, Scalar)>,
    caveat: Option<&'static str>,
    cells: Vec<Cell>,
}

impl Table {
    /// An empty table for `bench`, whose cells measure in `units`.
    pub fn new(bench: &'static str, units: &'static str) -> Self {
        Table {
            bench,
            units,
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            meta: Vec::new(),
            caveat: None,
            cells: Vec::new(),
        }
    }

    /// Adds a top-level metadata field (a fixed parameter of every
    /// cell, such as the policy or the durability mode).
    pub fn meta(mut self, key: &'static str, value: impl Into<Scalar>) -> Self {
        self.meta.push((key, value.into()));
        self
    }

    /// States why the numbers understate what a host with at least
    /// `min_cores` cores would show. On a smaller host the caveat is
    /// printed as a warning now and recorded as the table's top-level
    /// `"caveat"`; `check-bench` rejects a >1x speedup measured on one
    /// core unless such a caveat explains it.
    pub fn caveat(mut self, min_cores: usize, text: &'static str) -> Self {
        if self.host_cores < min_cores {
            println!("warning: {} core(s) on this host: {text}", self.host_cores);
            self.caveat = Some(text);
        }
        self
    }

    /// Appends a cell and prints it as one stdout line.
    pub fn push(&mut self, cell: Cell) {
        let fields: Vec<String> = cell
            .iter()
            .map(|(key, value)| match value {
                Scalar::Str(s) => format!("{key}: {s}"),
                other => format!("{key}: {}", other.json()),
            })
            .collect();
        println!("{}  {}", self.bench, fields.join("  "));
        self.cells.push(cell);
    }

    /// The table as a `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        let mut top = vec![
            ("bench", Scalar::from(self.bench)),
            ("units", Scalar::from(self.units)),
        ];
        top.extend(self.meta.iter().cloned());
        top.push(("host_cores", Scalar::from(self.host_cores)));
        if let Some(caveat) = self.caveat {
            top.push(("caveat", Scalar::from(caveat)));
        }
        let mut json = String::from("{\n");
        for (key, value) in &top {
            json.push_str(&format!("  {}: {},\n", json_string(key), value.json()));
        }
        json.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let fields: Vec<String> = cell
                .iter()
                .map(|(key, value)| format!("{}: {}", json_string(key), value.json()))
                .collect();
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            json.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Writes the table to `FASEA_BENCH_JSON` when that variable is set.
    ///
    /// # Panics
    /// Panics when the file cannot be written.
    pub fn finish(self) {
        if let Ok(path) = std::env::var("FASEA_BENCH_JSON") {
            std::fs::write(&path, self.to_json()).expect("write FASEA_BENCH_JSON");
            println!("wrote {path}");
        }
    }
}

/// The loopback-serving workload: 30 events, d = 5, drawn from `seed`.
pub fn serve_workload(seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: 30,
        dim: 5,
        seed,
        ..SyntheticConfig::default()
    })
}

/// Spawns a loopback server over a fresh durable UCB service on
/// `workload`'s instance, in a temp directory that lives as long as the
/// returned [`TempDir`].
///
/// # Panics
/// Panics when the service cannot be opened or the server cannot bind.
pub fn start_server(
    workload: &SyntheticWorkload,
    options: DurableOptions,
    workers: usize,
    pipeline_depth: usize,
) -> (ServerHandle, TempDir) {
    let dir = TempDir::new("bench-serve");
    let dim = workload.instance.dim();
    let svc = DurableArrangementService::open(
        &dir,
        workload.instance.clone(),
        Box::new(LinUcb::new(dim, 1.0, 2.0)),
        options,
    )
    .expect("open durable service");
    let handle = Server::spawn(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            pipeline_depth,
            stats_interval: None,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    (handle, dir)
}

/// Plays one claim → propose → feedback round over `client`, with
/// acceptance coins keyed on `(t, event)` so every run sees the same
/// trajectory. Returns the round index the server acknowledged.
///
/// # Panics
/// Panics on any protocol or transport error.
pub fn drive_one_round(
    client: &mut ServeClient,
    workload: &SyntheticWorkload,
    coins: &CoinStream,
) -> u64 {
    let claimed = client.claim().expect("claim");
    let t = claimed.t;
    let arrival = workload.arrivals.arrival(t);
    let arrangement = match claimed.pending {
        Some(pending) => pending,
        None => {
            let contexts = &arrival.contexts;
            client
                .propose(
                    arrival.capacity,
                    contexts.num_events() as u32,
                    contexts.dim() as u32,
                    contexts.as_slice().to_vec(),
                )
                .expect("propose")
                .1
        }
    };
    let accepts: Vec<bool> = arrangement
        .iter()
        .map(|&v| {
            coins.uniform(t, u64::from(v))
                < workload
                    .model
                    .accept_probability(&arrival.contexts, fasea_core::EventId(v as usize))
        })
        .collect();
    client.feedback(&accepts).expect("feedback").0
}

/// A client that waits up to two minutes for a reply, so a loaded
/// server's queueing is measured rather than timed out.
pub fn patient_client(addr: &str) -> ServeClient {
    ServeClient::connect(
        addr.to_string(),
        ClientConfig {
            read_timeout: Duration::from_secs(120),
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

/// Runs `clients` concurrent sessions against `handle` for `window`,
/// then shuts the server down and checks it closed cleanly. Every
/// session connects, and the first plays four warm-up rounds, before
/// the clock starts: the server accepts connections on a poll, so a
/// connect can take most of a `poll_interval`, and that is not round
/// time. Returns the rounds completed in the window and their rate per
/// second.
///
/// # Panics
/// Panics on a protocol error or an unclean close.
pub fn serve_window(
    handle: ServerHandle,
    workload: &SyntheticWorkload,
    coins: &CoinStream,
    clients: usize,
    window: Duration,
) -> (u64, f64) {
    let addr = handle.local_addr().to_string();
    let mut sessions: Vec<ServeClient> = (0..clients).map(|_| patient_client(&addr)).collect();
    for _ in 0..4 {
        drive_one_round(&mut sessions[0], workload, coins);
    }

    let completed = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + window;
    std::thread::scope(|s| {
        for mut client in sessions {
            let completed = &completed;
            s.spawn(move || {
                while Instant::now() < deadline {
                    drive_one_round(&mut client, workload, coins);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed();

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none(), "{:?}", report.close.error);
    let rounds = completed.load(Ordering::Relaxed);
    (rounds, rounds as f64 / elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_experiments::bench_check::{check_bench_doc, parse_json};

    #[test]
    fn table_json_passes_check_bench_and_keeps_typed_scalars() {
        let mut table = Table::new("harness_test", "ns_per_call").meta("policy", "UCB");
        table.push(vec![
            ("case", "a \"quoted\" \\ name".into()),
            ("n", 3usize.into()),
            ("ns", fixed(12.345, 1)),
            ("warm", true.into()),
            ("speedup", Option::<u64>::None.into()),
            ("ratio", fixed(f64::NAN, 2)),
        ]);
        let json = table.to_json();
        let doc = parse_json(&json).unwrap();
        check_bench_doc(&doc).unwrap();
        for needle in [
            "\"bench\": \"harness_test\"",
            "\"policy\": \"UCB\"",
            "\"host_cores\": ",
            "\"case\": \"a \\\"quoted\\\" \\\\ name\"",
            "\"n\": 3, \"ns\": 12.3, \"warm\": true, \"speedup\": null, \"ratio\": null",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }

    #[test]
    fn time_ns_reports_a_positive_mean() {
        let mut calls = 0u64;
        let ns = time_ns(Duration::from_millis(10), || calls += 1);
        assert!(ns > 0.0 && calls > 1, "ns {ns}, calls {calls}");
    }
}
