//! Host facts, memory readings, per-run directories and child-process
//! ownership.

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Where runs keep their scratch directories and traces, relative to the
/// directory the benchmark is started from.
pub const RUNS_ROOT: &str = ".bench_runs";

/// Logical cores of the host, including those this process may not use.
pub fn cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`0`, `0-1`, ...); `run.py` pins the benchmark to one.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Total RAM in MiB from `/proc/meminfo` (0 if unreadable).
pub fn ram_mib() -> f64 {
    proc_kib("/proc/meminfo", "MemTotal:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    proc_kib(&format!("/proc/{pid}/status"), "VmHWM:").map(|k| k as f64 / 1024.0)
}

/// Current resident set (`VmRSS`) of this process in MiB.
pub fn rss_mib() -> Option<f64> {
    proc_kib("/proc/self/status", "VmRSS:").map(|k| k as f64 / 1024.0)
}

fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The `/proc/stat` line that counts the CPU time this process runs on:
/// its CPU's own line when it is pinned to one (`cpu3`), else the
/// host's total (`cpu`).
fn stat_line_key() -> String {
    let allowed = cpus_allowed();
    match allowed.parse::<u32>() {
        Ok(cpu) => format!("cpu{cpu}"),
        Err(_) => "cpu".into(),
    }
}

/// Cumulative (steal, total) ticks of the `/proc/stat` line `key`. Steal
/// is time the hypervisor ran something else while the virtual CPU had
/// work; the total counts user through steal once each.
fn cpu_ticks(key: &str) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(key))?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal, in percent of the time of the CPU the run is pinned to (of the
/// whole host when it is not pinned), since it was last read.
pub struct StealMeter {
    key: String,
    last: Option<(u64, u64)>,
}

impl StealMeter {
    /// Starts measuring now.
    pub fn start() -> StealMeter {
        let key = stat_line_key();
        let last = cpu_ticks(&key);
        StealMeter { key, last }
    }

    /// Steal percentage since the last reading (0 where `/proc/stat` is
    /// unreadable); restarts the meter.
    pub fn lap(&mut self) -> f64 {
        let now = cpu_ticks(&self.key);
        let pct = match (self.last, now) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0
            }
            _ => 0.0,
        };
        self.last = now;
        pct
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => dir_bytes(&e.path()),
            Ok(ft) if ft.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh directory for one run, removed (with everything in it) on
/// drop — also when the run panics. The name carries the workload, the
/// seed, the PID, the wall-clock nanoseconds and a process-wide counter,
/// and is created with `create_dir`, so two runs can never share one.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `RUNS_ROOT/<label>-<pid>-<nanos>-<n>`, first removing run
    /// directories whose process is gone (a run killed by a signal cannot
    /// clean up after itself).
    pub fn create(label: &str) -> std::io::Result<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(RUNS_ROOT)?;
        remove_stale(Path::new(RUNS_ROOT));
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(RUNS_ROOT).join(format!("{label}-{}-{nanos}-{n}", std::process::id()));
        std::fs::create_dir(&path)?;
        Ok(RunDir { path })
    }

    /// A new empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir(&p)?;
        Ok(p)
    }
}

/// Removes `<label>-<pid>-<nanos>-<n>` directories of processes that no
/// longer exist.
fn remove_stale(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = name.rsplit('-').nth(2).and_then(|p| p.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A spawned `fasea-exp serve` child that is killed and reaped on drop,
/// whatever path the run leaves by.
pub struct ServerChild {
    child: Child,
    // Held open (and never read past the banner) so the server's later
    // log lines cannot fail on a closed pipe; they fit in the pipe buffer.
    _stdout: Option<BufReader<ChildStdout>>,
    /// Address the server listens on.
    pub addr: String,
    /// Rounds the server reported recovering at start-up.
    pub recovered_rounds: u64,
}

impl ServerChild {
    /// Starts `bin serve --addr 127.0.0.1:0 <args>` and waits for its
    /// `listening on` banner.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerChild, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on, an early return drops the guard, which kills the child.
        let mut server = ServerChild {
            child,
            _stdout: None,
            addr: String::new(),
            recovered_rounds: 0,
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("read server banner: {e}"))?;
            if n == 0 {
                return Err("server exited before it was listening".into());
            }
            if let Some(rest) = line.strip_prefix("recovered rounds=") {
                server.recovered_rounds = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad recovery line: {line}"))?;
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                break;
            }
        }
        server._stdout = Some(reader);
        Ok(server)
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `timeout` for a requested shutdown to finish; kills
    /// the server if it does not. Returns whether it exited cleanly.
    pub fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        self.kill();
        false
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill();
    }
}
