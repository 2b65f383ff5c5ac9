//! The benchmark's own arithmetic: percentiles, open-loop schedule and
//! lateness, phase round counting and the arranged-per-round check. Kept
//! free of I/O so it is unit tested on its own.

use std::time::{Duration, Instant};

/// Percentiles a tail figure may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
/// The small tolerance keeps decimal percentiles such as 99.9 from
/// rounding up a whole rank (`99.9 / 100 * 10_000` is not exact).
pub fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest candidate percentile, at most `cap`, that leaves at least
/// [`MIN_BEYOND`] samples beyond it. `None` when `n` is too small for
/// even the median.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n >= rank(p, n) + MIN_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median and tail of one latency sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail is reported at (`NaN` with too few samples).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples`, reporting the tail at the highest percentile
    /// up to `cap` that the sample count supports.
    pub fn of(samples: &[f64], cap: f64) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_p = tail_percentile(n, cap).unwrap_or(f64::NAN);
        Summary {
            n,
            p50: percentile(&sorted, 50.0),
            tail_p,
            tail: if tail_p.is_nan() {
                f64::NAN
            } else {
                percentile(&sorted, tail_p)
            },
            mean: if n == 0 {
                f64::NAN
            } else {
                sorted.iter().sum::<f64>() / n as f64
            },
        }
    }
}

/// A fixed-size uniform sample of a stream (Vitter's algorithm R), so a
/// run's memory does not grow with how many rounds it managed — which
/// would leak into the peak-RSS figure. Replacement draws come from a
/// fixed-seed generator, so the sample is a function of the stream.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    items: Vec<T>,
    cap: usize,
    seen: u64,
    state: u64,
}

impl<T> Reservoir<T> {
    /// An empty reservoir holding at most `cap` items.
    pub fn new(cap: usize) -> Self {
        Reservoir {
            items: Vec::new(),
            cap: cap.max(1),
            seen: 0,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offers one item.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
            return;
        }
        // splitmix64
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let j = (z ^ (z >> 31)) % self.seen;
        if let Some(slot) = self.items.get_mut(j as usize) {
            *slot = item;
        }
    }

    /// The sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Which way a figure improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// The figure a run reports from its per-segment values: the median of
/// the better half of the segments. Load from other tenants of the
/// machine only ever slows a segment, so the better half estimates the
/// program's own speed while a change that slows every segment still
/// moves it.
pub fn better_half(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(2));
    median(&v)
}

/// Steal, in percentage points of the run's CPU time above the
/// least-stolen segment of the run, beyond which a segment is left out of
/// the figures.
pub const STEAL_SLACK_PCT: f64 = 4.0;

/// Fewest segments the figures are taken from.
pub const MIN_QUIET_SEGMENTS: usize = 4;

/// The segments a run's figures are taken from: those whose host steal is
/// within [`STEAL_SLACK_PCT`] of the run's least-stolen segment, or the
/// [`MIN_QUIET_SEGMENTS`] least-stolen ones when fewer qualify. A segment
/// the hypervisor took the CPU from measured the host, not the program.
pub fn quiet_segments(steal_pct: &[f64]) -> Vec<usize> {
    let least = steal_pct.iter().copied().fold(f64::INFINITY, f64::min);
    let quiet: Vec<usize> = (0..steal_pct.len())
        .filter(|&i| steal_pct[i] <= least + STEAL_SLACK_PCT)
        .collect();
    if quiet.len() >= MIN_QUIET_SEGMENTS.min(steal_pct.len()) {
        return quiet;
    }
    let mut by_steal: Vec<usize> = (0..steal_pct.len()).collect();
    by_steal.sort_by(|&a, &b| steal_pct[a].total_cmp(&steal_pct[b]));
    by_steal.truncate(MIN_QUIET_SEGMENTS);
    by_steal.sort_unstable();
    by_steal
}

/// Work per second of the time the hypervisor left the CPU to the run:
/// `count` over `secs` of which `steal_pct` percent were stolen. Throughput
/// then measures the program, not how busy the host's other tenants were.
pub fn unstolen_rate(count: u64, secs: f64, steal_pct: f64) -> f64 {
    let kept = (1.0 - steal_pct / 100.0).max(0.01);
    count as f64 / (secs * kept)
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Offset of open-loop arrival `k` from the schedule start at a fixed
/// `rate` per second. Computed from `k` directly, never by summing
/// intervals, so the schedule does not drift.
pub fn due_offset(k: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(k as f64 / rate)
}

/// How late the generator sent an arrival: its send time minus its due
/// time, floored at zero (an early wake-up is not negative lateness —
/// the sender waits for the due time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Rounds a phase completed, from the server's round counter read
/// before and after the phase, cross-checked against the rounds the
/// load clients saw acknowledged. A counter that went backwards or a
/// count that disagrees is an error.
pub fn phase_rounds(before: u64, after: u64, client_acked: u64) -> Result<u64, String> {
    let served = after
        .checked_sub(before)
        .ok_or_else(|| format!("server round counter went backwards: {before} -> {after}"))?;
    if served != client_acked {
        return Err(format!(
            "phase served {served} rounds but clients saw {client_acked} acknowledged"
        ));
    }
    Ok(served)
}

/// Events arranged, and the rounds that arranged them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arranged {
    pub events: u64,
    pub rounds: u64,
}

impl Arranged {
    pub fn per_round(self) -> f64 {
        self.events as f64 / self.rounds.max(1) as f64
    }
}

/// The steady-work check on arranged events: the run's last segment must
/// arrange at least half as many events per round as the fixed window at
/// its start, or the run was measuring rounds that ran out of seats.
pub fn arranged_holds(window: Arranged, last: Arranged) -> Result<(), String> {
    let (first, end) = (window.per_round(), last.per_round());
    if end * 2.0 >= first {
        Ok(())
    } else {
        Err(format!(
            "arranged per round collapsed: {end:.3} in the last segment vs {first:.3} in the window"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(9_999, 99.9), Some(99.0));
        // The cap is honoured even when more samples are available.
        assert_eq!(tail_percentile(1_000_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn summary_states_its_tail_and_count() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples, 99.0);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.p50, 499.0);
        assert!((s.mean - 499.5).abs() < 1e-12);
        let small = Summary::of(&[1.0, 2.0, 3.0], 99.0);
        assert!(small.tail_p.is_nan() && small.tail.is_nan());
        assert_eq!(small.p50, 2.0);
    }

    #[test]
    fn better_half_ignores_slowed_segments() {
        // Two of eight segments slowed by a neighbour do not move it.
        let lat = [2.0, 2.1, 9.0, 2.2, 2.0, 8.0, 2.3, 2.1];
        assert_eq!(better_half(&lat, Better::Lower), 2.05);
        let rate = [700.0, 300.0, 710.0, 690.0, 350.0, 705.0, 720.0, 695.0];
        assert_eq!(better_half(&rate, Better::Higher), 707.5);
        // A change that slows every segment moves it in full.
        let slower: Vec<f64> = lat.iter().map(|x| x * 1.5).collect();
        assert!((better_half(&slower, Better::Lower) - 3.075).abs() < 1e-12);
        // Odd counts keep the middle segment.
        assert_eq!(better_half(&[3.0, 1.0, 2.0], Better::Lower), 1.5);
        assert_eq!(better_half(&[5.0], Better::Higher), 5.0);
    }

    #[test]
    fn rate_counts_only_unstolen_time() {
        assert_eq!(unstolen_rate(600, 1.0, 0.0), 600.0);
        // A quarter of the second stolen: 450 rounds in 0.75 s of CPU.
        assert_eq!(unstolen_rate(450, 1.0, 25.0), 600.0);
        assert_eq!(unstolen_rate(300, 2.0, 50.0), 300.0);
    }

    #[test]
    fn stolen_segments_are_left_out() {
        // A quiet run keeps every segment.
        assert_eq!(quiet_segments(&[0.0, 0.4, 3.8, 0.0]), vec![0, 1, 2, 3]);
        // Segments more than 4 points above the least-stolen one go.
        let mixed = [24.0, 1.0, 2.0, 28.0, 4.8, 1.6, 18.0, 5.2];
        assert_eq!(quiet_segments(&mixed), vec![1, 2, 4, 5]);
        // A run stolen throughout keeps its four least-stolen segments.
        let stolen = [40.0, 18.0, 30.0, 22.0, 60.0, 24.0];
        assert_eq!(quiet_segments(&stolen), vec![1, 2, 3, 5]);
        // Fewer segments than the minimum: all of them.
        assert_eq!(quiet_segments(&[5.0, 0.0]), vec![0, 1]);
    }

    #[test]
    fn reservoir_is_bounded_uniform_and_repeatable() {
        let fill = || {
            let mut r = Reservoir::new(1_000);
            for i in 0..100_000u32 {
                r.push(f64::from(i));
            }
            r
        };
        let r = fill();
        assert_eq!((r.items().len(), r.seen()), (1_000, 100_000));
        let mean = r.items().iter().sum::<f64>() / 1_000.0;
        assert!((mean - 50_000.0).abs() < 3_000.0, "mean {mean}");
        // Late items get in too, not only the first thousand.
        assert!(r.items().iter().any(|&x| x > 90_000.0));
        assert_eq!(r.items(), fill().items());
        // Below capacity it keeps everything in order.
        let mut small = Reservoir::new(10);
        (0..5).for_each(|i| small.push(i));
        assert_eq!(small.items(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn schedule_and_lateness() {
        assert_eq!(due_offset(0, 200.0), Duration::ZERO);
        assert_eq!(due_offset(200, 200.0), Duration::from_secs(1));
        assert_eq!(due_offset(3, 200.0), Duration::from_millis(15));
        // No drift: the millionth arrival is due exactly at 5000 s.
        assert_eq!(due_offset(1_000_000, 200.0), Duration::from_secs(5000));
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(10);
        assert_eq!(
            lateness(due, t0 + Duration::from_millis(13)),
            Duration::from_millis(3)
        );
        assert_eq!(lateness(due, t0 + Duration::from_millis(9)), Duration::ZERO);
        assert_eq!(lateness(due, due), Duration::ZERO);
    }

    #[test]
    fn phase_round_counting() {
        assert_eq!(phase_rounds(1000, 1800, 800), Ok(800));
        assert_eq!(phase_rounds(5, 5, 0), Ok(0));
        assert!(phase_rounds(1000, 1799, 800).unwrap_err().contains("799"));
        assert!(phase_rounds(10, 9, 0).unwrap_err().contains("backwards"));
    }

    #[test]
    fn arranged_collapse_is_caught() {
        let window = Arranged {
            events: 300,
            rounds: 100,
        };
        // Seats running out over a run: each segment arranges less.
        let segments = [300, 250, 200, 150, 100, 0].map(|events| Arranged {
            events,
            rounds: 100,
        });
        let verdicts: Vec<bool> = segments
            .iter()
            .map(|&s| arranged_holds(window, s).is_ok())
            .collect();
        assert_eq!(verdicts, [true, true, true, true, false, false]);
        // The check reads the last segment, not an average over the run.
        let whole_run = Arranged {
            events: segments.iter().map(|s| s.events).sum(),
            rounds: 600,
        };
        assert!(arranged_holds(window, whole_run).is_ok());
        assert!(arranged_holds(window, segments[5])
            .unwrap_err()
            .contains("collapsed"));
        // A segment with no rounds arranged nothing.
        assert!(arranged_holds(
            window,
            Arranged {
                events: 0,
                rounds: 0
            }
        )
        .is_err());
    }
}
