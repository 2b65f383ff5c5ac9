//! Parallel execution of independent experiment cells.
//!
//! A paper figure is typically a sweep — the same simulation repeated
//! over a parameter grid (|V|, d, cr, λ, α, …). Cells are independent,
//! so they fan out over scoped threads, bounded by the
//! available parallelism.

/// Runs `jobs` (one closure per experiment cell) with at most
/// `max_threads` running concurrently, returning results in input order.
///
/// `max_threads = 0` means "use available parallelism".
///
/// Claiming is lock-free: workers race a single atomic work index over
/// a pre-split cell array — each `fetch_add` hands out one cell exactly
/// once, so no queue mutex serialises claim traffic and no per-slot
/// mutex guards the result writes (the unique claim already makes them
/// exclusive; the scope join publishes them before reading).
pub fn run_parallel<T, F>(jobs: Vec<F>, max_threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        max_threads
    };
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }

    /// One work cell: the job going in, its result coming out.
    struct Cell<F, T>(std::cell::UnsafeCell<(Option<F>, Option<T>)>);
    // SAFETY: every cell is touched by exactly one worker (the atomic
    // claim below is unique per index), and results are only read after
    // the scope joins all workers.
    unsafe impl<F: Send, T: Send> Sync for Cell<F, T> {}

    let cells: Vec<Cell<F, T>> = jobs
        .into_iter()
        .map(|f| Cell(std::cell::UnsafeCell::new((Some(f), None))))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                // Relaxed suffices: claim uniqueness comes from the RMW
                // itself, and result visibility from the scope join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: index `i` was claimed by this worker alone.
                let cell = unsafe { &mut *cells[i].0.get() };
                let f = cell.0.take().expect("sweep job claimed twice");
                cell.1 = Some(f());
            });
        }
    });

    cells
        .into_iter()
        .map(|c| {
            c.0.into_inner()
                .1
                .expect("sweep job did not produce a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let out = run_parallel(jobs, 4);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn runs_with_single_thread() {
        let jobs: Vec<_> = (0..5).map(|i| move || i + 1).collect();
        assert_eq!(run_parallel(jobs, 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_means_available_parallelism() {
        let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_parallel(jobs, 0), vec![0, 1, 2]);
    }

    #[test]
    fn empty_job_list() {
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![];
        let out: Vec<i32> = run_parallel(jobs, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_actually_run_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let live = &live;
                let peak = &peak;
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        run_parallel(jobs, 4);
        assert!(peak.load(Ordering::SeqCst) >= 2, "no observed concurrency");
    }
}
