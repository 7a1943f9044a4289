#![forbid(unsafe_code)]
//! Deterministic fork-join execution layer for rectpart.
//!
//! Every operation here has a serial fallback that produces the exact
//! output the parallel path produces — results are collected in index
//! order, reductions are folded left-to-right over per-chunk partials,
//! and `join` returns `(a, b)` positionally. Algorithms built on these
//! primitives are therefore **bit-identical** at any thread count; the
//! differential tests in `rectpart-core` enforce this.
//!
//! Scheduling model: scoped fork-join over `std::thread` (no persistent
//! pool, no work stealing). Each operation statically splits its index
//! range into one contiguous block per worker. That is cheap to reason
//! about and cheap to spawn at the coarse granularities the partitioners
//! need (whole stripes of a cut vector, whole subtrees); it does not
//! try to load-balance skewed per-item costs.
//!
//! Thread-count resolution, highest priority first:
//! 1. a scope installed by [`with_threads`] (inherited by nested `join`
//!    branches with a split budget, so recursion cannot oversubscribe);
//! 2. [`set_global_threads`] (0 restores auto);
//! 3. the `RECTPART_THREADS` environment variable;
//! 4. `std::thread::available_parallelism()`.
//!
//! With `--no-default-features` (the `threads` feature off) every
//! operation runs inline and no thread is ever spawned.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SCOPED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the previous scoped thread budget on drop (panic-safe).
struct ScopedGuard {
    prev: Option<usize>,
}

impl ScopedGuard {
    fn set(n: usize) -> ScopedGuard {
        let prev = SCOPED_THREADS.with(|c| c.replace(Some(n.max(1))));
        ScopedGuard { prev }
    }
}

impl Drop for ScopedGuard {
    fn drop(&mut self) {
        SCOPED_THREADS.with(|c| c.set(self.prev));
    }
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RECTPART_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The number of worker threads parallel operations may use right now.
/// Always ≥ 1; exactly 1 when the `threads` feature is disabled.
pub fn current_threads() -> usize {
    if cfg!(not(feature = "threads")) {
        return 1;
    }
    if let Some(n) = SCOPED_THREADS.with(Cell::get) {
        return n.max(1);
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    // `available_parallelism` is a syscall; resolve it once. Operations
    // consult `current_threads` on every invocation, and the hot
    // partitioner paths invoke them at fine granularity.
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Sets the process-wide default thread count. `0` restores automatic
/// detection. Scoped overrides via [`with_threads`] still win.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Detected hardware parallelism of the host, ignoring every configured
/// or scoped budget. Provenance only (stats / bench emitters record it);
/// use [`current_threads`] for scheduling decisions. Lives here because
/// thread APIs outside `crates/parallel` are rejected by lint L2.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `f` with the thread budget pinned to `n` (≥ 1) on this thread,
/// including inside nested [`join`] branches. Restores the previous
/// budget afterwards, also on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ScopedGuard::set(n);
    f()
}

/// Per-algorithm parallelism override, plumbed through partitioner
/// structs. `None` inherits the ambient configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelismConfig {
    pub threads: Option<usize>,
}

impl ParallelismConfig {
    /// Inherit the ambient thread budget (the default).
    pub fn inherit() -> Self {
        ParallelismConfig { threads: None }
    }

    /// Force serial execution.
    pub fn serial() -> Self {
        ParallelismConfig { threads: Some(1) }
    }

    /// Pin to exactly `n` threads.
    pub fn threads(n: usize) -> Self {
        ParallelismConfig {
            threads: Some(n.max(1)),
        }
    }

    /// Runs `f` under this configuration.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => with_threads(n, f),
            None => f(),
        }
    }
}

/// Runs both closures, in parallel when at least 2 threads are
/// available, and returns their results positionally. The thread budget
/// is split between the branches so recursive joins bottom out instead
/// of oversubscribing.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    rectpart_obs::exec_add(rectpart_obs::ExecStat::Joins, 1);
    let threads = current_threads();
    if threads < 2 {
        return (a(), b());
    }
    #[cfg(feature = "threads")]
    {
        let b_budget = threads / 2;
        let a_budget = threads - b_budget;
        rectpart_obs::exec_add(rectpart_obs::ExecStat::TasksSpawned, 1);
        let span_ctx = rectpart_obs::span::fork_context();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let _guard = ScopedGuard::set(b_budget);
                let _adopt = rectpart_obs::span::adopt(&span_ctx);
                let busy = rectpart_obs::StopWatch::start();
                let rb = b();
                busy.stop(rectpart_obs::ExecStat::WorkerBusyNs);
                rb
            });
            let ra = with_threads(a_budget, a);
            let wait = rectpart_obs::StopWatch::start();
            let rb = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            wait.stop(rectpart_obs::ExecStat::JoinWaitNs);
            (ra, rb)
        })
    }
    #[cfg(not(feature = "threads"))]
    {
        (a(), b())
    }
}

/// Applies `f` to every index in `0..n` and collects the results in
/// index order. Workers get contiguous blocks; each worker's budget is
/// pinned to 1 so nested parallel calls inside `f` run inline.
///
/// # Panic isolation
///
/// `f` is a pure producer (`Fn(usize) -> R`, no shared mutable state),
/// so a panicking worker poisons only its own block: the panic is
/// contained at the join, counted as
/// [`WorkerPanicsCaught`](rectpart_obs::ExecStat::WorkerPanicsCaught),
/// and the block is recomputed sequentially on the calling thread (one
/// [`PanicRetries`](rectpart_obs::ExecStat::PanicRetries) per unit). A
/// *deterministic* panic of `f` therefore still surfaces — the retry
/// hits it on the calling thread — while scheduling-dependent faults
/// (e.g. injected worker panics) are fully recovered with bit-identical
/// output. The mutable-slice operations below do **not** retry: their
/// workers may have partially mutated their block, so re-running the
/// closure would double-apply; they propagate the panic instead.
pub fn map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    rectpart_obs::exec_add(rectpart_obs::ExecStat::ParallelOps, 1);
    let threads = current_threads();
    if threads < 2 || n < 2 {
        return (0..n).map(f).collect();
    }
    #[cfg(feature = "threads")]
    {
        let workers = threads.min(n);
        rectpart_obs::exec_add(rectpart_obs::ExecStat::TasksSpawned, workers as u64);
        let f = &f;
        let span_ctx = rectpart_obs::span::fork_context();
        let span_ctx = &span_ctx;
        let mut blocks: Vec<Vec<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    // lint:allow(panic-reach) -- w ranges over 0..workers,
                    // so this body only runs when workers >= 1
                    let lo = w * n / workers;
                    // lint:allow(panic-reach) -- same: workers >= 1 here
                    let hi = (w + 1) * n / workers;
                    scope.spawn(move || {
                        #[cfg(feature = "faultinject")]
                        if rectpart_obs::fault::worker_should_panic() {
                            // The injected fault fires before any unit
                            // runs, so the sequential retry reproduces
                            // the block (and its work charges) exactly.
                            // lint:allow(panic) -- faultinject: deliberate injected worker panic, contained by the retry path at the join below
                            panic!("injected worker fault");
                        }
                        let _guard = ScopedGuard::set(1);
                        let _adopt = rectpart_obs::span::adopt(span_ctx);
                        let busy = rectpart_obs::StopWatch::start();
                        let block = (lo..hi).map(f).collect::<Vec<R>>();
                        busy.stop(rectpart_obs::ExecStat::WorkerBusyNs);
                        block
                    })
                })
                .collect();
            let wait = rectpart_obs::StopWatch::start();
            let blocks: Vec<Vec<R>> = handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| match h.join() {
                    Ok(block) => block,
                    // A panicked worker computed nothing the caller will
                    // see; recompute its block inline. The payload is
                    // dropped — a deterministic panic recurs right here
                    // on the calling thread and propagates normally.
                    Err(_payload) => {
                        rectpart_obs::exec_add(rectpart_obs::ExecStat::WorkerPanicsCaught, 1);
                        // lint:allow(panic-reach) -- retry path for worker w
                        // in 0..workers, so workers >= 1
                        let lo = w * n / workers;
                        // lint:allow(panic-reach) -- same: workers >= 1 here
                        let hi = (w + 1) * n / workers;
                        rectpart_obs::exec_add(
                            rectpart_obs::ExecStat::PanicRetries,
                            (hi - lo) as u64,
                        );
                        (lo..hi).map(f).collect::<Vec<R>>()
                    }
                })
                .collect();
            wait.stop(rectpart_obs::ExecStat::JoinWaitNs);
            blocks
        });
        let mut out = Vec::with_capacity(n);
        for block in &mut blocks {
            out.append(block);
        }
        out
    }
    #[cfg(not(feature = "threads"))]
    {
        (0..n).map(f).collect()
    }
}

/// Slice version of [`map_range`], in element order.
pub fn map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // lint:allow(panic-reach) -- map_range hands out i in 0..items.len()
    map_range(items.len(), |i| f(&items[i]))
}

/// Maps each element to an iterator and concatenates the results in
/// element order (`flat_map` with deterministic ordering).
pub fn flat_map_slice<T, R, I, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: IntoIterator<Item = R>,
    F: Fn(&T) -> I + Sync,
{
    let nested = map_range(items.len(), |i| {
        // lint:allow(panic-reach) -- map_range hands out i in 0..items.len()
        f(&items[i]).into_iter().collect::<Vec<R>>()
    });
    nested.into_iter().flatten().collect()
}

/// Applies `f(index, &mut item)` to every element, splitting the slice
/// into contiguous blocks across workers.
// Without `threads` the cfg block below vanishes and the serial path's
// early `return` becomes the tail statement.
#[cfg_attr(not(feature = "threads"), allow(clippy::needless_return))]
pub fn for_each_indexed_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    rectpart_obs::exec_add(rectpart_obs::ExecStat::ParallelOps, 1);
    let n = items.len();
    let threads = current_threads();
    if threads < 2 || n < 2 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    #[cfg(feature = "threads")]
    {
        let workers = threads.min(n);
        rectpart_obs::exec_add(rectpart_obs::ExecStat::TasksSpawned, workers as u64);
        let f = &f;
        let span_ctx = rectpart_obs::span::fork_context();
        let span_ctx = &span_ctx;
        std::thread::scope(|scope| {
            let mut rest = items;
            let mut offset = 0;
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                // lint:allow(panic-reach) -- loop over 0..workers: workers >= 1
                let hi = (w + 1) * n / workers;
                // lint:allow(panic-reach) -- the per-worker [offset, hi)
                // blocks partition 0..n, so hi - offset <= rest.len()
                let (block, tail) = rest.split_at_mut(hi - offset);
                rest = tail;
                let base = offset;
                offset = hi;
                handles.push(scope.spawn(move || {
                    let _guard = ScopedGuard::set(1);
                    let _adopt = rectpart_obs::span::adopt(span_ctx);
                    let busy = rectpart_obs::StopWatch::start();
                    for (i, item) in block.iter_mut().enumerate() {
                        f(base + i, item);
                    }
                    busy.stop(rectpart_obs::ExecStat::WorkerBusyNs);
                }));
            }
            let wait = rectpart_obs::StopWatch::start();
            for h in handles {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            }
            wait.stop(rectpart_obs::ExecStat::JoinWaitNs);
        });
    }
}

/// Splits `items` into `⌈len / chunk⌉` fixed-size chunks, maps each with
/// `f(chunk_index, chunk)` in parallel, and returns the per-chunk
/// results in chunk order. The chunk decomposition is identical at
/// every thread count, so a left fold over the result is deterministic.
pub fn map_chunks<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n_chunks = items.len().div_ceil(chunk);
    map_range(n_chunks, |i| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(items.len());
        // lint:allow(panic-reach) -- i < n_chunks implies lo < items.len()
        // (ceil division), and hi is clamped to items.len()
        f(i, &items[lo..hi])
    })
}

/// Chunked map-reduce: maps chunks in parallel, then folds the partial
/// results **left to right** on the calling thread. With an associative
/// `fold`, the result matches the serial computation exactly.
pub fn chunked_reduce<T, R, M, FO>(items: &[T], chunk: usize, map: M, init: R, fold: FO) -> R
where
    T: Sync,
    R: Send,
    M: Fn(usize, &[T]) -> R + Sync,
    FO: FnMut(R, R) -> R,
{
    map_chunks(items, chunk, map).into_iter().fold(init, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_matches_serial_any_thread_count() {
        let expect: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        for t in [1, 2, 3, 7, 16] {
            let got = with_threads(t, || map_range(1000, |i| (i as u64) * (i as u64)));
            assert_eq!(got, expect, "threads = {t}");
        }
    }

    #[test]
    fn map_range_edge_sizes() {
        for t in [1, 4] {
            with_threads(t, || {
                assert_eq!(map_range(0, |i| i), Vec::<usize>::new());
                assert_eq!(map_range(1, |i| i + 10), vec![10]);
                assert_eq!(map_range(2, |i| i), vec![0, 1]);
            });
        }
    }

    #[test]
    fn join_is_positional_and_splits_budget() {
        let (a, b) = with_threads(4, || {
            join(|| (current_threads(), "a"), || (current_threads(), "b"))
        });
        assert_eq!(a.1, "a");
        assert_eq!(b.1, "b");
        if cfg!(feature = "threads") {
            assert_eq!(a.0 + b.0, 4);
        } else {
            assert_eq!((a.0, b.0), (1, 1));
        }
    }

    #[test]
    fn nested_joins_bottom_out() {
        fn depth_sum(budget_left: usize) -> usize {
            if budget_left == 0 {
                return current_threads();
            }
            let (x, y) = join(|| depth_sum(budget_left - 1), || depth_sum(budget_left - 1));
            x + y
        }
        // Regardless of nesting depth the leaf budgets stay bounded.
        let total = with_threads(4, || depth_sum(6));
        assert!(total >= 64, "each leaf reports at least budget 1");
    }

    #[test]
    fn for_each_indexed_mut_touches_every_slot_once() {
        for t in [1, 2, 5] {
            let mut v = vec![0usize; 97];
            with_threads(t, || for_each_indexed_mut(&mut v, |i, x| *x = i * 3));
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
        }
    }

    #[test]
    fn chunked_reduce_is_order_stable() {
        let data: Vec<u64> = (0..10_000).collect();
        let serial: u64 = data.iter().sum();
        for t in [1, 3, 8] {
            let got = with_threads(t, || {
                chunked_reduce(
                    &data,
                    1024,
                    |_, c| c.iter().sum::<u64>(),
                    0u64,
                    |a, b| a + b,
                )
            });
            assert_eq!(got, serial);
        }
    }

    #[test]
    fn flat_map_preserves_order() {
        let items: Vec<usize> = (0..50).collect();
        let expect: Vec<usize> = items.iter().flat_map(|&i| vec![i, i + 100]).collect();
        for t in [1, 4] {
            let got = with_threads(t, || flat_map_slice(&items, |&i| vec![i, i + 100]));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn scoped_override_beats_global() {
        set_global_threads(3);
        assert_eq!(with_threads(2, current_threads), 2.min(current_max()));
        set_global_threads(0);

        fn current_max() -> usize {
            if cfg!(feature = "threads") {
                usize::MAX
            } else {
                1
            }
        }
    }

    #[test]
    fn deterministic_panic_still_propagates_after_retry() {
        // `f` panics on unit 73 every time: the worker panic is caught,
        // the block is retried inline, the retry hits unit 73 again, and
        // the panic surfaces on the calling thread.
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map_range(100, |i| {
                    if i == 73 {
                        panic!("boom at {i}");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
    }

    #[cfg(all(feature = "faultinject", feature = "threads"))]
    #[test]
    fn injected_worker_panic_is_recovered_bit_identically() {
        let expect: Vec<u64> = (0..500u64).map(|i| i * 7).collect();
        rectpart_obs::fault::install(rectpart_obs::fault::FaultConfig {
            seed: 1,
            panic_workers: vec![0, 2],
            ..Default::default()
        });
        let got = with_threads(4, || map_range(500, |i| (i as u64) * 7));
        rectpart_obs::fault::clear();
        assert_eq!(got, expect);
    }

    #[test]
    fn host_cores_is_positive_and_budget_independent() {
        let n = host_cores();
        assert!(n >= 1);
        assert_eq!(with_threads(1, host_cores), n);
    }

    #[test]
    fn parallelism_config_pins_threads() {
        assert_eq!(ParallelismConfig::serial().run(current_threads), 1);
        let pinned = ParallelismConfig::threads(2).run(current_threads);
        assert_eq!(pinned, if cfg!(feature = "threads") { 2 } else { 1 });
    }
}
