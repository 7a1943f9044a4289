#![forbid(unsafe_code)]
//! Zero-cost instrumentation for the rectpart workspace.
//!
//! The crate exposes a small recording API — work [`Counter`]s, execution
//! [`ExecStat`]s, [`Phase`] timers, per-shard cache occupancy, and
//! convergence [`TraceId`] series — behind a [`Recorder`] handle. All state
//! lives in process-wide statics so instrumented crates never thread a
//! context object through their hot paths.
//!
//! # Zero overhead when disabled
//!
//! With the default-off `obs` feature disabled every recording function is
//! an empty `#[inline(always)]` body and [`Recorder`], [`PhaseGuard`] and
//! [`StopWatch`] are zero-sized, so call sites compile to nothing. This is
//! pinned by size assertions in this crate's tests rather than by assembly
//! inspection.
//!
//! # Determinism contract
//!
//! [`Counter`] values, stripe-cache shard inserts, and trace series are
//! *work* quantities: they must be bit-identical for a given input at any
//! thread count. Quantities whose magnitude legitimately depends on the
//! thread budget or on wall time (task spawn counts, busy/wait/phase
//! nanoseconds) are segregated into [`ExecStat`] and [`Phase`] storage and
//! are exempt from the differential test in
//! `crates/core/tests/obs_differential.rs`. Instrumented call sites uphold
//! the contract by only counting events whose multiplicity is decided by
//! the algorithm (e.g. cache *misses* are first-inserts of a distinct key,
//! never the outcome of a racy lookup), and trace snapshots are sorted by
//! `(series, step, value)` so concurrent appenders cannot perturb order.

#![warn(missing_docs)]

pub mod cancel;
pub mod chrome;
#[cfg(feature = "faultinject")]
pub mod fault;
pub mod flame;
mod report;
pub mod span;
pub mod work;

pub use report::{DeterministicView, Report};

/// Deterministic work counters. Values must be identical at any thread
/// count for the same input; see the crate docs for the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `nicol()` / `nicol_bounded()` invocations (one per 1-D partitioning).
    NicolCalls,
    /// Inner bisection steps of Nicol's parametric search (per cut point).
    NicolSearchSteps,
    /// Probe sweeps (`probe` / `probe_suffix_feasible`) over the prefix array.
    ProbeCalls,
    /// Dynamic-programming cell evaluations in `dp_optimal`.
    DpCells,
    /// Outer bisection iterations of `parametric_optimal`.
    ParametricSteps,
    /// `StripeCache::bottleneck` queries.
    StripeCacheLookups,
    /// `StripeCache` first-inserts (distinct keys actually solved).
    StripeCacheMisses,
    /// `StripeCache` evictions. Always 0 today (the cache is unbounded);
    /// kept so the stats schema is stable when a bounded policy lands.
    StripeCacheEvictions,
    /// `JAG-M-OPT` feasibility probes (one per budget tried).
    JagMFeasibilityChecks,
    /// `JAG-M-OPT` greedy stripe counts actually performed.
    JagMLazyEvals,
    /// `JAG-M-OPT` run-start candidates skipped by a lower bound on
    /// their need (`⌈load / B⌉`, or a shorter stripe's need), without a
    /// count or a memo lookup.
    JagMLazySkips,
    /// `JAG-M-OPT` stripe needs answered by an earlier probe's count:
    /// exact memo hits plus candidates pruned by a remembered lower
    /// bound.
    JagMNeedReuses,
    /// `RECT-NICOL` refinement iterations executed.
    RectNicolRefineIters,
    /// Hierarchical (`HIER-RB`/`HIER-RELAXED`) bipartition nodes visited.
    HierBisections,
    /// `HIER-OPT` distinct memo states inserted (first-inserts only:
    /// racing duplicate solves of the same state are not counted).
    HierOptMemoStates,
    /// `PrefixSum2D` (Γ) constructions.
    GammaBuilds,
    /// Nonzero runs stored by a `SparsePrefixSum` build — a pure function
    /// of the input matrix (one per maximal run of consecutive nonzero
    /// cells in a row). Dense builds charge 0.
    SparseGammaRuns,
    /// `SolveScratch` buffer checkouts that had to allocate (or grow) the
    /// backing storage. Counted only at serial, algorithm-determined
    /// checkout sites (same determinism level as `NicolCalls`).
    ScratchAllocs,
    /// `SolveScratch` buffer checkouts served entirely from already-owned
    /// capacity — the per-call `Vec` churn the scratch arena removed.
    ScratchReuses,
    /// Progress snapshots persisted by a checkpoint sink (one per file
    /// actually written, not per driver checkpoint offered).
    SnapshotWrites,
    /// Solves warm-started from a verified snapshot
    /// (`SolverDriver::resume_from` entries that passed validation).
    ResumeHits,
    /// Deterministic retry backoffs charged by the driver's rung retry
    /// loop (one per re-attempt after a contained rung panic).
    RetryBackoffs,
    /// Queries answered by a resident `Engine` (solve requests only;
    /// delta updates are not queries).
    EngineQueries,
    /// Engine queries served from the per-`(algorithm, m, region)`
    /// solution cache without re-solving (including stale partitions
    /// deliberately reused under a drift-threshold rebalance policy).
    EngineWarmHits,
    /// Matrix rows applied through `Engine::apply_delta` (counted
    /// whether the Γ table was patched row-incrementally or rebuilt —
    /// the engine picks whichever the work model says is cheaper).
    DeltaRowsPatched,
    /// `JAG-M-OPT` bisection probes avoided by warm-start seeding: the
    /// bit-length shrink of the `[lb, ub]` search range bought by a
    /// verified incumbent, net of the one verification probe spent.
    /// A pure function of the bounds, so identical at any thread count.
    WarmStartProbesSkipped,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 26;

impl Counter {
    /// All counters, in stable report order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::NicolCalls,
        Counter::NicolSearchSteps,
        Counter::ProbeCalls,
        Counter::DpCells,
        Counter::ParametricSteps,
        Counter::StripeCacheLookups,
        Counter::StripeCacheMisses,
        Counter::StripeCacheEvictions,
        Counter::JagMFeasibilityChecks,
        Counter::JagMLazyEvals,
        Counter::JagMLazySkips,
        Counter::JagMNeedReuses,
        Counter::RectNicolRefineIters,
        Counter::HierBisections,
        Counter::HierOptMemoStates,
        Counter::GammaBuilds,
        Counter::SparseGammaRuns,
        Counter::ScratchAllocs,
        Counter::ScratchReuses,
        Counter::SnapshotWrites,
        Counter::ResumeHits,
        Counter::RetryBackoffs,
        Counter::EngineQueries,
        Counter::EngineWarmHits,
        Counter::DeltaRowsPatched,
        Counter::WarmStartProbesSkipped,
    ];

    /// Dotted `layer.name` identifier used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::NicolCalls => "onedim.nicol_calls",
            Counter::NicolSearchSteps => "onedim.nicol_search_steps",
            Counter::ProbeCalls => "onedim.probe_calls",
            Counter::DpCells => "onedim.dp_cells",
            Counter::ParametricSteps => "onedim.parametric_steps",
            Counter::StripeCacheLookups => "core.stripe_cache.lookups",
            Counter::StripeCacheMisses => "core.stripe_cache.misses",
            Counter::StripeCacheEvictions => "core.stripe_cache.evictions",
            Counter::JagMFeasibilityChecks => "core.jag_m.feasibility_checks",
            Counter::JagMLazyEvals => "core.jag_m.lazy_evals",
            Counter::JagMLazySkips => "core.jag_m.lazy_skips",
            Counter::JagMNeedReuses => "core.jag_m.need_reuses",
            Counter::RectNicolRefineIters => "core.rect_nicol.refine_iters",
            Counter::HierBisections => "core.hier.bisections",
            Counter::HierOptMemoStates => "core.hier_opt.memo_states",
            Counter::GammaBuilds => "core.gamma_builds",
            Counter::SparseGammaRuns => "core.gamma.sparse_runs",
            Counter::ScratchAllocs => "onedim.scratch.allocs",
            Counter::ScratchReuses => "onedim.scratch.reuses",
            Counter::SnapshotWrites => "resume.snapshot_writes",
            Counter::ResumeHits => "resume.resume_hits",
            Counter::RetryBackoffs => "robust.retry_backoffs",
            Counter::EngineQueries => "engine.queries",
            Counter::EngineWarmHits => "engine.warm_hits",
            Counter::DeltaRowsPatched => "engine.delta_rows_patched",
            Counter::WarmStartProbesSkipped => "engine.warm_start_probes_skipped",
        }
    }
}

/// Execution statistics whose values legitimately depend on the thread
/// budget or scheduling; excluded from the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ExecStat {
    /// Fork-join data-parallel operations entered (`map_range` and friends).
    ParallelOps,
    /// `join()` invocations (including ones that ran inline).
    Joins,
    /// Worker threads actually spawned.
    TasksSpawned,
    /// Total nanoseconds workers spent inside their closures.
    WorkerBusyNs,
    /// Total nanoseconds the forking thread spent blocked joining workers.
    JoinWaitNs,
    /// Worker panics caught by the panic-isolation boundary. Zero at one
    /// thread (inline execution never unwinds through the boundary), so
    /// this is an exec stat, not a deterministic counter.
    WorkerPanicsCaught,
    /// Units re-executed sequentially after a caught worker panic.
    PanicRetries,
}

/// Number of [`ExecStat`] variants.
pub const EXEC_STAT_COUNT: usize = 7;

impl ExecStat {
    /// All execution stats, in stable report order.
    pub const ALL: [ExecStat; EXEC_STAT_COUNT] = [
        ExecStat::ParallelOps,
        ExecStat::Joins,
        ExecStat::TasksSpawned,
        ExecStat::WorkerBusyNs,
        ExecStat::JoinWaitNs,
        ExecStat::WorkerPanicsCaught,
        ExecStat::PanicRetries,
    ];

    /// Dotted identifier used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            ExecStat::ParallelOps => "parallel.parallel_ops",
            ExecStat::Joins => "parallel.joins",
            ExecStat::TasksSpawned => "parallel.tasks_spawned",
            ExecStat::WorkerBusyNs => "parallel.worker_busy_ns",
            ExecStat::JoinWaitNs => "parallel.join_wait_ns",
            ExecStat::WorkerPanicsCaught => "parallel.worker_panics_caught",
            ExecStat::PanicRetries => "parallel.panic_retries",
        }
    }
}

/// Coarse pipeline phases timed by [`phase`] drop-guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Reading / parsing the input matrix.
    Io,
    /// Building the 2-D prefix-sum array Γ.
    Gamma,
    /// Running the partitioning algorithm proper.
    Partition,
    /// Validating the produced partition.
    Validate,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 4;

impl Phase {
    /// All phases, in stable report order.
    pub const ALL: [Phase; PHASE_COUNT] =
        [Phase::Io, Phase::Gamma, Phase::Partition, Phase::Validate];

    /// Identifier used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Io => "io",
            Phase::Gamma => "gamma",
            Phase::Partition => "partition",
            Phase::Validate => "validate",
        }
    }
}

/// Named convergence-trace series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TraceId {
    /// `RECT-NICOL` per-refinement-iteration `Lmax` (series = 0,
    /// step = iteration, value = Lmax).
    RectNicolLmax,
    /// `JAG-M-OPT` budget binary search (series = axis, step = probe
    /// index, value = budget tried).
    JagMOptBudget,
}

/// Number of [`TraceId`] variants.
pub const TRACE_COUNT: usize = 2;

impl TraceId {
    /// All trace ids, in stable report order.
    pub const ALL: [TraceId; TRACE_COUNT] = [TraceId::RectNicolLmax, TraceId::JagMOptBudget];

    /// Identifier used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            TraceId::RectNicolLmax => "rect_nicol_lmax",
            TraceId::JagMOptBudget => "jag_m_opt_budget",
        }
    }
}

/// Upper bound on cache shards tracked per-shard (the actual `ShardedMemo`
/// uses fewer; see `rectpart-core::cache`).
pub const MAX_SHARDS: usize = 64;

/// One point of a convergence trace: `(series, step, value)`.
pub type TracePoint = (u64, u64, u64);

#[cfg(feature = "obs")]
mod imp {
    use super::{TracePoint, COUNTER_COUNT, EXEC_STAT_COUNT, MAX_SHARDS, PHASE_COUNT, TRACE_COUNT};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    pub static COUNTERS: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];
    pub static EXEC: [AtomicU64; EXEC_STAT_COUNT] = [const { AtomicU64::new(0) }; EXEC_STAT_COUNT];
    pub static PHASES: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];
    pub static SHARD_INSERTS: [AtomicU64; MAX_SHARDS] = [const { AtomicU64::new(0) }; MAX_SHARDS];
    pub static TRACES: [Mutex<Vec<TracePoint>>; TRACE_COUNT] =
        [const { Mutex::new(Vec::new()) }; TRACE_COUNT];

    /// Locks one trace buffer, shrugging off poisoning: appends are the
    /// only writes, so a buffer abandoned mid-panic is still a valid
    /// (possibly truncated) point list worth reporting.
    pub fn lock_trace(id: usize) -> std::sync::MutexGuard<'static, Vec<TracePoint>> {
        // lint:allow(panic-reach) -- every caller passes `TraceId as usize`
        // (discriminants 0..TRACE_COUNT) or a loop index over 0..TRACE_COUNT
        TRACES[id]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Add `n` to a work counter. Free function so hot paths stay terse.
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    #[cfg(feature = "obs")]
    // lint:allow(panic-reach) -- COUNTERS is sized by COUNTER_COUNT, which
    // Counter::ALL pins to the number of enum variants; `as usize` < len
    imp::COUNTERS[counter as usize].fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "obs"))]
    let _ = (counter, n);
}

/// Increment a work counter by one.
#[inline(always)]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Add `n` to an execution statistic.
#[inline(always)]
pub fn exec_add(stat: ExecStat, n: u64) {
    #[cfg(feature = "obs")]
    // lint:allow(panic-reach) -- EXEC is sized by EXEC_STAT_COUNT, pinned to
    // the ExecStat variant count by ExecStat::ALL; `as usize` < len
    imp::EXEC[stat as usize].fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "obs"))]
    let _ = (stat, n);
}

/// Record a first-insert into cache shard `shard` (clamped to
/// [`MAX_SHARDS`]).
#[inline(always)]
pub fn record_shard_insert(shard: usize) {
    #[cfg(feature = "obs")]
    imp::SHARD_INSERTS[shard % MAX_SHARDS].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "obs"))]
    let _ = shard;
}

/// Append a point to a convergence trace. Points are sorted at snapshot
/// time, so concurrent appenders do not perturb the reported order.
#[inline(always)]
pub fn trace_point(id: TraceId, series: u64, step: u64, value: u64) {
    #[cfg(feature = "obs")]
    imp::lock_trace(id as usize).push((series, step, value));
    #[cfg(not(feature = "obs"))]
    let _ = (id, series, step, value);
}

/// Drop-guard returned by [`phase`]; adds the elapsed nanoseconds to the
/// phase's timer when dropped. Zero-sized with the feature off.
#[must_use = "the phase is timed until the guard drops"]
pub struct PhaseGuard {
    #[cfg(feature = "obs")]
    phase: Phase,
    #[cfg(feature = "obs")]
    start: std::time::Instant,
}

/// Start timing `phase` until the returned guard drops.
#[inline(always)]
pub fn phase(phase: Phase) -> PhaseGuard {
    #[cfg(feature = "obs")]
    {
        PhaseGuard {
            phase,
            start: std::time::Instant::now(),
        }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = phase;
        PhaseGuard {}
    }
}

#[cfg(feature = "obs")]
impl Drop for PhaseGuard {
    fn drop(&mut self) {
        imp::PHASES[self.phase as usize].fetch_add(
            self.start.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    }
}

/// Manual stopwatch for attributing elapsed time to an [`ExecStat`]
/// (worker busy / join wait). Zero-sized with the feature off.
///
/// Stopping a [`ExecStat::WorkerBusyNs`] / [`ExecStat::JoinWaitNs`] watch
/// additionally emits a wall-only scheduler interval into the span event
/// buffer (for the Chrome-trace export), so the parallel execution layer
/// gets busy/wait lanes in traces without ever touching a clock or a span
/// guard itself.
#[must_use = "call stop() to record the elapsed time"]
pub struct StopWatch {
    #[cfg(feature = "obs")]
    start_ns: u64,
}

impl StopWatch {
    /// Start the stopwatch.
    #[inline(always)]
    pub fn start() -> Self {
        StopWatch {
            #[cfg(feature = "obs")]
            start_ns: span::epoch_ns(),
        }
    }

    /// Stop and add the elapsed nanoseconds to `stat`.
    #[inline(always)]
    pub fn stop(self, stat: ExecStat) {
        #[cfg(feature = "obs")]
        {
            let dur_ns = span::epoch_ns().saturating_sub(self.start_ns);
            exec_add(stat, dur_ns);
            let kind = match stat {
                ExecStat::WorkerBusyNs => Some(span::SpanKind::WorkerBusy),
                ExecStat::JoinWaitNs => Some(span::SpanKind::JoinWait),
                _ => None,
            };
            if let Some(kind) = kind {
                span::sched_event(kind, self.start_ns, dur_ns);
            }
        }
        #[cfg(not(feature = "obs"))]
        let _ = stat;
    }
}

/// Handle over the process-wide recorder. Zero-sized; exists so lifecycle
/// operations (`reset`, `snapshot`) read as methods rather than free
/// functions scattered at call sites.
#[derive(Clone, Copy, Default)]
pub struct Recorder(());

impl Recorder {
    /// The process-wide recorder.
    #[inline(always)]
    pub const fn global() -> Recorder {
        Recorder(())
    }

    /// Whether the `obs` feature is compiled in.
    #[inline(always)]
    pub const fn enabled(self) -> bool {
        cfg!(feature = "obs")
    }

    /// Zero all counters, stats, timers, shard tallies, traces, and span
    /// state.
    pub fn reset(self) {
        #[cfg(feature = "obs")]
        {
            use std::sync::atomic::Ordering::Relaxed;
            for c in &imp::COUNTERS {
                c.store(0, Relaxed);
            }
            for c in &imp::EXEC {
                c.store(0, Relaxed);
            }
            for c in &imp::PHASES {
                c.store(0, Relaxed);
            }
            for c in &imp::SHARD_INSERTS {
                c.store(0, Relaxed);
            }
            for t in 0..imp::TRACES.len() {
                imp::lock_trace(t).clear();
            }
            span::reset();
        }
    }

    /// Snapshot the current state into a [`Report`]. With the feature off
    /// this returns [`Report::default`], for which
    /// [`Report::is_empty`] is `true`.
    pub fn snapshot(self) -> Report {
        #[cfg(feature = "obs")]
        {
            use std::sync::atomic::Ordering::Relaxed;
            let mut report = Report {
                enabled: true,
                ..Report::default()
            };
            for c in Counter::ALL {
                report
                    .counters
                    .push((c.name(), imp::COUNTERS[c as usize].load(Relaxed)));
            }
            for s in ExecStat::ALL {
                report
                    .exec
                    .push((s.name(), imp::EXEC[s as usize].load(Relaxed)));
            }
            for p in Phase::ALL {
                report
                    .phases_ns
                    .push((p.name(), imp::PHASES[p as usize].load(Relaxed)));
            }
            report.shard_inserts = imp::SHARD_INSERTS.iter().map(|c| c.load(Relaxed)).collect();
            while report.shard_inserts.last() == Some(&0) {
                report.shard_inserts.pop();
            }
            for t in TraceId::ALL {
                let mut points = imp::lock_trace(t as usize).clone();
                points.sort_unstable();
                report.traces.push((t.name(), points));
            }
            report.spans = span::snapshot_tree()
                .into_iter()
                .map(|node| (node.path_string(), node.count, node.work))
                .collect();
            report
        }
        #[cfg(not(feature = "obs"))]
        Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_handle_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Recorder>(), 0);
    }

    #[test]
    fn names_are_distinct_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(ExecStat::ALL.iter().map(|s| s.name()));
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        names.extend(TraceId::ALL.iter().map(|t| t.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate observable name");
    }

    #[cfg(not(feature = "obs"))]
    mod disabled {
        use super::super::*;

        #[test]
        fn guards_are_zero_sized() {
            assert_eq!(std::mem::size_of::<PhaseGuard>(), 0);
            assert_eq!(std::mem::size_of::<StopWatch>(), 0);
            assert_eq!(std::mem::size_of::<span::SpanGuard>(), 0);
            assert_eq!(std::mem::size_of::<span::ForkCtx>(), 0);
            assert_eq!(std::mem::size_of::<span::AdoptGuard>(), 0);
        }

        #[test]
        fn disabled_recorder_emits_empty_report() {
            // Recording calls are accepted but compile to nothing…
            incr(Counter::NicolCalls);
            add(Counter::DpCells, 42);
            exec_add(ExecStat::Joins, 7);
            record_shard_insert(3);
            trace_point(TraceId::RectNicolLmax, 0, 0, 100);
            let _guard = phase(Phase::Partition);
            StopWatch::start().stop(ExecStat::WorkerBusyNs);
            {
                let _span = span::enter(span::SpanKind::CliPartition);
                let _adopt = span::adopt(&span::fork_context());
            }
            // …and the snapshot stays empty.
            let report = Recorder::global().snapshot();
            assert!(!Recorder::global().enabled());
            assert!(report.is_empty());
            assert!(span::snapshot_tree().is_empty());
            assert_eq!(span::snapshot_events(), (Vec::new(), 0));
            assert_eq!(report.get("onedim.nicol_calls"), None);
        }
    }

    #[cfg(feature = "obs")]
    mod enabled {
        use super::super::*;

        // One test so nothing else in this binary races the global state.
        #[test]
        fn record_snapshot_reset_roundtrip() {
            let rec = Recorder::global();
            assert!(rec.enabled());
            rec.reset();

            incr(Counter::NicolCalls);
            add(Counter::DpCells, 42);
            exec_add(ExecStat::TasksSpawned, 3);
            record_shard_insert(2);
            record_shard_insert(2);
            // Out-of-order appends must come back sorted.
            trace_point(TraceId::RectNicolLmax, 0, 1, 90);
            trace_point(TraceId::RectNicolLmax, 0, 0, 100);
            {
                let _g = phase(Phase::Partition);
            }
            // Nested spans with directly-attributed self work (the work
            // meter itself is owned by the `work` module's test).
            {
                let _outer = span::enter(span::SpanKind::CliPartition);
                span::attribute(7);
                {
                    let _inner = span::enter_arg(span::SpanKind::HierLevel, 2);
                    span::attribute(3);
                }
            }

            let report = rec.snapshot();
            assert!(!report.is_empty());
            assert_eq!(report.get("onedim.nicol_calls"), Some(1));
            assert_eq!(report.get("onedim.dp_cells"), Some(42));
            assert_eq!(report.get("parallel.tasks_spawned"), Some(3));
            assert_eq!(report.shard_inserts, vec![0, 0, 2]);
            assert_eq!(
                report.traces[TraceId::RectNicolLmax as usize].1,
                vec![(0, 0, 100), (0, 1, 90)]
            );
            let json = rectpart_json::Json::to_string_pretty(&report.to_json());
            assert!(json.contains("\"onedim.dp_cells\": 42"));

            // Span tree: exact lookups per path (other tests in this
            // binary may flush root fragments concurrently, so no
            // whole-tree equality here).
            let span_get = |r: &Report, path: &str| {
                r.spans
                    .iter()
                    .find(|(p, _, _)| p == path)
                    .map(|&(_, count, work)| (count, work))
            };
            assert_eq!(span_get(&report, "cli.partition"), Some((1, 7)));
            assert_eq!(
                span_get(&report, "cli.partition;core.hier.level#2"),
                Some((1, 3))
            );
            assert!(json.contains("\"cli.partition;core.hier.level#2\""));
            // A stopped busy-watch lands in the event buffer as a
            // wall-only interval — never in the tree.
            StopWatch::start().stop(ExecStat::WorkerBusyNs);
            let (events, _dropped) = span::snapshot_events();
            assert!(events
                .iter()
                .any(|e| e.kind == span::SpanKind::WorkerBusy && e.work == 0));
            assert!(report
                .spans
                .iter()
                .all(|(path, _, _)| !path.contains("parallel.worker_busy")));

            rec.reset();
            let report = rec.snapshot();
            assert_eq!(report.get("onedim.nicol_calls"), Some(0));
            assert!(report.shard_inserts.is_empty());
            assert!(report.traces.iter().all(|(_, pts)| pts.is_empty()));
            assert_eq!(span_get(&report, "cli.partition"), None);
        }
    }
}
