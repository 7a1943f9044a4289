//! Optimal jagged partitioners (§3.2.1–3.2.2): `JAG-PQ-OPT` and
//! `JAG-M-OPT`.
//!
//! * `JAG-PQ-OPT` observes (with the paper) that an optimal P×Q-way jagged
//!   partition is an optimal 1D partition of the main dimension whose
//!   interval "load" is the *optimal 1D bottleneck of the stripe* along
//!   the auxiliary dimension. That stripe cost is monotone, so Nicol's
//!   algorithm applies directly; stripe solutions are memoized in a
//!   shared, thread-safe [`StripeCache`] that serves both orientations of
//!   a `-BEST` run (which execute concurrently) and the final parallel
//!   per-stripe reconstruction.
//! * `JAG-M-OPT` solves the paper's dynamic program. The production
//!   implementation is a parametric search: binary search on the answer
//!   `B` with an exact feasibility test (`min #processors to realise a
//!   jagged partition with bottleneck ≤ B`, computed by a 1D DP over
//!   stripe boundaries with greedy per-stripe part counting). This
//!   realizes the paper's §3.2.2 speed-ups (lazy evaluation, bound
//!   pruning, branch-and-bound seeded by the `JAG-M-HEUR` incumbent) in a
//!   provably exact form, and adds the monotonicity the journal version
//!   analyses: each probe only tries the first end row of every run of
//!   equal suffix cost, stops as soon as a suffix needs more than `m`
//!   processors, and reads stripe counts that earlier probes of the same
//!   search proved for a budget range instead of recounting them. The
//!   literal DP formulation of the paper is also provided
//!   ([`jag_m_opt_dp`]) and the test-suite checks both agree.

use std::cell::RefCell;
use std::collections::HashMap;

use rectpart_onedim::{
    nicol, nicol_bottleneck, nicol_in_seeded, FnCost, IntervalCost, SolveScratch,
};

use crate::cache::StripeCache;
use crate::cancel::Checker;
use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::jagged::{jag_m_heur_view, try_jag_m_heur_view, JaggedVariant};
use crate::prefix::{PrefixSum2D, View};
use crate::solution::Partition;
use crate::traits::{grid_dims, isqrt, Partitioner};

/// `JAG-PQ-OPT` — optimal P×Q-way jagged partition (Manne–Sørevik /
/// Pınar–Aykanat). Exponentially slower than the heuristic but still
/// polynomial; the paper measures ~27 s at `m = 10 000` on a 512² matrix.
#[derive(Clone, Debug, Default)]
pub struct JagPqOpt {
    /// Orientation policy.
    pub variant: JaggedVariant,
    /// Explicit `(P, Q)`; defaults to the near-square factorization of `m`.
    pub grid: Option<(usize, usize)>,
}

impl Partitioner for JagPqOpt {
    fn name(&self) -> String {
        format!("JAG-PQ-OPT-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");
        // One cache for the whole call: the `-BEST` orientation pair runs
        // concurrently against it (entries are axis-keyed) and every
        // stripe solution survives across all of Nicol's probes.
        let cache = StripeCache::new();
        self.variant.run(pfx, |view| {
            let rects = jag_pq_opt_view(&view, p, q, &cache);
            Partition::with_parts(rects, m)
        })
    }
}

impl JagPqOpt {
    /// Resident-engine entry: **bit-identical** to
    /// [`partition`](Partitioner::partition), but the stripe memo is
    /// caller-owned — a long-lived engine keeps it warm across queries
    /// on an unchanged matrix — and the previous solve's partition can
    /// seed the main-dimension Nicol incumbent
    /// ([`nicol_in_seeded`]'s contract: the seed derived from `prior`
    /// is the bottleneck of an achievable tiling, so the optimum is
    /// unchanged and only search steps are saved).
    pub fn partition_warm(
        &self,
        pfx: &PrefixSum2D,
        m: usize,
        cache: &StripeCache,
        prior: Option<&Partition>,
    ) -> Partition {
        assert!(m >= 1);
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");
        self.variant.run(pfx, |view| {
            let rects = jag_pq_opt_view_warm(&view, p, q, cache, prior);
            Partition::with_parts(rects, m)
        })
    }
}

/// One-orientation `JAG-PQ-OPT` returning raw rectangles.
fn jag_pq_opt_view(view: &View<'_>, p: usize, q: usize, cache: &StripeCache) -> Vec<Rect> {
    jag_pq_opt_view_warm(view, p, q, cache, None)
}

/// [`jag_pq_opt_view`] with optional warm-start from a previous
/// partition of the same instance family.
fn jag_pq_opt_view_warm(
    view: &View<'_>,
    p: usize,
    q: usize,
    cache: &StripeCache,
    prior: Option<&Partition>,
) -> Vec<Rect> {
    let n_main = view.n_main();
    let n_aux = view.n_aux();
    let axis = view.axis();
    // Memoized optimal stripe bottleneck S(a, b) = opt 1D split of rows
    // [a, b) into q parts along the auxiliary dimension. The closure
    // chain under `nicol` below is single-threaded per orientation, so
    // one scratch arena serves every cache miss without reallocating
    // (a Mutex only because `FnCost` closures must be `Sync`; it is
    // never contended).
    let scratch = std::sync::Mutex::new(SolveScratch::new());
    let stripe_cost = FnCost::new(n_main, |a, b| {
        if a == b {
            return 0;
        }
        cache.bottleneck(axis, a, b, q, || {
            let aux = FnCost::additive(n_aux, |c, d| view.load(a, b, c, d));
            let mut scratch = scratch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            nicol_bottleneck(&aux, q, &mut scratch)
        })
    });
    // Warm-start: the previous solve's main-dimension cut set, re-priced
    // under the current stripe costs, is an achievable bottleneck — a
    // valid Nicol incumbent that cannot change the optimum.
    let seed = prior.and_then(|prev| warm_main_seed(view, prev, p, &stripe_cost));
    let main = match seed {
        Some(s) => nicol_in_seeded(&stripe_cost, p, &mut SolveScratch::new(), s).cuts,
        None => nicol(&stripe_cost, p).cuts,
    };
    // The chosen stripes are independent 1D problems: fan out, keeping
    // the in-order collect so the rectangle order matches the serial
    // loop exactly.
    let stripes: Vec<(usize, usize)> = main.intervals().filter(|(a, b)| a < b).collect();
    rectpart_parallel::flat_map_slice(&stripes, |&(s0, s1)| {
        let aux = FnCost::additive(n_aux, |c, d| view.load(s0, s1, c, d));
        nicol(&aux, q)
            .cuts
            .intervals()
            .filter(|(a0, a1)| a0 < a1)
            .map(|(a0, a1)| view.rect(s0, s1, a0, a1))
            .collect::<Vec<_>>()
    })
}

/// Derives a main-dimension Nicol seed from a previous partition: the
/// distinct stripe starts of `prior` in this orientation, re-priced
/// under the current `stripe_cost`. Sound for *any* prior tiling: if the
/// derived boundary set has ≤ `p` intervals, keeping those main cuts and
/// optimally splitting each stripe `q`-way is an achievable `p×q`
/// solution, so its bottleneck (the max re-priced stripe cost) is a
/// feasible incumbent. Priors that do not project onto ≤ `p` stripes
/// (e.g. the other orientation of a `-BEST` pair) yield `None`.
fn warm_main_seed<C: IntervalCost>(
    view: &View<'_>,
    prior: &Partition,
    p: usize,
    stripe_cost: &C,
) -> Option<u64> {
    let n = view.n_main();
    let mut bounds: Vec<usize> = prior
        .rects()
        .iter()
        .map(|r| match view.axis() {
            Axis::Rows => r.r0,
            Axis::Cols => r.c0,
        })
        .collect();
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    if bounds.first() != Some(&0) || bounds.last() != Some(&n) || bounds.len() - 1 > p {
        return None;
    }
    bounds
        .windows(2)
        .map(|w| stripe_cost.cost(w[0], w[1]))
        .max()
}

/// `JAG-M-OPT` — optimal m-way jagged partition (the paper's new class,
/// §3.2.2), exact via parametric search. Runtime grows quickly with `m`
/// (the paper reports 15 minutes at `m = 961`); our parametric variant is
/// much faster but still the most expensive algorithm in the suite.
#[derive(Clone, Debug, Default)]
pub struct JagMOpt {
    /// Orientation policy.
    pub variant: JaggedVariant,
}

impl Partitioner for JagMOpt {
    fn name(&self) -> String {
        format!("JAG-M-OPT-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        self.variant.run(pfx, |view| {
            let rects = jag_m_opt_view(&view, m);
            Partition::with_parts(rects, m)
        })
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        Ok(self.try_partition_seeded(pfx, m, None)?.0)
    }
}

impl JagMOpt {
    /// Warm-started twin of [`Partitioner::try_partition`]: `hint` is a
    /// *claimed* achievable bottleneck — typically the previous solve's
    /// partition re-priced on the patched Γ. Exactness never depends on
    /// the hint: one verification probe either tightens `ub` (hint
    /// feasible in this orientation) or raises `lb` (infeasible, so the
    /// optimum is above it), and the bisection converges to the same
    /// minimal feasible bottleneck as a cold solve — the result is
    /// **bit-identical**; only the probe count shrinks. Returns the
    /// partition and the net probes skipped (also charged to
    /// [`WarmStartProbesSkipped`](rectpart_obs::Counter::WarmStartProbesSkipped)).
    pub fn try_partition_seeded(
        &self,
        pfx: &PrefixSum2D,
        m: usize,
        hint: Option<u64>,
    ) -> Result<(Partition, u64), RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        let check = Checker::active();
        let skipped = std::sync::atomic::AtomicU64::new(0);
        let part = self.variant.try_run(pfx, |view| {
            let (rects, s) = try_jag_m_opt_view(&view, m, check, hint)?;
            skipped.fetch_add(s, std::sync::atomic::Ordering::Relaxed);
            Ok(Partition::with_parts(rects, m))
        })?;
        Ok((part, skipped.load(std::sync::atomic::Ordering::Relaxed)))
    }
}

/// One-orientation exact m-way jagged optimum via parametric search.
fn jag_m_opt_view(view: &View<'_>, m: usize) -> Vec<Rect> {
    try_jag_m_opt_view(view, m, Checker::OFF, None)
        .map(|(rects, _)| rects)
        .unwrap_or_else(|_| jag_m_heur_view(view, m, isqrt(m).max(1).min(m)))
}

/// Cancellation-aware parametric search: the deadline is polled once per
/// parametric probe (each probe is one serial feasibility DP, the
/// algorithm's natural work quantum). An optional warm-start `hint` (a
/// claimed achievable bottleneck) is spent on one verification probe
/// that tightens whichever bound it can — the bisection then converges
/// to the same optimum from a narrower range. All probes of the search,
/// the hint's included, share one [`StripeNeeds`], so a stripe counted at
/// one budget is not recounted at a nearby one. Returns the rectangles
/// and the net probes skipped by the hint (bit-length shrink of the
/// range, minus the verification probe).
fn try_jag_m_opt_view(
    view: &View<'_>,
    m: usize,
    check: Checker,
    hint: Option<u64>,
) -> Result<(Vec<Rect>, u64), RectpartError> {
    let n = view.n_main();
    let n_aux = view.n_aux();
    if n == 0 || n_aux == 0 {
        return Ok((Vec::new(), 0));
    }
    let pfx = view.prefix();
    let mut lb = pfx.lower_bound(m);
    // Incumbent: JAG-M-HEUR on the same orientation.
    let heur = try_jag_m_heur_view(view, m, isqrt(m).max(1).min(m), check)?;
    let mut ub = heur
        .iter()
        .map(|r| pfx.load(r))
        .max()
        .unwrap_or(pfx.total());
    if ub < lb {
        // Cannot happen for correct bounds; defensive.
        lb = ub;
    }
    // Binary search the smallest feasible bottleneck. One scratch arena
    // and one stripe memo back every feasibility DP of the search: the
    // inner loop never touches the allocator (the memo only grows
    // between probes).
    let mut scratch = SolveScratch::new();
    let mut needs = StripeNeeds::new(view);
    let mut probe_idx = 0u64;
    let mut skipped = 0u64;
    if let Some(h) = hint {
        if h >= lb && h < ub {
            check.check()?;
            let before = u64::BITS - (ub - lb).leading_zeros();
            rectpart_obs::trace_point(
                rectpart_obs::TraceId::JagMOptBudget,
                view.axis() as u64,
                probe_idx,
                h,
            );
            probe_idx += 1;
            if feasible(view, m, h, &mut scratch, &mut needs) {
                ub = h;
            } else {
                lb = h + 1;
            }
            let after = u64::BITS - (ub - lb).leading_zeros();
            skipped = (before.saturating_sub(after).saturating_sub(1)) as u64;
            rectpart_obs::add(rectpart_obs::Counter::WarmStartProbesSkipped, skipped);
        }
    }
    while lb < ub {
        check.check()?;
        // lint:allow(checked-arith) -- lb <= ub in the loop, so
        // lb + (ub-lb)/2 <= ub: no overflow possible
        let mid = lb + (ub - lb) / 2;
        rectpart_obs::trace_point(
            rectpart_obs::TraceId::JagMOptBudget,
            view.axis() as u64,
            probe_idx,
            mid,
        );
        probe_idx += 1;
        if feasible(view, m, mid, &mut scratch, &mut needs) {
            ub = mid;
        } else {
            lb = mid + 1;
        }
    }
    check.check()?;
    if feasible(view, m, ub, &mut scratch, &mut needs) {
        Ok((reconstruct(view, ub, scratch.jag_choice()), skipped))
    } else {
        // The incumbent's own bottleneck is always feasible; if the DP
        // cannot see it (it can), fall back to the heuristic rectangles.
        Ok((heur, skipped))
    }
}

/// Exact feasibility: can the matrix be partitioned m-way jagged with
/// bottleneck ≤ `budget`? Computes `f[k]` = minimal processor count for
/// the suffix of stripes starting at main index `k` in `scratch`'s DP
/// buffers; on success the chosen next stripe boundary per position is
/// left in `scratch.jag_choice()` for [`reconstruct`].
///
/// `f[k] = min over i > k of need(k, i) + f[i]`, where `need(k, i)` is
/// the greedy part count of stripe `[k, i)`, and `choice[k]` is the
/// smallest minimising `i`. Three exact prunings keep a probe cheap:
///
/// * **Run starts only.** `f` is non-increasing in `i` and `need(k, i)`
///   is non-decreasing, so over a run of equal `f` the sum is smallest
///   at the run's first index, and the smallest minimiser is such a
///   first index. The run starts (at most `m + 1` of them) are kept on a
///   stack as `k` descends.
/// * **Capped at `m`.** `best` starts at `m + 1`, so no count above `m`
///   is ever taken, and since `f[0] ≥ f[k]` the probe fails at the first
///   `k` whose suffix needs more than `m` processors.
/// * **Bounds before counts.** Two lower bounds on `need(k, i)` grow
///   with `i` and so can end the scan: `⌈load / budget⌉`, and the
///   largest need already proven for a shorter stripe from `k`. A count
///   an earlier probe left in `needs` then either gives `need` exactly
///   or rules the candidate out by its lower bound; that bound belongs
///   to one stripe, so it only ever skips that candidate. Only what is
///   left is counted ([`stripe_parts`]), capped at what could still
///   improve `best`.
///
/// Deliberately serial: `f[k]` reads every `f[i > k]` — the parallelism
/// lives in [`reconstruct`] and in the `-BEST` orientation pair running
/// two searches concurrently (each with its own scratch and memo).
fn feasible(
    view: &View<'_>,
    m: usize,
    budget: u64,
    scratch: &mut SolveScratch,
    needs: &mut StripeNeeds,
) -> bool {
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::JagMFeasibility);
    rectpart_obs::incr(rectpart_obs::Counter::JagMFeasibilityChecks);
    rectpart_obs::work::charge(view.n_main() as u64 + 1);
    let n = view.n_main();
    needs.begin_probe();
    let (f, choice, runs) = scratch.jag_buffers(n + 1);
    f.resize(n + 1, 0);
    choice.resize(n + 1, 0);
    // First index of each run of equal `f` over `k+1..=n`; the top of
    // the stack is always `k + 1`, the bottom `n` (where `f` is 0).
    runs.push(n);
    for k in (0..n).rev() {
        // `m + 1` stands for "more than m": nothing at or above it is
        // ever taken.
        let mut best = m.saturating_add(1);
        let mut best_i = k + 1;
        // The largest need proven for a shorter stripe from k.
        let mut floor = 0usize;
        for (pos, &i) in runs.iter().rev().enumerate() {
            // lint:allow(panic-reach) -- run starts lie in k+1..=n < f.len()
            let rest = f[i];
            let room = best.saturating_sub(rest);
            // Whether need(k, i) may be below `t`, judged by two lower
            // bounds that grow with i: `floor` and `⌈load / budget⌉`.
            let stripe_load = needs.load(k, i);
            let may_be_below = |t| floor < t && need_bound_below(stripe_load, budget, t);
            if !may_be_below(best) {
                // No later start can help either.
                rectpart_obs::add(
                    rectpart_obs::Counter::JagMLazySkips,
                    (runs.len() - pos) as u64,
                );
                break;
            }
            if !may_be_below(room) {
                rectpart_obs::incr(rectpart_obs::Counter::JagMLazySkips);
                continue;
            }
            // An earlier probe's count settles the candidate if it is
            // exact here or rules it out; otherwise count afresh.
            let known = needs.get(k, i, budget).filter(|need| match *need {
                Need::Exact(_) => true,
                Need::AtLeast(parts) => parts >= room,
            });
            let need = match known {
                Some(need) => {
                    rectpart_obs::incr(rectpart_obs::Counter::JagMNeedReuses);
                    need
                }
                None => {
                    rectpart_obs::incr(rectpart_obs::Counter::JagMLazyEvals);
                    let counted = stripe_parts(view, k, i, budget, room);
                    needs.put(k, i, counted);
                    counted.need
                }
            };
            let (Need::Exact(parts) | Need::AtLeast(parts)) = need;
            floor = floor.max(parts);
            if need == Need::Exact(parts) && parts < room {
                best = parts + rest;
                best_i = i;
            }
        }
        if best > m {
            return false;
        }
        // A start at k + 1 with the same `f` now continues k's run.
        // lint:allow(panic-reach) -- stack entries lie in k+1..=n < f.len()
        if runs.last().is_some_and(|&top| f[top] == best) {
            runs.pop();
        }
        runs.push(k);
        // lint:allow(panic-reach) -- k < n < f.len() = choice.len()
        f[k] = best;
        // lint:allow(panic-reach) -- k < n < choice.len()
        choice[k] = best_i;
    }
    true
}

/// Whether `⌈load / budget⌉` (at least 1; any load > 0 is unbounded at
/// budget 0) is below `t`, decided without a division.
fn need_bound_below(load: u64, budget: u64, t: usize) -> bool {
    t > 1 && load <= ((t - 1) as u64).saturating_mul(budget)
}

/// What one greedy count proves about a stripe's part count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Need {
    /// Exactly this many parts.
    Exact(usize),
    /// At least this many parts (`usize::MAX`: a cell exceeds the budget).
    AtLeast(usize),
}

/// A greedy count of one stripe and the budgets it holds for. Every
/// budget in `[max_part, next)` makes the greedy cut exactly the same
/// parts, so an exact count holds there. Below `next` the count is a
/// lower bound: smaller budgets only shrink the parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StripeCount {
    need: Need,
    /// Largest part load (`u64::MAX` when `need` is only a bound).
    max_part: u64,
    /// Smallest budget at which the greedy could cut differently: the
    /// least load of a part grown by one cell, or of a cell that did not
    /// fit.
    next: u64,
}

/// Greedy count of the auxiliary intervals covering stripe `[k, i)`
/// with every interval ≤ `budget` (greedy maximal intervals — optimal
/// for the counting problem), stopped once it reaches `cap` parts.
///
/// Each part's end is found by galloping from the previous part's
/// width, which returns the same index as [`IntervalCost::upper_bisect`]
/// over `[lo + 1, n_aux]` with far fewer Γ queries when neighbouring
/// parts have similar widths.
fn stripe_parts(view: &View<'_>, k: usize, i: usize, budget: u64, cap: usize) -> StripeCount {
    let n_aux = view.n_aux();
    let cost = |a: usize, b: usize| view.load(k, i, a, b);
    let mut lo = 0usize;
    let mut parts = 0usize;
    let mut width = 1usize;
    let mut max_part = 0u64;
    let mut next = u64::MAX;
    while lo < n_aux {
        let first = cost(lo, lo + 1);
        if first > budget {
            return StripeCount {
                need: Need::AtLeast(usize::MAX),
                max_part: u64::MAX,
                next: next.min(first),
            };
        }
        // Invariants: `cost(lo, a) = a_cost <= budget`, and either
        // `b == n_aux` or `cost(lo, b + 1) = b_next > budget`.
        let (mut a, mut a_cost) = (lo + 1, first);
        let (mut b, mut b_next) = (n_aux, u64::MAX);
        let seed = (lo + width).clamp(a, b);
        let seed_cost = cost(lo, seed);
        let mut step = 1usize;
        if seed_cost <= budget {
            (a, a_cost) = (seed, seed_cost);
            while a < b {
                let probe = a.saturating_add(step).min(b);
                let c = cost(lo, probe);
                if c > budget {
                    (b, b_next) = (probe - 1, c);
                    break;
                }
                (a, a_cost) = (probe, c);
                step = step.saturating_mul(2);
            }
        } else {
            (b, b_next) = (seed - 1, seed_cost);
            while a < b {
                let probe = b.saturating_sub(step - 1).max(a + 1);
                let c = cost(lo, probe);
                if c <= budget {
                    (a, a_cost) = (probe, c);
                    break;
                }
                (b, b_next) = (probe - 1, c);
                step = step.saturating_mul(2);
            }
        }
        while a < b {
            let mid = a + (b - a).div_ceil(2);
            let c = cost(lo, mid);
            if c <= budget {
                (a, a_cost) = (mid, c);
            } else {
                (b, b_next) = (mid - 1, c);
            }
        }
        max_part = max_part.max(a_cost);
        next = next.min(b_next);
        width = a - lo;
        lo = a;
        parts += 1;
        if parts >= cap && lo < n_aux {
            return StripeCount {
                need: Need::AtLeast(parts + 1),
                max_part: u64::MAX,
                next,
            };
        }
    }
    StripeCount {
        need: Need::Exact(parts),
        max_part,
        next,
    }
}

/// What the feasibility probes of one orientation's search know about
/// its stripes: every stripe's load, from the main-dimension slice
/// totals, and the greedy counts earlier probes made, so that a probe at
/// a nearby budget reads a stripe's need instead of recounting it.
///
/// The count memo is a flat four-way set-associative table: a stripe's
/// key picks one bucket of four slots, kept in recency order, and a
/// fifth stripe evicts the oldest. Losing an entry costs a recount,
/// never exactness: the memo only holds facts proven for a budget range
/// ([`StripeCount`]). The table starts small and doubles whenever one
/// probe has looked up more stripes than half its slots, so it follows
/// the working set of a probe (which grows fast with `m`). Owned by one
/// search; never shared across searches or orientations.
struct StripeNeeds {
    /// `totals[i]` = load of main-dimension slices `0..i`.
    totals: Vec<u64>,
    buckets: Vec<Bucket>,
    /// `64 − log2(buckets.len())`: the hash keeps its top bits.
    shift: u32,
    /// Lookups in the current probe.
    lookups: usize,
    /// The largest table worth having: a slot per stripe, at most
    /// [`Self::MAX_BUCKETS`].
    max_buckets: usize,
}

/// One memo slot (32 bytes).
#[derive(Clone, Copy, Debug, Default)]
struct NeedSlot {
    /// `k << 32 | i`; 0 marks an empty slot (`i ≥ 1`).
    key: u64,
    /// The count, or its lower bound.
    parts: u64,
    /// The count is exact for budgets in `[from, next)`; `u64::MAX` for
    /// a lower bound.
    from: u64,
    /// Every stored fact holds only below this budget.
    next: u64,
}

/// Slots per bucket.
const WAYS: usize = 4;

/// The slots one key may use, the most recently stored first. (Left at
/// its natural alignment: a cache-line-aligned table fragments the
/// allocator's heap enough to show in peak RSS.)
#[derive(Clone, Copy, Debug, Default)]
struct Bucket([NeedSlot; WAYS]);

impl StripeNeeds {
    /// 32 KiB.
    const MIN_BUCKETS: usize = 1 << 8;
    /// 8 MiB.
    const MAX_BUCKETS: usize = 1 << 16;

    fn new(view: &View<'_>) -> Self {
        let n = view.n_main();
        let n_aux = view.n_aux();
        let stripes = n.saturating_mul(n.saturating_add(1)) / 2;
        // At least two buckets, so the hash keeps at least one bit.
        let max_buckets = stripes
            .div_ceil(WAYS)
            .next_power_of_two()
            .clamp(2, Self::MAX_BUCKETS);
        let len = Self::MIN_BUCKETS.min(max_buckets);
        StripeNeeds {
            totals: (0..=n).map(|i| view.load(0, i, 0, n_aux)).collect(),
            buckets: vec![Bucket::default(); len],
            shift: u64::BITS - len.trailing_zeros(),
            lookups: 0,
            max_buckets,
        }
    }

    /// Load of stripe `[k, i)`, `k ≤ i ≤ n_main`.
    fn load(&self, k: usize, i: usize) -> u64 {
        // lint:allow(panic-reach) -- k <= i <= n_main < totals.len()
        self.totals[i] - self.totals[k]
    }

    /// Marks the start of a probe (the growth rule counts per probe).
    fn begin_probe(&mut self) {
        self.lookups = 0;
    }

    /// Doubles the table in place, keeping its entries in recency order.
    /// One more hash bit moves an entry of bucket `b` to `2b` or
    /// `2b + 1`, so walking down from the top only ever stores into
    /// buckets already emptied.
    fn grow(&mut self) {
        let len = self.buckets.len();
        self.buckets.resize(len * 2, Bucket::default());
        self.shift -= 1;
        for b in (0..len).rev() {
            let Some(bucket) = self.buckets.get_mut(b) else {
                continue;
            };
            let Bucket(slots) = std::mem::take(bucket);
            for entry in slots.into_iter().rev() {
                if entry.key != 0 {
                    self.store(entry);
                }
            }
        }
    }

    /// The slot key of stripe `[k, i)`; `None` for indices past `u32`,
    /// which are never memoised.
    fn key(k: usize, i: usize) -> Option<u64> {
        let (k, i) = (u32::try_from(k).ok()?, u32::try_from(i).ok()?);
        Some(u64::from(k) << 32 | u64::from(i))
    }

    fn bucket(&mut self, key: u64) -> Option<&mut Bucket> {
        let index = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift;
        self.buckets.get_mut(index as usize)
    }

    /// What the memo knows about stripe `[k, i)` at `budget`.
    fn get(&mut self, k: usize, i: usize, budget: u64) -> Option<Need> {
        self.lookups += 1;
        if self.lookups > WAYS / 2 * self.buckets.len() && self.buckets.len() < self.max_buckets {
            self.grow();
        }
        let key = Self::key(k, i)?;
        let Bucket(slots) = self.bucket(key)?;
        let slot = slots.iter().find(|s| s.key == key)?;
        if budget >= slot.next {
            return None;
        }
        let parts = usize::try_from(slot.parts).unwrap_or(usize::MAX);
        Some(if budget >= slot.from {
            Need::Exact(parts)
        } else {
            // Fewer parts need a larger budget.
            Need::AtLeast(parts)
        })
    }

    fn put(&mut self, k: usize, i: usize, counted: StripeCount) {
        let Some(key) = Self::key(k, i) else { return };
        let (Need::Exact(parts) | Need::AtLeast(parts)) = counted.need;
        self.store(NeedSlot {
            key,
            parts: parts as u64,
            from: counted.max_part,
            next: counted.next,
        });
    }

    /// Stores `entry` as the newest slot of its bucket, replacing the
    /// stripe's previous entry or else the oldest.
    fn store(&mut self, entry: NeedSlot) {
        if let Some(Bucket(slots)) = self.bucket(entry.key) {
            let stale = slots
                .iter()
                .position(|s| s.key == entry.key)
                .unwrap_or(WAYS - 1);
            if let Some(newer) = slots.get_mut(..=stale) {
                newer.rotate_right(1);
                newer[0] = entry;
            }
        }
    }
}

/// Builds the rectangles of the optimal solution from the feasibility
/// DP's stripe choices at the optimal budget. The chosen cut vector's
/// stripes are independent, so each stripe's greedy auxiliary split runs
/// on its own task; the in-order collect reproduces the serial rectangle
/// order exactly.
fn reconstruct(view: &View<'_>, budget: u64, choice: &[usize]) -> Vec<Rect> {
    let n = view.n_main();
    let n_aux = view.n_aux();
    let mut stripes = Vec::new();
    let mut k = 0usize;
    while k < n {
        // lint:allow(panic-reach) -- a feasible probe leaves choice with
        // n + 1 entries, and k < n
        let i = choice[k];
        debug_assert!(i > k);
        stripes.push((k, i));
        k = i;
    }
    rectpart_parallel::flat_map_slice(&stripes, |&(k, i)| {
        let cost = FnCost::additive(n_aux, |a, b| view.load(k, i, a, b));
        let mut rects = Vec::new();
        let mut lo = 0usize;
        while lo < n_aux {
            let hi = cost.upper_bisect(lo, lo + 1, n_aux, budget);
            rects.push(view.rect(k, i, lo, hi));
            lo = hi;
        }
        rects
    })
}

/// The paper's literal dynamic-programming formulation of `JAG-M-OPT`
/// (§3.2.2):
///
/// ```text
/// Lmax(n1, m) = min_{1≤k≤n1, 1≤x≤m} max( Lmax(k−1, m−x), 1D(k, n1, x) )
/// ```
///
/// Exact and unpruned — exponential care is *not* taken, so use it only
/// on test-sized instances to validate the parametric solver. Returns the
/// optimal bottleneck for the given orientation.
pub fn jag_m_opt_dp(pfx: &PrefixSum2D, axis: crate::geometry::Axis, m: usize) -> u64 {
    let view = pfx.view(axis);
    let n = view.n_main();
    let n_aux = view.n_aux();
    let mut memo: HashMap<(usize, usize), u64> = HashMap::new();
    // The same stripe solution `nicol([k, i), x)` recurs across many
    // `(i, q)` DP states; memoize it in the shared stripe cache. The
    // recursion is serial, so one scratch arena serves every miss.
    let stripes = StripeCache::new();
    let scratch = RefCell::new(SolveScratch::new());
    fn lmax(
        view: &View<'_>,
        n_aux: usize,
        i: usize,
        q: usize,
        memo: &mut HashMap<(usize, usize), u64>,
        stripes: &StripeCache,
        scratch: &RefCell<SolveScratch>,
    ) -> u64 {
        if i == 0 {
            return 0;
        }
        if q == 0 {
            return u64::MAX;
        }
        if let Some(&v) = memo.get(&(i, q)) {
            return v;
        }
        let mut best = u64::MAX;
        for k in 0..i {
            for x in 1..=q {
                let stripe = stripes.bottleneck(view.axis(), k, i, x, || {
                    let aux = FnCost::additive(n_aux, |a, b| view.load(k, i, a, b));
                    nicol_bottleneck(&aux, x, &mut scratch.borrow_mut())
                });
                let rest = lmax(view, n_aux, k, q - x, memo, stripes, scratch);
                if rest == u64::MAX {
                    continue;
                }
                best = best.min(stripe.max(rest));
            }
        }
        memo.insert((i, q), best);
        best
    }
    lmax(&view, n_aux, n, m, &mut memo, &stripes, &scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Axis;
    use crate::jagged::{JagMHeur, JagPqHeur};
    use crate::matrix::LoadMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64, zeros: bool) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            if zeros && rng.gen_bool(0.2) {
                0
            } else {
                rng.gen_range(1..50)
            }
        }))
    }

    #[test]
    fn pq_opt_is_valid_and_beats_heuristic() {
        for seed in 0..4 {
            let pfx = random_pfx(16, 16, seed, seed % 2 == 0);
            for m in [4, 9, 16] {
                let opt = JagPqOpt::default().partition(&pfx, m);
                assert!(opt.validate(&pfx).is_ok(), "seed={seed} m={m}");
                let heur = JagPqHeur::best().partition(&pfx, m);
                assert!(
                    opt.lmax(&pfx) <= heur.lmax(&pfx),
                    "seed={seed} m={m}: opt {} > heur {}",
                    opt.lmax(&pfx),
                    heur.lmax(&pfx)
                );
            }
        }
    }

    #[test]
    fn m_opt_is_valid_and_dominates_everything_jagged() {
        for seed in 0..4 {
            let pfx = random_pfx(12, 14, seed, seed % 2 == 1);
            for m in [2, 4, 6, 9] {
                let mo = JagMOpt::default().partition(&pfx, m);
                assert!(mo.validate(&pfx).is_ok(), "seed={seed} m={m}");
                let heur = JagMHeur::best().partition(&pfx, m);
                let pq = JagPqOpt::default().partition(&pfx, m);
                assert!(
                    mo.lmax(&pfx) <= heur.lmax(&pfx),
                    "vs heur seed={seed} m={m}"
                );
                assert!(
                    mo.lmax(&pfx) <= pq.lmax(&pfx),
                    "vs pq-opt seed={seed} m={m}"
                );
                assert!(mo.lmax(&pfx) >= pfx.lower_bound(m));
            }
        }
    }

    #[test]
    fn parametric_matches_literal_dp() {
        for seed in 0..6 {
            let pfx = random_pfx(7, 6, seed, seed % 3 == 0);
            for m in [1, 2, 3, 5] {
                for axis in [Axis::Rows, Axis::Cols] {
                    let dp = jag_m_opt_dp(&pfx, axis, m);
                    let view = pfx.view(axis);
                    let rects = jag_m_opt_view(&view, m);
                    let par = rects.iter().map(|r| pfx.load(r)).max().unwrap_or(0);
                    assert_eq!(par, dp, "seed={seed} m={m} axis={axis:?}");
                }
            }
        }
    }

    #[test]
    fn m_opt_equals_lower_bound_on_uniform_powers() {
        let mat = LoadMatrix::from_fn(8, 8, |_, _| 1);
        let pfx = PrefixSum2D::new(&mat);
        let p = JagMOpt::default().partition(&pfx, 16);
        assert_eq!(p.lmax(&pfx), 4); // 64 cells / 16 procs
    }

    #[test]
    fn m_opt_single_processor() {
        let pfx = random_pfx(5, 5, 3, false);
        let p = JagMOpt::default().partition(&pfx, 1);
        assert_eq!(p.lmax(&pfx), pfx.total());
        assert!(p.validate(&pfx).is_ok());
    }

    #[test]
    fn m_opt_many_processors() {
        let pfx = random_pfx(4, 4, 5, false);
        let p = JagMOpt::default().partition(&pfx, 40);
        assert!(p.validate(&pfx).is_ok());
        assert_eq!(p.lmax(&pfx), pfx.max_cell() as u64);
    }

    #[test]
    fn stripe_parts_counts_greedily() {
        let mat = LoadMatrix::from_vec(1, 6, vec![3, 3, 3, 3, 3, 3]);
        let pfx = PrefixSum2D::new(&mat);
        let view = pfx.view(Axis::Rows);
        let exact = |parts, max_part, next| StripeCount {
            need: Need::Exact(parts),
            max_part,
            next,
        };
        // Parts of two cells (load 6); any budget in [6, 9) cuts the same.
        assert_eq!(stripe_parts(&view, 0, 1, 6, 100), exact(3, 6, 9));
        assert_eq!(stripe_parts(&view, 0, 1, 8, 100), exact(3, 6, 9));
        assert_eq!(stripe_parts(&view, 0, 1, 18, 100), exact(1, 18, u64::MAX));
        // Cell 3 > 2: infeasible below 3.
        let infeasible = stripe_parts(&view, 0, 1, 2, 100);
        assert_eq!(infeasible.need, Need::AtLeast(usize::MAX));
        assert_eq!(infeasible.next, 3);
        // A count that ends exactly at the cap is still exact; one cut
        // short of the end proves one part more than the cap.
        assert_eq!(stripe_parts(&view, 0, 1, 6, 3), exact(3, 6, 9));
        let capped = stripe_parts(&view, 0, 1, 6, 2);
        assert_eq!(capped.need, Need::AtLeast(3));
        assert_eq!(capped.next, 9);
    }

    /// The feasibility DP as it stood before the run-start scan, the cap
    /// at `m` and the need memo: every end row scanned, every stripe
    /// counted afresh. The incremental DP must reproduce its decisions
    /// and, at feasible budgets, its `choice` vector.
    // Kept as it was: the `i` loop breaks early on a monotone bound and
    // indexes `f` at two offsets.
    #[allow(clippy::needless_range_loop)]
    fn feasible_reference(view: &View<'_>, m: usize, budget: u64) -> (bool, Vec<usize>) {
        let n = view.n_main();
        let n_aux = view.n_aux();
        const INF: usize = usize::MAX;
        let mut f = vec![INF; n + 1];
        let mut choice = vec![0; n + 1];
        f[n] = 0;
        for k in (0..n).rev() {
            let mut best = INF;
            let mut best_i = k + 1;
            for i in k + 1..=n {
                if f[i] == INF {
                    continue;
                }
                let stripe_load = view.load(k, i, 0, n_aux);
                let cheap = if budget == 0 {
                    if stripe_load > 0 {
                        INF
                    } else {
                        1
                    }
                } else {
                    (stripe_load.div_ceil(budget)).max(1) as usize
                };
                if cheap >= best {
                    break;
                }
                if cheap.saturating_add(f[i]) >= best {
                    continue;
                }
                if let Some(pn) = stripe_parts_reference(view, k, i, budget, best - f[i]) {
                    if pn + f[i] < best {
                        best = pn + f[i];
                        best_i = i;
                    }
                }
            }
            f[k] = best;
            choice[k] = best_i;
        }
        (f[0] <= m, choice)
    }

    /// The greedy count as it stood before galloping and range tracking.
    fn stripe_parts_reference(
        view: &View<'_>,
        k: usize,
        i: usize,
        budget: u64,
        cap: usize,
    ) -> Option<usize> {
        let n_aux = view.n_aux();
        let cost = FnCost::additive(n_aux, |a, b| view.load(k, i, a, b));
        let mut lo = 0usize;
        let mut parts = 0usize;
        while lo < n_aux {
            if cost.cost(lo, lo + 1) > budget {
                return None;
            }
            lo = cost.upper_bisect(lo, lo + 1, n_aux, budget);
            parts += 1;
            if parts >= cap {
                return None;
            }
        }
        Some(parts)
    }

    /// Random, hot-diagonal and 20 %-zero instances: small ones (down
    /// to a single row), swept over every `m` up to the cell count, and
    /// mid-size ones, where stripes need many parts and later probes
    /// lean on the memo, swept over a spread of `m`.
    fn reference_instances() -> Vec<(String, PrefixSum2D, Vec<usize>)> {
        let mut out = Vec::new();
        for (rows, cols, ms) in [
            (1, 5, (1..=5).collect::<Vec<_>>()),
            (2, 3, (1..=6).collect()),
            (7, 6, (1..=42).collect()),
            (40, 30, vec![1, 2, 5, 13, 30, 64, 200, 1200]),
        ] {
            for seed in 0..3 {
                let mut rng = StdRng::seed_from_u64(20 + seed);
                let diagonal = LoadMatrix::from_fn(rows, cols, |r, c| {
                    if r.abs_diff(c) <= 1 {
                        rng.gen_range(500..2000)
                    } else {
                        rng.gen_range(0..5)
                    }
                });
                out.extend([
                    (
                        format!("random-{rows}x{cols}-{seed}"),
                        random_pfx(rows, cols, seed, false),
                        ms.clone(),
                    ),
                    (
                        format!("zeros-{rows}x{cols}-{seed}"),
                        random_pfx(rows, cols, 10 + seed, true),
                        ms.clone(),
                    ),
                    (
                        format!("diagonal-{rows}x{cols}-{seed}"),
                        PrefixSum2D::new(&diagonal),
                        ms.clone(),
                    ),
                ]);
            }
        }
        out
    }

    #[test]
    fn incremental_feasibility_matches_reference() {
        for (name, pfx, ms) in reference_instances() {
            for axis in [Axis::Rows, Axis::Cols] {
                let view = pfx.view(axis);
                for &m in &ms {
                    // The optimum: the smallest budget the reference
                    // accepts.
                    let (mut lo, mut hi) = (0, pfx.total());
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if feasible_reference(&view, m, mid).0 {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    let opt = lo;
                    // Far budgets first, then a sweep closing in on the
                    // optimum from both sides, as a bisection does: the
                    // memo then serves budgets above and below the ones
                    // it counted at.
                    let budgets: Vec<u64> = [pfx.total(), 0, opt.saturating_mul(2), opt / 2]
                        .into_iter()
                        .chain(
                            (0..=8)
                                .rev()
                                .flat_map(|d| [opt.saturating_add(d), opt.saturating_sub(d)]),
                        )
                        .collect();
                    let mut scratch = SolveScratch::new();
                    let mut needs = StripeNeeds::new(&view);
                    for budget in budgets {
                        let (want, want_choice) = feasible_reference(&view, m, budget);
                        let got = feasible(&view, m, budget, &mut scratch, &mut needs);
                        assert_eq!(got, want, "{name} {axis:?} m={m} budget={budget}");
                        if budget == opt {
                            assert_eq!(
                                scratch.jag_choice(),
                                &want_choice[..],
                                "{name} {axis:?} m={m}: choice at the optimum"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn need_memo_answers_correctly_across_growth() {
        let pfx = random_pfx(300, 20, 4, true);
        let view = pfx.view(Axis::Rows);
        let mut needs = StripeNeeds::new(&view);
        let budget = 400;
        let stripes: Vec<(usize, usize)> = (0..300)
            .flat_map(|k| (k + 1..=(k + 4).min(300)).map(move |i| (k, i)))
            .collect();
        for &(k, i) in &stripes {
            needs.put(k, i, stripe_parts(&view, k, i, budget, usize::MAX));
        }
        // One probe's worth of lookups, more than the table has buckets,
        // so the table doubles (and rehashes) along the way.
        needs.begin_probe();
        let before = needs.buckets.len();
        let mut found = 0;
        for &(k, i) in &stripes {
            for b in [budget, budget - 50, budget + 50] {
                let fresh = stripe_parts(&view, k, i, b, usize::MAX).need;
                match needs.get(k, i, b) {
                    Some(Need::Exact(parts)) => {
                        assert_eq!(fresh, Need::Exact(parts), "[{k}, {i}) at {b}");
                        found += 1;
                    }
                    Some(Need::AtLeast(parts)) => {
                        let (Need::Exact(real) | Need::AtLeast(real)) = fresh;
                        assert!(real >= parts, "[{k}, {i}) at {b}: {real} < {parts}");
                    }
                    None => {}
                }
            }
        }
        assert!(needs.buckets.len() > before, "lookups must grow the table");
        assert!(
            found * 2 > stripes.len(),
            "most counts must survive the rehash ({found} of {})",
            stripes.len()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A count is exact over its whole recorded budget range, and a
        /// bound holds below its `next`.
        #[test]
        fn stripe_count_holds_over_its_budget_range(
            cells in proptest::collection::vec(0u32..40, 1..24),
            budget in 0u64..200,
            cap in 1usize..30,
            picks in proptest::collection::vec(0u64..1000, 8),
        ) {
            let n = cells.len();
            let pfx = PrefixSum2D::new(&LoadMatrix::from_vec(1, n, cells));
            let view = pfx.view(Axis::Rows);
            let counted = stripe_parts(&view, 0, 1, budget, cap);
            let reference = |b| stripe_parts_reference(&view, 0, 1, b, usize::MAX);
            match counted.need {
                Need::Exact(parts) => {
                    proptest::prop_assert!(counted.max_part <= budget && budget < counted.next);
                    proptest::prop_assert_eq!(reference(budget), Some(parts));
                    let width = counted.next.saturating_sub(counted.max_part).min(1000);
                    for pick in &picks {
                        let b = counted.max_part + pick % width;
                        proptest::prop_assert_eq!(reference(b), Some(parts), "budget {}", b);
                    }
                }
                Need::AtLeast(bound) => {
                    proptest::prop_assert!(budget < counted.next);
                    for pick in &picks {
                        let b = pick % counted.next.min(1000);
                        if b < counted.next {
                            let need = reference(b).unwrap_or(usize::MAX);
                            proptest::prop_assert!(need >= bound, "budget {}: {} < {}", b, need, bound);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stripe_cache_is_shared_across_best_orientations() {
        let pfx = random_pfx(10, 12, 2, false);
        let cache = StripeCache::new();
        let _ = jag_pq_opt_view(&pfx.view(Axis::Rows), 2, 2, &cache);
        let rows_entries = cache.len();
        assert!(rows_entries > 0);
        let _ = jag_pq_opt_view(&pfx.view(Axis::Cols), 2, 2, &cache);
        assert!(
            cache.len() > rows_entries,
            "Cols run must add axis-keyed entries"
        );
        // A repeated orientation is answered from the cache alone.
        let before = cache.len();
        let _ = jag_pq_opt_view(&pfx.view(Axis::Rows), 2, 2, &cache);
        assert_eq!(cache.len(), before);
    }

    #[test]
    fn seeded_m_opt_is_bit_identical_for_any_hint() {
        for seed in 0..4 {
            let pfx = random_pfx(12, 10, seed, seed % 2 == 0);
            for m in [3, 6, 9] {
                let algo = JagMOpt::default();
                let cold = algo.try_partition(&pfx, m).unwrap();
                let cold_lmax = cold.lmax(&pfx);
                // Hints spanning the spectrum: the optimum itself, a stale
                // partition's (achievable) bottleneck, an absurdly tight
                // claim (infeasible — must only raise lb), and a useless
                // loose one (ignored).
                let stale = JagMHeur::best().partition(&pfx, m).lmax(&pfx);
                for hint in [cold_lmax, stale, pfx.lower_bound(m), u64::MAX] {
                    let (warm, _) = algo.try_partition_seeded(&pfx, m, Some(hint)).unwrap();
                    assert_eq!(warm.rects(), cold.rects(), "seed={seed} m={m} hint={hint}");
                }
            }
        }
    }

    #[test]
    fn seeded_m_opt_skips_probes_with_a_tight_hint() {
        // Skewed instances keep the heuristic incumbent well above the
        // optimum, so an optimal hint must collapse a multi-bit search
        // range on at least some of them.
        let mut total_skipped = 0u64;
        let algo = JagMOpt {
            variant: JaggedVariant::Hor,
        };
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let pfx = PrefixSum2D::new(&LoadMatrix::from_fn(20, 20, |r, c| {
                // A hot diagonal band over a cold background.
                if r.abs_diff(c) <= 1 {
                    rng.gen_range(500..2000)
                } else {
                    rng.gen_range(0..5)
                }
            }));
            for m in [5, 9, 13] {
                let cold = algo.try_partition(&pfx, m).unwrap();
                let (warm, skipped) = algo
                    .try_partition_seeded(&pfx, m, Some(cold.lmax(&pfx)))
                    .unwrap();
                assert_eq!(warm.rects(), cold.rects(), "seed={seed} m={m}");
                total_skipped += skipped;
            }
        }
        assert!(
            total_skipped > 0,
            "optimal hints must skip probes somewhere across the sweep"
        );
    }

    #[test]
    fn warm_pq_opt_matches_cold_with_and_without_prior() {
        for seed in 0..4 {
            let pfx = random_pfx(14, 11, seed, seed % 2 == 1);
            for m in [4, 6, 9] {
                let algo = JagPqOpt::default();
                let cold = algo.partition(&pfx, m);
                let cache = StripeCache::new();
                let no_prior = algo.partition_warm(&pfx, m, &cache, None);
                assert_eq!(no_prior.rects(), cold.rects(), "seed={seed} m={m}");
                // Prior = the cold solution itself (the repeat-query case),
                // served against the already-warm cache.
                let with_prior = algo.partition_warm(&pfx, m, &cache, Some(&cold));
                assert_eq!(with_prior.rects(), cold.rects(), "seed={seed} m={m}");
                // A prior from a different algorithm must also be safe.
                let foreign = JagMHeur::best().partition(&pfx, m);
                let with_foreign = algo.partition_warm(&pfx, m, &cache, Some(&foreign));
                assert_eq!(with_foreign.rects(), cold.rects(), "seed={seed} m={m}");
            }
        }
    }

    #[test]
    fn pq_opt_explicit_grid() {
        let pfx = random_pfx(10, 10, 9, false);
        let algo = JagPqOpt {
            variant: JaggedVariant::Hor,
            grid: Some((2, 3)),
        };
        let p = algo.partition(&pfx, 6);
        assert!(p.validate(&pfx).is_ok());
        assert!(p.active_parts() <= 6);
    }
}
