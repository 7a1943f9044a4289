//! Reusable scratch buffers for the 1D solve hot loops.
//!
//! The 2D partitioners call the 1D solvers thousands of times per
//! partition (once per stripe-cost query, once per feasibility check),
//! and every call that materializes cut points or DP rows pays a heap
//! allocation. A [`SolveScratch`] owns those buffers across calls: a
//! caller checks a buffer out, the checkout clears it and notes whether
//! the existing capacity sufficed ([`ScratchReuses`]) or a (re)allocation
//! was needed ([`ScratchAllocs`]).
//!
//! The two counters are the substrate benchmark's allocation proxy
//! (`#[global_allocator]` hooks are off the table under
//! `forbid(unsafe_code)`), and they are **deterministic counters**: every
//! checkout site runs an identical sequence at any thread count, so the
//! obs differential suite can pin their values.
//!
//! A `SolveScratch` is deliberately *not* shareable — no `Sync`, no
//! interior mutability. Serial hot loops thread `&mut` through; the
//! memoized stripe-cost closures wrap one in a `RefCell` because each
//! orientation's closure chain runs single-threaded.
//!
//! [`ScratchReuses`]: rectpart_obs::Counter::ScratchReuses
//! [`ScratchAllocs`]: rectpart_obs::Counter::ScratchAllocs

/// Owned buffers for the 1D solve hot paths.
///
/// ```
/// use rectpart_onedim::{nicol, nicol_bottleneck, PrefixCosts, SolveScratch};
///
/// let c = PrefixCosts::from_loads(&[3u64, 1, 4, 1, 5, 9, 2, 6]);
/// let mut scratch = SolveScratch::new();
/// for m in 1..=4 {
///     assert_eq!(nicol_bottleneck(&c, m, &mut scratch), nicol(&c, m).bottleneck);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Cut-point buffer (recursive-bisection incumbents).
    points: Vec<usize>,
    /// Jagged feasibility DP: minimal processor count per suffix.
    jag_f: Vec<usize>,
    /// Jagged feasibility DP: chosen next stripe boundary per position.
    jag_choice: Vec<usize>,
    /// Jagged feasibility DP: start indices of the runs of equal `f`.
    jag_runs: Vec<usize>,
}

/// Clears `buf` for reuse and records whether its capacity already
/// covered `cap` (a reuse) or had to grow (an allocation).
fn checkout<T>(buf: &mut Vec<T>, cap: usize) {
    if buf.capacity() >= cap {
        rectpart_obs::incr(rectpart_obs::Counter::ScratchReuses);
    } else {
        rectpart_obs::incr(rectpart_obs::Counter::ScratchAllocs);
    }
    buf.clear();
    buf.reserve(cap);
}

impl SolveScratch {
    /// An empty arena; buffers grow on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out the cut-point buffer, cleared, with room for `cap`
    /// points.
    pub fn points(&mut self, cap: usize) -> &mut Vec<usize> {
        checkout(&mut self.points, cap);
        &mut self.points
    }

    /// Checks out the three jagged-feasibility DP buffers (`f`,
    /// `choice`, run starts), cleared, each with room for `cap` entries.
    /// One checkout — the triple is counted once.
    pub fn jag_buffers(
        &mut self,
        cap: usize,
    ) -> (&mut Vec<usize>, &mut Vec<usize>, &mut Vec<usize>) {
        let bufs = [&self.jag_f, &self.jag_choice, &self.jag_runs];
        if bufs.iter().all(|b| b.capacity() >= cap) {
            rectpart_obs::incr(rectpart_obs::Counter::ScratchReuses);
        } else {
            rectpart_obs::incr(rectpart_obs::Counter::ScratchAllocs);
        }
        for b in [&mut self.jag_f, &mut self.jag_choice, &mut self.jag_runs] {
            b.clear();
            b.reserve(cap);
        }
        (&mut self.jag_f, &mut self.jag_choice, &mut self.jag_runs)
    }

    /// The jagged `choice` buffer as last filled through
    /// [`Self::jag_buffers`] (solution reconstruction reads it after the
    /// final feasibility check).
    pub fn jag_choice(&self) -> &[usize] {
        &self.jag_choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_cleared_and_capacity_is_kept() {
        let mut s = SolveScratch::new();
        s.points(8).extend_from_slice(&[1, 2, 3]);
        let p = s.points(4);
        assert!(p.is_empty(), "checkout must clear");
        assert!(p.capacity() >= 8, "capacity must survive checkouts");
    }

    #[test]
    fn jag_buffers_round_trip_through_choice() {
        let mut s = SolveScratch::new();
        let (f, choice, _) = s.jag_buffers(4);
        f.resize(4, usize::MAX);
        choice.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.jag_choice(), &[1, 2, 3, 4]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn checkout_counts_allocs_then_reuses() {
        // Deltas only (other tests in this binary may also count).
        let counter = |name: &str| {
            rectpart_obs::Recorder::global()
                .snapshot()
                .get(name)
                .unwrap_or(0)
        };
        let before_alloc = counter("onedim.scratch.allocs");
        let mut s = SolveScratch::new();
        s.points(16);
        assert!(
            counter("onedim.scratch.allocs") > before_alloc,
            "first checkout allocates"
        );
        let before_reuse = counter("onedim.scratch.reuses");
        s.points(8);
        assert!(
            counter("onedim.scratch.reuses") > before_reuse,
            "smaller checkout reuses"
        );
    }
}
