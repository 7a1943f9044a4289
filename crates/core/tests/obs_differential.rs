//! Differential test for the instrumentation layer: every *work* counter
//! (the `counters` section of the obs report, plus the per-shard insert
//! tallies and the convergence traces) must be **bit-identical** at any
//! thread count. Only execution stats and phase timers may differ.
//!
//! The whole file is a single `#[test]` on purpose: obs counters are
//! process-wide, so a second concurrently running test in this binary
//! would pollute the snapshots.

#![cfg(feature = "obs")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart_core::{
    HierRb, HierRelaxed, JagMHeur, JagMOpt, JagPqHeur, JagPqOpt, LoadMatrix, Partitioner,
    PrefixSum2D, RectNicol, RectUniform,
};
use rectpart_obs::Recorder;
use rectpart_parallel::with_threads;

fn random_matrix(rows: usize, cols: usize, seed: u64, zeros: bool) -> LoadMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LoadMatrix::from_fn(rows, cols, |_, _| {
        if zeros && rng.gen_bool(0.15) {
            0
        } else {
            rng.gen_range(1..100)
        }
    })
}

/// Runs `f` with the recorder freshly reset under the given thread budget
/// and returns the deterministic view of the snapshot.
fn counters_under<T>(threads: usize, f: impl Fn() -> T) -> rectpart_obs::DeterministicView {
    let rec = Recorder::global();
    rec.reset();
    let _ = with_threads(threads, f);
    rec.snapshot().deterministic_view()
}

#[test]
fn work_counters_are_thread_invariant_across_all_families() {
    assert!(
        Recorder::global().enabled(),
        "this test binary must be built with --features obs"
    );

    let pfx = PrefixSum2D::new(&random_matrix(24, 20, 7, true));
    let small = PrefixSum2D::new(&random_matrix(10, 9, 11, false));

    // (label, closure) per partitioner family; the optimal algorithms run
    // on the smaller instance.
    type Family = Box<dyn Fn()>;
    let families: Vec<(&str, Family)> = vec![
        ("RECT-UNIFORM", {
            let p = pfx.clone();
            Box::new(move || drop(RectUniform::default().partition(&p, 12)))
        }),
        ("RECT-NICOL", {
            let p = pfx.clone();
            Box::new(move || drop(RectNicol::default().partition(&p, 12)))
        }),
        ("JAG-PQ-HEUR-BEST", {
            let p = pfx.clone();
            Box::new(move || drop(JagPqHeur::best().partition(&p, 12)))
        }),
        ("JAG-M-HEUR-BEST", {
            let p = pfx.clone();
            Box::new(move || drop(JagMHeur::best().partition(&p, 12)))
        }),
        ("JAG-PQ-OPT-BEST", {
            let p = small.clone();
            Box::new(move || drop(JagPqOpt::default().partition(&p, 6)))
        }),
        ("JAG-M-OPT-BEST", {
            let p = small.clone();
            Box::new(move || drop(JagMOpt::default().partition(&p, 6)))
        }),
        ("JAG-M-OPT-BEST-MEMO", {
            // Large enough that later probes reuse stripe counts made by
            // earlier ones (`core.jag_m.need_reuses`).
            let p = pfx.clone();
            Box::new(move || drop(JagMOpt::default().partition(&p, 16)))
        }),
        ("HIER-RB-LOAD", {
            let p = pfx.clone();
            // Above PARALLEL_PROCS_MIN so the forking recursion engages.
            Box::new(move || drop(HierRb::load().partition(&p, 40)))
        }),
        ("HIER-RELAXED-LOAD", {
            let p = pfx.clone();
            Box::new(move || drop(HierRelaxed::load().partition(&p, 40)))
        }),
        ("HIER-OPT", {
            let p = small.clone();
            Box::new(move || drop(rectpart_core::hier_opt(&p, 4)))
        }),
        ("GAMMA-BUILD", {
            let m = random_matrix(300, 260, 3, false);
            Box::new(move || drop(PrefixSum2D::new(&m)))
        }),
        ("GAMMA-BUILD-SPARSE", {
            // ~92% zeros: exercises the CSR-like backend (run detection,
            // SparseGammaRuns) through the forced-sparse constructor.
            let mut rng = StdRng::seed_from_u64(13);
            let m = LoadMatrix::from_fn(120, 95, |_, _| {
                if rng.gen_bool(0.92) {
                    0
                } else {
                    rng.gen_range(1..40)
                }
            });
            Box::new(move || drop(PrefixSum2D::try_new_sparse(&m).unwrap()))
        }),
    ];

    for (label, run) in &families {
        let serial = counters_under(1, run);
        // Work happened at all. RECT-UNIFORM is exempt: its cuts are pure
        // arithmetic (no probes, no caches), so all-zero is correct.
        if *label != "RECT-UNIFORM" {
            assert!(
                serial.0.iter().any(|&(_, v)| v > 0),
                "{label}: no counter recorded under the serial run"
            );
        }
        for threads in [2, 4, 7, 8] {
            let parallel = counters_under(threads, run);
            assert_eq!(
                serial.0, parallel.0,
                "{label} threads={threads}: work counters diverged"
            );
            assert_eq!(
                serial.1, parallel.1,
                "{label} threads={threads}: per-shard inserts diverged"
            );
            assert_eq!(
                serial.2, parallel.2,
                "{label} threads={threads}: traces diverged"
            );
            assert_eq!(
                serial.3, parallel.3,
                "{label} threads={threads}: work-anchored span tree diverged"
            );
        }
    }

    // The span tree is part of the deterministic view (proven invariant
    // above); pin that the solver spans actually populate it — a tree
    // that is empty because instrumentation was dropped would pass the
    // equality check vacuously.
    let span_work = |view: &rectpart_obs::DeterministicView, path: &str| {
        view.3
            .iter()
            .find(|(p, _, _)| p == path)
            .map(|&(_, count, work)| (count, work))
    };
    let nicol_spans = counters_under(1, || drop(RectNicol::default().partition(&pfx, 12)));
    let (refine_count, _) = span_work(&nicol_spans, "core.rect_nicol.refine")
        .expect("RECT-NICOL must record refine spans");
    assert!(refine_count >= 2, "one refine per dimension at minimum");
    assert!(
        span_work(&nicol_spans, "core.rect_nicol.refine;onedim.nicol").is_some(),
        "1D solves must nest inside the refine span"
    );
    let hier_spans = counters_under(4, || drop(HierRb::load().partition(&pfx, 40)));
    let (l0, _) = span_work(&hier_spans, "core.hier.level").expect("root HIER level span");
    assert_eq!(l0, 1, "exactly one depth-0 bipartition node");
    assert!(
        span_work(&hier_spans, "core.hier.level;core.hier.level#1").is_some(),
        "forked recursion must nest depth-1 under depth-0"
    );
    let opt_spans = counters_under(2, || drop(JagMOpt::default().partition(&small, 6)));
    for path in ["onedim.nicol", "core.jag_m.feasibility"] {
        assert!(
            opt_spans.3.iter().any(|(p, _, _)| p.contains(path)),
            "span {path} missing from the JAG-M-OPT profile"
        );
    }

    // The feasibility DP's own counters: every kind of saving must
    // actually occur on the mid-size JAG-M-OPT run, so the invariance
    // above covers the run-start scan, the load bound and the need memo.
    let memo_run = counters_under(7, || drop(JagMOpt::default().partition(&pfx, 16)));
    for name in [
        "core.jag_m.feasibility_checks",
        "core.jag_m.lazy_evals",
        "core.jag_m.lazy_skips",
        "core.jag_m.need_reuses",
    ] {
        let value = memo_run
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v);
        assert!(value > 0, "JAG-M-OPT must record {name}");
    }

    // Unbounded-cache invariant: the stripe cache never evicts, so the
    // eviction counter stays 0 while lookups flow. A future bounded
    // cache must consciously break this pin (see crates/core/src/cache.rs).
    let cache_run = counters_under(4, || drop(JagPqOpt::default().partition(&small, 6)));
    let get_counter = |view: &rectpart_obs::DeterministicView, name: &str| {
        view.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert!(
        get_counter(&cache_run, "core.stripe_cache.lookups") > 0,
        "JAG-PQ-OPT must consult the stripe cache"
    );
    assert_eq!(
        get_counter(&cache_run, "core.stripe_cache.evictions"),
        0,
        "the stripe cache is unbounded: evictions must stay 0 by construction"
    );

    // The substrate counters of the dense/sparse Γ builds and the
    // scratch arena are work counters too: they must be present (the
    // paths really ran) on top of the generic invariance proven above.
    let get = |view: &rectpart_obs::DeterministicView, name: &str| {
        view.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let dense_build = counters_under(1, || {
        drop(PrefixSum2D::new(&random_matrix(300, 260, 3, false)))
    });
    assert_eq!(
        get(&dense_build, "core.gamma_builds"),
        1,
        "a dense build must record one Γ build"
    );
    let mut rng = StdRng::seed_from_u64(13);
    let sparse_mat = LoadMatrix::from_fn(120, 95, |_, _| {
        if rng.gen_bool(0.92) {
            0
        } else {
            rng.gen_range(1..40)
        }
    });
    let sparse_build = counters_under(1, || {
        drop(PrefixSum2D::try_new_sparse(&sparse_mat).unwrap())
    });
    assert!(
        get(&sparse_build, "core.gamma.sparse_runs") > 0,
        "sparse build must record nonzero runs"
    );
    let scratch_solve = counters_under(1, || drop(JagMOpt::default().partition(&small, 6)));
    assert!(
        get(&scratch_solve, "onedim.scratch.allocs") > 0,
        "scratch arena checkouts must be counted"
    );
    assert!(
        get(&scratch_solve, "onedim.scratch.reuses") > 0,
        "repeated per-stripe solves must reuse scratch capacity"
    );
}
