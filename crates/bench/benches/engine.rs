//! Resident-engine serving benchmark: cold re-solves vs a warm engine
//! over a drifting PIC-MAG time series, with a machine-readable export.
//!
//! The engine's pitch (DESIGN.md §17) is that a long-lived process
//! serving partition queries against a slowly drifting load matrix
//! should not pay for a full Γ rebuild and a cold bisection on every
//! snapshot. This benchmark prices that claim with deterministic obs
//! counters (not wall clock, so the numbers are comparable across
//! machines and provable on a single-core CI host):
//!
//! * **cold path** — every snapshot gets a fresh engine: one Γ build
//!   and one unseeded `JAG-M-OPT-BEST` solve per snapshot.
//! * **warm path** — one resident engine across the series: row deltas
//!   are applied through [`Engine::apply_delta`] (row-incremental Γ
//!   patching) and each re-solve is warm-started from the previous
//!   snapshot's incumbent.
//!
//! Both paths must produce **bit-identical** partitions (asserted
//! inline); the warm path must spend strictly fewer Γ builds and
//! strictly fewer work units (also asserted, when instrumented). Two
//! series run, one per Γ backend, so the dense sweep-patch and the
//! sparse row-splice are both priced. Wall-clock timings of the same
//! replays ride along via criterion and feed a derived requests/sec
//! figure. Results land in `BENCH_engine.json` at the workspace root;
//! counter fields require `--features obs` (the uninstrumented run
//! still writes timings, with `"instrumented": false`).

use criterion::{black_box, Criterion};
use rectpart_core::{GammaMode, LoadMatrix, Partition, RowUpdate};
use rectpart_engine::{Engine, EngineConfig, Query, RebalancePolicy};
use rectpart_json::{Json, ToJson};
use rectpart_parallel::with_threads;
use rectpart_workloads::{pic_trace, PicConfig, PicSnapshot};

/// Parts per query — large enough that JAG-M-OPT's bisection has a
/// real search range to shrink with a warm-start incumbent.
const M: usize = 12;
/// The algorithm served: the paper's best optimal class, and the one
/// the engine warm-starts (seeded incumbent + probe skipping).
const ALGO: &str = "JAG-M-OPT-BEST";

/// A drift series scaled so deltas stay row-sparse: few particles on a
/// 64×64 grid with a small time step, so consecutive snapshots differ
/// in well under half the rows and the engine's work model picks the
/// row-incremental patch over a rebuild.
fn series_config(base_load: u32, seed: u64) -> PicConfig {
    PicConfig {
        rows: 64,
        cols: 64,
        particles: 48,
        snapshots: 12,
        substeps_per_snapshot: 1,
        iterations_per_snapshot: 500,
        dt: 0.002,
        base_load,
        particle_weight: 9,
        seed,
    }
}

fn engine_config(mode: GammaMode) -> EngineConfig {
    EngineConfig {
        gamma_mode: mode,
        rebalance: RebalancePolicy::EverySnapshot,
        budget: None,
    }
}

/// Row-granular diff between two snapshots of the same shape.
fn row_deltas(prev: &LoadMatrix, next: &LoadMatrix) -> Vec<RowUpdate> {
    (0..prev.rows())
        .filter(|&r| prev.row(r) != next.row(r))
        .map(|r| RowUpdate {
            row: r,
            cells: next.row(r).to_vec(),
        })
        .collect()
}

/// Cold oracle: a fresh engine (fresh Γ, no incumbents) per snapshot.
fn run_cold(trace: &[PicSnapshot], mode: GammaMode) -> Vec<Partition> {
    trace
        .iter()
        .map(|snap| {
            let mut e = Engine::with_config(snap.matrix.clone(), engine_config(mode))
                .expect("engine build");
            e.solve(&Query::new(ALGO, M)).expect("cold solve").partition
        })
        .collect()
}

/// Warm path: one resident engine, row deltas patched in, re-solves
/// warm-started from the previous incumbent.
fn run_warm(
    trace: &[PicSnapshot],
    deltas: &[Vec<RowUpdate>],
    mode: GammaMode,
) -> (Vec<Partition>, Vec<u64>) {
    let mut e =
        Engine::with_config(trace[0].matrix.clone(), engine_config(mode)).expect("engine build");
    let mut out = vec![e.solve(&Query::new(ALGO, M)).expect("warm solve").partition];
    let mut rows_patched = Vec::new();
    for delta in deltas {
        rows_patched.push(e.apply_delta(delta).expect("delta"));
        out.push(e.solve(&Query::new(ALGO, M)).expect("warm solve").partition);
    }
    (out, rows_patched)
}

/// Counters priced for each path. Every entry is a deterministic obs
/// counter (identical at any thread count); `benchdiff` gates on the
/// exported integer leaves.
const KEYS: &[(&str, &str)] = &[
    ("gamma_builds", "core.gamma_builds"),
    ("jag_m_feasibility_checks", "core.jag_m.feasibility_checks"),
    ("jag_m_lazy_evals", "core.jag_m.lazy_evals"),
    ("nicol_calls", "onedim.nicol_calls"),
    ("probe_calls", "onedim.probe_calls"),
    ("engine_queries", "engine.queries"),
    ("engine_warm_hits", "engine.warm_hits"),
    ("delta_rows_patched", "engine.delta_rows_patched"),
    (
        "warm_start_probes_skipped",
        "engine.warm_start_probes_skipped",
    ),
];

/// Runs `f` once under a single-thread budget against a freshly reset
/// recorder and returns (counters named in `KEYS`, total work units,
/// f's result). Counter slots are 0 when uninstrumented.
fn counted<R>(f: impl FnOnce() -> R) -> (Vec<u64>, u64, R) {
    let rec = rectpart_obs::Recorder::global();
    rec.reset();
    rectpart_obs::work::reset();
    let out = with_threads(1, f);
    let report = rec.snapshot();
    let counters = KEYS
        .iter()
        .map(|&(_, key)| report.get(key).unwrap_or(0))
        .collect();
    (counters, rectpart_obs::work::spent(), out)
}

fn counters_json(counters: &[u64], work: u64) -> Json {
    let mut fields: Vec<(&str, Json)> = KEYS
        .iter()
        .zip(counters)
        .map(|(&(label, _), &v)| (label, v.to_json()))
        .collect();
    fields.push(("work_units", work.to_json()));
    Json::obj(fields)
}

fn ratio(cold: u64, warm: u64) -> Json {
    if warm == 0 {
        Json::Null
    } else {
        (cold as f64 / warm as f64).to_json()
    }
}

/// One cold-vs-warm measurement over a PIC series on one Γ backend.
fn serve_series(label: &str, mode: GammaMode, cfg: &PicConfig, instrumented: bool) -> Json {
    let trace = pic_trace(cfg);
    let deltas: Vec<Vec<RowUpdate>> = trace
        .windows(2)
        .map(|w| row_deltas(&w[0].matrix, &w[1].matrix))
        .collect();

    let (cold_counters, cold_work, cold) = counted(|| run_cold(&trace, mode));
    let (warm_counters, warm_work, (warm, rows_patched)) =
        counted(|| run_warm(&trace, &deltas, mode));

    assert_eq!(
        warm, cold,
        "{label}: warm engine diverged from cold re-solves"
    );
    let get = |counters: &[u64], label: &str| {
        counters[KEYS.iter().position(|&(l, _)| l == label).unwrap()]
    };
    if instrumented {
        assert!(
            get(&warm_counters, "gamma_builds") < get(&cold_counters, "gamma_builds"),
            "{label}: warm path must build strictly fewer Γ tables"
        );
        assert!(
            warm_work < cold_work,
            "{label}: warm path must charge strictly fewer work units \
             ({warm_work} vs {cold_work})"
        );
    }

    Json::obj(vec![
        ("case", label.to_json()),
        ("gamma_mode", mode_name(mode).to_json()),
        ("algorithm", ALGO.to_json()),
        ("m", M.to_json()),
        ("rows", cfg.rows.to_json()),
        ("cols", cfg.cols.to_json()),
        ("snapshots", trace.len().to_json()),
        ("queries", trace.len().to_json()),
        (
            "delta_rows_per_snapshot",
            Json::Arr(rows_patched.iter().map(|&r| r.to_json()).collect()),
        ),
        ("cold", counters_json(&cold_counters, cold_work)),
        ("warm", counters_json(&warm_counters, warm_work)),
        (
            "savings",
            Json::obj(vec![
                (
                    "gamma_builds",
                    ratio(
                        get(&cold_counters, "gamma_builds"),
                        get(&warm_counters, "gamma_builds"),
                    ),
                ),
                ("work_units", ratio(cold_work, warm_work)),
                (
                    "feasibility_checks",
                    ratio(
                        get(&cold_counters, "jag_m_feasibility_checks"),
                        get(&warm_counters, "jag_m_feasibility_checks"),
                    ),
                ),
            ]),
        ),
        ("bit_identical", true.to_json()),
    ])
}

fn mode_name(mode: GammaMode) -> &'static str {
    match mode {
        GammaMode::Dense => "dense",
        GammaMode::Sparse => "sparse",
        GammaMode::Auto => "auto",
    }
}

/// Wall-clock replays of both paths (dense backend) for local
/// before/after comparisons and the derived requests/sec figure.
fn bench_serving(c: &mut Criterion, cfg: &PicConfig) {
    let trace = pic_trace(cfg);
    let deltas: Vec<Vec<RowUpdate>> = trace
        .windows(2)
        .map(|w| row_deltas(&w[0].matrix, &w[1].matrix))
        .collect();
    let mut g = c.benchmark_group("engine-serve");
    g.sample_size(10);
    let n = trace.len();
    g.bench_function(format!("cold/pic-64x64-{n}snap"), |b| {
        b.iter(|| with_threads(1, || run_cold(black_box(&trace), GammaMode::Dense)))
    });
    g.bench_function(format!("warm/pic-64x64-{n}snap"), |b| {
        b.iter(|| {
            with_threads(1, || {
                run_warm(black_box(&trace), black_box(&deltas), GammaMode::Dense)
            })
        })
    });
    g.finish();
}

fn num_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let dense_cfg = series_config(4, 11);
    // Zero background load: cells without particles stay 0, so the
    // sparse backend's run encoding (and its row-splice patch) engages.
    let sparse_cfg = series_config(0, 11);
    bench_serving(&mut c, &dense_cfg);

    let instrumented = rectpart_obs::Recorder::global().enabled();
    let series = vec![
        serve_series(
            "pic-64x64-dense",
            GammaMode::Dense,
            &dense_cfg,
            instrumented,
        ),
        serve_series(
            "pic-64x64-sparse",
            GammaMode::Sparse,
            &sparse_cfg,
            instrumented,
        ),
    ];

    let timings: Vec<Json> = c
        .results()
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("id", r.id.to_json()),
                ("mean_ns", r.mean_ns.to_json()),
            ])
        })
        .collect();
    // Queries served per wall-clock second by the warm replay (one
    // solve per snapshot; delta patching included). Wall clock, so only
    // comparable on the same machine.
    let queries = series_config(4, 11).snapshots as f64;
    let warm_rps = c
        .results()
        .iter()
        .find(|r| r.id.starts_with("engine-serve/warm"))
        .map_or(Json::Null, |r| (queries / (r.mean_ns / 1e9)).to_json());

    let doc = Json::obj(vec![
        ("benchmark", "engine-serving".to_json()),
        ("host_cores", num_cores().to_json()),
        ("instrumented", instrumented.to_json()),
        ("gamma_mode", "per-series".to_json()),
        (
            "note",
            "cold/warm figures are deterministic obs counters measured \
             under a single-thread budget (identical on every host); \
             each series entry tags the Γ backend it ran under in its \
             own gamma_mode field. Timings are wall clock and only \
             comparable on the same machine — on a single-core host \
             read them against host_cores. Counter fields are zero \
             unless built with --features obs."
                .to_json(),
        ),
        ("series", Json::Arr(series)),
        ("warm_requests_per_sec", warm_rps),
        ("timings", Json::Arr(timings)),
    ]);
    let path = format!("{}/../../BENCH_engine.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, rectpart_json::to_string_pretty(&doc)).expect("write bench export");
    eprintln!("wrote {path}");
}
