//! Serial-vs-parallel benchmark of the parallel execution layer, with a
//! machine-readable export.
//!
//! Measures `JAG-M-HEUR-BEST` at m ∈ {16, 1000, 10000} on the paper's
//! 512² uniform instance and `JAG-PQ-OPT` on a 128² instance, each under
//! a forced single-thread budget and under the auto-detected budget. The
//! Γ build is one serial pass (DESIGN.md §13), so it has no entry here. Both configurations produce bit-identical
//! results (see `crates/core/tests/differential.rs`); only the wall
//! clock differs.
//!
//! Results land in `BENCH_parallel.json` at the workspace root together
//! with the machine's core count and the thread budget used — on a
//! single-core host the "parallel" numbers are expected to sit at parity
//! (the layer falls back to serial execution when fewer than two worker
//! threads are available), so speedups must always be read against the
//! recorded `host_cores`.

//! With `--features obs` the same benchmarks run instrumented: one
//! counter snapshot per workload (recorder reset → single run →
//! snapshot) is embedded under `"stats"` and the document is written to
//! `BENCH_obs.json` instead, preserving the uninstrumented baseline for
//! the zero-overhead comparison.

use criterion::{black_box, Criterion};
use rectpart_core::{JagMHeur, JagPqOpt, Partitioner, PrefixSum2D};
use rectpart_json::Json;
use rectpart_parallel::{current_threads, with_threads};
use rectpart_workloads::uniform;

fn bench_jag_m_heur(c: &mut Criterion) {
    let matrix = uniform(512, 512, 6).delta(1.2).build();
    let pfx = PrefixSum2D::new(&matrix);
    let algo = JagMHeur::best();
    for &m in &[16usize, 1000, 10000] {
        let mut g = c.benchmark_group("jag-m-heur");
        g.sample_size(10);
        g.bench_function(format!("serial/512x512-m{m}"), |b| {
            b.iter(|| with_threads(1, || algo.partition(black_box(&pfx), m)))
        });
        g.bench_function(format!("parallel/512x512-m{m}"), |b| {
            b.iter(|| algo.partition(black_box(&pfx), m))
        });
        g.finish();
    }
}

fn bench_jag_pq_opt(c: &mut Criterion) {
    // Small enough for the optimal DP, large enough that the stripe
    // cache sees thousands of lookups (hit rate lands near 35–40%).
    let matrix = uniform(128, 128, 9).delta(1.2).build();
    let pfx = PrefixSum2D::new(&matrix);
    let algo = JagPqOpt::default();
    let mut g = c.benchmark_group("jag-pq-opt");
    g.sample_size(10);
    g.bench_function("serial/128x128-m36", |b| {
        b.iter(|| with_threads(1, || algo.partition(black_box(&pfx), 36)))
    });
    g.bench_function("parallel/128x128-m36", |b| {
        b.iter(|| algo.partition(black_box(&pfx), 36))
    });
    g.finish();
}

/// One instrumented pass per workload, each against a freshly reset
/// recorder, so the exported counters describe exactly one run of each
/// case (criterion's warm-up iterations would otherwise multiply them).
fn counter_snapshots() -> Json {
    let rec = rectpart_obs::Recorder::global();
    let mut per_case = Vec::new();
    let mut snap = |case: &str, run: &dyn Fn()| {
        rec.reset();
        run();
        per_case.push((case.to_string(), rec.snapshot().to_json()));
    };
    let g512 = uniform(512, 512, 11).delta(1.2).build();
    snap("gamma/512x512", &|| drop(PrefixSum2D::new(&g512)));
    let matrix = uniform(512, 512, 6).delta(1.2).build();
    let pfx = PrefixSum2D::new(&matrix);
    let heur = JagMHeur::best();
    snap("jag-m-heur/512x512-m1000", &|| {
        drop(heur.partition(&pfx, 1000))
    });
    let small = uniform(128, 128, 9).delta(1.2).build();
    let spfx = PrefixSum2D::new(&small);
    let opt = JagPqOpt::default();
    snap("jag-pq-opt/128x128-m36", &|| drop(opt.partition(&spfx, 36)));
    Json::obj(
        per_case
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect(),
    )
}

/// Splits `"<group>/serial/<case>"` into `(group, case)`; `None` for
/// non-serial ids so each pair is exported exactly once.
fn serial_case(id: &str) -> Option<(&str, &str)> {
    let mut parts = id.splitn(3, '/');
    let group = parts.next()?;
    let kind = parts.next()?;
    let case = parts.next()?;
    (kind == "serial").then_some((group, case))
}

/// Pairs `<group>/serial/<case>` with `<group>/parallel/<case>` and
/// emits one JSON record per case.
fn export(c: &Criterion, threads: usize) {
    let results = c.results();
    let mut entries = Vec::new();
    for r in results {
        let Some((group, case)) = serial_case(&r.id) else {
            continue;
        };
        let parallel_id = format!("{group}/parallel/{case}");
        let Some(p) = results.iter().find(|o| o.id == parallel_id) else {
            continue;
        };
        entries.push(Json::obj(vec![
            ("group", group.to_json()),
            ("case", case.to_json()),
            ("serial_ns", r.mean_ns.to_json()),
            ("parallel_ns", p.mean_ns.to_json()),
            ("speedup", (r.mean_ns / p.mean_ns).to_json()),
        ]));
    }
    let instrumented = rectpart_obs::Recorder::global().enabled();
    let doc = Json::obj(vec![
        ("benchmark", "parallel-execution-layer".to_json()),
        ("host_cores", num_cores().to_json()),
        ("parallel_threads", threads.to_json()),
        ("instrumented", instrumented.to_json()),
        (
            "note",
            "parallel results are bit-identical to serial; speedup is only \
             meaningful when host_cores > 1 (the layer falls back to serial \
             execution under a single-thread budget)"
                .to_json(),
        ),
        ("entries", Json::Arr(entries)),
        ("stats", counter_snapshots()),
    ]);
    // Instrumented runs get their own file so the uninstrumented timing
    // baseline survives for the zero-overhead comparison.
    let name = if instrumented {
        "BENCH_obs.json"
    } else {
        "BENCH_parallel.json"
    };
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, rectpart_json::to_string_pretty(&doc)).expect("write bench export");
    eprintln!("wrote {path}");
}

fn num_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

use rectpart_json::ToJson;

fn main() {
    let threads = current_threads();
    let mut c = Criterion::default().configure_from_args();
    bench_jag_m_heur(&mut c);
    bench_jag_pq_opt(&mut c);
    export(&c, threads);
}
