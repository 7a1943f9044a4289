//! Calls into the program's layers that several workloads share, the
//! answer checks, and the per-layer metric list.

use std::path::Path;
use std::time::Instant;

use rectpart_core::{algorithm_by_name, GammaMode, LoadMatrix, Partition, PrefixSum2D};

use crate::inputs;
use crate::runner::{self, Metric, Run};
use crate::stats;
use crate::trace::Tracer;

/// Span (and metric stem) of a direct solve with `algo`.
pub fn solve_span(algo: &str) -> &'static str {
    match algo.to_ascii_uppercase().as_str() {
        "RECT-NICOL" => "core.solve.rect_nicol",
        "JAG-PQ-HEUR-BEST" => "core.solve.jag_pq_heur",
        "JAG-M-HEUR-BEST" => "core.solve.jag_m_heur",
        "HIER-RB-LOAD" => "core.solve.hier_rb",
        "HIER-RELAXED-LOAD" => "core.solve.hier_relaxed",
        "JAG-M-OPT-BEST" => "core.solve.jag_m_opt",
        "JAG-PQ-OPT-BEST" => "core.solve.jag_pq_opt",
        _ => "core.solve.other",
    }
}

/// Builds Γ inside a span named after the backend `mode` selected.
pub fn build_gamma(
    t: &mut Tracer,
    matrix: &LoadMatrix,
    mode: GammaMode,
) -> Result<PrefixSum2D, String> {
    let id = t.enter("core.prefix.build");
    let pfx = PrefixSum2D::try_new_with(matrix, mode);
    t.exit(id);
    let pfx = pfx.map_err(|e| e.to_string())?;
    let name = if pfx.is_sparse() {
        "core.prefix.sparse_build"
    } else {
        "core.prefix.dense_build"
    };
    t.rename(id, name);
    Ok(pfx)
}

/// Dense Γ wall build time on one thread over build time on every host
/// core, on the matrix at `path` (medians of three builds each).
pub fn gamma_speedup(run: &mut Run, path: &Path) -> f64 {
    let Ok(matrix) = inputs::load_csv(&mut Tracer::new(false), path) else {
        run.fail(format!("cannot read {}", path.display()));
        return 0.0;
    };
    let time = |threads: usize| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let pfx = rectpart_parallel::with_threads(threads, || PrefixSum2D::new(&matrix));
                std::hint::black_box(pfx);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&samples).unwrap_or(0.0)
    };
    let serial = time(1);
    let parallel = time(rectpart_parallel::host_cores());
    serial / parallel
}

/// Records `workloads.csv_mb_per_s`: `bytes` read over the time of the
/// run's `workloads.read_csv` spans.
pub fn csv_throughput(run: &mut Run, bytes: u64) {
    let read = run
        .layers()
        .get("workloads.read_csv")
        .copied()
        .unwrap_or_default();
    let mb_per_s = bytes as f64 / 1e6 / (read.self_ns as f64 / 1e9).max(1e-9);
    run.layer_metric("workloads.csv_mb_per_s", mb_per_s, "MB/s");
}

/// Summed size of `paths`, bytes.
pub fn file_bytes<'a>(paths: impl IntoIterator<Item = &'a Path>) -> u64 {
    paths
        .into_iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Checks an answer for `m` parts on `pfx`: it tiles the matrix, has
/// exactly `m` parts, and `Lmax ≥ lower_bound(m)`. Returns
/// `(Lmax, lower bound)`.
pub fn verify_partition(
    part: &Partition,
    pfx: &PrefixSum2D,
    m: usize,
) -> Result<(u64, u64), String> {
    part.validate(pfx)
        .map_err(|e| format!("invalid partition: {e}"))?;
    if part.parts() != m {
        return Err(format!("{} parts, expected {m}", part.parts()));
    }
    let (lmax, lb) = (part.lmax(pfx), pfx.lower_bound(m));
    if lmax < lb {
        return Err(format!("Lmax {lmax} below the lower bound {lb}"));
    }
    Ok((lmax, lb))
}

/// The heuristic of an exact family's class.
fn paired_heuristic(algo: &str) -> Option<&'static str> {
    match algo.to_ascii_uppercase().as_str() {
        "JAG-M-OPT-BEST" => Some("JAG-M-HEUR-BEST"),
        "JAG-PQ-OPT-BEST" => Some("JAG-PQ-HEUR-BEST"),
        _ => None,
    }
}

/// An exact family's answer (`lmax`) must never lose to the heuristic of
/// its class on the same input; other families pass.
pub fn check_exact(algo: &str, lmax: u64, pfx: &PrefixSum2D, m: usize) -> Result<(), String> {
    let Some(heuristic) = paired_heuristic(algo) else {
        return Ok(());
    };
    let heur = algorithm_by_name(heuristic)
        .ok_or_else(|| format!("unknown algorithm {heuristic}"))?
        .partition(pfx, m)
        .lmax(pfx);
    if lmax > heur {
        return Err(format!(
            "{algo} Lmax {lmax} worse than {heuristic}'s {heur}"
        ));
    }
    Ok(())
}

/// Metric names and units of the per-layer run, in `BENCHMARK.json`
/// order. Span-timed metrics (`_ms` with a span of the same stem) are
/// mean self time per call; the rest come from the workload.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.read_csv_ms", "ms"),
    ("workloads.csv_mb_per_s", "MB/s"),
    ("core.prefix.dense_build_ms", "ms"),
    ("core.prefix.sparse_build_ms", "ms"),
    ("core.prefix.gamma_bytes", "bytes"),
    ("parallel.gamma_speedup", "ratio"),
    ("core.solve.rect_nicol_ms", "ms"),
    ("core.solve.jag_pq_heur_ms", "ms"),
    ("core.solve.jag_m_heur_ms", "ms"),
    ("core.solve.hier_rb_ms", "ms"),
    ("core.solve.hier_relaxed_ms", "ms"),
    ("core.solve.jag_m_opt_ms", "ms"),
    ("core.solve.jag_pq_opt_ms", "ms"),
    ("core.jag_m.feasibility_checks", "count/op"),
    ("core.jag_m.lazy_evals", "count/op"),
    ("core.jag_m.ns_per_lazy_eval", "ns"),
    ("onedim.nicol_calls", "count/op"),
    ("onedim.probe_calls", "count/op"),
    ("core.solution.validate_ms", "ms"),
    ("core.solution.summary_ms", "ms"),
    ("cli.save_json_ms", "ms"),
    ("engine.solve_hit_ms", "ms"),
    ("engine.solve_miss_ms", "ms"),
    ("engine.region_solve_ms", "ms"),
    ("engine.hit_ratio", "ratio"),
    ("engine.apply_delta_patch_ms", "ms"),
    ("engine.apply_delta_rebuild_ms", "ms"),
    ("engine.rows_patched", "count/op"),
    ("engine.probes_skipped", "count/op"),
    ("robust.driver_solve_ms", "ms"),
    ("robust.fallback_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Program counters reported per op.
const COUNTERS: [&str; 4] = [
    "core.jag_m.feasibility_checks",
    "core.jag_m.lazy_evals",
    "onedim.nicol_calls",
    "onedim.probe_calls",
];

/// The per-layer metrics of a traced run. A layer the workload makes no
/// call into reports 0. `overhead_ratio` is the traced run's
/// `ops_per_norm_s` over the untraced run's.
pub fn per_layer(run: &Run, overhead_ratio: f64) -> Vec<Metric> {
    let totals = run.layers();
    let ops = run.op_ms.len().max(1) as f64;
    // JAG-M-OPT runs directly and as the first rung of a ladder query.
    let jag_m_ns: u64 = ["core.solve.jag_m_opt", "robust.driver_solve"]
        .iter()
        .filter_map(|n| totals.get(*n))
        .map(|t| t.self_ns)
        .sum();
    let lazy = run.counter("core.jag_m.lazy_evals");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let from_workload = run.layer.iter().find(|(n, _, _)| n == name).map(|x| x.1);
            let value = if let Some(v) = from_workload {
                v
            } else if COUNTERS.contains(&name) {
                run.counter(name) as f64 / ops
            } else if name == "core.jag_m.ns_per_lazy_eval" {
                if lazy == 0 {
                    0.0
                } else {
                    jag_m_ns as f64 / lazy as f64
                }
            } else if name == "trace.unattributed_ratio" {
                runner::unattributed_ratio(run)
            } else if name == "trace.overhead_ratio" {
                overhead_ratio
            } else if let Some(stem) = name.strip_suffix("_ms") {
                totals.get(stem).map_or(0.0, |t| t.mean_ms())
            } else {
                0.0
            };
            Metric {
                name: name.to_string(),
                value,
                unit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rectpart_json::Json;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        rectpart_json::parse(&text).expect("valid BENCHMARK.json")
    }

    fn names_units(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let listed = names_units(&spec(), "per_layer");
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn end_to_end_list_matches_benchmark_json() {
        let settings = runner::Settings {
            seed: 0,
            seconds: 0.0,
            traced: false,
            max_ops: None,
        };
        let mut run = Run::new(&settings);
        run.op(0, |_| ());
        let ours: Vec<(String, String)> = runner::end_to_end(&run)
            .0
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(names_units(&spec(), "end_to_end"), ours);
    }

    #[test]
    fn every_solver_has_its_own_span() {
        for algo in [
            "RECT-NICOL",
            "jag-m-opt-best",
            "JAG-PQ-OPT-BEST",
            "HIER-RELAXED-LOAD",
        ] {
            let span = solve_span(algo);
            assert_ne!(span, "core.solve.other");
            let metric = format!("{span}_ms");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }
}
