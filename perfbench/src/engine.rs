//! `engine-drift`: resident `rectpart_engine::Engine`s, one per PIC-MAG
//! run, serving drifting loads. Each op is one serving step of one
//! engine: a delta with rows from another run's snapshot, then the query
//! round asked twice (misses, then hits).

use std::path::Path;

use rectpart_core::{
    algorithm_by_name, GammaMode, LoadMatrix, Partition, PrefixSum2D, Rect, RowUpdate,
};
use rectpart_engine::{Engine, EngineConfig, EngineStats, Query, QueryOutcome};
use rectpart_robust::SolverDriver;

use crate::inputs::{self, PIC_RUNS};
use crate::layers::{self, solve_span};
use crate::runner::{closed_loop, Run, Settings};
use crate::trace::Tracer;

/// Steps per delta cycle: the last step of a cycle rewrites every row
/// (Γ rebuilt), the others a band of 1/16 of the rows (Γ patched).
const CYCLE: usize = 8;
/// Bands a band delta can rewrite.
const BANDS: usize = 16;
/// Set-ups timed. The first few of a process are slower (allocator and
/// thread-stack warm-up).
const SETUPS: usize = 15;
/// Consecutive steps one engine serves before the next takes over.
const STEPS_PER_ENGINE: usize = CYCLE;
/// Steps after which every engine has served its turn and the delta
/// schedule starts over. Runs are whole rounds.
const ROUND: usize = PIC_RUNS * STEPS_PER_ENGINE;
/// The fixed op set is one round, about 8 s of CPU time. An engine's
/// last step of its turn rewrites every row from its own snapshot, so
/// every round serves the same steps. The answers of the first round
/// form the fixed `lmax_over_lb` set.
const OP_SET: usize = ROUND;

/// The query round: heuristics at m = 256, warm-started exact solves at
/// m = 64, a region query and a fallback-ladder query.
fn query_round(rows: usize, cols: usize) -> Vec<Query> {
    let quadrant = Rect {
        r0: 0,
        r1: rows / 2,
        c0: 0,
        c1: cols / 2,
    };
    vec![
        Query::new("JAG-M-HEUR-BEST", 256),
        Query::new("HIER-RB-LOAD", 256),
        Query::new("RECT-NICOL", 256),
        Query::new("JAG-M-OPT-BEST", 64),
        Query::new("JAG-PQ-OPT-BEST", 64),
        Query {
            region: Some(quadrant),
            ..Query::new("JAG-M-HEUR-BEST", 64)
        },
        Query {
            fallback: vec!["JAG-M-HEUR-BEST".to_string()],
            ..Query::new("JAG-M-OPT-BEST", 64)
        },
    ]
}

/// Rows the delta of step `k` rewrites.
fn delta_rows(k: usize, rows: usize) -> std::ops::Range<usize> {
    if k % CYCLE == CYCLE - 1 {
        0..rows
    } else {
        let band = rows / BANDS;
        let start = (k * 7 % BANDS) * band;
        start..start + band
    }
}

/// A seeded index in `0..n` for step `k` (splitmix64 of seed and step).
fn sample(seed: u64, k: usize, n: usize) -> usize {
    let mut z = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n as u64) as usize
}

/// Sub-matrix of `region`.
fn sub_matrix(matrix: &LoadMatrix, region: Rect) -> LoadMatrix {
    LoadMatrix::from_fn(region.r1 - region.r0, region.c1 - region.c0, |r, c| {
        matrix.get(region.r0 + r, region.c0 + c)
    })
}

/// Moves a region-local partition to matrix coordinates, as the engine
/// answers region queries.
fn globalize(region: Rect, local: &Partition) -> Partition {
    let rects = local
        .rects()
        .iter()
        .map(|t| Rect {
            r0: t.r0 + region.r0,
            r1: t.r1 + region.r0,
            c0: t.c0 + region.c0,
            c1: t.c1 + region.c0,
        })
        .collect();
    Partition::with_parts(rects, local.parts())
}

/// Moves a region answer back to region coordinates.
fn localize(region: Rect, global: &Partition) -> Partition {
    let rects = global
        .rects()
        .iter()
        .map(|t| {
            if t.is_empty() {
                Rect::EMPTY
            } else {
                Rect {
                    r0: t.r0 - region.r0,
                    r1: t.r1 - region.r0,
                    c0: t.c0 - region.c0,
                    c1: t.c1 - region.c0,
                }
            }
        })
        .collect();
    Partition::with_parts(rects, global.parts())
}

/// Applies one step's delta and asks the query round twice, with a span
/// named after how each call was served.
fn step(
    t: &mut Tracer,
    engine: &mut Engine,
    queries: &[Query],
    updates: &[RowUpdate],
    rebuild: bool,
) -> Result<Vec<QueryOutcome>, String> {
    let delta_span = if rebuild {
        "engine.apply_delta_rebuild"
    } else {
        "engine.apply_delta_patch"
    };
    t.span(delta_span, |_| engine.apply_delta(updates))
        .map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(2 * queries.len());
    for _ in 0..2 {
        for q in queries {
            let id = t.enter("engine.solve");
            let answer = engine.solve(q);
            t.exit(id);
            let answer = answer.map_err(|e| format!("{} m={}: {e}", q.algorithm, q.m))?;
            let name = if answer.warm_hit {
                "engine.solve_hit"
            } else if q.region.is_some() {
                "engine.region_solve"
            } else if !q.fallback.is_empty() {
                "robust.driver_solve"
            } else {
                solve_span(&q.algorithm)
            };
            t.rename(id, name);
            out.push(answer);
        }
    }
    Ok(out)
}

/// Cold answer of `q` on the current matrix, from scratch.
fn cold_answer(matrix: &LoadMatrix, pfx: &PrefixSum2D, q: &Query) -> Result<Partition, String> {
    if !q.fallback.is_empty() {
        let mut ladder = vec![q.algorithm.clone()];
        ladder.extend(q.fallback.iter().cloned());
        let outcome = SolverDriver::new()
            .with_ladder(ladder)
            .try_solve(matrix, q.m)
            .map_err(|f| f.error.to_string())?;
        return Ok(outcome.partition);
    }
    let algorithm = algorithm_by_name(&q.algorithm)
        .ok_or_else(|| format!("unknown algorithm {}", q.algorithm))?;
    match q.region {
        None => Ok(algorithm.partition(pfx, q.m)),
        Some(r) => {
            let sub = PrefixSum2D::try_new_with(&sub_matrix(matrix, r), GammaMode::Auto)
                .map_err(|e| e.to_string())?;
            Ok(globalize(r, &algorithm.partition(&sub, q.m)))
        }
    }
}

/// Verifies one step's answers on a fresh Γ of the current matrix:
/// every answer is valid, hits repeat misses, exact answers beat their
/// heuristic, and the sampled answer equals a cold solve bit for bit.
/// Returns each query's `Lmax / lower bound`.
fn verify(
    matrix: &LoadMatrix,
    queries: &[Query],
    answers: &[QueryOutcome],
    sampled: usize,
) -> Result<Vec<f64>, String> {
    let pfx = PrefixSum2D::try_new_with(matrix, GammaMode::Auto).map_err(|e| e.to_string())?;
    let (misses, hits) = answers.split_at(queries.len());
    let mut ratios = Vec::with_capacity(queries.len());
    for (j, q) in queries.iter().enumerate() {
        let (miss, hit) = (&misses[j], &hits[j]);
        let what = format!("{} m={}", q.algorithm, q.m);
        if miss.warm_hit || !hit.warm_hit || hit.partition != miss.partition {
            return Err(format!(
                "{what}: second ask is not a cache hit of the first"
            ));
        }
        let (lmax, lb) = match q.region {
            None => layers::verify_partition(&miss.partition, &pfx, q.m)?,
            Some(r) => {
                let sub = PrefixSum2D::try_new_with(&sub_matrix(matrix, r), GammaMode::Auto)
                    .map_err(|e| e.to_string())?;
                layers::verify_partition(&localize(r, &miss.partition), &sub, q.m)?
            }
        };
        ratios.push(lmax as f64 / lb as f64);
        layers::check_exact(&q.algorithm, lmax, &pfx, q.m)?;
        if j == sampled && cold_answer(matrix, &pfx, q)? != miss.partition {
            return Err(format!("{what}: warm answer differs from a cold solve"));
        }
    }
    Ok(ratios)
}

/// Runs `engine-drift` on the inputs in `dir`.
pub fn run(dir: &Path, settings: &Settings) -> Run {
    let mut run = Run::new(settings);
    let mut snapshots = Vec::with_capacity(PIC_RUNS);
    for path in inputs::pic_paths(dir) {
        match inputs::load_csv(&mut run.tracer, &path) {
            Ok(m) => snapshots.push(m),
            Err(e) => {
                run.fail(e);
                return run;
            }
        }
    }
    // Set-up: building the resident engines, one per PIC-MAG run (Γ
    // build and row extrema), timed several times; the last build
    // serves.
    // The previous build is dropped first, so the peak RSS holds one
    // engine set, as the ops need.
    let mut engines = Vec::new();
    for _ in 0..SETUPS {
        engines.clear();
        let matrices = snapshots.clone();
        let built: Result<Vec<Engine>, _> = run.setup(|_| {
            matrices
                .into_iter()
                .map(|m| Engine::with_config(m, EngineConfig::default()))
                .collect()
        });
        match built {
            Ok(e) => engines = e,
            Err(e) => {
                run.fail(format!("engine set-up: {e}"));
                return run;
            }
        }
    }
    if settings.traced {
        let speedup = layers::gamma_speedup(&mut run, &inputs::pic_csv(dir, 0));
        run.layer_metric("parallel.gamma_speedup", speedup, "ratio");
    }

    let (rows, cols) = (engines[0].matrix().rows(), engines[0].matrix().cols());
    let queries = query_round(rows, cols);
    let (mut ladder_asks, mut ladder_fallbacks) = (0u64, 0u64);
    closed_loop(&mut run, settings, OP_SET, |run, k| {
        // Each engine serves STEPS_PER_ENGINE steps in turn. Its band
        // deltas take rows from the snapshots of the other PIC-MAG runs
        // (the same physical time, other particles); the full rewrite
        // that ends its turn restores its own snapshot.
        let e = (k / STEPS_PER_ENGINE) % PIC_RUNS;
        let engine = &mut engines[e];
        let target = &snapshots[(e + 1 + k % STEPS_PER_ENGINE) % PIC_RUNS];
        let updates: Vec<RowUpdate> = delta_rows(k, rows)
            .map(|row| RowUpdate {
                row,
                cells: target.row(row).to_vec(),
            })
            .collect();
        let rebuild = 2 * updates.len() > rows;
        let answers = run.op(k as u64, |t| step(t, engine, &queries, &updates, rebuild));
        let checked = answers.and_then(|answers| {
            for (q, a) in queries.iter().cycle().zip(&answers) {
                if !q.fallback.is_empty() {
                    ladder_asks += 1;
                    ladder_fallbacks +=
                        u64::from(!a.answered_by.eq_ignore_ascii_case(&q.algorithm));
                }
            }
            let sampled = sample(settings.seed, k, queries.len());
            verify(engine.matrix(), &queries, &answers, sampled)
        });
        match checked {
            Ok(ratios) if k < OP_SET => run.lmax_over_lb.extend(ratios),
            Ok(_) => {}
            Err(e) => run.fail(format!("step {k}: {e}")),
        }
    });
    run.finish_ops();

    if settings.traced {
        let stats = engines
            .iter()
            .map(Engine::stats)
            .fold(EngineStats::default(), |a, b| EngineStats {
                queries: a.queries + b.queries,
                warm_hits: a.warm_hits + b.warm_hits,
                delta_rows_patched: a.delta_rows_patched + b.delta_rows_patched,
                warm_start_probes_skipped: a.warm_start_probes_skipped
                    + b.warm_start_probes_skipped,
            });
        let steps = run.op_ms.len().max(1) as f64;
        let totals = run.layers();
        let misses = totals
            .iter()
            .filter(|(name, _)| {
                name.starts_with("core.solve.")
                    || *name == "engine.region_solve"
                    || *name == "robust.driver_solve"
            })
            .fold((0u64, 0u64), |(ns, calls), (_, t)| {
                (ns + t.self_ns, calls + t.calls)
            });
        let miss_ms = misses.0 as f64 / misses.1.max(1) as f64 / 1e6;
        run.layer_metric("engine.solve_miss_ms", miss_ms, "ms");
        let hit_ratio = stats.warm_hits as f64 / stats.queries.max(1) as f64;
        run.layer_metric("engine.hit_ratio", hit_ratio, "ratio");
        run.layer_metric(
            "engine.rows_patched",
            stats.delta_rows_patched as f64 / steps,
            "count/op",
        );
        let skipped = stats.warm_start_probes_skipped as f64 / steps;
        run.layer_metric("engine.probes_skipped", skipped, "count/op");
        let fallback = ladder_fallbacks as f64 / ladder_asks.max(1) as f64;
        run.layer_metric("robust.fallback_ratio", fallback, "ratio");
        let gamma_bytes = engines[0].prefix().gamma_bytes() as f64;
        run.layer_metric("core.prefix.gamma_bytes", gamma_bytes, "bytes");
        let paths = inputs::pic_paths(dir);
        let bytes = layers::file_bytes(paths.iter().map(|p| p.as_path()));
        layers::csv_throughput(&mut run, bytes);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_ends_both_cycles() {
        assert_eq!(ROUND % CYCLE, 0);
        // The last step of a turn, a full rewrite, targets the engine's
        // own snapshot, so every round starts from the set-up state.
        assert_eq!(STEPS_PER_ENGINE % PIC_RUNS, 0);
        assert_eq!(delta_rows(STEPS_PER_ENGINE - 1, 512), 0..512);
    }

    #[test]
    fn band_deltas_patch_and_every_eighth_rebuilds() {
        for k in 0..16 {
            let r = delta_rows(k, 512);
            if k % CYCLE == CYCLE - 1 {
                assert_eq!(r, 0..512);
            } else {
                assert_eq!(r.len(), 32);
                assert!(r.end <= 512);
            }
        }
    }

    #[test]
    fn region_answers_round_trip() {
        let region = Rect {
            r0: 4,
            r1: 8,
            c0: 2,
            c1: 6,
        };
        let local = Partition::with_parts(
            vec![
                Rect {
                    r0: 0,
                    r1: 4,
                    c0: 0,
                    c1: 2,
                },
                Rect {
                    r0: 0,
                    r1: 4,
                    c0: 2,
                    c1: 4,
                },
            ],
            3,
        );
        assert_eq!(localize(region, &globalize(region, &local)), local);
    }

    #[test]
    fn sampling_is_seeded() {
        let a: Vec<usize> = (0..32).map(|k| sample(7, k, 7)).collect();
        assert_eq!(a, (0..32).map(|k| sample(7, k, 7)).collect::<Vec<_>>());
        assert!(a.iter().all(|&j| j < 7));
        assert!(a.iter().any(|&j| j != a[0]));
    }
}
