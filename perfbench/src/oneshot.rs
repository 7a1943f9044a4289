//! `oneshot-paper`: the user-facing CLI `partition` path, cold on every
//! op — read CSV → Γ → solve → validate → summary → partition JSON.

use std::path::{Path, PathBuf};

use rectpart_core::{
    algorithm_by_name, GammaMode, Partition, PartitionStats, PrefixSum2D, RectpartError,
};

use crate::inputs::{self, PAPER_CLASSES};
use crate::layers::{self, solve_span};
use crate::runner::{closed_loop, Run, Settings};
use crate::trace::Tracer;

/// Algorithms, taken round-robin.
const ALGOS: [&str; 5] = [
    "RECT-NICOL",
    "JAG-PQ-HEUR-BEST",
    "JAG-M-HEUR-BEST",
    "HIER-RB-LOAD",
    "HIER-RELAXED-LOAD",
];
/// Processor counts, taken round-robin on the dense inputs.
const MS: [usize; 3] = [256, 1024, 4096];
/// Processor count on the mesh. Its sparse Γ answers a rectangle query
/// in time linear in the rectangle's rows, so at m ≥ 1024 single solves
/// take seconds and would swamp the I/O and Γ work this workload is for.
const MESH_M: usize = 256;
/// The fixed op set, about 10 s of CPU time: 8 ops on each input. Op `j`
/// runs on input `j % 4` with algorithm `j % 5` and m `j % 3`. The
/// answers of the first pass form the fixed `lmax_over_lb` set.
const OP_SET: usize = 32;
/// Set-up passes, one op on each input per pass. The median of the four
/// set-ups of a pass is that of two dense 4096² inputs.
const SETUP_PASSES: usize = 1;

/// One op's answer, verified after the run.
struct Answer {
    class: usize,
    m: usize,
    partition: Partition,
    reported_lmax: u64,
}

/// The CLI argument vector of one op.
fn cli_args(input: &Path, algo: &str, m: usize, save: &Path) -> Vec<String> {
    let mut args: Vec<String> = vec!["partition".into(), "--input".into()];
    args.push(input.display().to_string());
    args.extend([
        "--algo".into(),
        algo.to_string(),
        "-m".into(),
        m.to_string(),
    ]);
    args.extend(["--save".into(), save.display().to_string()]);
    args.extend(["--gamma".into(), "auto".into()]);
    args
}

/// One cold CLI op through `rectpart_cli::run`; returns its stdout text.
fn run_cli(args: &[String]) -> Result<String, String> {
    let rest = rectpart_cli::apply_global_gamma(args).map_err(|e| e.to_string())?;
    let cmd = rectpart_cli::parse(&rest).map_err(|e| e.to_string())?;
    rectpart_cli::run(cmd).map_err(|e| e.to_string())
}

/// The same op replayed call by call, as the `Partition` arm of
/// `rectpart_cli::run` makes them, with a span around each layer call.
/// Also returns the heap bytes of the Γ it built.
fn replay_cli(t: &mut Tracer, args: &[String]) -> Result<(String, usize), String> {
    let rest = rectpart_cli::apply_global_gamma(args).map_err(|e| e.to_string())?;
    let rectpart_cli::Command::Partition {
        input,
        algo,
        m,
        save,
        ..
    } = rectpart_cli::parse(&rest).map_err(|e| e.to_string())?
    else {
        return Err("not a partition command".into());
    };
    let matrix = inputs::load_csv(t, &input)?;
    RectpartError::check_problem(matrix.rows(), matrix.cols(), m).map_err(|e| e.to_string())?;
    let pfx = layers::build_gamma(t, &matrix, rectpart_cli::gamma_mode())?;
    let algorithm = algorithm_by_name(&algo).ok_or_else(|| format!("unknown algorithm {algo}"))?;
    let part = t.span(solve_span(&algo), |_| algorithm.partition(&pfx, m));
    t.span("core.solution.validate", |_| part.validate(&pfx))
        .map_err(|e| e.to_string())?;
    let out = t.span("core.solution.summary", |_| {
        summary_text(&algo, m, &part, &pfx)
    });
    if let Some(path) = save {
        t.span("cli.save_json", |_| {
            std::fs::write(&path, rectpart_json::to_string_pretty(&part))
        })
        .map_err(|e| e.to_string())?;
    }
    Ok((out, pfx.gamma_bytes()))
}

/// The summary block the CLI prints.
fn summary_text(algo: &str, m: usize, part: &Partition, pfx: &PrefixSum2D) -> String {
    let summary = part.summary(pfx);
    let detail = PartitionStats::compute(pfx, part);
    format!(
        "{algo} on {}x{} with m={m}:\n  Lmax          = {}\n  lower bound   = {}\n  avg load      = {:.1}\n  imbalance     = {:.4}\n  active parts  = {}\n  loads         = {}..{} (sd {:.1})\n  max aspect    = {:.2}\n  perimeter     = {}",
        pfx.rows(),
        pfx.cols(),
        summary.lmax,
        pfx.lower_bound(m),
        summary.lavg,
        summary.imbalance,
        summary.rect_count,
        detail.lmin,
        detail.lmax,
        detail.stddev,
        detail.max_aspect,
        detail.total_perimeter,
    )
}

/// The `Lmax = N` value of a CLI summary.
fn reported_lmax(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.trim_start().starts_with("Lmax"))?;
    line.split('=').nth(1)?.trim().parse().ok()
}

/// Reads back the saved partition JSON of an op.
fn read_answer(save: &Path, text: &str, class: usize, m: usize) -> Result<Answer, String> {
    let json = std::fs::read_to_string(save).map_err(|e| format!("{}: {e}", save.display()))?;
    let partition: Partition = rectpart_json::from_str(&json).map_err(|e| e.to_string())?;
    let reported_lmax = reported_lmax(text).ok_or("CLI summary has no Lmax line")?;
    Ok(Answer {
        class,
        m,
        partition,
        reported_lmax,
    })
}

/// Runs `oneshot-paper` on the inputs in `dir`.
pub fn run(dir: &Path, settings: &Settings) -> Run {
    let mut run = Run::new(settings);
    let paths: Vec<PathBuf> = PAPER_CLASSES
        .iter()
        .map(|c| inputs::paper_csv(dir, c))
        .collect();
    let save = dir.join("partition.json");

    // The CLI keeps no state between runs, so its set-up is one op on
    // each input: page cache, allocator and lazily initialised statics
    // are warm afterwards. Timed over several passes, for a steady median.
    for _ in 0..SETUP_PASSES {
        for path in &paths {
            let args = cli_args(path, "JAG-M-HEUR-BEST", 256, &save);
            if let Err(e) = run.setup(|_| run_cli(&args)) {
                run.fail(format!("set-up on {}: {e}", path.display()));
            }
        }
    }
    if settings.traced {
        let speedup = layers::gamma_speedup(&mut run, &paths[0]);
        run.layer_metric("parallel.gamma_speedup", speedup, "ratio");
    }

    let sizes: Vec<u64> = paths
        .iter()
        .map(|p| layers::file_bytes([p.as_path()]))
        .collect();
    let mut answers: Vec<(usize, Answer)> = Vec::new();
    let (mut gamma_bytes, mut read_bytes) = (0usize, 0u64);
    closed_loop(&mut run, settings, OP_SET, |run, i| {
        let j = i % OP_SET;
        let class = j % PAPER_CLASSES.len();
        let algo = ALGOS[j % ALGOS.len()];
        let m = if PAPER_CLASSES[class] == "mesh" {
            MESH_M
        } else {
            MS[j % MS.len()]
        };
        let args = cli_args(&paths[class], algo, m, &save);
        let out = run.op(i as u64, |t| {
            if t.enabled() {
                replay_cli(t, &args).map(|(text, bytes)| {
                    gamma_bytes += bytes;
                    read_bytes += sizes[class];
                    text
                })
            } else {
                run_cli(&args)
            }
        });
        match out.and_then(|text| read_answer(&save, &text, class, m)) {
            Ok(a) => answers.push((i, a)),
            Err(e) => run.fail(format!(
                "op {i} ({algo}, m={m}, {}): {e}",
                PAPER_CLASSES[class]
            )),
        }
    });
    run.finish_ops();

    // Verify every answer against a fresh dense Γ of its input, one input
    // at a time.
    for (class, path) in paths.iter().enumerate() {
        let pfx = match inputs::load_csv(&mut Tracer::new(false), path).and_then(|m| {
            PrefixSum2D::try_new_with(&m, GammaMode::Dense).map_err(|e| e.to_string())
        }) {
            Ok(p) => p,
            Err(e) => {
                run.fail(format!("verification input {}: {e}", path.display()));
                continue;
            }
        };
        for (i, a) in answers.iter().filter(|(_, a)| a.class == class) {
            let checked =
                layers::verify_partition(&a.partition, &pfx, a.m).and_then(|(lmax, lb)| {
                    if lmax != a.reported_lmax {
                        return Err(format!(
                            "CLI reported Lmax {} but the partition has {lmax}",
                            a.reported_lmax
                        ));
                    }
                    Ok(lmax as f64 / lb as f64)
                });
            match checked {
                Ok(ratio) if *i < OP_SET => run.lmax_over_lb.push(ratio),
                Ok(_) => {}
                Err(e) => run.fail(format!("op {i}: {e}")),
            }
        }
    }
    if settings.traced {
        layers::csv_throughput(&mut run, read_bytes);
        let per_op = gamma_bytes as f64 / run.op_ms.len() as f64;
        run.layer_metric("core.prefix.gamma_bytes", per_op, "bytes");
    }
    run
}
