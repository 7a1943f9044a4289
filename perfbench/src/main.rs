//! Benchmark of rectpart: op CPU time end to end, span wall time per layer.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1
//!               [--work-dir D] [--untraced-ops-per-norm-s X] [--max-ops N]
//! perfbench gen --workload W --seed N --dir D
//! ```
//!
//! `run` generates the seed's inputs in a child `gen` process, measures
//! the workload in closed loop with one client and one solver thread for
//! at least `S` seconds of op CPU time, verifies every answer, prints
//! every metric by name with its unit, and ends with one JSON result
//! line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer ones (build with the
//! `obs` feature for the program counters). `--max-ops` cuts the run
//! short, for tests at tiny sizes. Exits 1 if any op failed.

mod calib;
mod engine;
mod exact;
mod inputs;
mod layers;
mod oneshot;
mod runner;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::Workload;
use runner::{Metric, Run, Settings};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value for {name}: {v:?}"))
        })
        .transpose()
}

fn required<T>(v: Option<T>, name: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("missing {name}"))
}

fn workload(args: &[String]) -> Result<Workload, String> {
    let name = required(flag(args, "--workload"), "--workload")?;
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })
}

/// Generates the inputs into `dir` in a child process and waits for it;
/// returns the generator's peak RSS, MiB.
fn generate_in_child(workload: Workload, seed: u64, dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "gen",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .arg("--dir")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the input generator: {e}"))?;
    if !out.status.success() {
        return Err(format!("input generator failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .strip_prefix(GEN_PEAK)
        .and_then(|s| s.strip_suffix(" MiB"))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unexpected input generator output {text:?}"))
}

/// How `gen` reports its peak RSS.
const GEN_PEAK: &str = "generator peak RSS ";

fn gen(args: &[String]) -> Result<(), String> {
    let workload = workload(args)?;
    let seed = required(parse::<u64>(args, "--seed")?, "--seed")?;
    let dir = PathBuf::from(required(flag(args, "--dir"), "--dir")?);
    inputs::generate(workload, seed, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!("{GEN_PEAK}{:.1} MiB", stats::peak_rss_mib().unwrap_or(0.0));
    Ok(())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Solver threads of every run. On a host shared with other tenants a
/// second thread mostly measures the scheduler: a fork-join op waits for
/// whichever thread was descheduled. Γ builds gain at most 1.3× from a
/// second core at 4096² and lose at 512² (`parallel.gamma_speedup`).
const SOLVER_THREADS: usize = 1;

fn measure(args: &[String]) -> Result<bool, String> {
    let workload = workload(args)?;
    rectpart_parallel::set_global_threads(SOLVER_THREADS);
    let settings = Settings {
        seed: required(parse(args, "--seed")?, "--seed")?,
        seconds: required(parse(args, "--seconds")?, "--seconds")?,
        traced: match required(flag(args, "--trace"), "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        max_ops: parse(args, "--max-ops")?,
    };
    let untraced_ops_per_s: Option<f64> = parse(args, "--untraced-ops-per-norm-s")?;
    let work = PathBuf::from(flag(args, "--work-dir").unwrap_or(".bench_work"));
    let dir = work.join(format!(
        "{}-{}-{}",
        workload.name(),
        settings.seed,
        std::process::id()
    ));

    let generator_mib = generate_in_child(workload, settings.seed, &dir)?;
    println!(
        "inputs: generator peak RSS {generator_mib:.1} MiB; this process {:.1} MiB before reading them",
        stats::peak_rss_mib().unwrap_or(0.0)
    );
    let run = match workload {
        Workload::OneshotPaper => oneshot::run(&dir, &settings),
        Workload::ExactPic => exact::run(&dir, &settings),
        Workload::EngineDrift => engine::run(&dir, &settings),
    };
    let trace_file = work.join(format!("trace-{}-{}.json", workload.name(), settings.seed));
    if settings.traced {
        std::fs::write(&trace_file, run.tracer.chrome_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report(
        workload,
        &settings,
        &run,
        untraced_ops_per_s,
        &trace_file,
    ))
}

/// Prints the run's metrics and the result line; returns `correct`.
fn report(
    workload: Workload,
    settings: &Settings,
    run: &Run,
    untraced_ops_per_s: Option<f64>,
    trace_file: &Path,
) -> bool {
    println!(
        "perfbench {} seed={} seconds={} trace={} | closed loop, 1 client, {} solver threads (host cores {})",
        workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.traced),
        rectpart_parallel::current_threads(),
        rectpart_parallel::host_cores(),
    );
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    if run.op_ms.is_empty() {
        println!("no op completed");
        return false;
    }
    let (e2e, notes) = runner::end_to_end(run);
    println!("end-to-end:");
    print_metrics(&e2e);
    for n in notes {
        println!("  {n}");
    }
    let result = if settings.traced {
        let ops_per_s = e2e
            .iter()
            .find(|m| m.name == "ops_per_norm_s")
            .map_or(0.0, |m| m.value);
        let overhead = untraced_ops_per_s.map_or(0.0, |u| ops_per_s / u);
        let layer = layers::per_layer(run, overhead);
        println!("per-layer (0 = the workload makes no call into that layer):");
        print_metrics(&layer);
        println!("share of op wall time by layer span (self time):");
        for (name, share, calls) in runner::layer_shares(run) {
            println!("  {name:<32} {:>7.2}% over {calls} calls", share * 100.0);
        }
        println!(
            "rectpart-obs counters {}; spans written to {}",
            if rectpart_obs::Recorder::global().enabled() {
                "compiled in"
            } else {
                "not compiled in (build with --features obs)"
            },
            trace_file.display()
        );
        runner::result_line(run, &layer)
    } else {
        runner::result_line(run, &e2e)
    };
    println!("{result}");
    run.failed == 0
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]).map(|()| true),
        Some("run") => measure(&args[1..]),
        _ => Err("usage: perfbench run|gen --workload W --seed N ...".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
