//! CSV ingest: wall time and throughput of `read_csv`, the first layer
//! of every cold CLI run, with a machine-readable export.
//!
//! Three inputs, written with `write_csv` to the temp directory: a
//! 4096² peak and a 4096² uniform matrix (the `oneshot-paper` benchmark
//! sizes) and the 512² PIC-MAG snapshot of the `exact-pic` workload.
//! Each file is read `RUNS` times from the page cache; the report keeps
//! the median wall time with its min–max band, the throughput at the
//! median (MB = 10⁶ bytes) and the file's bytes and cells. Every read
//! must return the written matrix.
//!
//! A `baseline` object already present in `BENCH_io.json` is carried
//! over verbatim: it holds the same cases timed at an earlier commit on
//! the same host, and each case reports its wall-time speedup against
//! it. Wall times are only comparable on one machine; `benchdiff` gates
//! on the integer fields (bytes, cells, shape) only.

use std::path::Path;
use std::time::Instant;

use rectpart_core::LoadMatrix;
use rectpart_json::{Json, ToJson};
use rectpart_workloads::io::{read_csv, write_csv};
use rectpart_workloads::{peak, uniform, PicConfig, PicSimulation};

/// Reads per case; the median is the reported wall time.
const RUNS: usize = 5;

/// The second snapshot of the default 512² PIC-MAG run (one million
/// particles), as the `exact-pic` benchmark workload uses.
fn pic_snapshot() -> LoadMatrix {
    let mut sim = PicSimulation::new(PicConfig::default());
    sim.next_snapshot();
    sim.next_snapshot().matrix
}

/// Writes `matrix` to a temp CSV, reads it back `RUNS` times and
/// returns the case's report entry.
fn measure(name: &str, matrix: &LoadMatrix, baseline: Option<&Json>) -> Json {
    let path = std::env::temp_dir().join(format!(
        "rectpart-bench-io-{}-{name}.csv",
        std::process::id()
    ));
    write_csv(matrix, &path).expect("write bench input");
    let bytes = std::fs::metadata(&path).expect("stat bench input").len();
    let wall_ns = time_reads(&path, matrix, name);
    std::fs::remove_file(&path).ok();
    let median = wall_ns[RUNS / 2];
    let mb_per_s = bytes as f64 / 1e6 / (median as f64 / 1e9);
    eprintln!(
        "{name}: median {:.1} ms (min {:.1}, max {:.1}), {mb_per_s:.0} MB/s",
        median as f64 / 1e6,
        wall_ns[0] as f64 / 1e6,
        wall_ns[RUNS - 1] as f64 / 1e6
    );
    let base_median = baseline
        .and_then(|b| b.get("cases"))
        .and_then(Json::as_array)
        .and_then(|cases| {
            cases
                .iter()
                .find(|c| c.get("case").and_then(Json::as_str) == Some(name))
        })
        .and_then(|c| c.get("wall_median_ns"))
        .and_then(Json::as_f64);
    Json::obj(vec![
        ("case", name.to_json()),
        ("rows", matrix.rows().to_json()),
        ("cols", matrix.cols().to_json()),
        ("cells", (matrix.rows() * matrix.cols()).to_json()),
        ("bytes", bytes.to_json()),
        ("runs", RUNS.to_json()),
        ("wall_median_ns", median.to_json()),
        ("wall_min_ns", wall_ns[0].to_json()),
        ("wall_max_ns", wall_ns[RUNS - 1].to_json()),
        ("mb_per_s", mb_per_s.to_json()),
        (
            "speedup_vs_baseline",
            base_median.map_or(Json::Null, |b| (b / median as f64).to_json()),
        ),
    ])
}

/// Sorted wall times of `RUNS` reads of `path`, each checked against
/// `expect`.
fn time_reads(path: &Path, expect: &LoadMatrix, name: &str) -> Vec<u64> {
    let mut wall_ns: Vec<u64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let back = read_csv(path).expect("read bench input");
            let ns = start.elapsed().as_nanos() as u64;
            assert!(&back == expect, "{name}: read_csv changed the matrix");
            ns
        })
        .collect();
    wall_ns.sort_unstable();
    wall_ns
}

fn main() {
    let path = format!("{}/../../BENCH_io.json", env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| rectpart_json::parse(&text).ok())
        .and_then(|doc| doc.get("baseline").cloned());
    let cases = vec![
        measure("peak4096", &peak(4096, 4096, 1).build(), baseline.as_ref()),
        measure(
            "uniform4096",
            &uniform(4096, 4096, 3).build(),
            baseline.as_ref(),
        ),
        measure("pic512", &pic_snapshot(), baseline.as_ref()),
    ];
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::obj(vec![
        ("benchmark", "csv-ingest".to_json()),
        ("host_cores", host_cores.to_json()),
        (
            "note",
            "rectpart_workloads::io::read_csv on write_csv output read from \
             the page cache, one thread. Wall times (median and min-max of \
             `runs` reads) are only comparable on the same machine; \
             `baseline` holds the same cases timed at an earlier commit on \
             the machine that recorded this file, and is kept verbatim on \
             re-runs. MB/s is 10^6 bytes per second at the median."
                .to_json(),
        ),
        ("cases", Json::Arr(cases)),
        ("baseline", baseline.unwrap_or(Json::Null)),
    ]);
    std::fs::write(&path, rectpart_json::to_string_pretty(&doc)).expect("write bench export");
    eprintln!("wrote {path}");
}
