//! JAG-M-OPT at paper scale: wall time and feasibility-DP counters of
//! the exact m-way jagged solver, with a machine-readable export.
//!
//! Two instances, both solved as `JAG-M-OPT-BEST` under a one-thread
//! budget: the 512² PIC-MAG snapshot at m = 784 (the paper's fig. 7
//! range) and a 1024² peak at m = 256. Each case is solved `RUNS` times;
//! the report keeps the median wall time with its min–max band, the
//! deterministic counters (identical on every run and every host), the
//! answer's Lmax and an FNV-1a hash of its rectangles.
//!
//! A `baseline` object already present in `BENCH_jag_m.json` is carried
//! over verbatim: it holds the same cases timed at an earlier commit on
//! the same host, and each case reports its wall-time speedup against
//! it. Wall times are only comparable on one machine; `benchdiff` gates
//! on the integer counters and Lmax only. Counter fields are zero unless
//! built with `--features obs`.

use std::time::Instant;

use rectpart_core::{JagMOpt, LoadMatrix, Partition, Partitioner, PrefixSum2D};
use rectpart_json::{Json, ToJson};
use rectpart_parallel::with_threads;
use rectpart_workloads::{peak, PicConfig, PicSimulation};

/// Solves per case; the median is the reported wall time.
const RUNS: usize = 5;

/// Counters reported per case, as (report label, obs counter name).
const KEYS: &[(&str, &str)] = &[
    ("feasibility_checks", "core.jag_m.feasibility_checks"),
    ("lazy_evals", "core.jag_m.lazy_evals"),
    ("need_reuses", "core.jag_m.need_reuses"),
];

/// The second snapshot of the default 512² PIC-MAG run (one million
/// particles), as the `exact-pic` benchmark workload uses.
fn pic_snapshot() -> LoadMatrix {
    let mut sim = PicSimulation::new(PicConfig::default());
    sim.next_snapshot();
    sim.next_snapshot().matrix
}

fn rects_fnv(part: &Partition) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in part.rects() {
        for v in [r.r0, r.r1, r.c0, r.c1] {
            for b in (v as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// Solves one case `RUNS` times and returns its report entry.
fn measure(name: &str, matrix: &LoadMatrix, m: usize, baseline: Option<&Json>) -> Json {
    let pfx = PrefixSum2D::new(matrix);
    let rec = rectpart_obs::Recorder::global();
    let mut wall_ns = Vec::with_capacity(RUNS);
    let mut first: Option<(Partition, Vec<u64>)> = None;
    for _ in 0..RUNS {
        rec.reset();
        let start = Instant::now();
        let part = with_threads(1, || JagMOpt::default().partition(&pfx, m));
        wall_ns.push(start.elapsed().as_nanos() as u64);
        let report = rec.snapshot();
        let counters: Vec<u64> = KEYS
            .iter()
            .map(|&(_, key)| report.get(key).unwrap_or(0))
            .collect();
        match &first {
            Some((p, c)) => {
                assert_eq!(
                    p.rects(),
                    part.rects(),
                    "{name}: answer changed between runs"
                );
                assert_eq!(c, &counters, "{name}: counters changed between runs");
            }
            None => first = Some((part, counters)),
        }
    }
    let (part, counters) = first.expect("RUNS >= 1");
    wall_ns.sort_unstable();
    let median = wall_ns[RUNS / 2];
    eprintln!(
        "{name}: median {:.3} s (min {:.3}, max {:.3})",
        median as f64 / 1e9,
        wall_ns[0] as f64 / 1e9,
        wall_ns[RUNS - 1] as f64 / 1e9
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
    let counters_json = Json::obj(
        KEYS.iter()
            .zip(&counters)
            .map(|(&(label, _), &v)| (label, v.to_json()))
            .collect(),
    );
    Json::obj(vec![
        ("case", name.to_json()),
        ("rows", matrix.rows().to_json()),
        ("cols", matrix.cols().to_json()),
        ("m", m.to_json()),
        ("runs", RUNS.to_json()),
        ("wall_median_ns", median.to_json()),
        ("wall_min_ns", wall_ns[0].to_json()),
        ("wall_max_ns", wall_ns[RUNS - 1].to_json()),
        (
            "speedup_vs_baseline",
            base_median.map_or(Json::Null, |b| (b / median as f64).to_json()),
        ),
        ("lmax", part.lmax(&pfx).to_json()),
        ("lower_bound", pfx.lower_bound(m).to_json()),
        ("rects_fnv", rects_fnv(&part).to_json()),
        ("counters", counters_json),
    ])
}

fn main() {
    let path = format!("{}/../../BENCH_jag_m.json", env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| rectpart_json::parse(&text).ok())
        .and_then(|doc| doc.get("baseline").cloned());
    let cases = vec![
        measure("pic512-m784", &pic_snapshot(), 784, baseline.as_ref()),
        measure(
            "peak1024-m256",
            &peak(1024, 1024, 0).build(),
            256,
            baseline.as_ref(),
        ),
    ];
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::obj(vec![
        ("benchmark", "jag-m-opt-paper-scale".to_json()),
        ("host_cores", host_cores.to_json()),
        (
            "instrumented",
            rectpart_obs::Recorder::global().enabled().to_json(),
        ),
        ("threads", 1usize.to_json()),
        (
            "note",
            "JAG-M-OPT-BEST, one solver thread, Γ build excluded. Wall times \
             (median and min-max of `runs` solves) are only comparable on \
             the same machine; `baseline` holds the same cases timed at an \
             earlier commit on the machine that recorded this file, and is \
             kept verbatim on re-runs. Counters are deterministic and zero \
             unless built with --features obs."
                .to_json(),
        ),
        ("cases", Json::Arr(cases)),
        ("baseline", baseline.unwrap_or(Json::Null)),
    ]);
    std::fs::write(&path, rectpart_json::to_string_pretty(&doc)).expect("write bench export");
    eprintln!("wrote {path}");
}
