//! Acceptance contract of the `benchdiff` binary: self-diff of a real
//! committed baseline exits 0; a +10% injected counter regression
//! exits nonzero; garbage input exits 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use rectpart_json::Json;

fn benchdiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args(args)
        .output()
        .expect("spawn benchdiff binary")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rectpart-benchdiff-{}-{name}", std::process::id()))
}

/// The committed substrate baseline at the workspace root.
fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_substrate.json")
}

/// The committed resident-engine baseline at the workspace root.
fn engine_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

#[test]
fn self_diff_of_committed_baseline_exits_zero() {
    let baseline = baseline_path();
    let out = benchdiff(&[
        baseline.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Multiplies every integer leaf under the named key by `pct` percent.
/// Returns how many leaves were inflated.
fn inflate_key(json: &mut Json, name: &str, pct: u64) -> usize {
    match json {
        Json::Obj(fields) => {
            let mut n = 0;
            for (key, value) in fields.iter_mut() {
                if let Json::UInt(u) = value {
                    if key == name {
                        *u += (*u * pct) / 100;
                        n += 1;
                    }
                } else {
                    n += inflate_key(value, name, pct);
                }
            }
            n
        }
        Json::Arr(items) => items.iter_mut().map(|j| inflate_key(j, name, pct)).sum(),
        _ => 0,
    }
}

#[test]
fn self_diff_of_committed_engine_baseline_exits_zero() {
    let baseline = engine_baseline_path();
    let out = benchdiff(&[
        baseline.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The engine report's warm/cold counter leaves participate in the
/// gate: more work units on the warm path than the committed baseline
/// is a perf regression of the resident engine.
#[test]
fn injected_engine_work_regression_exits_nonzero() {
    let baseline = engine_baseline_path();
    let mut doc = rectpart_json::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    let inflated = inflate_key(&mut doc, "work_units", 10);
    assert!(
        inflated >= 4,
        "engine baseline must price work units for both paths of both series"
    );
    let regressed = tmp("engine-regressed.json");
    std::fs::write(&regressed, doc.to_string_pretty()).unwrap();
    let out = benchdiff(&[baseline.to_str().unwrap(), regressed.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("work_units"), "{stderr}");
    // An improvement in the same leaves is never a failure.
    let out = benchdiff(&[
        regressed.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_file(&regressed).ok();
}

#[test]
fn injected_ten_percent_op_regression_exits_nonzero() {
    let baseline = baseline_path();
    let mut doc = rectpart_json::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    let inflated = inflate_key(&mut doc, "scratch_allocs", 10);
    assert!(
        inflated > 0,
        "baseline must contain scratch_allocs counters"
    );
    let regressed = tmp("regressed.json");
    std::fs::write(&regressed, doc.to_string_pretty()).unwrap();
    // +10% trips the default 2% gate ...
    let out = benchdiff(&[baseline.to_str().unwrap(), regressed.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regressed"), "{stderr}");
    assert!(stderr.contains("scratch_allocs"), "{stderr}");
    // ... and passes a gate slacker than the injection.
    let out = benchdiff(&[
        baseline.to_str().unwrap(),
        regressed.to_str().unwrap(),
        "--tolerance",
        "15",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The reverse direction (an improvement) is never a failure.
    let out = benchdiff(&[
        regressed.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_file(&regressed).ok();
}

#[test]
fn usage_and_io_errors_exit_two() {
    assert_eq!(benchdiff(&[]).status.code(), Some(2));
    assert_eq!(benchdiff(&["a.json"]).status.code(), Some(2));
    assert_eq!(
        benchdiff(&["/nonexistent/a.json", "/nonexistent/b.json"])
            .status
            .code(),
        Some(2)
    );
    let bad = tmp("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    let baseline = baseline_path();
    assert_eq!(
        benchdiff(&[baseline.to_str().unwrap(), bad.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        benchdiff(&[
            baseline.to_str().unwrap(),
            baseline.to_str().unwrap(),
            "--tolerance",
            "lots"
        ])
        .status
        .code(),
        Some(2)
    );
    std::fs::remove_file(&bad).ok();
}
