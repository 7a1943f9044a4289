//! End-to-end exit-code contract of the `rectpart` binary: scripts and
//! batch drivers distinguish usage errors (2) from invalid input (3)
//! from budget exhaustion (4) from unusable snapshots (5) from internal
//! failures (1).

use std::path::PathBuf;
use std::process::{Command, Output};

fn rectpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rectpart"))
        .args(args)
        .output()
        .expect("spawn rectpart binary")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rectpart-exit-{}-{name}", std::process::id()))
}

#[test]
fn help_and_success_exit_zero() {
    let out = rectpart(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let out = rectpart(&["algos"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("JAG-M-OPT-BEST"));
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["frobnicate"][..],
        &["partition", "--input", "a.csv"][..], // missing -m
        &["partition", "--input", "a.csv", "-m", "nope"][..],
        &["generate", "--class", "peak", "--rows", "4"][..], // missing cols/out
    ] {
        let out = rectpart(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn invalid_input_exits_three() {
    // Nonexistent file.
    let out = rectpart(&["partition", "--input", "/nonexistent/x.csv", "-m", "4"]);
    assert_eq!(out.status.code(), Some(3));
    // Ragged CSV.
    let ragged = tmp("ragged.csv");
    std::fs::write(&ragged, "1,2,3\n4,5\n").unwrap();
    let out = rectpart(&["partition", "--input", ragged.to_str().unwrap(), "-m", "2"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Infeasible m (more parts than cells).
    let tiny = tmp("tiny.csv");
    std::fs::write(&tiny, "1,2\n3,4\n").unwrap();
    let out = rectpart(&["partition", "--input", tiny.to_str().unwrap(), "-m", "9"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = rectpart(&["partition", "--input", tiny.to_str().unwrap(), "-m", "0"]);
    assert_eq!(out.status.code(), Some(3));
    std::fs::remove_file(&ragged).ok();
    std::fs::remove_file(&tiny).ok();
}

#[test]
fn bad_cell_exits_three_and_names_its_line_and_field() {
    // Line 4 of the file (the blank line 2 counts), third field.
    let input = tmp("badcell.csv");
    std::fs::write(&input, "1,2,3\n\n4,5,6\n7,8,x9\n").unwrap();
    let out = rectpart(&["partition", "--input", input.to_str().unwrap(), "-m", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("line 4, field 3"), "{stderr}");
    assert!(stderr.contains("\"x9\""), "{stderr}");
    // A ragged row names its line too.
    std::fs::write(&input, "1,2,3\r\n\r\n4,5\r\n").unwrap();
    let out = rectpart(&["partition", "--input", input.to_str().unwrap(), "-m", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("line 3"), "{stderr}");
    std::fs::remove_file(&input).ok();
}

#[test]
fn exhausted_budget_exits_four_and_reports_the_ladder() {
    let input = tmp("budget.csv");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--budget",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget"), "{stderr}");
    assert!(stderr.contains("skipped"), "{stderr}");
    std::fs::remove_file(&input).ok();
}

#[test]
fn budgeted_run_that_fits_exits_zero_with_fallback_report() {
    let input = tmp("fallback.csv");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--budget",
        "1000000",
        "--fallback",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fallback:"), "{stdout}");
    assert!(stdout.contains("answered"), "{stdout}");
    std::fs::remove_file(&input).ok();
}

#[test]
fn checkpointed_run_resumes_with_exit_zero_and_identical_report() {
    let input = tmp("resume.csv");
    let snap = tmp("resume.snap");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--checkpoint",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let watched = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(watched.contains("checkpoint    ->"), "{watched}");
    assert!(snap.exists(), "checkpoint file must be left behind");
    // Resume from the snapshot in a fresh process: exit 0 and the same
    // partition-quality report (everything before the checkpoint line).
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--resume",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = String::from_utf8_lossy(&out.stdout).to_string();
    let quality = |s: &str| {
        s.lines()
            .take_while(|l| !l.contains("checkpoint") && !l.starts_with("fallback:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(quality(&resumed), quality(&watched));
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn corrupt_or_mismatched_snapshots_exit_five() {
    let input = tmp("snap5.csv");
    let snap = tmp("snap5.snap");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    // Write a genuine checkpoint first.
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--checkpoint",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let pristine = std::fs::read_to_string(&snap).unwrap();

    // Torn write: a strict prefix of the file.
    std::fs::write(&snap, &pristine[..pristine.len() / 2]).unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--resume",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("snapshot"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Checksum corruption: one flipped payload byte under an intact
    // footer.
    let mut evil = pristine.clone().into_bytes();
    evil[10] ^= 0x01;
    std::fs::write(&snap, &evil).unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--resume",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(5));

    // A pristine snapshot resumed against the wrong instance.
    std::fs::write(&snap, &pristine).unwrap();
    let other = tmp("snap5-other.csv");
    std::fs::write(&other, "16,15,14,13\n12,11,10,9\n8,7,6,5\n4,3,2,1\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        other.to_str().unwrap(),
        "-m",
        "4",
        "--resume",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&other).ok();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn stats_json_reports_budget_and_fallback_ladder() {
    let input = tmp("stats.csv");
    let stats = tmp("stats.json");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--budget",
        "1000000",
        "--fallback",
        "--stats",
        stats.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = rectpart_json::parse(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    assert_eq!(json.get("budget").and_then(|j| j.as_u64()), Some(1_000_000));
    let ladder = json
        .get("fallback")
        .and_then(|j| j.as_array())
        .expect("fallback rung-name array");
    let names: Vec<&str> = ladder.iter().filter_map(|j| j.as_str()).collect();
    assert_eq!(
        names,
        vec!["JAG-M-HEUR-BEST", "JAG-M-OPT-BEST", "RECT-UNIFORM"]
    );
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&stats).ok();
}
