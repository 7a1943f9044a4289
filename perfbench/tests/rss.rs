//! `peak_rss_mb` is the measuring process's `VmHWM`, and it must not
//! include the input generator. This runs `perfbench run` itself, cut to
//! one op, and compares the generator's peak with the measuring
//! process's peak before it reads the inputs and when the ops end.

use std::process::Command;

/// The number between `prefix` and `suffix` on the first line holding
/// `prefix`.
fn number_after(text: &str, prefix: &str, suffix: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let rest = &l[l.find(prefix)? + prefix.len()..];
            rest[..rest.find(suffix)?].trim().parse().ok()
        })
        .unwrap_or_else(|| panic!("no {prefix:?} … {suffix:?} in {text}"))
}

#[test]
fn peak_rss_excludes_the_generator() {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rss-run");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["run", "--workload", "exact-pic", "--seed", "3"])
        .args(["--seconds", "0", "--trace", "0", "--max-ops", "1"])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let generator = number_after(&stdout, "generator peak RSS", "MiB");
    let before_read = number_after(&stdout, "MiB; this process", "MiB before");
    let last = stdout.lines().last().expect("a result line");
    let peak = number_after(last, "\"peak_rss_mb\": {\"value\":", ",");
    assert!(last.contains("\"correct\": true"), "{last}");
    // The generator simulates 1M particles per PIC-MAG run; the measuring
    // process holds at most the 10 snapshots of 1 MiB and one Γ.
    assert!(generator > 40.0, "generator peak {generator} MiB");
    assert!(
        before_read < 8.0,
        "measuring process peak {before_read} MiB before reading the inputs"
    );
    assert!(
        peak < generator - 8.0,
        "peak_rss_mb {peak} MiB vs generator {generator} MiB"
    );
    let _ = std::fs::remove_dir_all(&work);
}
