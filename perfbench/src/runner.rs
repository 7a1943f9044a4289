//! The closed measuring loop shared by every workload, and the metrics
//! it reports.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::{self, Reference};
use crate::stats;
use crate::trace::{self, Tracer};

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (summed op CPU time) before the run stops at the
    /// end of a cycle.
    pub seconds: f64,
    /// Record spans and program counters (the per-layer run).
    pub traced: bool,
    /// Stop after this many ops, even inside a pass (tiny runs in tests).
    pub max_ops: Option<usize>,
}

/// Everything one run measured.
pub struct Run {
    /// Span recorder (records only in the per-layer run).
    pub tracer: Tracer,
    /// CPU time of each set-up made before the first op, seconds.
    pub setup_s: Vec<f64>,
    /// CPU time of the reference kernel run after each set-up, ms.
    pub setup_ref_ms: Vec<f64>,
    /// CPU time of every op, ms.
    pub op_ms: Vec<f64>,
    /// CPU time of the reference kernel run after each op, ms.
    pub op_ref_ms: Vec<f64>,
    /// Wall time of every op, ms (printed, not in the result line).
    pub op_wall_ms: Vec<f64>,
    /// Ops in one pass over the workload's fixed op set (0 until the
    /// closed loop starts).
    pub pass_len: usize,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed verification.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// `Lmax / lower_bound(m)` of every answer in the fixed quality set.
    pub lmax_over_lb: Vec<f64>,
    /// Program counters (`rectpart-obs`) summed over ops.
    pub counters: BTreeMap<&'static str, u64>,
    /// Peak RSS of this process once the ops are done, before the final
    /// verification pass, MiB.
    pub peak_rss_mib: f64,
    /// Workload-specific per-layer metrics: name, value, unit.
    pub layer: Vec<(String, f64, &'static str)>,
    /// The reference kernel that puts CPU times on one scale.
    reference: Reference,
}

impl Run {
    /// An empty run.
    pub fn new(settings: &Settings) -> Run {
        Run {
            tracer: Tracer::new(settings.traced),
            setup_s: Vec::new(),
            setup_ref_ms: Vec::new(),
            op_ms: Vec::new(),
            op_ref_ms: Vec::new(),
            op_wall_ms: Vec::new(),
            pass_len: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            lmax_over_lb: Vec::new(),
            counters: BTreeMap::new(),
            peak_rss_mib: 0.0,
            layer: Vec::new(),
            reference: Reference::new(),
        }
    }

    /// Times `f` as one set-up, in CPU time, then times the reference
    /// kernel.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let cpu0 = stats::process_cpu_s();
        let out = f(&mut self.tracer);
        self.setup_s.push(stats::process_cpu_s() - cpu0);
        self.setup_ref_ms.push(self.reference.time_ms());
        out
    }

    /// Times `f` as op number `op`, in CPU and wall time, inside an `op`
    /// root span, then times the reference kernel. The program's counters
    /// are zeroed before and read after the op, both outside the timed
    /// region.
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let recorder = rectpart_obs::Recorder::global();
        recorder.reset();
        self.tracer.set_op(op);
        self.attempted += 1;
        let t0 = Instant::now();
        let cpu0 = stats::process_cpu_s();
        let out = self.tracer.span("op", f);
        self.op_ms.push((stats::process_cpu_s() - cpu0) * 1e3);
        self.op_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.op_ref_ms.push(self.reference.time_ms());
        for (name, v) in recorder.snapshot().counters {
            *self.counters.entry(name).or_default() += v;
        }
        out
    }

    /// Summed op CPU time, seconds.
    pub fn measured_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    /// Records a failed op.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Adds a workload-specific per-layer metric.
    pub fn layer_metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push((name.to_string(), value, unit));
    }

    /// Marks the end of the measured ops.
    pub fn finish_ops(&mut self) {
        self.peak_rss_mib = stats::peak_rss_mib().unwrap_or(0.0);
    }

    /// Program counter total (0 when absent or not compiled in).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-name span totals of the run.
    pub fn layers(&self) -> BTreeMap<String, trace::LayerTotal> {
        trace::layer_totals(self.tracer.spans())
    }
}

/// Runs whole passes over a fixed set of `set_len` ops until
/// `settings.seconds` of op CPU time are measured, at least one pass.
/// `op(run, i)` runs op `i`, which is op `i % set_len` of the set, so a
/// longer run repeats the same ops and a faster program does not change
/// the op mix behind the percentiles.
pub fn closed_loop(
    run: &mut Run,
    settings: &Settings,
    set_len: usize,
    mut op: impl FnMut(&mut Run, usize),
) {
    let max_ops = settings.max_ops.unwrap_or(usize::MAX);
    run.pass_len = set_len;
    let mut i = 0;
    while i == 0 || run.measured_s() < settings.seconds {
        for _ in 0..set_len {
            if i == max_ops {
                return;
            }
            op(run, i);
            i += 1;
        }
    }
}

/// A named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The op tail of `op_ms`, a run's op times: the tail of each whole
/// pass over the op set of `pass_len` ops, and their median. The
/// percentile then stays the same however many passes a run makes. A run
/// cut inside its first pass is one pass. Returns the tail and the number
/// of passes.
pub fn pass_tail(op_ms: &[f64], pass_len: usize) -> Option<(stats::Tail, usize)> {
    let len = match pass_len {
        0 => op_ms.len(),
        n => n.min(op_ms.len()),
    };
    let tails: Vec<stats::Tail> = op_ms
        .chunks_exact(len.max(1))
        .filter_map(stats::tail)
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let first = *tails.first()?;
    Some((
        stats::Tail {
            value: stats::median(&values)?,
            ..first
        },
        tails.len(),
    ))
}

/// End-to-end metrics of a run, plus the printed-only extras. Times are
/// CPU times scaled to an uncontended core by the reference kernel.
pub fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<String>) {
    let op_ms = calib::scaled(&run.op_ms, &run.op_ref_ms);
    let setup_s = calib::scaled(&run.setup_s, &run.setup_ref_ms);
    let (tail, passes) = pass_tail(&op_ms, run.pass_len).expect("a run makes at least one op");
    let ops = op_ms.len() as f64;
    let metrics = vec![
        metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
        metric("op_p50_norm_ms", stats::median(&op_ms).unwrap_or(0.0), "ms"),
        metric("op_tail_norm_ms", tail.value, "ms"),
        metric(
            "ops_per_norm_s",
            ops * 1e3 / op_ms.iter().sum::<f64>(),
            "1/s",
        ),
        metric(
            "lmax_over_lb",
            stats::geomean(&run.lmax_over_lb).unwrap_or(0.0),
            "ratio",
        ),
        metric("peak_rss_mb", run.peak_rss_mib, "MiB"),
    ];
    let mut notes = vec![format!(
        "op_tail_norm_ms is p{:.1} over the {} ops of a pass, median of {} passes{}",
        tail.percentile,
        tail.samples,
        passes,
        if tail.resolved {
            ""
        } else {
            " (run too short for 10 samples beyond any percentile: maximum reported)"
        }
    )];
    notes.push(format!(
        "fail_ratio = {} ({} of {} ops)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    ));
    let wall_s = run.op_wall_ms.iter().sum::<f64>() / 1e3;
    notes.push(format!(
        "unscaled (not in the result line): op p50 {:.3} ms CPU, {:.3} ms wall; {:.4} ops/s wall; reference kernel median {:.3} ms CPU (nominal {} ms)",
        stats::median(&run.op_ms).unwrap_or(0.0),
        stats::median(&run.op_wall_ms).unwrap_or(0.0),
        ops / wall_s,
        stats::median(&run.op_ref_ms).unwrap_or(0.0),
        calib::NOMINAL_MS,
    ));
    notes.push(format!(
        "setup_s is the median scaled CPU time of {} set-ups; lmax_over_lb over {} answers",
        run.setup_s.len(),
        run.lmax_over_lb.len()
    ));
    (metrics, notes)
}

/// Share of op wall time not covered by any layer span.
pub fn unattributed_ratio(run: &Run) -> f64 {
    let spans = run.tracer.spans();
    let self_ns = trace::self_times_ns(spans);
    let (mut root, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_ns) {
        if s.parent.is_none() && s.name == "op" {
            root += s.dur_ns();
            uncovered += own;
        }
    }
    if root == 0 {
        0.0
    } else {
        uncovered as f64 / root as f64
    }
}

/// Per-layer span shares of op time, for the printed breakdown.
pub fn layer_shares(run: &Run) -> Vec<(String, f64, u64)> {
    let spans = run.tracer.spans();
    let op_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "op")
        .map(|s| s.dur_ns())
        .sum();
    // Only spans inside ops count; set-up spans have no op ancestor.
    let in_op: Vec<bool> = {
        let mut v = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            v[i] = match s.parent {
                None => s.name == "op",
                Some(p) => v[p],
            };
        }
        v
    };
    let self_ns = trace::self_times_ns(spans);
    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for ((s, own), inside) in spans.iter().zip(self_ns).zip(in_op) {
        if inside && s.parent.is_some() {
            let e = by_name.entry(s.name.clone()).or_default();
            e.0 += own;
            e.1 += 1;
        }
    }
    let mut out: Vec<(String, f64, u64)> = by_name
        .into_iter()
        .map(|(name, (ns, calls))| (name, ns as f64 / op_ns.max(1) as f64, calls))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(traced: bool) -> Settings {
        Settings {
            seed: 1,
            seconds: 0.0,
            traced,
            max_ops: None,
        }
    }

    #[test]
    fn closed_loop_runs_whole_passes_over_the_op_set() {
        let mut settings = settings(false);
        let mut run = Run::new(&settings);
        let mut seen = Vec::new();
        closed_loop(&mut run, &settings, 5, |run, i| {
            run.op(i as u64, |_| ());
            seen.push(i);
        });
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
        assert_eq!(run.attempted, 5);
        assert_eq!(run.op_ms.len(), 5);

        // Ops of 1 ms against 6 ms: a pass of 5 falls short, so a second
        // whole pass runs, and no third.
        settings.seconds = 0.006;
        let mut run = Run::new(&settings);
        closed_loop(&mut run, &settings, 5, |run, _| run.op_ms.push(1.0));
        assert_eq!(run.op_ms.len(), 10);

        settings.max_ops = Some(3);
        let mut run = Run::new(&settings);
        closed_loop(&mut run, &settings, 5, |run, i| run.op(i as u64, |_| ()));
        assert_eq!(run.attempted, 3);
    }

    #[test]
    fn tail_is_the_median_of_per_pass_tails() {
        let mut run = Run::new(&settings(false));
        run.pass_len = 20;
        // Pass tails (rank 10 of 20): 10, 30, 20.
        for base in [0.0, 20.0, 10.0] {
            run.op_ms.extend((1..=20).map(|x| base + f64::from(x)));
        }
        let (tail, passes) = pass_tail(&run.op_ms, run.pass_len).unwrap();
        assert_eq!(passes, 3);
        assert_eq!(
            (tail.value, tail.percentile, tail.samples),
            (20.0, 50.0, 20)
        );

        // A run cut inside its first pass is one pass.
        run.op_ms.truncate(12);
        let (tail, passes) = pass_tail(&run.op_ms, run.pass_len).unwrap();
        assert_eq!((passes, tail.value, tail.samples), (1, 2.0, 12));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut run = Run::new(&settings(false));
        run.op(0, |_| ());
        run.fail("x".into());
        let line = result_line(&run, &[metric("op_p50_norm_ms", 1.25, "ms")]);
        let doc = rectpart_json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|j| j.as_bool()), Some(false));
        assert_eq!(doc.get("attempted").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(doc.get("failed").and_then(|j| j.as_u64()), Some(1));
        let m = doc
            .get("metrics")
            .and_then(|j| j.get("op_p50_norm_ms"))
            .unwrap();
        assert_eq!(m.get("value").and_then(|j| j.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|j| j.as_str()), Some("ms"));
    }

    #[test]
    fn unattributed_is_op_self_time_share() {
        let mut run = Run::new(&settings(true));
        run.op(0, |t| {
            t.span("layer", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let u = unattributed_ratio(&run);
        assert!((0.0..0.5).contains(&u), "{u}");
        let shares = layer_shares(&run);
        assert_eq!(shares[0].0, "layer");
        assert!(shares[0].1 > 0.5);
    }
}
