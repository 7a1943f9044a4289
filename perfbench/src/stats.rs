//! Summary statistics of one run: median, the tail percentile, the
//! geometric mean, the process's CPU clock and its peak resident set.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile of `xs` that has at least
/// [`TAIL_SAMPLES_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Value at that percentile.
    pub value: f64,
    /// The percentile, in percent (`100 · rank / n`).
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// `false` when the run has too few samples for any percentile to
    /// leave ten beyond it; `value` is then the maximum.
    pub resolved: bool,
}

/// Tail of `xs`: the sample at rank `n − 10` (1-based, ascending), so
/// exactly ten samples lie beyond it. A run with ten or fewer samples has
/// no such percentile; it reports its maximum with `resolved = false`.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    let max = *v.last()?;
    if n <= TAIL_SAMPLES_BEYOND {
        return Some(Tail {
            value: max,
            percentile: 100.0,
            samples: n,
            resolved: false,
        });
    }
    let rank = n - TAIL_SAMPLES_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        resolved: true,
    })
}

/// Geometric mean of positive values; `None` if empty or any value is
/// not strictly positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty()
        || xs
            .iter()
            .any(|&x| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Parses the `VmHWM` line (peak resident set, in kB) of a
/// `/proc/<pid>/status` document into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mib)
}

/// CPU time this process has used so far, all its threads, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it does not count time
/// the process waited for a core, so it reads the same on a busy shared
/// host as on an idle one.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout on 64-bit
    // Linux, and the clock id is one the kernel always has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert!(t.resolved);
        assert_eq!(t.samples, 40);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_at_one_hundred_samples_is_p90() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
    }

    #[test]
    fn short_runs_are_flagged() {
        assert_eq!(tail(&[]), None);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert!(!t.resolved);
        assert_eq!(t.value, 10.0);
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(t.resolved);
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[1.25; 7]).unwrap();
        assert!((g - 1.25).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_s();
        assert!(t0 > 0.0);
        let mut x = 0u64;
        let mut last = t0;
        while last - t0 < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
            let now = process_cpu_s();
            assert!(now >= last, "CPU clock went back: {last} -> {now}");
            last = now;
        }
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = peak_rss_mib().expect("/proc/self/status has VmHWM");
        assert!(mib > 0.0);
    }
}
