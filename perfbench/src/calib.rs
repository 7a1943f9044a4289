//! A fixed reference kernel, timed beside the ops, that puts op CPU times
//! on one scale however loaded the host is.
//!
//! The benchmark runs on cores shared with other tenants. Their load does
//! not show in CPU time as waiting, but it slows the core itself (a busy
//! sibling hyperthread, shared caches): the same ops' CPU time doubled for
//! many minutes at a time. The kernel below is code of the benchmark's
//! own that no change to the program touches, with the program's kind of
//! work: parse decimal text, build a 2-D prefix table, binary-search it.
//! It is timed after every op and every set-up, and each CPU time is
//! scaled by `NOMINAL_MS / kernel time` near it, which cancels most of
//! the slowdown both share.

use crate::stats;

/// The scale: scaled times are CPU times on a core on which the kernel
/// takes this long, ms. Chosen so that on the development host (2-core
/// Xeon VM) the scaled times under neighbour load came out near the CPU
/// times measured there without it.
pub const NOMINAL_MS: f64 = 4.0;

/// Kernel runs on each side of an op that its scale factor is the median
/// of.
const WINDOW: usize = 8;

/// The kernel's inputs, made once.
pub struct Reference {
    /// Comma-separated decimal fields, like a load CSV.
    csv: Vec<u8>,
    /// Parsed fields, reused.
    fields: Vec<u32>,
    /// A 2-D prefix-sum table, like a 512² Γ (2 MiB).
    table: Vec<u64>,
    /// Pseudo-random state of the searches.
    state: u64,
}

const SIDE: usize = 513;
/// At least `SIDE²`: the table takes its cells from the fields.
const FIELDS: usize = 1 << 19;
const _: () = assert!(FIELDS >= SIDE * SIDE);
const SEARCHES: usize = 100_000;

impl Reference {
    /// Builds the kernel's fixed inputs.
    pub fn new() -> Reference {
        let mut csv = Vec::with_capacity(FIELDS * 5);
        let mut z = 7u64;
        for i in 0..FIELDS {
            z = lcg(z);
            csv.extend_from_slice(((z >> 40) % 5000).to_string().as_bytes());
            csv.push(if i % 512 == 511 { b'\n' } else { b',' });
        }
        Reference {
            csv,
            fields: Vec::with_capacity(FIELDS),
            table: vec![0; SIDE * SIDE],
            state: 1,
        }
    }

    /// Runs the kernel: parse the CSV, build the prefix table from the
    /// fields, then binary-search its rows. Returns its CPU time, ms. Its
    /// data is read once first, untimed, so how much of it the op before
    /// evicted from cache does not count.
    pub fn time_ms(&mut self) -> f64 {
        let warm =
            self.csv.iter().map(|&b| u64::from(b)).sum::<u64>() + self.table.iter().sum::<u64>();
        std::hint::black_box(warm);
        let cpu0 = stats::process_cpu_s();
        std::hint::black_box(self.kernel());
        (stats::process_cpu_s() - cpu0) * 1e3
    }

    fn kernel(&mut self) -> u64 {
        self.fields.clear();
        let mut v = 0u32;
        for &b in &self.csv {
            if b.is_ascii_digit() {
                v = v * 10 + u32::from(b - b'0');
            } else {
                self.fields.push(v);
                v = 0;
            }
        }
        let n = SIDE;
        for r in 1..n {
            for c in 1..n {
                let cell = u64::from(self.fields[r * n + c]);
                self.table[r * n + c] =
                    cell + self.table[(r - 1) * n + c] + self.table[r * n + c - 1]
                        - self.table[(r - 1) * n + c - 1];
            }
        }
        let mut acc = 0u64;
        for _ in 0..SEARCHES {
            self.state = lcg(self.state);
            let r = 1 + (self.state >> 33) as usize % (n - 1);
            let row = &self.table[r * n..(r + 1) * n];
            let target = (self.state >> 7) % row[n - 1].max(1);
            acc = acc.wrapping_add(row.partition_point(|&x| x < target) as u64);
        }
        acc
    }
}

fn lcg(z: u64) -> u64 {
    z.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Scales each `times[i]` by `NOMINAL_MS` over the median of the kernel
/// times `refs[i − WINDOW ..= i + WINDOW]` (clipped to the run).
/// `refs` holds one kernel time per entry of `times`.
pub fn scaled(times: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(times.len(), refs.len(), "one kernel time per op");
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let window = &refs[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(refs.len())];
            let local = stats::median(window).unwrap_or(NOMINAL_MS);
            t * NOMINAL_MS / local
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_shared_slowdown() {
        // The second half of the run is twice as slow, ops and kernel alike.
        let times: Vec<f64> = [10.0; 20].into_iter().chain([20.0; 20]).collect();
        let refs: Vec<f64> = [3.0; 20].into_iter().chain([6.0; 20]).collect();
        let out = scaled(&times, &refs);
        assert_eq!(out.len(), 40);
        let expected = 10.0 * NOMINAL_MS / 3.0;
        for i in (0..20 - WINDOW).chain(20 + WINDOW..40) {
            assert!((out[i] - expected).abs() < 1e-9, "{i}: {out:?}");
        }
        let at_nominal = scaled(&[4.0], &[NOMINAL_MS]);
        assert_eq!(at_nominal, vec![4.0]);
    }

    #[test]
    fn kernel_is_deterministic_work() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.kernel(), b.kernel());
        assert!(a.time_ms() > 0.0);
    }
}
