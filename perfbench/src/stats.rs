//! Small statistics helpers and process probes.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. Sorts in place; 0 for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Sub-buckets per power of two: a bucket is at most 1/128 (0.8 %) of
/// its lower bound wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// A fixed-size log-linear histogram of nanosecond samples. Recording
/// neither allocates nor locks, so every client thread keeps its own in
/// the timed loop, and its size does not grow with the number of samples
/// (nor, with it, the process's peak RSS).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            // Values below SUB get a bucket each; every power of two
            // above gets SUB.
            counts: vec![0; SUB * (65 - SUB_BITS as usize)],
            n: 0,
        }
    }
}

impl Histogram {
    pub fn from_ns(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut h = Histogram::default();
        for ns in samples {
            h.record(ns);
        }
        h
    }

    pub fn record(&mut self, ns: u64) {
        let index = if ns < SUB as u64 {
            ns as usize
        } else {
            let shift = 63 - ns.leading_zeros() - SUB_BITS;
            SUB + shift as usize * SUB + ((ns >> shift) as usize - SUB)
        };
        self.counts[index] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> usize {
        self.n as usize
    }

    /// Lower bound and width of bucket `index`.
    fn bucket(index: usize) -> (f64, f64) {
        if index < SUB {
            return (index as f64, 1.0);
        }
        let k = index - SUB;
        let shift = k / SUB;
        let lo = ((SUB + k % SUB) as u64) << shift;
        (lo as f64, (1u64 << shift) as f64)
    }

    /// The `q`-quantile (0..=1) in ns, at the same rank as [`quantile`],
    /// with the samples of a bucket taken as spread evenly over it; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (below + c) as f64 {
                let (lo, width) = Self::bucket(index);
                if width == 1.0 {
                    return lo;
                }
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).expect("n > 0");
        let (lo, width) = Self::bucket(last);
        lo + width
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The soft limit on open file descriptors.
pub fn fd_limit() -> String {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits
                .lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// On-CPU nanoseconds so far of this process's threads whose name starts
/// with `prefix` (from `/proc/self/task/*/schedstat`).
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|comm| comm.starts_with(prefix))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let samples: Vec<u64> = (1..=200_000u64).map(|i| i * 37 % 1_000_003).collect();
        let h = Histogram::from_ns(samples.iter().copied());
        let mut exact: Vec<f64> = samples.iter().map(|&n| n as f64).collect();
        assert_eq!(h.count(), samples.len());
        for q in [0.0, 0.1, 0.5, 0.95, 0.999, 1.0] {
            let e = quantile(&mut exact, q);
            let got = h.quantile(q);
            assert!(
                (got - e).abs() <= e / SUB as f64 + 1.0,
                "q={q}: {got} vs {e}"
            );
        }
        let mut merged = Histogram::from_ns([5, 1000]);
        merged.merge(&Histogram::from_ns([u64::MAX, 3]));
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.quantile(0.0), 3.0);
        assert!(merged.quantile(1.0) >= u64::MAX as f64 * 0.99);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
