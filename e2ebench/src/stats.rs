//! Latency summaries under the sample-count rule: a percentile is
//! reported only when at least ten samples lie beyond it, and every
//! reported percentile states how many samples it came from.

use egobtw_telemetry::percentile_sorted;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples that support quantile `q` (`0 < q < 1`):
/// `n · (1 − q) ≥ MIN_BEYOND`.
pub fn min_samples(q: f64) -> usize {
    // The epsilon keeps 10 / 0.01 from rounding up to 1001.
    (MIN_BEYOND as f64 / (1.0 - q) - 1e-6).ceil() as usize
}

/// One reported percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile, e.g. 0.99.
    pub q: f64,
    /// Its value in microseconds.
    pub us: f64,
    /// How many samples it came from.
    pub samples: usize,
}

/// Latency samples of one request class, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
    sorted: bool,
}

impl Latencies {
    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Adds the sample, if there is one.
    pub fn extend(&mut self, ns: Option<u64>) {
        if let Some(ns) = ns {
            self.record(ns);
        }
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: Latencies) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.ns.iter().map(|&x| u128::from(x)).sum()
    }

    /// Quantile `q`, or `None` when fewer than [`min_samples`]`(q)`
    /// samples support it.
    pub fn percentile(&mut self, q: f64) -> Option<Percentile> {
        if self.ns.len() < min_samples(q) {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(Percentile {
            q,
            us: percentile_sorted(&self.ns, q)? / 1e3,
            samples: self.ns.len(),
        })
    }

    /// Like [`Latencies::percentile`], but a missing percentile is an
    /// error naming the shortfall.
    pub fn require(&mut self, what: &str, q: f64) -> Result<Percentile, String> {
        let have = self.len();
        self.percentile(q).ok_or_else(|| {
            format!(
                "{what}: p{} needs {} samples, the run produced {have}",
                q * 100.0,
                min_samples(q)
            )
        })
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
