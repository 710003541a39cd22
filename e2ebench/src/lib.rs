//! End-to-end TCP benchmark of the `egobtw-serve` daemon.
//!
//! One command runs one workload against the real daemon over loopback
//! TCP, checks the answers, and prints every end-to-end metric; a traced
//! run (`--trace 1`) instead prints per-layer timings taken by calling
//! each layer's public functions from this crate. See `README.md` for the
//! workloads, metrics and how to compare two commits.

pub mod affinity;
pub mod check;
pub mod daemon;
pub mod layers;
pub mod report;
pub mod scrape;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;

use report::Metric;
use workload::Outcome;

/// Requests per second of the window and the daemon's CPU time per
/// request: `(ops_per_s, cpu_us_per_op)`.
fn rates(outcome: &Outcome) -> (f64, f64) {
    let ops = outcome.window_completed as f64;
    (ops / outcome.window_s, outcome.daemon_cpu_s * 1e6 / ops)
}

/// The end-to-end metrics of one run, every one under the sample-count
/// rule.
///
/// They are the figures that stay put when the host does not: on a
/// shared 2-core host whose neighbours take the cores away for a
/// while (steal), latency medians moved by a sixth, while throughput and
/// tail percentiles of the microsecond-scale reads moved by half or more.
/// Those are in [`record_only`]. The daemon's CPU time per request stands
/// in for throughput: the time the host takes away is not charged to it.
pub fn end_to_end(outcome: &mut Outcome) -> Result<Vec<Metric>, String> {
    let read_p50 = outcome.reads.require("read_p50_us", 0.5)?;
    let update_p50 = outcome.updates.require("update_p50_us", 0.5)?;
    let (_, cpu_us_per_op) = rates(outcome);
    Ok(vec![
        Metric::counted(
            "setup_s",
            outcome.setup_median(),
            "s",
            outcome.setup_s.len(),
        ),
        Metric::counted("read_p50_us", read_p50.us, "us", read_p50.samples),
        Metric::counted("update_p50_us", update_p50.us, "us", update_p50.samples),
        Metric::counted(
            "cpu_us_per_op",
            cpu_us_per_op,
            "us",
            outcome.window_completed as usize,
        ),
        Metric::new("peak_rss_mb", outcome.peak_rss_mb, "MiB"),
        Metric::counted(
            "recovery_s",
            outcome.recovery_median(),
            "s",
            outcome.recovery_s.len(),
        ),
    ])
}

/// Figures the run record carries without a bound: throughput, and every
/// read and update tail percentile the sample supports. On the host this
/// benchmark was tuned on they swung with the neighbours' load by more
/// than any bound allows, so they inform but do not gate.
pub fn record_only(outcome: &mut Outcome) -> Vec<Metric> {
    let (ops_per_s, _) = rates(outcome);
    let mut out = vec![Metric::counted(
        "ops_per_s",
        ops_per_s,
        "1/s",
        outcome.window_completed as usize,
    )];
    let tails = [
        ("read_p90_us", outcome.reads.percentile(0.9)),
        ("read_p99_us", outcome.reads.percentile(0.99)),
        ("update_p90_us", outcome.updates.percentile(0.9)),
    ];
    out.extend(
        tails
            .into_iter()
            .filter_map(|(name, p)| p.map(|p| Metric::counted(name, p.us, "us", p.samples))),
    );
    out
}

/// The end-to-end figures the traced run reports beside its layers,
/// prefixed `traced.`: set beside an untraced run of the same seed, their
/// gap is the cost of tracing.
pub fn traced_end_to_end(outcome: &mut Outcome) -> Result<Vec<Metric>, String> {
    let read_p50 = outcome.reads.require("traced.read_p50_us", 0.5)?;
    let update_p50 = outcome.updates.require("traced.update_p50_us", 0.5)?;
    let (ops_per_s, _) = rates(outcome);
    Ok(vec![
        Metric::counted(
            "traced.ops_per_s",
            ops_per_s,
            "1/s",
            outcome.window_completed as usize,
        ),
        Metric::counted("traced.read_p50_us", read_p50.us, "us", read_p50.samples),
        Metric::counted(
            "traced.update_p50_us",
            update_p50.us,
            "us",
            update_p50.samples,
        ),
    ])
}
