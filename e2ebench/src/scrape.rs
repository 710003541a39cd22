//! Before/after diffs of the daemon's `METRICS` exposition — the same
//! surface an operator scrapes.

use egobtw_telemetry::prometheus::{self, Exposition};

/// Parses one `METRICS` reply.
pub fn parse(text: &str) -> Result<Exposition, String> {
    prometheus::parse(text).map_err(|e| format!("METRICS reply does not parse: {e}"))
}

/// Two scrapes of one daemon bracketing a measured interval.
pub struct Diff {
    before: Exposition,
    after: Exposition,
}

impl Diff {
    /// The diff `after − before`.
    pub fn new(before: Exposition, after: Exposition) -> Self {
        Diff { before, after }
    }

    /// Growth of the counter `name{labels ⊇ want}` (absent counts as 0).
    pub fn counter(&self, name: &str, want: &[(&str, &str)]) -> Result<f64, String> {
        let at = |e: &Exposition| e.value(name, want).map(|v| v.unwrap_or(0.0));
        Ok(at(&self.after)? - at(&self.before)?)
    }

    /// Growth in `(count, sum)` of the histogram family `name`, summed
    /// over every series whose labels contain `want`.
    pub fn histogram(&self, name: &str, want: &[(&str, &str)]) -> (u64, f64) {
        let at = |e: &Exposition| {
            e.histogram(name, want)
                .map_or((0, 0.0), |h| (h.count, h.sum))
        };
        let (c1, s1) = at(&self.after);
        let (c0, s0) = at(&self.before);
        (c1.saturating_sub(c0), s1 - s0)
    }

    /// Growth of several histogram series, one per `label=value` choice,
    /// added together.
    pub fn histogram_over(&self, name: &str, label: &str, values: &[&str]) -> (u64, f64) {
        values.iter().fold((0, 0.0), |(c, s), v| {
            let (dc, ds) = self.histogram(name, &[(label, v)]);
            (c + dc, s + ds)
        })
    }
}

/// The outcome accounting invariant of one scrape:
/// `admitted == completed + cancelled + failed`.
pub fn check_accounting(e: &Exposition) -> Result<(), String> {
    let get = |name: &str| -> Result<f64, String> {
        e.value(name, &[])?
            .ok_or_else(|| format!("{name} missing from METRICS"))
    };
    let admitted = get("egobtw_requests_admitted_total")?;
    let completed = get("egobtw_requests_completed_total")?;
    let cancelled = get("egobtw_requests_cancelled_total")?;
    let failed = get("egobtw_requests_failed_total")?;
    if admitted != completed + cancelled + failed {
        return Err(format!(
            "outcome accounting broken: admitted={admitted} != completed={completed} \
             + cancelled={cancelled} + failed={failed}"
        ));
    }
    Ok(())
}
