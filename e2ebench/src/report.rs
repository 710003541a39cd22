//! Metric records, run metadata, and the JSON lines the benchmark prints.

use crate::affinity::Split;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `us` or `count`.
    pub unit: &'static str,
    /// Samples behind a percentile or mean, when it has any.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A metric with its sample count.
    pub fn counted(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, value, unit)
        }
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust prints.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The `metrics` object: `{"name": {"value": …, "unit": …}, …}`, with
/// `samples` added when `with_samples`.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = match (with_samples, m.samples) {
                (true, Some(n)) => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line (the last line on stdout): exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics, false)
    )
}

/// Where and how a run happened.
#[derive(Clone, Debug)]
pub struct Metadata {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Cores visible to the benchmark.
    pub nproc: usize,
    /// Client threads the workload used.
    pub client_threads: usize,
    /// Git revision of the checkout, or `unknown` outside a repository.
    pub git_rev: String,
    /// Stand-in dataset name.
    pub dataset: String,
    /// Its vertex count.
    pub n: usize,
    /// Its edge count.
    pub m: usize,
    /// Its size multiplier.
    pub scale: f64,
    /// LOAD mode (`default` when the daemon picks).
    pub mode: String,
    /// Daemon flags besides `--listen`.
    pub daemon_flags: Vec<String>,
    /// WAL fsync policy, or `none` for in-memory datasets.
    pub fsync: String,
    /// Filesystem type of the benchmark's data directory.
    pub data_dir_fs: String,
    /// The cores the daemon and the benchmark were pinned to, if any.
    pub cores: Option<Split>,
}

impl Metadata {
    /// The record as a JSON object.
    pub fn json(&self) -> String {
        let flags: Vec<String> = self.daemon_flags.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \
             \"client_threads\": {}, \"git_rev\": {}, \"dataset\": {{\"name\": {}, \"n\": {}, \
             \"m\": {}, \"scale\": {}}}, \"mode\": {}, \"daemon_flags\": [{}], \"fsync\": {}, \
             \"data_dir_fs\": {}, \"cores\": {}}}",
            json_str(&self.workload),
            self.seed,
            self.trace,
            json_num(self.seconds),
            self.nproc,
            self.client_threads,
            json_str(&self.git_rev),
            json_str(&self.dataset),
            self.n,
            self.m,
            json_num(self.scale),
            json_str(&self.mode),
            flags.join(", "),
            json_str(&self.fsync),
            json_str(&self.data_dir_fs),
            match &self.cores {
                Some(c) => format!("{{\"daemon\": {}, \"client\": {}}}", c.daemon, c.client),
                None => "null".into(),
            },
        )
    }
}

/// The full run record: metadata, every metric with its sample count,
/// the correctness tally and the first failures.
pub fn record_line(
    meta: &Metadata,
    metrics: &[Metric],
    checked: usize,
    violations: &[String],
    failures: &[String],
) -> String {
    let list = |v: &[String]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"record\": {{\"meta\": {}, \"metrics\": {}, \"checked\": {checked}, \
         \"violations\": [{}], \"failures\": [{}]}}}}",
        meta.json(),
        metrics_json(metrics, true),
        list(violations),
        list(failures)
    )
}

/// Cores visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, or `unknown`.
pub fn git_rev(root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of `dir` as `stat -f` names it, or `unknown`.
pub fn fs_type(dir: &Path) -> String {
    Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
