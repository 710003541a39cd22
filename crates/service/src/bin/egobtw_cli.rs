//! `egobtw-cli` — scriptable client for `egobtw-serve`.
//!
//! ```text
//! egobtw-cli script  --connect ADDR [--expect-ok] [FILE]
//!     Send each non-blank, non-# line of FILE (or stdin) as one frame;
//!     print `> command` and the response line(s). With --expect-ok, exit 1
//!     if any response line is an ERR.
//!
//! egobtw-cli metrics-check --connect ADDR
//!     Scrape METRICS twice from a live daemon, schema-validate both
//!     expositions, and verify every counter series is monotone between
//!     the scrapes.
//! ```
//!
//! The daemon's latency and throughput are measured by the end-to-end
//! TCP benchmark in `e2ebench/` (see its README).

use egobtw_service::server::{connect_with_retry, roundtrip};
use std::io::Read;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("egobtw-cli: {msg}");
    std::process::exit(2);
}

fn run_script(argv: &[String]) -> i32 {
    let mut connect = None;
    let mut expect_ok = false;
    let mut file = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => {
                connect = argv.get(i + 1).cloned();
                i += 2;
            }
            "--expect-ok" => {
                expect_ok = true;
                i += 1;
            }
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(other.to_string());
                i += 1;
            }
            other => fail(&format!("script: unknown flag {other:?}")),
        }
    }
    let Some(addr) = connect else {
        fail("script needs --connect ADDR");
    };
    let text = match file {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path:?}: {e}")))
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("read stdin: {e}")));
            buf
        }
    };
    let (mut reader, mut writer) = connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let mut saw_err = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        println!("> {line}");
        match roundtrip(&mut reader, &mut writer, line) {
            Ok(response) => {
                for rline in response.lines() {
                    println!("{rline}");
                    if rline.starts_with("ERR") {
                        saw_err = true;
                    }
                }
            }
            Err(e) => fail(&format!("i/o on {addr}: {e}")),
        }
    }
    i32::from(expect_ok && saw_err)
}

/// Metric names every healthy daemon must expose (the live-scrape gate).
const REQUIRED_METRICS: [&str; 8] = [
    "egobtw_requests_admitted_total",
    "egobtw_requests_completed_total",
    "egobtw_requests_cancelled_total",
    "egobtw_requests_failed_total",
    "egobtw_request_latency_ns",
    "egobtw_shed_total",
    "egobtw_timeouts_total",
    "egobtw_compute_inflight",
];

/// Live-daemon scrape gate: two `METRICS` scrapes over TCP, each parsed
/// and schema-validated (required families present, histogram buckets
/// cumulative, `+Inf` == `_count`), plus counter monotonicity between
/// them — every `_total` series in the first scrape must be ≤ its value
/// in the second. Returns a human-readable summary line.
fn metrics_check_live(addr: &str) -> Result<String, String> {
    use egobtw_telemetry::prometheus::{self, Exposition};

    let scrape = || -> Result<Exposition, String> {
        let (mut reader, mut writer) = connect_with_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let text =
            roundtrip(&mut reader, &mut writer, "METRICS").map_err(|e| format!("i/o: {e}"))?;
        let expo = prometheus::parse(&text)?;
        let violations = expo.validate(&REQUIRED_METRICS);
        if violations.is_empty() {
            Ok(expo)
        } else {
            Err(format!("exposition invalid: {violations:?}"))
        }
    };
    let first = scrape()?;
    let second = scrape()?;
    let mut series = 0usize;
    for (name, fam) in &first.families {
        if fam.kind != "counter" {
            continue;
        }
        for s in &fam.samples {
            let labels: Vec<(&str, &str)> = s
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            // A counter can't vanish between scrapes — a missing series
            // in the second scrape must fail the monotonicity check.
            let later = second.value(name, &labels)?.unwrap_or(f64::NEG_INFINITY);
            if later < s.value {
                return Err(format!(
                    "{name}{labels:?} went backwards: {} → {later}",
                    s.value
                ));
            }
            series += 1;
        }
    }
    let admitted = second
        .value("egobtw_requests_admitted_total", &[])?
        .unwrap_or(0.0);
    Ok(format!(
        "metrics-check OK: {} families, {series} counter series monotone, admitted={admitted}",
        second.families.len()
    ))
}

fn run_metrics_check(argv: &[String]) -> i32 {
    let addr = match argv {
        [flag, addr] if flag == "--connect" => addr,
        _ => fail("metrics-check needs --connect ADDR"),
    };
    match metrics_check_live(addr) {
        Ok(summary) => {
            println!("{summary}");
            0
        }
        Err(e) => {
            eprintln!("egobtw-cli: metrics-check {addr}: {e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("script") => run_script(&argv[1..]),
        Some("metrics-check") => run_metrics_check(&argv[1..]),
        _ => {
            eprintln!("usage: egobtw-cli <script|metrics-check> [flags] (see --bin source header)");
            2
        }
    };
    std::process::exit(code);
}
