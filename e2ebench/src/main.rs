//! `e2ebench` — one workload against the real `egobtw-serve` daemon.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload read-mostly|update-stream|fresh-topk --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the daemon from the repository's sources, generates the inputs
//! from the seed, runs the workload, checks the answers, and prints two
//! JSON lines on stdout: the full run record (metadata, metrics with
//! sample counts, check tally), then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! check fails and 2 when the run cannot complete.

use e2ebench::affinity;
use e2ebench::daemon::{build_daemon, Paths};
use e2ebench::report::{self, Metadata, Metric};
use e2ebench::trace::Tracer;
use e2ebench::workload::{self, RunConfig};
use e2ebench::{end_to_end, layers, record_only, traced_end_to_end};
use egobtw_bench::json::Json;
use std::path::Path;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("--workload {:?}: expected one of {names:?}", args.workload))?;
    let nproc = report::nproc();
    if spec.client_threads > nproc {
        return Err(format!(
            "{} needs {} client threads but only {nproc} cores are visible",
            spec.name, spec.client_threads
        ));
    }
    let paths = Paths::resolve()?;
    let bin = build_daemon(&paths)?;
    // After the build, which should use every core, and before the
    // benchmark starts any thread.
    let cores = affinity::split_cores();
    let rundir = paths.work.join(format!(
        "run-{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&rundir);
    let inputs = workload::make_inputs(spec, 1.0, &rundir.join("inputs"))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
    };
    let origin = Instant::now();
    let mut outcome = workload::run(
        spec,
        &cfg,
        &inputs,
        &bin,
        &rundir,
        args.trace.then_some(origin),
    )?;

    let metrics: Vec<Metric> = if args.trace {
        let mut tracer = outcome
            .client_spans
            .take()
            .unwrap_or_else(|| Tracer::new(origin));
        if let Some(split) = &cores {
            affinity::release(split).map_err(|e| format!("unpin for the layer timings: {e}"))?;
        }
        let mut m = layers::measure(
            spec,
            args.seed,
            &inputs,
            &outcome,
            &rundir.join("layers"),
            &mut tracer,
        )?;
        workload::finish(spec, &inputs, &bin, &rundir, &mut outcome)?;
        let traced = traced_end_to_end(&mut outcome)?;
        print_beside_untraced(&paths.work.join("results"), spec.name, args.seed, &traced);
        m.extend(traced);
        let spans = paths
            .work
            .join("spans")
            .join(format!("{}-seed{}.tsv", spec.name, args.seed));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        eprintln!(
            "e2ebench: {} spans written to {}",
            tracer.spans().len(),
            spans.display()
        );
        m
    } else {
        workload::finish(spec, &inputs, &bin, &rundir, &mut outcome)?;
        end_to_end(&mut outcome)?
    };

    let meta = Metadata {
        workload: spec.name.to_string(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        nproc,
        client_threads: spec.client_threads,
        git_rev: report::git_rev(&paths.root),
        dataset: inputs.dataset.to_string(),
        n: inputs.g0.n(),
        m: inputs.g0.m(),
        scale: inputs.scale,
        mode: spec.mode.unwrap_or("default").to_string(),
        daemon_flags: outcome.daemon_flags.clone(),
        fsync: if spec.durable { "always" } else { "none" }.to_string(),
        data_dir_fs: report::fs_type(&rundir),
        cores,
    };
    let mut recorded = metrics.clone();
    if !args.trace {
        recorded.extend(record_only(&mut outcome));
    }
    let record = report::record_line(
        &meta,
        &recorded,
        outcome.checked,
        &outcome.violations,
        &outcome.failures,
    );
    let results = paths.work.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("create {}: {e}", results.display()))?;
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    let _ = std::fs::remove_dir_all(&rundir);

    for v in &outcome.violations {
        eprintln!("e2ebench: violation: {v}");
    }
    for f in &outcome.failures {
        eprintln!("e2ebench: failed request: {f}");
    }
    let correct = outcome.violations.is_empty();
    println!("{record}");
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

/// Prints the traced window's end-to-end numbers beside those of the
/// untraced run of the same workload and seed, when one was recorded:
/// the gap is the cost of tracing.
fn print_beside_untraced(results: &Path, workload: &str, seed: u64, traced: &[Metric]) {
    let file = results.join(format!("{workload}-seed{seed}-trace0.json"));
    let untraced = std::fs::read_to_string(&file)
        .ok()
        .and_then(|text| Json::parse(text.trim()).ok());
    for m in traced {
        let plain = m.name.trim_start_matches("traced.");
        let base = untraced.as_ref().and_then(|j| {
            j.get("record")?
                .get("metrics")?
                .get(plain)?
                .get("value")?
                .as_num()
        });
        match base {
            Some(b) => eprintln!(
                "e2ebench: {plain}: traced {:.4} {}, untraced {b:.4} ({:+.1}%)",
                m.value,
                m.unit,
                (m.value / b - 1.0) * 100.0
            ),
            None => eprintln!(
                "e2ebench: {plain}: traced {:.4} {}; no untraced run of seed {seed} recorded",
                m.value, m.unit
            ),
        }
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}
