//! `mkdata` — emit any generator family to an edge-list or binary
//! snapshot file, so the query service and its benchmarks have reproducible
//! datasets without network access.
//!
//! ```text
//! cargo run --release -p egobtw-gen --bin mkdata -- \
//!     --family ba --scale 1.0 --seed 7 --out data/ba.snap
//!
//! flags:
//!   --family F    karate | toy | er | ba | ws | rmat | community | hub (required)
//!   --scale S     size multiplier on the family's base size (default 1.0;
//!                 ignored by the fixed-size karate/toy fixtures)
//!   --seed N      generator seed (default 42; karate/toy are deterministic)
//!   --out PATH    output file (required)
//!   --format X    edges | snapshot (default: snapshot iff PATH ends .snap)
//!   --print-rss   also print `peak-rss-kb=N` (VmHWM) after writing, so
//!                 smoke tests can assert generation stays RSS-bounded
//! ```
//!
//! The same `(family, scale, seed)` always produces the same file.

use egobtw_gen::synth_family;
use egobtw_graph::io::{write_edge_list_file, write_snapshot_file};

struct Args {
    family: String,
    scale: f64,
    seed: u64,
    out: String,
    snapshot: bool,
    print_rss: bool,
}

/// Peak resident set size (VmHWM) of this process in KiB, if the
/// platform exposes it (`/proc/self/status` — Linux only).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut family = None;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut out = None;
    let mut format: Option<String> = None;
    let mut print_rss = false;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--family" => family = Some(value(i)?.clone()),
            "--scale" => scale = value(i)?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seed" => seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => out = Some(value(i)?.clone()),
            "--format" => format = Some(value(i)?.clone()),
            "--print-rss" => {
                print_rss = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let family = family.ok_or("--family is required")?;
    let out = out.ok_or("--out is required")?;
    let snapshot = match format.as_deref() {
        Some("snapshot") => true,
        Some("edges") => false,
        Some(other) => return Err(format!("--format {other:?}: edges or snapshot")),
        None => out.ends_with(".snap"),
    };
    Ok(Args {
        family,
        scale,
        seed,
        out,
        snapshot,
        print_rss,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mkdata: {e}");
            eprintln!(
                "usage: mkdata --family F --out PATH [--scale S] [--seed N] \
                 [--format edges|snapshot] [--print-rss]"
            );
            std::process::exit(2);
        }
    };
    let g = match synth_family(&args.family, args.scale, args.seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("mkdata: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("mkdata: create {dir:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    let result = if args.snapshot {
        write_snapshot_file(&g, None, &args.out)
    } else {
        write_edge_list_file(&g, &args.out)
    };
    if let Err(e) = result {
        eprintln!("mkdata: write {:?}: {e}", args.out);
        std::process::exit(1);
    }
    println!(
        "wrote {} family={} scale={} seed={} n={} m={} format={}",
        args.out,
        args.family,
        args.scale,
        args.seed,
        g.n(),
        g.m(),
        if args.snapshot { "snapshot" } else { "edges" }
    );
    if args.print_rss {
        match peak_rss_kb() {
            Some(kb) => println!("peak-rss-kb={kb}"),
            None => println!("peak-rss-kb=unavailable"),
        }
    }
}
