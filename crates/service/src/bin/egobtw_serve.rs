//! `egobtw-serve` — the top-k ego-betweenness query daemon.
//!
//! ```text
//! cargo run --release -p egobtw-service --bin egobtw-serve -- [flags]
//!
//! flags:
//!   --listen ADDR        bind address (default 127.0.0.1:7878; port 0 = OS pick)
//!   --threads N          worker pool size = max concurrent connections (default 8)
//!   --load NAME=PATH[:MODE]   preload a dataset (repeatable; MODE as in LOAD;
//!                        skipped if recovery already rebuilt that name)
//!   --data-dir PATH      enable durability: per-dataset WAL + snapshots under
//!                        PATH, and recovery of everything found there at boot
//!   --fsync always|never WAL fsync policy (default always; needs --data-dir)
//!   --compact-every N    snapshot + truncate the WAL every N batches (default 64)
//!   --shards N           catalog shards (default 8)
//!   --shard-writers N    writer threads per shard (default 2)
//!   --default-deadline MS   deadline for commands without a DEADLINE prefix
//!                        (default 0 = unlimited)
//!   --max-conns N        accepted-and-unfinished connection cap (default 256;
//!                        0 = unlimited); past it, clients get ERR busy
//!   --queue N            connections that may wait for a worker (default 64)
//!   --io-timeout MS      per-socket read/write timeout — slow or silent
//!                        clients lose their session (default 30000; 0 = off)
//!   --watermark N        concurrent engine computations before TOPK requests
//!                        are shed with ERR busy (default 0 = unlimited)
//!   --drain-grace MS     SIGTERM drain budget for in-flight requests
//!                        (default 2000)
//!   --slow-query-ms MS   record requests slower than MS in the SLOWLOG
//!                        ring (default 0 = disabled)
//!   --log-level LEVEL    stderr log verbosity: error|warn|info|debug
//!                        (default info)
//! ```
//!
//! Prints one `recovered <name> …` line per rebuilt dataset, then one
//! `listening on <addr>` line once the socket is bound (CI and scripts
//! wait for it; the same moment is logged as an info `listening` event on
//! stderr), then serves until killed. On SIGTERM (or SIGINT) it
//! drains: stops accepting, finishes or cancels in-flight work within
//! `--drain-grace`, fsyncs every WAL, and exits 0.

use egobtw_service::catalog::Mode;
use egobtw_service::{CatalogConfig, FsyncPolicy, PersistConfig, Server, ServerConfig, Service};
use egobtw_telemetry::{set_global, Level, Logger, StderrSink};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Async-signal-safe termination latch: the handler only stores to an
/// atomic; the main thread polls it. Installed via the C `signal`
/// function, which std's libc linkage already provides on Unix.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

struct Args {
    listen: String,
    threads: usize,
    preload: Vec<(String, String, Mode)>,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    compact_every: u64,
    shards: usize,
    shard_writers: usize,
    default_deadline: u64,
    max_conns: usize,
    queue: usize,
    io_timeout: u64,
    watermark: u64,
    drain_grace: u64,
    slow_query_ms: u64,
    log_level: Level,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        listen: "127.0.0.1:7878".into(),
        threads: 8,
        preload: Vec::new(),
        data_dir: None,
        fsync: FsyncPolicy::Always,
        compact_every: 64,
        shards: 8,
        shard_writers: 2,
        default_deadline: 0,
        max_conns: 256,
        queue: 64,
        io_timeout: 30_000,
        watermark: 0,
        drain_grace: 2_000,
        slow_query_ms: 0,
        log_level: Level::Info,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--listen" => args.listen = value(i)?.clone(),
            "--threads" => {
                args.threads = value(i)?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--load" => {
                let spec = value(i)?;
                let (name, rest) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--load {spec:?}: expected NAME=PATH[:MODE]"))?;
                let (path, mode) = Mode::split_path_mode(rest);
                args.preload.push((name.to_string(), path, mode));
            }
            "--data-dir" => args.data_dir = Some(value(i)?.clone()),
            "--fsync" => args.fsync = FsyncPolicy::parse(value(i)?)?,
            "--compact-every" => {
                args.compact_every = value(i)?
                    .parse()
                    .map_err(|e| format!("--compact-every: {e}"))?
            }
            "--shards" => args.shards = value(i)?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--shard-writers" => {
                args.shard_writers = value(i)?
                    .parse()
                    .map_err(|e| format!("--shard-writers: {e}"))?
            }
            "--default-deadline" => {
                args.default_deadline = value(i)?
                    .parse()
                    .map_err(|e| format!("--default-deadline: {e}"))?
            }
            "--max-conns" => {
                args.max_conns = value(i)?.parse().map_err(|e| format!("--max-conns: {e}"))?
            }
            "--queue" => args.queue = value(i)?.parse().map_err(|e| format!("--queue: {e}"))?,
            "--io-timeout" => {
                args.io_timeout = value(i)?
                    .parse()
                    .map_err(|e| format!("--io-timeout: {e}"))?
            }
            "--watermark" => {
                args.watermark = value(i)?.parse().map_err(|e| format!("--watermark: {e}"))?
            }
            "--drain-grace" => {
                args.drain_grace = value(i)?
                    .parse()
                    .map_err(|e| format!("--drain-grace: {e}"))?
            }
            "--slow-query-ms" => {
                args.slow_query_ms = value(i)?
                    .parse()
                    .map_err(|e| format!("--slow-query-ms: {e}"))?
            }
            "--log-level" => {
                let spec = value(i)?;
                args.log_level = Level::parse(spec).ok_or_else(|| {
                    format!("--log-level {spec:?}: expected error|warn|info|debug")
                })?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if args.threads == 0 {
        return Err("--threads must be ≥ 1".into());
    }
    if args.shards == 0 || args.shard_writers == 0 || args.compact_every == 0 {
        return Err("--shards, --shard-writers, --compact-every must be ≥ 1".into());
    }
    if args.queue == 0 {
        return Err("--queue must be ≥ 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("egobtw-serve: {e}");
            eprintln!(
                "usage: egobtw-serve [--listen ADDR] [--threads N] [--load NAME=PATH[:MODE]]... \
                 [--data-dir PATH] [--fsync always|never] [--compact-every N] [--shards N] \
                 [--shard-writers N] [--default-deadline MS] [--max-conns N] [--queue N] \
                 [--io-timeout MS] [--watermark N] [--drain-grace MS] [--slow-query-ms MS] \
                 [--log-level error|warn|info|debug]"
            );
            std::process::exit(2);
        }
    };
    set_global(Arc::new(Logger::new(args.log_level, Arc::new(StderrSink))));
    let log = egobtw_telemetry::global();
    let persist = args.data_dir.as_ref().map(|dir| PersistConfig {
        dir: dir.into(),
        fsync: args.fsync,
        compact_every: args.compact_every,
    });
    let mut service = Service::with_config(CatalogConfig {
        shards: args.shards,
        writers_per_shard: args.shard_writers,
        persist,
        ..CatalogConfig::default()
    });
    if args.default_deadline > 0 {
        service.set_default_deadline(Some(Duration::from_millis(args.default_deadline)));
    }
    service.set_compute_watermark(args.watermark);
    service
        .metrics()
        .slowlog()
        .set_threshold_ms(args.slow_query_ms);
    let service = Arc::new(service);
    let recovered = match service.recover() {
        Ok(r) => r,
        Err(e) => {
            log.error("recovery-failed", &[("error", &e.to_string())]);
            std::process::exit(1);
        }
    };
    for (name, report) in &recovered {
        println!(
            "recovered {name} epoch={} snapshot_epoch={} replayed={} torn_tail={}",
            report.epoch, report.snapshot_epoch, report.replayed, report.torn_tail
        );
    }
    for (name, path, mode) in &args.preload {
        if recovered.iter().any(|(n, _)| n == name) {
            println!("preload {name}: recovered from data dir, skipping");
            continue;
        }
        match service.load_path(name, path, *mode) {
            Ok(reply) => println!("{}", reply.render()),
            Err(e) => {
                log.error("preload-failed", &[("dataset", name), ("error", &e)]);
                std::process::exit(1);
            }
        }
    }
    let cfg = ServerConfig {
        threads: args.threads,
        queue_cap: args.queue,
        max_conns: args.max_conns,
        io_timeout: (args.io_timeout > 0).then(|| Duration::from_millis(args.io_timeout)),
        drain_grace: Duration::from_millis(args.drain_grace),
    };
    let server = match Server::spawn_with(service.clone(), args.listen.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            log.error(
                "bind-failed",
                &[("addr", args.listen.as_str()), ("error", &e.to_string())],
            );
            std::process::exit(1);
        }
    };
    println!(
        "listening on {} (threads={})",
        server.local_addr(),
        args.threads
    );
    log.info(
        "listening",
        &[
            ("addr", &server.local_addr().to_string()),
            ("threads", &args.threads.to_string()),
        ],
    );
    // Kill-and-replay tests read this line through a pipe; without the
    // flush it sits in the block buffer until the process dies.
    let _ = std::io::stdout().flush();
    #[cfg(unix)]
    term_signal::install();
    // Serve until asked to stop (SIGTERM/SIGINT set the latch; a SIGKILL
    // is the crash path the recovery tests cover).
    loop {
        #[cfg(unix)]
        if term_signal::requested() {
            break;
        }
        std::thread::park_timeout(Duration::from_millis(100));
    }
    // Shutdown prints are best-effort: the supervisor that sent the
    // SIGTERM may already have closed our stdout pipe, and a broken pipe
    // must not turn a clean drain into a panic (println! would).
    let _ = writeln!(std::io::stdout(), "draining (grace={}ms)", args.drain_grace);
    let _ = std::io::stdout().flush();
    server.drain(Duration::from_millis(args.drain_grace));
    // Durability barrier: whatever was acked is on disk before exit 0.
    if let Err(e) = service.catalog().sync_all() {
        log.error("wal-sync-failed", &[("error", &e.to_string())]);
        std::process::exit(1);
    }
    let _ = writeln!(std::io::stdout(), "drained; exiting");
    let _ = std::io::stdout().flush();
}
