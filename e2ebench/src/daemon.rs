//! Building, spawning and killing the real `egobtw-serve` daemon, and
//! the framed TCP client the workloads drive it with.

use egobtw_service::proto::{read_frame, write_frame};
use egobtw_service::server::{connect_with_retry, roundtrip};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned daemon may take to print its `listening on` line.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(120);

/// Where the benchmark finds the repository and keeps its files.
#[derive(Clone, Debug)]
pub struct Paths {
    /// The repository root (the workspace holding `egobtw-serve`).
    pub root: PathBuf,
    /// Cargo's target directory, shared by the benchmark and the daemon.
    pub target: PathBuf,
    /// The benchmark's scratch area inside the target directory.
    pub work: PathBuf,
}

impl Paths {
    /// Resolves the paths the way Cargo does: `CARGO_TARGET_DIR` (relative
    /// to the current directory) when set, else `target/` beside this
    /// package's manifest.
    pub fn resolve() -> Result<Paths, String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest
            .parent()
            .ok_or("benchmark package has no parent directory")?
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => std::env::current_dir()
                .map_err(|e| format!("current dir: {e}"))?
                .join(dir),
            None => manifest.join("target"),
        };
        let work = target.join("e2ebench");
        Ok(Paths { root, target, work })
    }
}

/// Builds `egobtw-serve` from the repository's sources with Cargo and
/// returns the binary's path. A no-op when it is up to date.
pub fn build_daemon(paths: &Paths) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(&paths.root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "egobtw-service", "--bin", "egobtw-serve"])
        .arg("--manifest-path")
        .arg(paths.root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&paths.target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building egobtw-serve failed ({status})"));
    }
    let bin = paths.target.join("release").join("egobtw-serve");
    if !bin.is_file() {
        return Err(format!("cargo built no {}", bin.display()));
    }
    Ok(bin)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// The unit of `/proc/<pid>/stat` CPU times.
fn clock_ticks_per_s() -> f64 {
    /// `_SC_CLK_TCK` on Linux.
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a constant of the running system.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// One running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    /// Lines it printed to stdout before `listening on`.
    banner: Vec<String>,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin args…` listening on an OS-picked loopback port,
    /// stderr to `log`, and waits for its `listening on` line. The daemon
    /// runs on the core [`crate::affinity::split_cores`] reserved, if any.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        // SAFETY: the hook only makes the `sched_setaffinity` system call,
        // which is async-signal-safe.
        unsafe { cmd.pre_exec(crate::affinity::pin_daemon) };
        let mut child = cmd
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Forward lines until EOF so the daemon never blocks on a full
        // pipe; the receiver stops listening after `listening on`.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            banner: Vec::new(),
            drain: Some(drain),
        };
        let deadline = Instant::now() + LISTEN_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        daemon.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        return Ok(daemon);
                    }
                    daemon.banner.push(line);
                }
                Err(_) => {
                    let tail = std::fs::read_to_string(log).unwrap_or_default();
                    return Err(format!(
                        "daemon never printed `listening on`; stdout {:?}; stderr tail {:?}",
                        daemon.banner,
                        tail.lines().rev().take(5).collect::<Vec<_>>()
                    ));
                }
            }
        }
    }

    /// The daemon's peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }

    /// CPU time the daemon has used so far, user plus system, in seconds
    /// (`/proc/<pid>/stat`). Time the host steals from the core is not in
    /// it.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesized command name start at `state`
        // (field 3); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) as f64 / clock_ticks_per_s()),
            _ => Err(format!("no utime/stime in {path}")),
        }
    }

    /// SIGKILLs the daemon and waits until it and its stdout reader end.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection: one framed request line, one reply line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`, retrying while the daemon binds.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let (reader, writer) = connect_with_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { reader, writer })
    }

    /// One round trip.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        roundtrip(&mut self.reader, &mut self.writer, line)
    }

    /// Sends one request without waiting for its reply.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_frame(&mut self.writer, line)
    }

    /// Reads the next reply; replies come back in request order.
    pub fn recv(&mut self) -> std::io::Result<String> {
        read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })
    }

    /// One round trip whose reply must be `OK…`.
    pub fn call_ok(&mut self, line: &str) -> Result<String, String> {
        let verb = line.split_whitespace().next().unwrap_or("");
        match self.call(line) {
            Ok(reply)
                if reply.starts_with("OK") || (verb == "METRICS" && !reply.starts_with("ERR")) =>
            {
                Ok(reply)
            }
            Ok(reply) => Err(format!("{verb}: {reply}")),
            Err(e) => Err(format!("{verb}: transport error: {e}")),
        }
    }
}
