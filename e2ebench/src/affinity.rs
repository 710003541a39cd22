//! Keeping the load generator and the daemon on separate cores.
//!
//! On a small host the guest scheduler otherwise decides, run by run,
//! whether a client thread and the daemon worker it waits on share a core
//! (a cheap local wakeup) or sit on two (a cross-core wakeup), and the
//! read latency of one run can differ from the next by half. Pinning the
//! daemon to one core and the benchmark to another makes every run pay
//! the same cross-core round trip. The daemon serves each request on one
//! thread, so the core it gets bounds only how many requests it can work
//! on at once.

use std::sync::atomic::{AtomicUsize, Ordering};

/// 64-bit words of the affinity masks this module reads and writes.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// No core chosen for the daemon.
const NONE: usize = usize::MAX;

/// The core daemons spawned from now on are pinned to.
static DAEMON_CPU: AtomicUsize = AtomicUsize::new(NONE);

/// Which core each side runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Split {
    /// The daemon's core.
    pub daemon: usize,
    /// The benchmark's core (client threads and checks).
    pub client: usize,
    /// Every core the benchmark was allowed before it pinned itself.
    pub allowed: Vec<usize>,
}

fn allowed_cpus() -> Vec<usize> {
    let mut mask: Mask = [0; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn set_calling_thread(cpus: &[usize]) -> std::io::Result<()> {
    let mut mask: Mask = [0; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Pins the calling thread (and every thread it spawns later) to the
/// second allowed core and reserves the first for daemons. Call it before
/// the benchmark starts its own threads. `None` when fewer than two cores
/// are allowed or the kernel refuses; then nothing is pinned.
pub fn split_cores() -> Option<Split> {
    let cpus = allowed_cpus();
    let (&daemon, &client) = (cpus.first()?, cpus.get(1)?);
    set_calling_thread(&[client]).ok()?;
    DAEMON_CPU.store(daemon, Ordering::Relaxed);
    Some(Split {
        daemon,
        client,
        allowed: cpus,
    })
}

/// Lets the calling thread (and the threads it spawns later) run on every
/// core of `split` again, for the traced run's in-process layer timings,
/// which include a two-thread kernel. Daemons stay pinned.
pub fn release(split: &Split) -> std::io::Result<()> {
    set_calling_thread(&split.allowed)
}

/// Pins a freshly forked daemon before it execs, so all its threads
/// inherit the core. A no-op unless [`split_cores`] succeeded.
pub fn pin_daemon() -> std::io::Result<()> {
    match DAEMON_CPU.load(Ordering::Relaxed) {
        NONE => Ok(()),
        cpu => set_calling_thread(&[cpu]),
    }
}
