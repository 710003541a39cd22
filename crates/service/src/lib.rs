//! Concurrent top-k ego-betweenness query service.
//!
//! This crate turns the batch library into a long-lived daemon, the
//! setting where the paper's dynamic maintenance algorithms actually pay
//! off: indexes absorb an edge-update stream while concurrent readers ask
//! top-k / score / common-neighbor questions ("Scalable Online Betweenness
//! Centrality in Evolving Graphs", Kourtellis et al., frames betweenness
//! as exactly this serve-while-updating workload). Everything is std-only:
//! `std::net` sockets, `std::thread` workers, `std::sync` primitives.
//!
//! The moving parts, bottom to top:
//!
//! * [`catalog`] — named datasets, each an **epoch-swapped** pair of
//!   (writer-side dynamic maintainer, reader-side immutable
//!   [`EpochSnapshot`]). Writers apply update batches through
//!   [`egobtw_dynamic::LocalIndex`] or [`egobtw_dynamic::LazyTopK`], build
//!   a fresh CSR snapshot off to the side, and publish it with one pointer
//!   swap — readers clone an `Arc` and never block on maintenance work.
//!   Each snapshot fronts hot queries with a result cache that dies with
//!   its epoch, so invalidation is structural rather than tracked.
//!   The catalog is sharded by dataset-name hash: independent map locks
//!   and per-shard writer pools, so one dataset's writer storm never
//!   blocks another shard's readers or writers.
//! * [`wal`] — optional durability: a per-dataset write-ahead log of
//!   `EdgeOp` batches (length-prefixed, FNV-1a-checksummed records,
//!   fsynced *before* the epoch publishes) plus periodic snapshot
//!   compaction. Restart = newest parseable snapshot + WAL tail replay;
//!   torn tails truncate cleanly, and injected crash points let tests
//!   kill the daemon at the nastiest moments and verify recovery.
//! * [`service`] — the in-process API: parse → execute → render, shared
//!   (`&self`) across any number of threads. Tests and examples use this
//!   directly and skip sockets.
//! * [`proto`] — the wire format: length-prefixed UTF-8 frames, one
//!   command per line, one response line per command (grammar in
//!   `docs/ARCHITECTURE.md`).
//! * [`server`] — the TCP daemon: an acceptor thread feeding a fixed
//!   worker pool over a channel; each worker owns a connection for its
//!   lifetime.
//! * [`obs`] — observability wiring: one shared metrics registry spanning
//!   every layer (scraped by `METRICS` in Prometheus text exposition),
//!   request-outcome accounting, per-verb latency histograms, per-request
//!   span tracing (opt-in `TRACE` prefix), and the `SLOWLOG` ring. See
//!   `docs/OBSERVABILITY.md`.
//!
//! Binaries: `egobtw-serve` (daemon) and `egobtw-cli` (scriptable client
//! and live `METRICS` check). See the README serving quickstart; the
//! daemon's end-to-end measurements live in `e2ebench/README.md`.

#![warn(missing_docs)]

pub mod catalog;
pub mod obs;
pub mod proto;
pub mod server;
pub mod service;
pub mod wal;

pub use catalog::{
    Catalog, CatalogConfig, Dataset, DatasetMetrics, EpochSnapshot, Mode, RecoveryReport,
};
pub use obs::ServiceMetrics;
pub use proto::{
    parse_command, read_frame, split_deadline, split_trace, write_frame, Command, MAX_UPDATE_OPS,
};
pub use server::{connect_with_retry, roundtrip, Server, ServerConfig};
pub use service::{OverloadState, Reply, Service, SHED_RETRY_MS};
pub use wal::{FsyncPolicy, PersistConfig};
