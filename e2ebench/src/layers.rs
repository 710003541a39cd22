//! The traced run's per-layer timings: the benchmark's own code calls
//! each layer's public functions on the workload's graph, batches and
//! request stream, inside spans. Nothing inside the program changes.

use crate::report::Metric;
use crate::stream::{Read, ReadMix, SeqLog, Zipf};
use crate::trace::{SelfTime, Tracer};
use crate::workload::{Inputs, Kind, Outcome, Spec, DATASET};
use egobtw_core::{compute_all, ego_betweenness_of, opt_bsearch, OptParams};
use egobtw_dynamic::{DeltaIndex, EdgeOp, LocalIndex};
use egobtw_graph::{CsrGraph, DynGraph, VertexId};
use egobtw_service::catalog::{Dataset, Mode};
use egobtw_service::proto::{parse_command, read_frame, write_frame};
use egobtw_service::wal::{encode_record, FsyncPolicy, PersistConfig, Wal, WalRecord};
use egobtw_service::{CatalogConfig, Service};
use egobtw_telemetry::Histogram;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Update batches replayed through each update-path layer.
const LAYER_BATCHES: usize = 60;

/// Reads of the read mix replayed in process.
const LAYER_READS: usize = 2_000;

/// Epochs of the acked stream OptBSearch is timed on.
const SEARCH_EPOCHS: usize = 8;

/// Repetitions of the whole-graph engine calls.
const ENGINE_REPS: u64 = 3;

/// The maintainer behind a LOAD mode, driven directly.
enum Maintainer {
    Local(LocalIndex, usize),
    Delta(DeltaIndex),
}

impl Maintainer {
    fn build(g: &CsrGraph, mode: Mode) -> Self {
        match mode {
            Mode::Local { publish_k } => Maintainer::Local(LocalIndex::new(g), publish_k),
            Mode::Delta { k } => Maintainer::Delta(DeltaIndex::new(g, k)),
            Mode::Lazy { .. } => unreachable!("no workload loads lazy mode"),
        }
    }

    fn apply(&mut self, op: EdgeOp) -> bool {
        let (u, v) = op.endpoints();
        match (self, op) {
            (Maintainer::Local(li, _), EdgeOp::Insert(..)) => li.insert_edge(u, v),
            (Maintainer::Local(li, _), EdgeOp::Delete(..)) => li.delete_edge(u, v),
            (Maintainer::Delta(di), EdgeOp::Insert(..)) => di.insert_edge(u, v),
            (Maintainer::Delta(di), EdgeOp::Delete(..)) => di.delete_edge(u, v),
        }
    }

    fn graph(&self) -> &DynGraph {
        match self {
            Maintainer::Local(li, _) => li.graph(),
            Maintainer::Delta(di) => di.graph(),
        }
    }

    /// The entries a publish reads off.
    fn top_k(&self) -> Vec<(VertexId, f64)> {
        match self {
            Maintainer::Local(li, k) => li.top_k(*k),
            Maintainer::Delta(di) => di.top_k(),
        }
    }
}

/// The workload's LOAD mode as the daemon parses it.
fn mode_of(spec: &Spec) -> Mode {
    spec.mode
        .map(|m| Mode::parse(m).expect("workload modes parse"))
        .unwrap_or_default()
}

fn persist(dir: &Path) -> PersistConfig {
    PersistConfig {
        fsync: FsyncPolicy::Always,
        ..PersistConfig::new(dir)
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// The in-process request stream: the workload's reads, then its update
/// batches, each update followed by the workload's TOPK when the window
/// interleaves them.
fn request_lines(spec: &Spec, reads: &[Read], batches: &[Vec<EdgeOp>]) -> Vec<String> {
    let mut lines: Vec<String> = reads
        .iter()
        .filter(|r| spec.kind == Kind::ReadMostly || !matches!(r, Read::Topk(_)))
        .map(|r| r.line(DATASET))
        .collect();
    let mut log = SeqLog::default();
    for (epoch, batch) in batches.iter().enumerate() {
        lines.push(log.update_line(DATASET, batch));
        if spec.kind != Kind::ReadMostly {
            lines.push(Read::Topk(spec.topk_k).line(DATASET));
        }
        // Keep the seq tokens advancing without re-checking acks here.
        let reply = format!("OK update epoch={} applied={}", epoch + 1, batch.len());
        log.ack(&reply, batch.clone())
            .expect("synthetic ack matches");
    }
    lines
}

fn span_name(line: &str) -> &'static str {
    match line.split_whitespace().next() {
        Some("TOPK") => "service.topk",
        Some("SCORE") => "service.score",
        Some("COMMON") => "service.common",
        Some("UPDATE") => "service.update",
        _ => "service.other",
    }
}

/// Runs every layer of the traced run and returns its metrics. `dir` is
/// scratch space on the data-dir filesystem.
pub fn measure(
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    outcome: &Outcome,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let g0 = &inputs.g0;
    let mode = mode_of(spec);
    let batches: Vec<Vec<EdgeOp>> = outcome
        .log
        .batches()
        .iter()
        .take(LAYER_BATCHES)
        .cloned()
        .collect();
    if batches.is_empty() {
        return Err("the run acked no UPDATE batch to replay".into());
    }
    let batch_ops = batches.iter().map(Vec::len).sum::<usize>() as f64 / batches.len() as f64;
    let mut mix = ReadMix::new(Zipf::over_degree_rank(g0), spec.topk_k, seed, "reader-0");
    let reads: Vec<Read> = (0..LAYER_READS).map(|_| mix.next_read()).collect();
    let lines = request_lines(spec, &reads, &batches);

    // proto + service: the request stream through an in-process Service
    // configured like the daemon.
    fresh_dir(&dir.join("service"))?;
    let service = Service::with_config(CatalogConfig {
        writers_per_shard: 1,
        persist: spec.durable.then(|| persist(&dir.join("service"))),
        ..CatalogConfig::default()
    });
    service.load_path(DATASET, &inputs.snap.display().to_string(), mode)?;
    for (req, line) in lines.iter().enumerate() {
        let req = req as u64;
        let root = tracer.enter("request", req, 1);
        let reply = tracer.time(span_name(line), req, 1, || service.handle_payload(line));
        if !reply.starts_with("OK") {
            return Err(format!("in-process {line:?} → {reply}"));
        }
        tracer.time("proto.frame", req, 1, || {
            let mut wire = Vec::with_capacity(reply.len() + 16);
            write_frame(&mut wire, &reply).expect("write to a Vec");
            black_box(read_frame(&mut wire.as_slice()).expect("read back"));
        });
        tracer.exit(root);
    }
    drop(service);
    for _ in 0..5 {
        tracer.time("proto.parse", 0, lines.len() as u64, || {
            for line in &lines {
                black_box(parse_command(black_box(line)).expect("stream lines parse"));
            }
        });
    }

    // catalog, dynamic, wal, graph: each batch goes through a Dataset and
    // then, one layer call at a time, through a bare maintainer and WAL —
    // interleaved, so both see the same machine. A reader takes snapshots
    // the way every request does, at a low duty cycle.
    let cat_dir = dir.join("catalog");
    fresh_dir(&cat_dir)?;
    let ds = if spec.durable {
        Dataset::create_persistent(DATASET, g0.clone(), mode, &persist(&cat_dir))?
    } else {
        Dataset::new(DATASET, g0.clone(), mode)
    };
    let mut maint = None;
    for _ in 0..2 {
        maint = Some(tracer.time("dynamic.build", 0, 1, || Maintainer::build(g0, mode)));
    }
    let mut maint = maint.expect("built");
    let wal_dir = dir.join("wal");
    fresh_dir(&wal_dir)?;
    let mut wal = Wal::create(&wal_dir.join("wal.log"), FsyncPolicy::Always)
        .map_err(|e| format!("create WAL: {e}"))?;
    let (mut wal_bytes, mut wal_ops) = (0usize, 0usize);
    let done = AtomicBool::new(false);
    let origin = tracer.origin();
    let reader_spans = std::thread::scope(|s| -> Result<Tracer, String> {
        let reader = s.spawn(|| {
            let mut t = Tracer::new(origin);
            while !done.load(Ordering::Relaxed) {
                t.time("catalog.snapshot", 0, 256, || {
                    for _ in 0..256 {
                        black_box(ds.snapshot());
                    }
                });
                std::thread::sleep(Duration::from_millis(1));
            }
            t
        });
        let result = (|| {
            for (b, batch) in batches.iter().enumerate() {
                let req = b as u64;
                tracer.time("catalog.update", req, 1, || ds.apply_updates(batch))?;
                let rec = WalRecord {
                    epoch: req + 1,
                    ops: batch.clone(),
                };
                wal_bytes += encode_record(&rec).len();
                wal_ops += batch.len();
                let root = tracer.enter("update.decomposed", req, 1);
                for &op in batch {
                    tracer.time("dynamic.apply", req, 1, || maint.apply(op));
                }
                tracer
                    .time("wal.append", req, 1, || wal.append(&rec))
                    .map_err(|e| format!("WAL append: {e}"))?;
                tracer.time("graph.to_csr", req, 1, || black_box(maint.graph().to_csr()));
                tracer.time("dynamic.topk", req, 1, || black_box(maint.top_k()));
                tracer.exit(root);
            }
            Ok(())
        })();
        done.store(true, Ordering::Relaxed);
        let spans = reader.join().expect("snapshot reader panicked");
        result.map(|()| spans)
    })?;
    tracer.absorb(reader_spans);
    drop((ds, wal, maint));
    let compact_dir = dir.join("compact");
    fresh_dir(&compact_dir)?;
    let persistent = Dataset::create_persistent(DATASET, g0.clone(), mode, &persist(&compact_dir))?;
    for _ in 0..ENGINE_REPS {
        tracer.time("wal.compact", 0, 1, || persistent.compact())?;
    }
    drop(persistent);
    for _ in 0..ENGINE_REPS {
        tracer
            .time("graph.snapshot_read", 0, 1, || {
                egobtw_graph::io::read_snapshot_file(&inputs.snap).map(black_box)
            })
            .map_err(|e| format!("read snapshot: {e}"))?;
    }
    let pairs: Vec<(VertexId, VertexId)> = reads
        .iter()
        .filter_map(|r| match *r {
            Read::Common(u, v) => Some((u, v)),
            _ => None,
        })
        .collect();
    let mut witnesses = Vec::new();
    for _ in 0..5 {
        tracer.time("graph.intersect", 0, pairs.len() as u64, || {
            for &(u, v) in &pairs {
                g0.common_neighbors_into(u, v, &mut witnesses);
                black_box(&witnesses);
            }
        });
    }

    // core + parallel on the served graphs: OptBSearch on epochs spread
    // over the whole acked stream (the graphs the daemon's engine saw),
    // the rest on the last of them.
    let acked = outcome.log.batches();
    let stride = acked.len().div_ceil(SEARCH_EPOCHS).max(1);
    let mut replayed = DynGraph::from_csr(g0);
    let (mut served, mut search) = (None, None);
    for (e, batch) in acked.iter().enumerate() {
        for &op in batch {
            let (u, v) = op.endpoints();
            match op {
                EdgeOp::Insert(..) => replayed.insert_edge(u, v),
                EdgeOp::Delete(..) => replayed.remove_edge(u, v),
            };
        }
        if (e + 1) % stride == 0 || e + 1 == acked.len() {
            let g = replayed.to_csr();
            search = Some(tracer.time("core.opt_search", e as u64 + 1, 1, || {
                opt_bsearch(&g, 64, OptParams { theta: 1.05 })
            }));
            served = Some(g);
        }
    }
    let (served, search) = (served.expect("acked ≥ 1"), search.expect("acked ≥ 1"));
    for _ in 0..ENGINE_REPS {
        tracer.time("core.compute_all", 0, 1, || black_box(compute_all(&served)));
    }
    let mut scored: Vec<VertexId> = reads
        .iter()
        .filter_map(|r| match *r {
            Read::Score(v) => Some(v),
            _ => None,
        })
        .collect();
    scored.sort_unstable();
    scored.dedup();
    for &v in &scored {
        tracer.time("core.ego_score", u64::from(v), 1, || {
            black_box(ego_betweenness_of(g0, v))
        });
    }
    for _ in 0..ENGINE_REPS {
        tracer.time("parallel.edge_pebw_t1", 0, 1, || {
            black_box(egobtw_parallel::edge_pebw(&served, 1))
        });
        tracer.time("parallel.edge_pebw_t2", 0, 1, || {
            black_box(egobtw_parallel::edge_pebw(&served, 2))
        });
    }

    // telemetry: the histogram every request records into.
    let hist = Histogram::new();
    for rep in 0..5u64 {
        tracer.time("telemetry.record", 0, 1 << 16, || {
            for i in 0..(1u64 << 16) {
                hist.record(black_box(i.wrapping_mul(0x9E37_79B9) ^ rep));
            }
        });
    }

    let st = tracer.self_times();
    let self_ns = |name: &str| st.get(name).map_or(f64::NAN, SelfTime::per_op_ns);
    let count = |name: &str| st.get(name).map_or(0, |s| s.ops as usize);
    let mut out = Vec::new();
    let mut per_op = |metric: &str, span: &str, unit: &'static str| {
        let scale = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            _ => 1e6,
        };
        out.push(Metric::counted(
            metric,
            self_ns(span) / scale,
            unit,
            count(span),
        ));
    };
    per_op("proto.parse_ns", "proto.parse", "ns");
    per_op("proto.frame_ns", "proto.frame", "ns");
    per_op("service.topk_us", "service.topk", "us");
    per_op("service.score_us", "service.score", "us");
    per_op("service.common_us", "service.common", "us");
    per_op("service.update_us", "service.update", "us");
    per_op("catalog.update_us", "catalog.update", "us");
    per_op("catalog.snapshot_ns", "catalog.snapshot", "ns");
    per_op("wal.append_us", "wal.append", "us");
    per_op("wal.compact_ms", "wal.compact", "ms");
    per_op("dynamic.apply_us", "dynamic.apply", "us");
    per_op("dynamic.topk_us", "dynamic.topk", "us");
    per_op("dynamic.build_ms", "dynamic.build", "ms");
    per_op("graph.to_csr_ms", "graph.to_csr", "ms");
    per_op("graph.intersect_ns", "graph.intersect", "ns");
    per_op("graph.snapshot_read_ms", "graph.snapshot_read", "ms");
    per_op("core.opt_search_ms", "core.opt_search", "ms");
    per_op("core.ego_score_us", "core.ego_score", "us");
    per_op("core.compute_all_ms", "core.compute_all", "ms");
    per_op("parallel.edge_pebw_t1_ms", "parallel.edge_pebw_t1", "ms");
    per_op("parallel.edge_pebw_t2_ms", "parallel.edge_pebw_t2", "ms");
    per_op("telemetry.record_ns", "telemetry.record", "ns");

    // Derived: the update path's remainder and the attribution closures.
    let us = |span: &str| self_ns(span) / 1e3;
    let wal_us = if spec.durable { us("wal.append") } else { 0.0 };
    let children_us = us("dynamic.apply") * batch_ops + us("graph.to_csr") + wal_us;
    out.push(Metric::new(
        "catalog.update_self_us",
        us("catalog.update") - children_us,
        "us",
    ));
    out.push(Metric::new(
        "wal.bytes_per_op",
        wal_bytes as f64 / wal_ops.max(1) as f64,
        "B/op",
    ));
    out.push(Metric::new(
        "core.exact_frac",
        search.stats.exact_computations as f64 / served.n().max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "core.bound_refreshes",
        search.stats.bound_refreshes as f64,
        "count",
    ));
    out.extend(server_metrics(outcome, children_us, us("core.opt_search"))?);
    Ok(out)
}

const READ_VERBS: [&str; 3] = ["TOPK", "SCORE", "COMMON"];

/// Layer metrics read off the TCP window's METRICS diff.
fn server_metrics(
    outcome: &Outcome,
    update_children_us: f64,
    opt_search_us: f64,
) -> Result<Vec<Metric>, String> {
    let diff = &outcome.diff;
    let lat = "egobtw_request_latency_ns";
    let mean_us = |(count, sum): (u64, f64)| sum / count.max(1) as f64 / 1e3;
    let reads = diff.histogram_over(lat, "verb", &READ_VERBS);
    let updates = diff.histogram(lat, &[("verb", "UPDATE")]);
    let topk = diff.histogram(lat, &[("verb", "TOPK")]);
    let server_count = reads.0 + updates.0;
    let server_sum = reads.1 + updates.1;
    let client_count = outcome.reads.len() + outcome.updates.len();
    let client_sum = (outcome.reads.total_ns() + outcome.updates.total_ns()) as f64;
    let transport_us =
        (client_sum / client_count.max(1) as f64 - server_sum / server_count.max(1) as f64) / 1e3;
    let write = diff.histogram("egobtw_write_ns", &[]);
    let ds = [("dataset", DATASET)];
    let hits = diff.counter("egobtw_cache_hits_total", &ds)?;
    let misses = diff.counter("egobtw_cache_misses_total", &ds)?;
    let lookups = hits + misses;
    Ok(vec![
        Metric::counted("server.transport_us", transport_us, "us", client_count),
        Metric::counted("server.write_us", mean_us(write), "us", write.0 as usize),
        Metric::counted("server.read_us", mean_us(reads), "us", reads.0 as usize),
        Metric::counted(
            "server.update_us",
            mean_us(updates),
            "us",
            updates.0 as usize,
        ),
        Metric::counted(
            "catalog.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
            lookups as usize,
        ),
        Metric::new(
            "wal.compactions",
            diff.counter("egobtw_wal_compactions_total", &ds)?,
            "count",
        ),
        Metric::new(
            "attrib.update_closure",
            update_children_us / mean_us(updates),
            "ratio",
        ),
        Metric::new(
            "attrib.topk_closure",
            opt_search_us / mean_us(topk),
            "ratio",
        ),
    ])
}
