//! Tests of the benchmark's own code: request streams, the sample-count
//! rule, METRICS diffs, writer seq bookkeeping, span self times, and a
//! tiny-scale smoke run of every workload against the real daemon.

use e2ebench::daemon::{build_daemon, Paths};
use e2ebench::scrape::{self, Diff};
use e2ebench::stats::{min_samples, Latencies};
use e2ebench::stream::{OpStream, ReadMix, SeqLog, Zipf};
use e2ebench::trace::Tracer;
use e2ebench::workload::{self, RunConfig, WORKLOADS};
use e2ebench::{end_to_end, layers, traced_end_to_end};
use egobtw_bench::json::Json;
use egobtw_dynamic::EdgeOp;
use egobtw_graph::CsrGraph;
use egobtw_telemetry::Registry;
use std::collections::BTreeSet;
use std::time::Instant;

fn small_graph() -> CsrGraph {
    egobtw_bench::standins(0.02)
        .into_iter()
        .find(|d| d.name == "livejournal-like")
        .expect("stand-in exists")
        .graph
}

#[test]
fn same_seed_gives_the_same_request_stream() {
    let g = small_graph();
    let reads = |seed| {
        let mut mix = ReadMix::new(Zipf::over_degree_rank(&g), 8, seed, "reader-0");
        (0..2_000).map(|_| mix.next_read()).collect::<Vec<_>>()
    };
    let ops = |seed| {
        let mut s = OpStream::new(&g, seed, "writer");
        (0..50).map(|_| s.next_batch(8)).collect::<Vec<_>>()
    };
    assert_eq!(reads(7), reads(7));
    assert_eq!(ops(7), ops(7));
    assert_ne!(reads(7), reads(8));
    assert_ne!(ops(7), ops(8));
}

#[test]
fn op_stream_only_emits_state_changing_ops() {
    let g = small_graph();
    let mut mirror = egobtw_graph::DynGraph::from_csr(&g);
    let mut s = OpStream::new(&g, 3, "writer");
    for op in s.next_batch(2_000) {
        let changed = match op {
            EdgeOp::Insert(u, v) => mirror.insert_edge(u, v),
            EdgeOp::Delete(u, v) => mirror.remove_edge(u, v),
        };
        assert!(changed, "{op:?} does not change the graph");
    }
}

#[test]
fn zipf_prefers_high_degree_vertices() {
    let g = small_graph();
    let zipf = Zipf::over_degree_rank(&g);
    let mut rng = e2ebench::stream::Rng::new(1, "zipf");
    let top = (0..g.n() as u32)
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap();
    let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) == top).count();
    // Rank 1 has weight 1 / H(n) ≈ 1/7.4 at n = 1000.
    assert!(
        (1_000..1_800).contains(&hits),
        "rank-1 vertex drawn {hits} times"
    );
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    assert_eq!(min_samples(0.5), 20);
    assert_eq!(min_samples(0.9), 100);
    assert_eq!(min_samples(0.99), 1_000);
    let mut lat = Latencies::default();
    for i in 0..999 {
        lat.record(i * 1_000);
    }
    assert!(lat.percentile(0.99).is_none());
    assert!(lat
        .require("read", 0.99)
        .unwrap_err()
        .contains("needs 1000 samples"));
    let p90 = lat.percentile(0.9).expect("999 samples support p90");
    assert_eq!(p90.samples, 999);
    lat.record(999_000);
    let p99 = lat.percentile(0.99).expect("1000 samples support p99");
    assert_eq!(p99.samples, 1_000);
    assert!((p99.us - 989.01).abs() < 1e-6, "{p99:?}");
    let mut few = Latencies::default();
    for i in 0..19 {
        few.record(i);
    }
    assert!(few.percentile(0.5).is_none());
}

#[test]
fn metrics_diff_reads_counters_and_histograms() {
    let registry = Registry::new();
    let hits = registry.counter(
        "egobtw_cache_hits_total",
        "hits",
        &[("dataset", "g"), ("shard", "3")],
    );
    let lat = registry.histogram("egobtw_request_latency_ns", "latency", &[("verb", "TOPK")]);
    let upd = registry.histogram(
        "egobtw_request_latency_ns",
        "latency",
        &[("verb", "UPDATE")],
    );
    for (name, v) in [
        ("egobtw_requests_admitted_total", 5),
        ("egobtw_requests_completed_total", 4),
        ("egobtw_requests_cancelled_total", 0),
        ("egobtw_requests_failed_total", 1),
    ] {
        registry.counter(name, "outcome", &[]).add(v);
    }
    hits.add(2);
    lat.record(1_000);
    let before = scrape::parse(&registry.render()).expect("parses");
    hits.add(5);
    lat.record(3_000);
    lat.record(5_000);
    upd.record(40_000);
    let after = scrape::parse(&registry.render()).expect("parses");
    scrape::check_accounting(&after).expect("5 == 4 + 0 + 1");

    let diff = Diff::new(before, after);
    assert_eq!(
        diff.counter("egobtw_cache_hits_total", &[("dataset", "g")])
            .unwrap(),
        5.0
    );
    assert_eq!(
        diff.counter("egobtw_cache_misses_total", &[("dataset", "g")])
            .unwrap(),
        0.0
    );
    let topk = diff.histogram("egobtw_request_latency_ns", &[("verb", "TOPK")]);
    assert_eq!(topk, (2, 8_000.0));
    let both = diff.histogram_over("egobtw_request_latency_ns", "verb", &["TOPK", "UPDATE"]);
    assert_eq!(both, (3, 48_000.0));

    registry
        .counter("egobtw_requests_admitted_total", "outcome", &[])
        .inc();
    let broken = scrape::parse(&registry.render()).expect("parses");
    assert!(scrape::check_accounting(&broken)
        .unwrap_err()
        .contains("accounting"));
}

#[test]
fn seq_log_tracks_acked_epochs() {
    let mut log = SeqLog::default();
    let b1 = vec![EdgeOp::Insert(1, 2), EdgeOp::Delete(3, 4)];
    assert_eq!(log.update_line("g", &b1), "UPDATE g seq=0 +1,2 -3,4");
    assert_eq!(
        log.ack(
            "OK update name=g epoch=1 applied=2 skipped=0 n=9 m=9",
            b1.clone()
        ),
        Ok(1)
    );
    let b2 = vec![EdgeOp::Insert(5, 6)];
    assert_eq!(log.update_line("g", &b2), "UPDATE g seq=1 +5,6");
    // Wrong epoch, skipped ops, or an ERR are violations and leave the
    // log where it was.
    assert!(log
        .ack("OK update name=g epoch=3 applied=1 skipped=0", b2.clone())
        .is_err());
    assert!(log
        .ack("OK update name=g epoch=2 applied=0 skipped=1", b2.clone())
        .is_err());
    assert!(log.ack("ERR stale seq=1", b2.clone()).is_err());
    assert_eq!(log.acked_epoch(), 1);
    assert_eq!(
        log.ack("OK update name=g epoch=2 applied=1 skipped=0", b2.clone()),
        Ok(2)
    );
    assert_eq!(log.ops_through(0), vec![]);
    assert_eq!(log.ops_through(1), b1);
    assert_eq!(log.ops_through(2), [b1, b2].concat());
}

#[test]
fn self_time_subtracts_child_coverage() {
    let mut t = Tracer::new(Instant::now());
    let root = t.enter("root", 1, 1);
    t.time("child", 1, 1, || {
        std::thread::sleep(std::time::Duration::from_millis(20))
    });
    t.time("child", 1, 1, || {
        std::thread::sleep(std::time::Duration::from_millis(20))
    });
    std::thread::sleep(std::time::Duration::from_millis(10));
    t.exit(root);
    let st = t.self_times();
    let (root, child) = (st["root"], st["child"]);
    assert_eq!((root.spans, child.spans, child.ops), (1, 2, 2));
    assert!((10e6..25e6).contains(&root.self_ns), "{root:?}");
    assert!(child.per_op_ns() >= 20e6, "{child:?}");
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_at_tiny_scale() {
    let paths = Paths::resolve().expect("paths");
    let bin = build_daemon(&paths).expect("daemon builds");
    let declared_e2e = declared("end_to_end");
    let declared_layers = declared("per_layer");
    for spec in &WORKLOADS {
        let rundir = paths.work.join(format!("test-smoke-{}", spec.name));
        let _ = std::fs::remove_dir_all(&rundir);
        let inputs = workload::make_inputs(spec, 0.02, &rundir.join("inputs")).expect("inputs");
        let cfg = RunConfig {
            seed: 5,
            seconds: 2.0,
        };
        let origin = Instant::now();
        let mut outcome =
            workload::run(spec, &cfg, &inputs, &bin, &rundir, Some(origin)).expect("run");
        let mut tracer = outcome.client_spans.take().expect("traced window");
        let per_layer = layers::measure(
            spec,
            cfg.seed,
            &inputs,
            &outcome,
            &rundir.join("layers"),
            &mut tracer,
        )
        .expect("layers");
        workload::finish(spec, &inputs, &bin, &rundir, &mut outcome).expect("finish");
        assert_eq!(outcome.failed, 0, "{}: {:?}", spec.name, outcome.failures);
        assert!(
            outcome.violations.is_empty(),
            "{}: {:?}",
            spec.name,
            outcome.violations
        );
        assert!(outcome.checked > 0, "{}: nothing checked", spec.name);

        let e2e = end_to_end(&mut outcome).expect("every percentile has its samples");
        let names: BTreeSet<String> = e2e.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared_e2e, "{}", spec.name);
        for m in &e2e {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", spec.name);
        }
        let mut names: BTreeSet<String> = per_layer.iter().map(|m| m.name.clone()).collect();
        let traced = traced_end_to_end(&mut outcome).expect("traced");
        names.extend(traced.iter().map(|m| m.name.clone()));
        assert_eq!(names, declared_layers, "{}", spec.name);
        for m in &per_layer {
            assert!(m.value.is_finite(), "{}: {m:?}", spec.name);
        }
        let _ = std::fs::remove_dir_all(&rundir);
    }
}
