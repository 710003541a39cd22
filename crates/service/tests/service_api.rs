//! In-process `Service` API tests: no sockets, structured replies.

use egobtw_core::registry::{builtin_engines, topk_from_scores};
use egobtw_gen::classic;
use egobtw_service::catalog::{Mode, DEFAULT_PUBLISH_K};
use egobtw_service::service::TopkSource;
use egobtw_service::{parse_command, Service};

fn exec(service: &Service, line: &str) -> egobtw_service::Reply {
    service
        .execute(&parse_command(line).expect("parse"))
        .unwrap_or_else(|e| panic!("{line:?} failed: {e}"))
}

fn exec_err(service: &Service, line: &str) -> String {
    match parse_command(line).and_then(|c| service.execute(&c)) {
        Ok(r) => panic!("{line:?} unexpectedly succeeded: {}", r.render()),
        Err(e) => e,
    }
}

#[test]
fn topk_auto_is_maintained_and_matches_truth() {
    let service = Service::new();
    let g = classic::karate_club();
    service.load_graph("k", g.clone(), Mode::default()).unwrap();
    let truth = topk_from_scores(&egobtw_core::compute_all(&g).0, 5);
    match exec(&service, "TOPK k 5") {
        egobtw_service::Reply::Topk {
            source, entries, ..
        } => {
            assert_eq!(source, TopkSource::Maintained);
            for ((_, a), (_, b)) in entries.iter().zip(&truth) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn every_registry_engine_is_selectable_per_request() {
    let service = Service::new();
    let g = classic::karate_club();
    service.load_graph("k", g.clone(), Mode::default()).unwrap();
    let truth = topk_from_scores(&egobtw_core::compute_all(&g).0, 6);
    for engine in builtin_engines() {
        match exec(&service, &format!("TOPK k 6 {}", engine.name())) {
            egobtw_service::Reply::Topk {
                source, entries, ..
            } => {
                assert_eq!(source, TopkSource::Engine(engine.name().to_string()));
                for (rank, ((_, a), (_, b))) in entries.iter().zip(&truth).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{} rank {rank}: {a} vs {b}",
                        engine.name()
                    );
                }
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Second request: served from the per-epoch cache.
        match exec(&service, &format!("TOPK k 6 {}", engine.name())) {
            egobtw_service::Reply::Topk { source, .. } => {
                assert_eq!(source, TopkSource::Cache, "{}", engine.name());
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(exec_err(&service, "TOPK k 6 core::not_an_engine").contains("unknown engine"));
}

#[test]
fn k_larger_than_publish_window_falls_back_to_engine_then_cache() {
    let service = Service::new();
    service
        .load_graph("k", classic::karate_club(), Mode::Local { publish_k: 3 })
        .unwrap();
    let big_k = 10; // > publish_k → engine path
    match exec(&service, &format!("TOPK k {big_k}")) {
        egobtw_service::Reply::Topk {
            source, entries, ..
        } => {
            assert!(matches!(source, TopkSource::Engine(_)), "{source:?}");
            assert_eq!(entries.len(), big_k);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match exec(&service, &format!("TOPK k {big_k}")) {
        egobtw_service::Reply::Topk { source, .. } => assert_eq!(source, TopkSource::Cache),
        other => panic!("unexpected reply {other:?}"),
    }
    // k within the window stays maintained, and k > n clamps.
    match exec(&service, "TOPK k 2") {
        egobtw_service::Reply::Topk { source, .. } => {
            assert_eq!(source, TopkSource::Maintained)
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match exec(&service, "TOPK k 500") {
        egobtw_service::Reply::Topk { entries, .. } => assert_eq!(entries.len(), 34),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn update_bumps_epoch_invalidates_cache_and_stays_exact() {
    let service = Service::new();
    let g = classic::karate_club();
    service.load_graph("k", g.clone(), Mode::default()).unwrap();
    // Prime the engine cache at epoch 0 (named engines always go through
    // the cache; plain TOPK is served maintained here since n < 64).
    exec(&service, "TOPK k 40 core::compute_all");
    exec(&service, "TOPK k 40 core::compute_all");
    let out = match exec(&service, "UPDATE k +4,9 +4,9 -0,1") {
        egobtw_service::Reply::Update(_, out) => out,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(out.epoch, 1);
    assert_eq!((out.applied, out.skipped), (2, 1));
    // The answer at epoch 1 must reflect the new graph — a stale cache hit
    // would return epoch-0 scores.
    let mut g1 = egobtw_graph::DynGraph::from_csr(&g);
    g1.insert_edge(4, 9);
    g1.remove_edge(0, 1);
    let truth = topk_from_scores(&egobtw_core::compute_all(&g1.to_csr()).0, 40);
    match exec(&service, "TOPK k 40") {
        egobtw_service::Reply::Topk {
            epoch,
            source,
            entries,
            ..
        } => {
            assert_eq!(epoch, 1);
            assert!(
                !matches!(source, TopkSource::Cache),
                "epoch 1 must not hit epoch 0's cache"
            );
            for ((_, a), (_, b)) in entries.iter().zip(&truth) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match exec(&service, "STATS k") {
        egobtw_service::Reply::Stats {
            epoch,
            m,
            ops_applied,
            cache_hits,
            cache_misses,
            maintained,
            ..
        } => {
            assert_eq!(epoch, 1);
            assert_eq!(m, g.m()); // +1 −1
            assert_eq!(ops_applied, 2);
            assert!(cache_hits >= 1 && cache_misses >= 1);
            assert_eq!(maintained, Some(DEFAULT_PUBLISH_K.min(34)));
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn score_and_common_match_direct_computation() {
    let service = Service::new();
    let g = classic::karate_club();
    service.load_graph("k", g.clone(), Mode::default()).unwrap();
    match exec(&service, "SCORE k 0 33 5") {
        egobtw_service::Reply::Score {
            entries, cached, ..
        } => {
            assert_eq!(cached, 0);
            for &(v, s) in &entries {
                let direct = egobtw_core::naive::ego_betweenness_of(&g, v);
                assert!((s - direct).abs() < 1e-9, "vertex {v}");
            }
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // Second ask is fully cached.
    match exec(&service, "SCORE k 0 33 5") {
        egobtw_service::Reply::Score { cached, .. } => assert_eq!(cached, 3),
        other => panic!("unexpected reply {other:?}"),
    }
    match exec(&service, "COMMON k 0 33") {
        egobtw_service::Reply::Common { witnesses, .. } => {
            let mut expect = Vec::new();
            g.common_neighbors_into(0, 33, &mut expect);
            assert_eq!(witnesses, expect);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(exec_err(&service, "SCORE k 99").contains("out of range"));
    assert!(exec_err(&service, "COMMON k 0 99").contains("out of range"));
}

#[test]
fn lazy_dataset_pays_refresh_once_then_serves_maintained() {
    let service = Service::new();
    let g = egobtw_gen::toy::paper_graph();
    service.load_graph("t", g, Mode::Lazy { k: 12 }).unwrap();
    // Delete with common neighbors → deferred refresh at publish.
    exec(
        &service,
        &format!(
            "UPDATE t -{},{}",
            egobtw_gen::toy::ids::C,
            egobtw_gen::toy::ids::G
        ),
    );
    match exec(&service, "TOPK t 12") {
        egobtw_service::Reply::Topk { source, epoch, .. } => {
            assert_eq!(source, TopkSource::Refreshed, "first read pays the refresh");
            assert_eq!(epoch, 1);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match exec(&service, "TOPK t 12") {
        egobtw_service::Reply::Topk { source, .. } => {
            assert_eq!(
                source,
                TopkSource::Maintained,
                "refresh republished the epoch with exact entries"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // k beyond the lazy window uses the engine path.
    match exec(&service, "TOPK t 16") {
        egobtw_service::Reply::Topk { source, .. } => {
            assert!(matches!(source, TopkSource::Engine(_)));
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn load_list_drop_and_errors() {
    let service = Service::new();
    assert!(exec_err(&service, "TOPK nope 3").contains("no dataset"));
    service
        .load_graph("a", classic::star(6), Mode::default())
        .unwrap();
    service
        .load_graph("b", classic::path(6), Mode::default())
        .unwrap();
    match exec(&service, "LIST") {
        egobtw_service::Reply::List(names) => {
            assert_eq!(names, vec!["a".to_string(), "b".to_string()])
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(service
        .load_graph("a", classic::star(6), Mode::default())
        .unwrap_err()
        .contains("already loaded"));
    exec(&service, "DROP a");
    assert!(exec_err(&service, "DROP a").contains("no dataset"));
}

#[test]
fn load_path_sniffs_snapshot_and_edge_list() {
    let service = Service::new();
    let g = classic::karate_club();
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("egobtw-svc-{}.snap", std::process::id()));
    let edges = dir.join(format!("egobtw-svc-{}.edges", std::process::id()));
    egobtw_graph::io::write_snapshot_file(&g, None, &snap).unwrap();
    egobtw_graph::io::write_edge_list_file(&g, &edges).unwrap();
    let r1 = service
        .load_path("snap", snap.to_str().unwrap(), Mode::default())
        .unwrap();
    let r2 = service
        .load_path("edges", edges.to_str().unwrap(), Mode::default())
        .unwrap();
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&edges).ok();
    match (r1, r2) {
        (
            egobtw_service::Reply::Load {
                snapshot: s1,
                m: m1,
                ..
            },
            egobtw_service::Reply::Load {
                snapshot: s2,
                m: m2,
                ..
            },
        ) => {
            assert!(s1 && !s2);
            assert_eq!((m1, m2), (g.m(), g.m()));
        }
        other => panic!("unexpected replies {other:?}"),
    }
    // Both views answer with the same score sequence (the edge-list
    // loader relabels ids in first-seen order, so vertex ids may differ
    // on exact ties — scores cannot).
    let score_seq = |line: &str| -> Vec<f64> {
        match exec(&service, line) {
            egobtw_service::Reply::Topk { entries, .. } => entries.iter().map(|e| e.1).collect(),
            other => panic!("unexpected reply {other:?}"),
        }
    };
    let a = score_seq("TOPK snap 5");
    let b = score_seq("TOPK edges 5");
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
    }
    assert!(service
        .load_path("missing", "/nonexistent/x", Mode::default())
        .unwrap_err()
        .contains("open"));
}

#[test]
fn handle_payload_batches_and_isolates_errors() {
    let service = Service::new();
    service
        .load_graph("k", classic::karate_club(), Mode::default())
        .unwrap();
    let response = service.handle_payload("PING\nBOGUS\nTOPK k 3\n\nLIST");
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 4, "{response}");
    assert_eq!(lines[0], "OK pong");
    assert!(lines[1].starts_with("ERR"), "{}", lines[1]);
    assert!(
        lines[2].starts_with("OK top name=k epoch=0 k=3"),
        "{}",
        lines[2]
    );
    assert_eq!(lines[3], "OK list datasets=k");
    assert_eq!(service.handle_payload("   \n"), "ERR empty request");
}

#[test]
fn concurrent_identical_cold_topks_coalesce_to_one_computation() {
    // N threads ask the same (engine, k) on a cold epoch at once: exactly
    // one computes, the rest join its flight — cache_misses stays 1.
    let service = std::sync::Arc::new(Service::new());
    let g = egobtw_gen::gnp(120, 0.08, 17);
    service
        .load_graph("co", g, Mode::Local { publish_k: 4 })
        .unwrap();
    let barrier = std::sync::Barrier::new(8);
    let answers: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (service, barrier) = (service.clone(), &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service.handle_line("TOPK co 9 core::compute_all")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for a in &answers {
        assert!(a.starts_with("OK top"), "{a}");
        assert_eq!(
            a.split("entries=").nth(1),
            answers[0].split("entries=").nth(1),
            "coalesced answers must be identical"
        );
    }
    let ds = service.catalog().get("co").unwrap();
    assert_eq!(
        ds.metrics().cache_misses.get(),
        1,
        "single-flight: one computation for 8 identical requests"
    );
    assert_eq!(
        ds.metrics().coalesced.get() + ds.metrics().cache_hits.get(),
        7,
        "every other request joined the flight or hit its published result"
    );
}

#[test]
fn stats_line_reports_shard_persistence_and_coalescing_fields() {
    let service = Service::new();
    service
        .load_graph("s", classic::karate_club(), Mode::default())
        .unwrap();
    let line = service.handle_line("STATS s");
    // New fields ride at the end of the line so older scripts that match
    // on the prefix keep working.
    assert!(
        line.starts_with("OK stats name=s epoch=0 n=34 m=78"),
        "{line}"
    );
    for needle in [
        " coalesced=0",
        " shard=",
        " persisted=false",
        " wal_records=0",
    ] {
        assert!(line.contains(needle), "{line} missing {needle}");
    }
}

#[test]
fn approx_engine_token_serves_cached_deterministic_topk() {
    let service = Service::new();
    let g = classic::karate_club();
    service.load_graph("a", g.clone(), Mode::default()).unwrap();
    let truth = topk_from_scores(&egobtw_core::compute_all(&g).0, 5);

    // Karate sits under the approx engine's exact-pair cutoff, so the
    // sampler answers exactly — the wire-level contract here is about
    // routing, caching, and counters, not statistics.
    let first = match exec(&service, "TOPK a 5 approx:0.05,0.01") {
        egobtw_service::Reply::Topk {
            source, entries, ..
        } => {
            assert_eq!(source, TopkSource::Engine("approx:0.05,0.01".into()));
            for ((_, a), (_, b)) in entries.iter().zip(&truth) {
                assert!((a - b).abs() < 1e-9);
            }
            entries
        }
        other => panic!("unexpected reply {other:?}"),
    };

    // Same epoch + same token ⇒ served from the per-epoch cache,
    // byte-identical (the sampler seed is fixed per token).
    match exec(&service, "TOPK a 5 approx:0.05,0.01") {
        egobtw_service::Reply::Topk {
            source, entries, ..
        } => {
            assert_eq!(source, TopkSource::Cache);
            assert_eq!(entries, first);
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // A different (ε, δ) is a different cache key, hence a fresh run.
    match exec(&service, "TOPK a 5 approx:0.10,0.05") {
        egobtw_service::Reply::Topk { source, .. } => {
            assert_eq!(source, TopkSource::Engine("approx:0.10,0.05".into()));
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn approx_engine_rejects_malformed_specs() {
    let service = Service::new();
    service
        .load_graph("a", classic::karate_club(), Mode::default())
        .unwrap();
    for bad in [
        "TOPK a 5 approx:",
        "TOPK a 5 approx:0.05",
        "TOPK a 5 approx:0.05;0.01",
        "TOPK a 5 approx:0,0.01",
        "TOPK a 5 approx:1.5,0.01",
        "TOPK a 5 approx:0.05,1.0",
        "TOPK a 5 approx:eps,delta",
    ] {
        let e = exec_err(&service, bad);
        assert!(e.contains("approx"), "{bad:?}: {e}");
    }
}

#[test]
fn stats_reports_approx_sampling_counters() {
    let service = Service::new();
    // A graph big enough that the sampler actually samples (degrees push
    // pair counts past the exact cutoff), so the counters move.
    let g = egobtw_gen::synth_family("ba", 2.0, 9).unwrap();
    service.load_graph("s", g, Mode::default()).unwrap();
    let before = service.handle_line("STATS s");
    assert!(
        before.contains(" approx_samples=0") && before.contains(" approx_rounds=0"),
        "{before}"
    );
    exec(&service, "TOPK s 8 approx:0.05,0.01");
    let ds = service.catalog().get("s").unwrap();
    let samples = ds.metrics().approx_samples.get();
    let rounds = ds.metrics().approx_rounds.get();
    assert!(samples > 0, "sampler drew nothing on a 400-vertex graph");
    assert!(rounds > 0);
    let after = service.handle_line("STATS s");
    assert!(
        after.contains(&format!(" approx_samples={samples}"))
            && after.contains(&format!(" approx_rounds={rounds}")),
        "{after}"
    );
    // Cache hits don't re-run the sampler, so the counters hold still.
    exec(&service, "TOPK s 8 approx:0.05,0.01");
    assert_eq!(ds.metrics().approx_samples.get(), samples);
}

#[test]
fn compact_requires_a_persistent_dataset() {
    let service = Service::new();
    service
        .load_graph("mem", classic::star(5), Mode::default())
        .unwrap();
    let err = exec_err(&service, "COMPACT mem");
    assert!(err.contains("not persistent"), "{err}");
    assert!(exec_err(&service, "COMPACT ghost").contains("no dataset"));
}

#[test]
fn path_shaped_dataset_names_are_rejected_at_the_api_edge() {
    let service = Service::new();
    for bad in ["../up", "a/b", "a\\b", ".", "..", "a b", "caf\u{e9}"] {
        let err = service
            .load_graph(bad, classic::star(4), Mode::default())
            .unwrap_err();
        assert!(err.contains("bad dataset name"), "{bad:?}: {err}");
    }
    // Names mixing dashes, dots and underscores stay legal.
    service
        .load_graph(
            "karate--update-heavy.v1_x",
            classic::star(4),
            Mode::default(),
        )
        .unwrap();
}
