//! End-to-end TCP tests: real sockets on an OS-assigned port.

use conformance::{check_topk, REL_TOL};
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::{replay_graph, EdgeOp};
use egobtw_gen::classic;
use egobtw_graph::VertexId;
use egobtw_service::catalog::Mode;
use egobtw_service::proto::parse_entries;
use egobtw_service::server::{connect_with_retry, roundtrip, Server};
use egobtw_service::Service;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The value of `key=` in a reply line.
fn field<'r>(reply: &'r str, key: &str) -> &'r str {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {reply:?}"))
}

fn start(threads: usize) -> (Arc<Service>, Server) {
    let service = Arc::new(Service::new());
    service
        .load_graph("k", classic::karate_club(), Mode::default())
        .unwrap();
    let server = Server::spawn(service.clone(), "127.0.0.1:0", threads).expect("bind");
    (service, server)
}

#[test]
fn end_to_end_session_load_query_update_requery() {
    let (_service, server) = start(2);
    let addr = server.local_addr().to_string();
    let (mut reader, mut writer) =
        connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");

    let pong = roundtrip(&mut reader, &mut writer, "PING").unwrap();
    assert_eq!(pong, "OK pong");

    // A batched frame: responses line up one-to-one, in order.
    let response = roundtrip(
        &mut reader,
        &mut writer,
        "TOPK k 3\nSCORE k 0 33\nCOMMON k 0 33\nSTATS k",
    )
    .unwrap();
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 4, "{response}");
    assert!(lines[0].starts_with("OK top name=k epoch=0 k=3 source=maintained"));
    assert!(lines[1].starts_with("OK score name=k epoch=0"));
    assert!(lines[2].starts_with("OK common name=k epoch=0"));
    assert!(lines[3].starts_with("OK stats name=k epoch=0 n=34 m=78"));

    let top0 = lines[0].split_once("entries=").unwrap().1.to_string();

    // Update, then the re-query must answer for the new epoch.
    let response = roundtrip(&mut reader, &mut writer, "UPDATE k -0,1 -0,2\nTOPK k 3").unwrap();
    let lines: Vec<&str> = response.lines().collect();
    assert!(lines[0].starts_with("OK update name=k epoch=1 applied=2 skipped=0"));
    assert!(
        lines[1].starts_with("OK top name=k epoch=1"),
        "{}",
        lines[1]
    );
    let top1 = lines[1].split_once("entries=").unwrap().1;
    assert_ne!(top0, top1, "deleting hub edges must change the answer");

    drop((reader, writer));
    server.shutdown();
}

#[test]
fn errors_keep_the_connection_usable() {
    let (_service, server) = start(1);
    let addr = server.local_addr().to_string();
    let (mut reader, mut writer) =
        connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
    let response = roundtrip(&mut reader, &mut writer, "NOPE\nTOPK missing 3").unwrap();
    for line in response.lines() {
        assert!(line.starts_with("ERR"), "{line}");
    }
    let pong = roundtrip(&mut reader, &mut writer, "PING").unwrap();
    assert_eq!(pong, "OK pong");
    drop((reader, writer));
    server.shutdown();
}

#[test]
fn concurrent_clients_see_consistent_epochs() {
    // 4 readers hammer TOPK while the main thread applies updates. Every
    // response must cite a published epoch, epochs must be monotone per
    // connection, and — checked after the join — every answer must be
    // the exact top-k of the graph at the epoch it cites: the update
    // stream replayed to that epoch, scored by the reference definition
    // and compared tie-aware. A stale, torn or cache-leaked answer fails.
    const K: usize = 5;
    let (service, server) = start(6);
    let g0 = egobtw_gen::gnp(40, 0.15, 7);
    service
        .load_graph("g", g0.clone(), Mode::default())
        .unwrap();
    let addr = server.local_addr().to_string();

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (mut reader, mut writer) =
                    connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
                let mut replies = Vec::with_capacity(50);
                let mut last_epoch = 0u64;
                for _ in 0..50 {
                    let response = roundtrip(&mut reader, &mut writer, &format!("TOPK g {K}"))
                        .expect("roundtrip");
                    assert!(response.starts_with("OK top"), "{response}");
                    let epoch: u64 = field(&response, "epoch").parse().unwrap();
                    // Epochs are monotone per connection: a reader can see
                    // a newer snapshot, never an older one again.
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                    replies.push((epoch, parse_entries(field(&response, "entries")).unwrap()));
                }
                replies
            })
        })
        .collect();

    let (mut reader, mut writer) =
        connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
    let mut ops = Vec::new();
    // Published epoch → length of the op prefix it reflects.
    let mut prefix_at: HashMap<u64, usize> = HashMap::from([(0, 0)]);
    for i in 0..20u32 {
        let (u, v) = (i % 40, (i * 7 + 1) % 40);
        if u == v {
            continue;
        }
        let response = roundtrip(&mut reader, &mut writer, &format!("UPDATE g +{u},{v}")).unwrap();
        assert!(response.starts_with("OK update"), "{response}");
        ops.push(EdgeOp::Insert(u, v));
        prefix_at.insert(field(&response, "epoch").parse().unwrap(), ops.len());
    }
    let replies: Vec<_> = readers
        .into_iter()
        .flat_map(|handle| handle.join().expect("reader thread panicked"))
        .collect();
    drop((reader, writer));
    server.shutdown();

    let mut truth_at: HashMap<u64, Vec<f64>> = HashMap::new();
    for (epoch, entries) in &replies {
        let prefix = *prefix_at
            .get(epoch)
            .unwrap_or_else(|| panic!("answer cites unpublished epoch {epoch}"));
        let truth = truth_at.entry(*epoch).or_insert_with(|| {
            let g = replay_graph(&g0, &ops[..prefix]).to_csr();
            (0..g.n() as VertexId)
                .map(|v| ego_betweenness_reference(&g, v))
                .collect()
        });
        check_topk(truth, entries, K, REL_TOL).unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
    }
}
