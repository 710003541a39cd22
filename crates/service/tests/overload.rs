//! Overload-model conformance for the in-process [`Server`]: slow
//! clients can't pin the pool, saturation sheds with an explicit `ERR
//! busy`, deadlines are enforced and counted, drain answers in-flight
//! work while refusing queued work, and `shutdown` joins every thread.

use egobtw_service::server::{connect_with_retry, roundtrip};
use egobtw_service::{Server, ServerConfig, Service, MAX_UPDATE_OPS, SHED_RETRY_MS};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service_with(name: &str, n: usize, p: f64, seed: u64) -> Arc<Service> {
    let service = Service::new();
    let g0 = egobtw_gen::gnp(n, p, seed);
    service
        .load_graph(name, g0, egobtw_service::Mode::default())
        .unwrap();
    Arc::new(service)
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    connect_with_retry(addr, Duration::from_secs(10)).expect("connect")
}

/// Satellite 1: a client that connects and never sends a byte holds a
/// worker only until `io_timeout` — it cannot exhaust the pool. With
/// both workers pinned by sleepers, a real client is served as soon as
/// the read timeouts fire.
#[test]
fn slow_clients_cannot_exhaust_the_worker_pool() {
    let service = service_with("g", 24, 0.2, 7);
    let server = Server::spawn_with(
        service,
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            queue_cap: 8,
            max_conns: 32,
            io_timeout: Some(Duration::from_millis(300)),
            drain_grace: Duration::from_secs(2),
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Two slow-loris sessions: accepted, served, never speak.
    let _loris_a = TcpStream::connect(&addr).unwrap();
    let _loris_b = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let workers pick them up

    let started = Instant::now();
    let (mut reader, mut writer) = connect(&addr);
    writer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reply = roundtrip(&mut reader, &mut writer, "PING").unwrap();
    assert_eq!(reply, "OK pong");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "PING took {:?} — the sleepers pinned the pool past their io_timeout",
        started.elapsed()
    );
    server.shutdown();
}

/// Saturation beyond `max_conns` is an explicit, counted refusal —
/// never a hang.
#[test]
fn saturated_acceptor_sheds_with_err_busy() {
    let service = service_with("g", 24, 0.2, 7);
    let server = Server::spawn_with(
        service.clone(),
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            queue_cap: 1,
            max_conns: 2,
            io_timeout: Some(Duration::from_secs(10)),
            drain_grace: Duration::from_secs(2),
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Fill the lone worker with a session that proves the worker owns it
    // (one answered PING) and then goes silent, then park a second silent
    // session in the lone queue slot.
    let (mut rp, mut wp) = connect(&addr);
    assert_eq!(roundtrip(&mut rp, &mut wp, "PING").unwrap(), "OK pong");
    let _queued = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Anything past max_conns must be told to go away.
    let (mut reader, mut writer) = connect(&addr);
    writer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reply = roundtrip(&mut reader, &mut writer, "PING").unwrap_or_else(|e| {
        panic!(
            "no reply (shed={} inflight={}): {e}",
            service.overload().shed.get(),
            service.overload().inflight.get()
        )
    });
    assert_eq!(reply, format!("ERR busy retry_after_ms={SHED_RETRY_MS}"));
    assert!(
        service.overload().shed.get() >= 1,
        "shed counter must record the refusal"
    );
    server.shutdown();
}

/// Tentpole (a): an already-expired deadline is refused at dequeue with
/// `ERR deadline`, and the timeout counter records it; a generous
/// deadline on the same command succeeds.
#[test]
fn expired_deadline_is_refused_and_counted() {
    let service = service_with("g", 40, 0.15, 11);
    let server = Server::spawn(service.clone(), "127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().to_string();
    let (mut reader, mut writer) = connect(&addr);

    let reply = roundtrip(
        &mut reader,
        &mut writer,
        "DEADLINE 0 TOPK g 5 core::compute_all",
    )
    .unwrap();
    assert!(
        reply.starts_with("ERR") && reply.contains("deadline"),
        "expired budget must say deadline, got {reply:?}"
    );
    assert!(service.overload().timeouts.get() >= 1);

    let reply = roundtrip(
        &mut reader,
        &mut writer,
        "DEADLINE 30000 TOPK g 5 core::compute_all",
    )
    .unwrap();
    assert!(reply.starts_with("OK top"), "{reply}");
    server.shutdown();
}

/// Satellite 2: an oversized UPDATE batch is refused at the API edge
/// with an error that names the cap, before any op applies.
#[test]
fn oversized_update_batch_is_refused_with_the_cap_named() {
    let service = service_with("g", 24, 0.2, 7);
    let server = Server::spawn(service.clone(), "127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr().to_string();
    let (mut reader, mut writer) = connect(&addr);

    let mut line = String::from("UPDATE g");
    for i in 0..=MAX_UPDATE_OPS {
        line.push_str(&format!(" +{},{}", i % 24, (i + 1) % 24));
    }
    let reply = roundtrip(&mut reader, &mut writer, &line).unwrap();
    assert!(
        reply.starts_with("ERR") && reply.contains(&MAX_UPDATE_OPS.to_string()),
        "cap refusal must name the cap, got {reply:?}"
    );
    // Nothing applied: the dataset is still at epoch 0.
    let stats = roundtrip(&mut reader, &mut writer, "STATS g").unwrap();
    assert!(stats.contains(" epoch=0 "), "{stats}");
    server.shutdown();
}

/// Satellite 3 / tentpole (c): drain answers the in-flight frame,
/// refuses the queued session with `ERR draining`, and joins every
/// worker (drain returning *is* the join).
#[test]
fn drain_answers_inflight_and_refuses_queued() {
    let service = service_with("g", 60, 0.12, 23);
    let server = Server::spawn_with(
        service,
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            queue_cap: 4,
            max_conns: 16,
            io_timeout: Some(Duration::from_secs(10)),
            drain_grace: Duration::from_secs(5),
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Session A owns the lone worker…
    let (mut ra, mut wa) = connect(&addr);
    assert_eq!(roundtrip(&mut ra, &mut wa, "PING").unwrap(), "OK pong");
    // …session B waits in the queue behind it.
    let b = TcpStream::connect(&addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rb = BufReader::new(b.try_clone().unwrap());
    std::thread::sleep(Duration::from_millis(50));

    // Put a frame in flight on A, then drain while it computes.
    egobtw_service::write_frame(&mut wa, "TOPK g 8 core::compute_all").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let collector = std::thread::spawn(move || {
        let a_reply = egobtw_service::read_frame(&mut ra).unwrap();
        let b_reply = egobtw_service::read_frame(&mut rb).unwrap();
        (a_reply, b_reply)
    });
    server.drain(Duration::from_secs(5));

    let (a_reply, b_reply) = collector.join().unwrap();
    let a_reply = a_reply.expect("in-flight frame must be answered");
    assert!(
        a_reply.starts_with("OK top"),
        "in-flight frame must finish inside the grace period: {a_reply:?}"
    );
    assert_eq!(
        b_reply.expect("queued session must be refused, not dropped"),
        "ERR draining"
    );
}

/// After `shutdown` returns, the listener is gone: no thread leaked, no
/// half-open socket accepting connections into the void.
#[test]
fn shutdown_closes_the_listener() {
    let service = service_with("g", 24, 0.2, 7);
    let server = Server::spawn(service, "127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().to_string();
    {
        let (mut reader, mut writer) = connect(&addr);
        assert_eq!(
            roundtrip(&mut reader, &mut writer, "PING").unwrap(),
            "OK pong"
        );
    }
    server.shutdown();
    // A fresh connection must fail outright or die unanswered — the
    // accept loop is gone either way.
    if let Ok(stream) = TcpStream::connect(&addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        assert!(
            roundtrip(&mut reader, &mut writer, "PING").is_err(),
            "a drained server must not serve new sessions"
        );
    }
}
