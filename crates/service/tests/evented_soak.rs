//! Soak test for the evented daemon: 1024 concurrent TCP connections,
//! all pipelining windows of requests at once, served by a fixed thread
//! count (one event loop + a small verify pool — not one thread per
//! connection). Every response must be byte-identical to what an
//! identically built [`MatchService`] answers directly, proving the
//! readiness loop's framing, worker handoff and in-order response
//! reassembly change nothing about the verdicts.

use lexequal_service::server::respond;
use lexequal_service::{serve, MatchService, ReqCtx, ServeOptions, ServiceConfig, ShutdownSignal};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CONNS: usize = 1024;
const CLIENT_THREADS: usize = 16;
const WINDOW: usize = 4;
const WINDOWS_PER_CONN: usize = 2;
const POOL: usize = 64;

fn build_service(dataset: &[lexequal::store::NameEntry]) -> MatchService {
    let service = MatchService::new(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    service.extend_transformed(dataset.to_vec());
    service.build(lexequal_service::BuildSpec::PhoneticIndex);
    service
}

#[test]
fn a_thousand_pipelined_connections_match_direct_lookups_exactly() {
    let dataset = lexequal_lexicon::build_dataset(&lexequal::MatchConfig::default(), 1_000);
    assert!(
        dataset.len() >= POOL,
        "dataset too small: {}",
        dataset.len()
    );
    let service = Arc::new(build_service(&dataset));
    // The oracle: a second service built from the same dataset, asked
    // the same questions directly (no sockets, no pipelining).
    let reference = build_service(&dataset);
    let queries: Vec<String> = {
        let stride = (dataset.len() / POOL).max(1);
        dataset
            .iter()
            .step_by(stride)
            .take(POOL)
            .map(|e| format!("MATCH {} phonidx 0.35 {}", e.language, e.text))
            .collect()
    };
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            let mut quit = false;
            let lines = respond(q, &reference, &ReqCtx::default(), None, &mut quit);
            assert_eq!(lines.len(), 1, "{q}");
            lines[0].clone()
        })
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = ShutdownSignal::new().expect("shutdown");
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let server = {
        let service = Arc::clone(&service);
        let sd = shutdown.clone();
        std::thread::spawn(move || serve(listener, service, ReqCtx::default(), opts, sd))
    };

    // Two barriers pin the concurrency profile: no thread starts
    // driving until all 1024 connections are open, and none disconnects
    // until all have finished driving — so the server really holds 1024
    // live pipelined connections at once.
    let all_connected = Arc::new(Barrier::new(CLIENT_THREADS));
    let all_driven = Arc::new(Barrier::new(CLIENT_THREADS));
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let expected = &expected;
            let queries = &queries;
            let all_connected = Arc::clone(&all_connected);
            let all_driven = Arc::clone(&all_driven);
            scope.spawn(move || {
                let my_conns: Vec<usize> = (t..CONNS).step_by(CLIENT_THREADS).collect();
                let mut socks = Vec::with_capacity(my_conns.len());
                for _ in &my_conns {
                    let stream = loop {
                        match TcpStream::connect(addr) {
                            Ok(s) => break s,
                            // Listen backlog can overflow while 16
                            // threads connect at once; retry.
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    };
                    stream.set_nodelay(true).expect("nodelay");
                    let reader = BufReader::new(stream.try_clone().expect("clone"));
                    socks.push((stream, reader));
                }
                all_connected.wait();
                let mut line = String::new();
                for w in 0..WINDOWS_PER_CONN {
                    // Write every connection's window before reading any
                    // response: all of this thread's 64 connections keep
                    // WINDOW requests in flight simultaneously.
                    for (s, (stream, _)) in socks.iter_mut().enumerate() {
                        let conn_id = my_conns[s];
                        let mut batch = String::new();
                        for k in 0..WINDOW {
                            batch.push_str(&queries[(conn_id + w * WINDOW + k) % POOL]);
                            batch.push('\n');
                        }
                        stream.write_all(batch.as_bytes()).expect("write window");
                    }
                    for (s, (_, reader)) in socks.iter_mut().enumerate() {
                        let conn_id = my_conns[s];
                        for k in 0..WINDOW {
                            let want = &expected[(conn_id + w * WINDOW + k) % POOL];
                            line.clear();
                            reader.read_line(&mut line).expect("read response");
                            assert_eq!(
                                line.trim_end(),
                                want,
                                "conn {conn_id} window {w} slot {k} diverged"
                            );
                        }
                    }
                }
                all_driven.wait();
            });
        }
    });

    // The server saw all 1024 connections alive at once, and real
    // pipelining on them.
    let stats = {
        let mut stream = TcpStream::connect(addr).expect("stats conn");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(b"STATS\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line
    };
    let stat = |key: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no {key} in {stats:?}"))
            .parse()
            .expect("number")
    };
    assert!(
        stat("conns_peak") >= CONNS as u64,
        "peak {} < {CONNS}: {stats}",
        stat("conns_peak")
    );
    assert!(stat("pipeline_max") >= 2, "never pipelined: {stats}");
    assert_eq!(
        stat("dispatches"),
        (CONNS * WINDOWS_PER_CONN * WINDOW) as u64 + 1,
        "dispatch count off: {stats}"
    );

    shutdown.trigger();
    server.join().expect("server thread").expect("serve loop");
}
