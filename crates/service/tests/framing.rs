//! Socket-level framing edge cases against the serving loop: request
//! lines split across arbitrarily small writes, many lines arriving in
//! one write, CRLF endings, and oversized-line rejection — the cases a
//! readiness loop must get right (a blocking `BufReader::read_line`
//! would get them for free).

use lexequal_service::{serve, MatchService, ReqCtx, ServeOptions, ServiceConfig, ShutdownSignal};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn spawn_evented(
    opts: ServeOptions,
) -> (
    std::net::SocketAddr,
    ShutdownSignal,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let service = Arc::new(MatchService::new(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    }));
    service
        .extend([
            ("Nehru".to_owned(), lexequal::Language::English),
            ("नेहरु".to_owned(), lexequal::Language::Hindi),
        ])
        .expect("seed names");
    service.build_all(3, lexequal::QgramMode::Strict);
    let shutdown = ShutdownSignal::new().expect("shutdown");
    let sd = shutdown.clone();
    let handle = std::thread::spawn(move || serve(listener, service, ReqCtx::default(), opts, sd));
    (addr, shutdown, handle)
}

#[test]
fn a_request_split_into_single_bytes_still_parses() {
    let (addr, shutdown, handle) = spawn_evented(ServeOptions::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Dribble the request one byte per write — including mid-UTF-8
    // splits inside नेहरु — with small pauses so each byte lands in its
    // own readiness event.
    let request = "MATCH hi qgram 0.45 नेहरु\n";
    for chunk in request.as_bytes().chunks(1) {
        stream.write_all(chunk).expect("write byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("OK n="), "{line}");
    assert!(
        line.contains("ids=0,1"),
        "cross-script pair missing: {line}"
    );
    shutdown.trigger();
    handle.join().unwrap().unwrap();
}

#[test]
fn many_lines_in_one_write_pipeline_in_order() {
    let (addr, shutdown, handle) = spawn_evented(ServeOptions::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    // One write, eight requests, mixed endings and a blank line (which
    // produces no response). Responses must come back in order (this
    // test is about framing; the lookups use the path that needs no
    // BUILD). The BATCH sits in one overlap run with the MATCHes around
    // it, behind both ADDs: a non-lookup request still ends the run, so
    // each of its items sees the row its ADD just made.
    let burst = "ADD en Bose\r\nMATCH en scan 0.45 Nehru\n\nADD en Tagore\n\
                 MATCH en scan 0.45 Nehru\nBATCH en scan 0.45 Bose|Tagore\n\
                 MATCH en scan 0.45 Tagore\nSTATS\n";
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut lines = Vec::new();
    for _ in 0..8 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        lines.push(line.trim_end().to_owned());
    }
    let ids = |line: &str| -> Vec<u32> {
        let ids = line.split_once(" ids=").expect("ids").1;
        ids.split(',').filter_map(|id| id.parse().ok()).collect()
    };
    assert_eq!(lines[0], "OK 2", "{lines:?}");
    assert!(lines[1].starts_with("OK n="), "{lines:?}");
    assert!(lines[1].contains("ids=0,1"), "{lines:?}");
    assert_eq!(lines[2], "OK 3", "{lines:?}");
    assert_eq!(ids(&lines[3]), ids(&lines[1]), "{lines:?}");
    assert!(ids(&lines[4]).contains(&2), "BATCH Bose: {lines:?}");
    assert!(ids(&lines[5]).contains(&3), "BATCH Tagore: {lines:?}");
    assert!(ids(&lines[6]).contains(&3), "{lines:?}");
    assert!(lines[7].starts_with("OK names=4"), "{lines:?}");
    // The daemon saw the whole burst as a pipeline, depth > 1.
    let depth: u64 = lines[7]
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("pipeline_max="))
        .expect("pipeline_max in STATS")
        .parse()
        .expect("number");
    assert!(depth >= 2, "burst not pipelined: {}", lines[7]);
    shutdown.trigger();
    handle.join().unwrap().unwrap();
}

#[test]
fn an_oversized_line_answers_err_and_closes() {
    let opts = ServeOptions {
        max_line: 64,
        ..ServeOptions::default()
    };
    let (addr, shutdown, handle) = spawn_evented(opts);
    let mut stream = TcpStream::connect(addr).expect("connect");
    // 200 bytes with no newline: rejected on length alone, no waiting
    // for a terminator that may never come.
    stream.write_all(&[b'A'; 200]).expect("write oversized");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.starts_with("ERR line exceeds"),
        "expected oversized rejection, got {line:?}"
    );
    // The daemon closes the connection after the error: EOF follows.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "{rest:?}");

    // A fresh connection still works; the daemon survived.
    let mut c2 = TcpStream::connect(addr).expect("reconnect");
    c2.write_all(b"MATCH en qgram 0.45 Nehru\n").expect("write");
    let mut reader = BufReader::new(c2);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("OK n="), "{line}");
    shutdown.trigger();
    handle.join().unwrap().unwrap();
}

#[test]
fn invalid_utf8_answers_err_and_closes() {
    let (addr, shutdown, handle) = spawn_evented(ServeOptions::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"MATCH en qgram 0.45 \xff\xfe\n")
        .expect("write bad bytes");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("ERR invalid utf-8"), "{line:?}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "{rest:?}");
    shutdown.trigger();
    handle.join().unwrap().unwrap();
}
