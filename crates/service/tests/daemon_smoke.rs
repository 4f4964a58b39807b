//! End-to-end smoke test of the `lexequald` wire protocol over a real
//! TCP socket: add names in three scripts, build access paths, and
//! assert the paper's flagship cross-script match (Nehru ↔ नेहरु) plus
//! cache and stats accounting — all through the line protocol. Every
//! daemon is shut down and joined, so nothing leaks.

mod common;

use lexequal::{G2pRegistry, Language, MatchConfig};
use lexequal_service::{serve, MatchService, ReqCtx, ServeOptions, ServiceConfig, ShutdownSignal};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("write");
        self.recv()
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line.trim_end().to_owned()
    }
}

/// A daemon under test: serving on `addr` until [`Daemon::stop`].
struct Daemon {
    addr: std::net::SocketAddr,
    shutdown: ShutdownSignal,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn spawn(shards: usize) -> Self {
        Self::serving(MatchService::new(ServiceConfig {
            shards,
            ..ServiceConfig::default()
        }))
    }

    fn serving(service: MatchService) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let service = Arc::new(service);
        let shutdown = ShutdownSignal::new().expect("shutdown signal");
        let sd = shutdown.clone();
        let handle = std::thread::spawn(move || {
            serve(
                listener,
                service,
                ReqCtx::default(),
                ServeOptions::default(),
                sd,
            )
        });
        Daemon {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) {
        self.shutdown.trigger();
        self.handle.join().expect("serve thread").expect("serve");
    }
}

fn stat(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} not a number in {line:?}"))
}

fn ids_of(line: &str) -> Vec<u32> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix("ids="))
        .unwrap_or_else(|| panic!("no ids in {line:?}"))
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("id"))
        .collect()
}

#[test]
fn daemon_answers_cross_script_matches_over_tcp() {
    let daemon = Daemon::spawn(3);
    let mut c = Client::connect(daemon.addr);

    // Load a small multiscript directory through the wire.
    assert_eq!(c.send("ADD en Nehru"), "OK 0");
    assert_eq!(c.send("ADD hi नेहरु"), "OK 1");
    assert_eq!(c.send("ADD ta நேரு"), "OK 2");
    assert_eq!(c.send("ADD en Nero"), "OK 3");
    assert_eq!(c.send("ADD en Gandhi"), "OK 4");
    assert_eq!(c.send("BUILD QGRAM 3 STRICT"), "OK built=qgram");

    // The paper's flagship pair: Nehru needs e=0.45 to reach नेहरु.
    let resp = c.send("MATCH en qgram 0.45 Nehru");
    assert!(resp.starts_with("OK "), "{resp}");
    let ids = ids_of(&resp);
    assert!(ids.contains(&0), "self match missing: {resp}");
    assert!(ids.contains(&1), "Nehru ↔ नेहरु missing: {resp}");
    assert!(ids.contains(&2), "Nehru ↔ நேரு missing: {resp}");
    assert!(!ids.contains(&4), "Gandhi is not Nehru: {resp}");

    // At the default 0.35 the Tamil spelling still matches (paper §4).
    let resp = c.send("MATCH ta qgram - நேரு");
    assert!(ids_of(&resp).contains(&0), "நேரு ↔ Nehru missing: {resp}");

    // Repeat the first query: same answer, now served from the cache.
    let again = c.send("MATCH en qgram 0.45 Nehru");
    assert_eq!(ids_of(&again), ids);

    // Batch: one response line per item, in order.
    c.stream
        .write_all("BATCH en qgram 0.45 Nehru|Gandhi\n".as_bytes())
        .expect("write batch");
    let first = c.recv();
    let second = c.recv();
    assert!(ids_of(&first).contains(&1), "{first}");
    assert!(ids_of(&second).contains(&4), "{second}");

    // Degraded outcomes stay on the connection.
    assert_eq!(c.send("MATCH en bktree - Nehru"), "NOTBUILT bktree");
    assert!(c.send("MATCH xx - - Nehru").starts_with("ERR "));

    let stats = c.send("STATS");
    assert_eq!(stat(&stats, "names"), 5);
    assert_eq!(stat(&stats, "shards"), 3);
    assert!(stat(&stats, "cache_hits") > 0, "no cache hits: {stats}");
    assert!(stat(&stats, "cache_misses") > 0, "{stats}");
    assert_eq!(stat(&stats, "notbuilt"), 1, "{stats}");
    assert!(stat(&stats, "requests") >= 6, "{stats}");
    assert!(stat(&stats, "qgram_searches") >= 5, "{stats}");
    // The serving loop surfaces connection gauges in STATS.
    assert_eq!(stat(&stats, "conns_current"), 1, "{stats}");
    assert!(stat(&stats, "conns_peak") >= 1, "{stats}");

    assert_eq!(c.send("QUIT"), "BYE");

    // The daemon keeps serving new connections after one quits.
    let mut c2 = Client::connect(daemon.addr);
    let resp = c2.send("MATCH en qgram 0.45 Nehru");
    assert!(ids_of(&resp).contains(&1), "{resp}");
    assert_eq!(c2.send("QUIT"), "BYE");

    daemon.stop();
}

/// One pipelined script: tagged (ok, `NOTBUILT`, bad input, a language
/// with no converter), untagged (Latin fan-out with and without a dedupe,
/// Cyrillic, Devanagari, Hangul, Han, letterless, `NOTBUILT`) and `BATCH`
/// lines, one with a bad item.
const SCRIPT: &[&str] = &[
    "ADD en Nehru",
    "ADD hi नेहरु",
    "ADD ta நேரு",
    "ADD fr Descartes",
    "ADD es Nero",
    "ADD ru Неру",
    "MATCH en scan 0.45 Nehru",
    "MATCH en qgram - Nehru",
    "MATCH ta - - नेहरु",
    "MATCH hi - 0.45 नेहरु",
    "MATCH - scan 0.45 Nehru",
    "MATCH - - 0.45 Неру",
    "MATCH - - 0.45 नेहरु",
    "MATCH - - - 네루",
    "MATCH - - - 北京",
    "MATCH - - - 42",
    "MATCH - bktree - Nehru",
    "BATCH en - 0.45 Nehru|Nero",
    "BATCH ta - 0.45 நேரு|नेहरु",
    "MATCH - scan - Ana",
    "MATCH en scan 0.45 Nehru",
    "MATCH - scan 0.45 Nehru",
    "STATS",
];

/// Send [`SCRIPT`] in one write; every reply line but `STATS`'s, then the
/// lookup counters of the `STATS` line.
fn run_script(service: MatchService) -> (Vec<String>, Vec<String>) {
    let daemon = Daemon::serving(service);
    let mut c = Client::connect(daemon.addr);
    let burst: String = SCRIPT.iter().map(|line| format!("{line}\n")).collect();
    c.stream.write_all(burst.as_bytes()).expect("write script");
    let replies = SCRIPT
        .iter()
        .map(|l| {
            l.strip_prefix("BATCH ")
                .map_or(1, |items| items.split('|').count())
        })
        .sum();
    let mut lines: Vec<String> = (0..replies).map(|_| c.recv()).collect();
    let stats = lines.pop().expect("STATS replied");
    let counters = ["requests", "matches", "noresource", "notbuilt", "badinput"];
    let counters = stats
        .split_whitespace()
        .filter(|kv| {
            let key = kv.split('=').next().unwrap_or_default();
            counters.contains(&key) || key.starts_with("cache_") || key.starts_with("untagged_")
        })
        .map(str::to_owned)
        .collect();
    assert_eq!(c.send("QUIT"), "BYE");
    daemon.stop();
    (lines, counters)
}

/// Every reply byte and every lookup counter of [`SCRIPT`], as the daemon
/// answered it before tagged and untagged lookups and `BATCH` items came
/// to share one begin/finish.
#[test]
fn a_fixed_script_answers_byte_for_byte_with_the_same_counters() {
    let (lines, counters) = run_script(MatchService::new(ServiceConfig::default()));
    let bad_tamil = "ERR bad input: UntranslatableChar { ch: 'न', language: Tamil }";
    let nehru = "OK n=5 verified=6 method=scan e=0.45 ids=0,1,2,4,5";
    let nehru_untagged = "OK n=5 verified=18 method=scan e=0.45 ids=0,1,2,4,5";
    let expected = [
        "OK 0",
        "OK 1",
        "OK 2",
        "OK 3",
        "OK 4",
        "OK 5",
        nehru,
        "NOTBUILT qgram",
        bad_tamil,
        "OK n=4 verified=6 method=scan e=0.45 ids=0,1,2,5",
        nehru_untagged,
        nehru,
        "OK n=4 verified=6 method=scan e=0.45 ids=0,1,2,5",
        "NORESOURCE Korean",
        "ERR bad input: unsupported script other",
        "ERR bad input: no letters to detect a script from",
        "NOTBUILT bktree",
        nehru,
        "OK n=4 verified=6 method=scan e=0.45 ids=0,2,4,5",
        nehru,
        bad_tamil,
        "OK n=0 verified=12 method=scan e=0.35 ids=",
        nehru,
        nehru_untagged,
    ];
    assert_eq!(lines, expected);
    assert_eq!(
        counters.join(" "),
        "requests=18 matches=47 noresource=1 notbuilt=2 badinput=4 cache_hits=7 \
         cache_misses=12 untagged_requests=9 untagged_noresource=1 untagged_fanout_sum=10 \
         untagged_fanout_max=3 untagged_dedup=1 untagged_script_latin=4 \
         untagged_script_devanagari=1 untagged_script_cyrillic=1 untagged_script_hangul=1 \
         untagged_script_other=1"
    );
}

/// [`SCRIPT`] against a registry without Hindi and Spanish: the tagged
/// `NORESOURCE`, a narrower Latin fan-out, and an untagged Devanagari
/// query whose one converter is off.
#[test]
fn a_fixed_script_on_a_restricted_registry_answers_byte_for_byte() {
    let registry = G2pRegistry::with_languages(&[
        Language::English,
        Language::French,
        Language::Tamil,
        Language::Russian,
    ]);
    let (lines, counters) = run_script(MatchService::new(ServiceConfig {
        match_config: MatchConfig::default().with_registry(registry),
        cache_capacity: 4096,
        ..ServiceConfig::default()
    }));
    let bad_tamil = "ERR bad input: UntranslatableChar { ch: 'न', language: Tamil }";
    let nehru = "OK n=3 verified=4 method=scan e=0.45 ids=0,1,3";
    let nehru_untagged = "OK n=3 verified=8 method=scan e=0.45 ids=0,1,3";
    let expected = [
        "OK 0",
        "ERR NoResource(Hindi)",
        "OK 1",
        "OK 2",
        "ERR NoResource(Spanish)",
        "OK 3",
        nehru,
        "NOTBUILT qgram",
        bad_tamil,
        "NORESOURCE Hindi",
        nehru_untagged,
        nehru,
        "NORESOURCE Hindi",
        "NORESOURCE Korean",
        "ERR bad input: unsupported script other",
        "ERR bad input: no letters to detect a script from",
        "NOTBUILT bktree",
        nehru,
        nehru,
        nehru,
        bad_tamil,
        "OK n=0 verified=8 method=scan e=0.35 ids=",
        nehru,
        nehru_untagged,
    ];
    assert_eq!(lines, expected);
    assert_eq!(
        counters.join(" "),
        "requests=18 matches=24 noresource=3 notbuilt=2 badinput=4 cache_hits=5 \
         cache_misses=9 untagged_requests=9 untagged_noresource=2 untagged_fanout_sum=7 \
         untagged_fanout_max=2 untagged_dedup=0 untagged_script_latin=4 \
         untagged_script_devanagari=1 untagged_script_cyrillic=1 untagged_script_hangul=1 \
         untagged_script_other=1"
    );
}

#[test]
fn two_clients_interleave_on_one_daemon() {
    let daemon = Daemon::spawn(2);
    let mut a = Client::connect(daemon.addr);
    let mut b = Client::connect(daemon.addr);
    assert_eq!(a.send("ADD en Nehru"), "OK 0");
    // Client b sees a's write immediately (shared service).
    let resp = b.send("MATCH en scan - Nehru");
    assert!(ids_of(&resp).contains(&0), "{resp}");
    // Interleaved commands on both connections stay line-matched.
    assert_eq!(b.send("ADD en Gandhi"), "OK 1");
    let resp = a.send("MATCH en scan - Gandhi");
    assert!(ids_of(&resp).contains(&1), "{resp}");
    assert_eq!(a.send("QUIT"), "BYE");
    assert_eq!(b.send("QUIT"), "BYE");
    daemon.stop();
}

/// A verify worker sends each reply back the moment its request has run.
/// One worker: a `BATCH` of sixteen scans on one connection holds it
/// while sixteen scans pipelined on another queue behind; once the
/// `BATCH` is answered they come back one at a time, the first long
/// before the last, not in one clump behind every job drained with it.
#[test]
fn pipelined_replies_leave_as_each_request_finishes() {
    let mut server = common::Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--preload",
        "4000",
    ]);
    server.wait_serving();
    let addr = server.addr.expect("serving");
    let scan = "AakashAbhijit";
    let read_ok = |reader: &mut BufReader<&TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.starts_with("OK "), "{line}");
    };

    let hold = TcpStream::connect(addr).expect("connect");
    let batch = vec![scan; 16].join("|");
    writeln!(&hold, "BATCH en scan 0.35 {batch}").expect("write");
    // A pause so that the worker takes the BATCH alone and the scans
    // queue behind it, which is where a worker that drained a batch of
    // jobs held their replies back. On a worker that runs one job at a
    // time the assertion holds however the jobs interleave.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let scans = TcpStream::connect(addr).expect("connect");
    let pipelined = format!("MATCH en scan 0.35 {scan}\n").repeat(16);
    (&scans).write_all(pipelined.as_bytes()).expect("write");

    let mut held = BufReader::new(&hold);
    for _ in 0..16 {
        read_ok(&mut held);
    }
    let released = std::time::Instant::now();
    let mut replies = BufReader::new(&scans);
    let arrivals: Vec<_> = (0..16)
        .map(|_| {
            read_ok(&mut replies);
            released.elapsed()
        })
        .collect();
    let (first, last) = (arrivals[0], arrivals[15]);
    assert!(
        first < last / 2,
        "the first reply came {first:?} after the BATCH, the last {last:?}: {arrivals:?}"
    );
    server.kill();
}

/// A shard is a lock, not a thread: a daemon's threads are the same set
/// at one shard and at eight (the crate docs list them).
#[test]
fn the_daemons_thread_count_does_not_depend_on_shards() {
    let threads = |shards: &str| {
        let mut server = common::Server::spawn(&[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            shards,
            "--workers",
            "2",
        ]);
        server.wait_serving();
        // A reply comes back through a verify worker: the pool is up.
        let stats = server.request("STATS");
        assert_eq!(common::stat(&stats, "shards"), Some(shards), "{stats}");
        let tasks = format!("/proc/{}/task", server.child.id());
        let count = std::fs::read_dir(tasks)
            .expect("the daemon's tasks")
            .count();
        server.kill();
        count
    };
    assert_eq!(threads("1"), threads("8"));
}
