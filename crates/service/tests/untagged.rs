//! End-to-end coverage of the untagged-query subsystem over the wire:
//! `ADD -` / `MATCH -` over a real socket, the pinned Latin
//! fan-out union, byte-identical tagged-vs-untagged answers for
//! unambiguous scripts, per-script goldens (Cyrillic through the new
//! Russian converter, Hangul/Thai as `NORESOURCE`), and replica
//! convergence for untagged `ADD`s (the WAL carries the *resolved*
//! language, so replicas never need the routing table).

use lexequal_service::server::respond;
use lexequal_service::{
    serve, MatchService, Op, Replicator, ReqCtx, Role, ServeOptions, ServiceConfig, ShutdownSignal,
    Wal, WalCursor, WalMetrics,
};
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
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_owned()
    }
}

struct Daemon {
    addr: std::net::SocketAddr,
    shutdown: ShutdownSignal,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn spawn() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let service = Arc::new(MatchService::new(ServiceConfig::default()));
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

fn ids_of(line: &str) -> Vec<u32> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix("ids="))
        .unwrap_or_else(|| panic!("no ids in {line:?}"))
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("id"))
        .collect()
}

fn stat(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} not a number in {line:?}"))
}

/// Load the shared multiscript directory over the wire. Ids 0..=5.
fn load_directory(c: &mut Client) {
    assert_eq!(c.send("ADD en Nehru"), "OK 0");
    assert_eq!(c.send("ADD hi नेहरु"), "OK 1");
    assert_eq!(c.send("ADD ta நேரு"), "OK 2");
    assert_eq!(c.send("ADD fr Descartes"), "OK 3");
    assert_eq!(c.send("ADD es Nero"), "OK 4");
    assert_eq!(c.send("ADD ru Неру"), "OK 5");
    assert_eq!(c.send("BUILD QGRAM 3 STRICT"), "OK built=qgram");
}

#[test]
fn untagged_match_and_add_route_by_script_over_the_wire() {
    let daemon = Daemon::spawn();
    let mut c = Client::connect(daemon.addr);
    load_directory(&mut c);

    // Latin untagged: the merged answer equals the union of the
    // three tagged fan-out queries, pinned over the wire.
    let auto = c.send("MATCH - qgram 0.45 Nehru");
    assert!(auto.starts_with("OK "), "{auto}");
    let auto_ids = ids_of(&auto);
    let mut union: Vec<u32> = Vec::new();
    for lang in ["en", "fr", "es"] {
        union.extend(ids_of(&c.send(&format!("MATCH {lang} qgram 0.45 Nehru"))));
    }
    union.sort_unstable();
    union.dedup();
    assert_eq!(auto_ids, union, "fan-out merge is not the union");
    assert!(auto_ids.contains(&0), "self match missing");
    assert!(auto_ids.contains(&1), "Nehru ↔ नेहरु missing");

    // Unambiguous script: untagged answer byte-identical to tagged.
    let tagged = c.send("MATCH hi qgram 0.45 नेहरु");
    let auto = c.send("MATCH - qgram 0.45 नेहरु");
    assert_eq!(auto, tagged);

    // Cyrillic routes to the Russian converter; Неру renders to the
    // same phonemes as English Nehru, so both ids surface.
    let resp = c.send("MATCH - qgram 0.45 Неру");
    let ids = ids_of(&resp);
    assert!(ids.contains(&5), "self match missing: {resp}");
    assert!(ids.contains(&0), "Неру ↔ Nehru missing: {resp}");

    // Detected-but-converterless scripts answer NORESOURCE; scripts
    // with no tag at all and letterless input answer ERR.
    assert_eq!(c.send("MATCH - qgram - 네루"), "NORESOURCE Korean");
    assert_eq!(c.send("MATCH - qgram - เนห์รู"), "NORESOURCE Thai");
    assert!(c.send("MATCH - qgram - 北京").starts_with("ERR "));
    assert!(c.send("MATCH - qgram - 42").starts_with("ERR "));

    // Untagged ADD resolves Latin to English (first fan-out tag).
    let resp = c.send("ADD - Gandhi");
    assert_eq!(resp, "OK 6 lang=English");
    let resp = c.send("ADD - Ельцин");
    assert_eq!(resp, "OK 7 lang=Russian");
    assert_eq!(c.send("ADD - 네루"), "NORESOURCE Korean");
    assert!(c.send("ADD - 42").starts_with("ERR bad input"));

    // STATS surfaces the untagged counters once the path is used.
    let stats = c.send("STATS");
    assert!(stat(&stats, "untagged_requests") >= 8, "{stats}");
    assert!(stat(&stats, "untagged_noresource") >= 2, "{stats}");
    assert!(stat(&stats, "untagged_fanout_max") >= 3, "{stats}");
    assert!(stat(&stats, "untagged_script_latin") >= 2, "{stats}");
    assert!(stat(&stats, "untagged_script_cyrillic") >= 2, "{stats}");
    assert!(stat(&stats, "untagged_script_hangul") >= 2, "{stats}");

    assert_eq!(c.send("QUIT"), "BYE");
    daemon.stop();
}

#[test]
fn untagged_adds_replicate_with_the_resolved_language() {
    // Primary with a WAL: untagged ADDs resolve to a concrete tag
    // before the commit, so the log carries ordinary tagged ops.
    let wal_path =
        std::env::temp_dir().join(format!("lexequal_untagged_wal_{}.log", std::process::id()));
    std::fs::remove_file(&wal_path).ok();
    let metrics = Arc::new(WalMetrics::default());
    let (wal, tail) = Wal::open(&wal_path, 0, Arc::clone(&metrics)).expect("open wal");
    assert!(tail.is_empty());
    let repl = Replicator::new(wal, metrics);
    let primary = MatchService::new(ServiceConfig::default());
    let ctx = ReqCtx {
        role: Role::Primary(Arc::clone(&repl)),
        ..ReqCtx::default()
    };

    let mut quit = false;
    let mut send = |line: &str| {
        let out = respond(line, &primary, &ctx, None, &mut quit);
        assert_eq!(out.len(), 1, "{line:?}: {out:?}");
        out.into_iter().next().unwrap()
    };
    assert_eq!(send("ADD - Nehru"), "OK 0 lang=English");
    assert_eq!(send("ADD - Неру"), "OK 1 lang=Russian");
    assert_eq!(send("ADD - नेहरु"), "OK 2 lang=Hindi");
    assert_eq!(send("ADD - 네루"), "NORESOURCE Korean");
    assert_eq!(send("BUILD QGRAM 3 STRICT"), "OK built=qgram");

    // Replay the WAL into a fresh replica: the ops are fully tagged
    // (no routing table needed) and the stores converge.
    let records = repl.read_tail(&mut WalCursor::after(0)).expect("read wal");
    assert_eq!(records.len(), 4, "3 adds + 1 build");
    let langs: Vec<String> = records
        .iter()
        .filter_map(|r| match &r.op {
            Op::Add { language, .. } => Some(language.to_string()),
            Op::Build(_) => None,
        })
        .collect();
    assert_eq!(langs, ["English", "Russian", "Hindi"]);

    let replica = MatchService::new(ServiceConfig::default());
    for r in &records {
        replica.apply_op(&r.op).expect("apply");
    }
    assert_eq!(replica.len(), primary.len());

    // Byte-identical answers on both sides, tagged and untagged.
    let replica_ctx = ReqCtx::default();
    for query in ["MATCH ru qgram 0.45 Неру", "MATCH - qgram 0.45 Nehru"] {
        let mut q1 = false;
        let p = respond(query, &primary, &ctx, None, &mut q1);
        let r = respond(query, &replica, &replica_ctx, None, &mut q1);
        assert_eq!(p, r, "{query}");
    }

    repl.stop_and_join();
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn per_script_goldens_route_untagged() {
    // One entry per supported script; every untagged query must find
    // its own entry back (self-match at the default threshold).
    let daemon = Daemon::spawn();
    let mut c = Client::connect(daemon.addr);
    let goldens = [
        ("en", "Nehru"),
        ("hi", "नेहरु"),
        ("ta", "நேரு"),
        ("el", "Νερού"),
        ("ru", "Неру"),
        ("ar", "العمارة"),
        ("ja", "ネルー"),
    ];
    for (i, (lang, text)) in goldens.iter().enumerate() {
        assert_eq!(c.send(&format!("ADD {lang} {text}")), format!("OK {i}"));
    }
    assert_eq!(c.send("BUILD QGRAM 3 STRICT"), "OK built=qgram");
    for (i, (_, text)) in goldens.iter().enumerate() {
        let resp = c.send(&format!("MATCH - qgram 0.45 {text}"));
        assert!(
            ids_of(&resp).contains(&(i as u32)),
            "{text}: self match missing: {resp}"
        );
    }
    assert_eq!(c.send("QUIT"), "BYE");
    daemon.stop();
}

#[test]
fn replicas_reject_untagged_writes_but_serve_untagged_reads() {
    use lexequal_service::ReplicaState;
    let service = MatchService::new(ServiceConfig::default());
    service
        .extend([("Nehru".to_owned(), lexequal::Language::English)])
        .unwrap();
    let ctx = ReqCtx {
        role: Role::Replica(Arc::new(ReplicaState::new("10.0.0.1:7878".to_owned()))),
        ..ReqCtx::default()
    };
    let mut quit = false;
    let add = respond("ADD - Gandhi", &service, &ctx, None, &mut quit);
    assert!(add[0].starts_with("ERR read-only replica"), "{add:?}");
    let m = respond("MATCH - scan - Nehru", &service, &ctx, None, &mut quit);
    assert!(ids_of(&m[0]).contains(&0), "{m:?}");
}
