//! Binary mmap snapshot round-trip equivalence: a store served out of
//! the mapping must be indistinguishable from the store that wrote the
//! image — bit-identical `MatchOutcome`s on all four access paths,
//! identical entries under every global id, identical answers through
//! the serving loop, and a replica seeded from the raw transfer bytes
//! answering exactly like its primary.

use lexequal::{Language, MatchConfig, SearchMethod};
use lexequal_lexicon::build_dataset;
use lexequal_service::{
    mmapstore, repl, serve, MatchOutcome, MatchRequest, MatchService, ReplError, ReplicaState,
    ReqCtx, ServeOptions, ServiceConfig, ShutdownSignal,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

/// A self-cleaning temp path.
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> Self {
        TempPath(std::env::temp_dir().join(format!("lexequal_mm_{}_{name}", std::process::id())))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A populated service: the paper's flagship names plus a slice of the
/// synthetic §5 corpus, all access paths built.
fn populated_service(shards: usize) -> MatchService {
    let config = MatchConfig::default();
    let service = MatchService::new(ServiceConfig {
        match_config: config.clone(),
        shards,
        cache_capacity: 256,
    });
    service
        .extend(
            [
                ("Nehru", Language::English),
                ("नेहरु", Language::Hindi),
                ("நேரு", Language::Tamil),
                ("Nero", Language::English),
                ("Gandhi", Language::English),
                ("गांधी", Language::Hindi),
                ("Krishnan", Language::English),
            ]
            .map(|(t, l)| (t.to_owned(), l)),
        )
        .unwrap();
    service.extend_transformed(build_dataset(&config, 150));
    service.build_all(3, lexequal::QgramMode::Strict);
    service
}

const METHODS: [SearchMethod; 4] = [
    SearchMethod::Scan,
    SearchMethod::Qgram,
    SearchMethod::PhoneticIndex,
    SearchMethod::BkTree,
];

/// Wire-protocol tag for a battery language.
fn lang_tag(language: Language) -> &'static str {
    match language {
        Language::English => "en",
        Language::Hindi => "hi",
        Language::Tamil => "ta",
        other => panic!("battery uses no {other:?} queries"),
    }
}

/// The query battery both stores must answer identically.
fn battery() -> Vec<(String, Language, f64)> {
    let mut queries = Vec::new();
    for (text, language) in [
        ("Nehru", Language::English),
        ("नेहरु", Language::Hindi),
        ("நேரு", Language::Tamil),
        ("Gandhi", Language::English),
        ("गांधी", Language::Hindi),
        ("Krishnan", Language::English),
        ("Bose", Language::English), // not stored: empty result sets must agree too
    ] {
        for e in [0.0, 0.35, 0.45] {
            queries.push((text.to_owned(), language, e));
        }
    }
    queries
}

/// Run the battery over every access path on both services and demand
/// bit-identical outcomes.
fn assert_identical(original: &MatchService, loaded: &MatchService, what: &str) {
    for method in METHODS {
        for (text, language, threshold) in battery() {
            let req = MatchRequest {
                threshold: Some(threshold),
                method: Some(method),
                ..MatchRequest::new(&text, language)
            };
            let a = original.lookup(&req);
            let b = loaded.lookup(&req);
            assert_eq!(
                a, b,
                "{what}: {method:?} {text:?} e={threshold} diverged across the round trip"
            );
            assert!(
                matches!(a, MatchOutcome::Matches { .. }),
                "{what}: expected a served outcome, got {a:?}"
            );
        }
    }
    // Every entry under every global id survives byte-for-byte.
    assert_eq!(original.len(), loaded.len(), "{what}: corpus size");
    for id in 0..original.len() as u32 {
        let a = original
            .store()
            .get(id)
            .unwrap_or_else(|| panic!("{what}: id {id} missing in original"));
        let b = loaded
            .store()
            .get(id)
            .unwrap_or_else(|| panic!("{what}: id {id} missing in loaded"));
        assert_eq!(a.text, b.text, "{what}: entry {id} text");
        assert_eq!(a.language, b.language, "{what}: entry {id} language");
        assert_eq!(a.phonemes, b.phonemes, "{what}: entry {id} phonemes");
    }
    assert!(loaded.store().get(original.len() as u32).is_none());
}

#[test]
fn default_save_writes_the_binary_format() {
    let service = populated_service(2);
    let path = TempPath::new("default.snap");
    service.save_snapshot(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read image");
    assert!(
        mmapstore::is_binary(&bytes),
        "default save is not the binary format"
    );
    assert_eq!(
        mmapstore::peek(&bytes).map(|(_, n)| n as usize),
        Some(service.len())
    );
}

#[test]
fn mmap_reload_is_bit_identical_on_all_four_access_paths() {
    let original = populated_service(3);
    let path = TempPath::new("roundtrip.snap");
    original.save_snapshot(&path.0).expect("save");

    // `load_snapshot` rebuilds the recorded access paths synchronously.
    let loaded =
        MatchService::load_snapshot(MatchConfig::default(), None, 256, &path.0).expect("load");
    assert_eq!(loaded.load_info().format, "mmap");
    assert!(loaded.load_info().mapped_bytes > 0);
    assert_identical(&original, &loaded, "mmap reload");
}

#[test]
fn a_load_serves_every_recorded_path_before_any_is_covered() {
    let original = populated_service(2);
    let path = TempPath::new("deferred.snap");
    original.save_snapshot(&path.0).expect("save");

    let load =
        MatchService::load_snapshot_auto(MatchConfig::default(), None, 256, &path.0).expect("load");
    assert_eq!(load.pending_builds.len(), 3, "three recorded access paths");
    // Serve-ready means every recorded path answers — exactly, ids and
    // verification counts — before any index exists.
    let cover = load.service.stats().cover;
    assert_eq!(cover.declared, 3);
    assert_eq!(
        cover.tails,
        [0, original.len(), original.len(), original.len()]
    );
    assert_identical(&original, &load.service, "before any cover");
    for spec in load.pending_builds {
        load.service.build(spec);
    }
    assert_eq!(load.service.stats().cover.tails, [0; 4]);
    assert_identical(&original, &load.service, "after the covers");
}

#[test]
fn second_generation_image_stays_identical() {
    let original = populated_service(2);
    let first = TempPath::new("gen1.snap");
    let second = TempPath::new("gen2.snap");
    original.save_snapshot(&first.0).expect("save gen1");
    let gen1 =
        MatchService::load_snapshot(MatchConfig::default(), None, 256, &first.0).expect("load");
    gen1.save_snapshot(&second.0).expect("save gen2");
    let gen2 =
        MatchService::load_snapshot(MatchConfig::default(), None, 256, &second.0).expect("load");
    assert_identical(&original, &gen2, "second generation");
    // Rows read in place round-trip through `encode` byte-for-byte, so
    // the two generations are the same file.
    assert_eq!(
        std::fs::read(&first.0).expect("gen1 bytes"),
        std::fs::read(&second.0).expect("gen2 bytes"),
        "second-generation image diverged"
    );
}

/// What `SAVE JSON` wrote before the image became the only snapshot
/// format (a PR-22 daemon, two names, `BUILD PHONIDX`): well-formed, and
/// no longer anything this crate reads.
const RETIRED_JSON_SNAPSHOT: &str = r#"{"format":"lexequal-store-snapshot","version":1,"shards":2,"names":2,"lsn":0,"fingerprint":"3b0b3026fbb326d1","builds":[{"path":"phonidx"}],"sections":[[["Nehru","English","nɛru","060b070d"]],[["नेहरु","Hindi","neɦrʊ","060b08070d"]]]}"#;

/// One handshake of a replica against a scripted primary that answers
/// its HELLO with `SNAP lsn=<lsn> bytes=<payload length>`, the payload,
/// and a closed socket.
fn seed_from(lsn: u64, payload: Vec<u8>) -> Result<(MatchService, ReplicaState), ReplError> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let primary = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept replica");
        let mut hello = String::new();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        reader.read_line(&mut hello).expect("read hello");
        assert_eq!(hello, "REPL HELLO 0 MMAP\n");
        let header = format!("SNAP lsn={lsn} bytes={}\n", payload.len());
        conn.write_all(header.as_bytes()).expect("write header");
        conn.write_all(&payload).expect("write payload");
    });
    let state = ReplicaState::new(addr.clone());
    let synced = repl::try_initial_sync(&addr, &MatchConfig::default(), None, 256, &state);
    primary.join().expect("scripted primary");
    synced.map(|(service, _, _)| (service, state))
}

#[test]
fn replica_seeded_from_raw_transfer_bytes_matches_the_primary() {
    let primary = populated_service(2);
    // What the primary's sender thread ships: the encoded image, raw.
    let transfer = mmapstore::encode(primary.store(), 42).expect("encode");
    let (replica, state) = seed_from(42, transfer.clone()).expect("seed");
    assert_eq!(state.applied(), 42);
    assert_eq!(replica.load_info().format, "mmap");
    assert_identical(&primary, &replica, "replica seeding");

    // An image stamped with another LSN than its header, and a payload
    // that is no image at all, are errors the caller retries on.
    let refused = seed_from(41, transfer).map(|_| ());
    assert!(
        matches!(refused, Err(ReplError::Protocol(_))),
        "{refused:?}"
    );
    let refused = seed_from(0, RETIRED_JSON_SNAPSHOT.into()).map(|_| ());
    match refused {
        Err(ReplError::Snapshot(e)) => assert!(e.to_string().contains("bad magic"), "{e}"),
        other => panic!("a JSON document seeded a replica: {other:?}"),
    }
}

/// Base + tail: a store loaded from an image — its rows read in place, at
/// every stride and phase — and then grown by `ADD`s answers all four
/// paths, ids and verification counts, like a store bulk-loaded with the
/// same rows: before anything is covered, after, through a replica seeded
/// from the raw transfer buffer, and after a save and a reload. And it
/// writes the same image, byte for byte.
#[test]
fn a_loaded_store_that_grew_equals_one_bulk_loaded_with_the_same_rows() {
    let config = MatchConfig::default();
    let mut rows = build_dataset(&config, 220);
    // 157 is 1 mod 2 and 1 mod 3: no stripe is as long as another.
    let (n, k) = (157, 23);
    assert!(rows.len() >= n + k);
    rows.truncate(n + k);
    for shards in 1..=3 {
        let what = |stage: &str| format!("{shards} shard(s), {stage}");
        let service = |rows: &[lexequal::store::NameEntry]| {
            let service = MatchService::new(ServiceConfig {
                match_config: config.clone(),
                shards,
                cache_capacity: 64,
            });
            service.extend_transformed(rows.to_vec());
            service.build_all(3, lexequal::QgramMode::Strict);
            service
        };
        let bulk = service(&rows);
        let path = TempPath::new(&format!("grew{shards}.snap"));
        service(&rows[..n]).save_snapshot(&path.0).expect("save");

        let load = MatchService::load_snapshot_auto(config.clone(), None, 64, &path.0).unwrap();
        let grown = load.service;
        let loaded = grown.stats().cover;
        assert_eq!(loaded.row_bytes, 0, "a load owns no row");
        // A 16-byte record, the text and the phonemes a row, to the byte.
        let row_bytes = |e: &lexequal::store::NameEntry| 16 + e.text.len() + e.phonemes.len();
        let image_rows: usize = rows[..n].iter().map(row_bytes).sum();
        assert_eq!(loaded.mapped_bytes, image_rows, "{loaded:?}");
        grown.extend_transformed(rows[n..].to_vec());
        assert_eq!(grown.stats().cover.tails[1..], [n + k; 3]);
        assert_identical(&bulk, &grown, &what("before the cover"));
        for spec in load.pending_builds {
            grown.build(spec);
        }
        assert_identical(&bulk, &grown, &what("after the cover"));
        let (cost, bulk_cost) = (grown.stats().cover, bulk.stats().cover);
        assert_eq!(cost.mapped_bytes, loaded.mapped_bytes);
        assert!(cost.row_bytes > 0 && cost.row_bytes < bulk_cost.row_bytes);
        assert_eq!(cost.index_bytes, bulk_cost.index_bytes);
        assert_eq!((bulk_cost.mapped_bytes, cost.tails), (0, [0; 4]));

        let transfer = mmapstore::encode(grown.store(), 42).expect("encode");
        assert_eq!(
            transfer,
            mmapstore::encode(bulk.store(), 42).expect("encode"),
            "{}",
            what("image bytes")
        );
        let image = mmapstore::load_bytes(config.clone(), Some(shards), transfer.clone()).unwrap();
        let replica = MatchService::from_store(image.store, 64);
        assert_identical(&bulk, &replica, &what("a replica, uncovered"));
        replica.add("Nehru", Language::English).expect("add");
        bulk.add("Nehru", Language::English).expect("add");
        for spec in image.builds {
            replica.build(spec);
        }
        assert_identical(&bulk, &replica, &what("a replica that grew, covered"));

        grown.add("Nehru", Language::English).expect("add");
        grown.save_snapshot(&path.0).expect("save again");
        let reloaded = MatchService::load_snapshot(config.clone(), Some(shards), 64, &path.0);
        assert_identical(&bulk, &reloaded.expect("reload"), &what("save and reload"));
        assert_eq!(
            std::fs::read(&path.0).expect("image"),
            mmapstore::encode(bulk.store(), 0).expect("encode"),
            "{}",
            what("second image bytes")
        );
    }
}

/// Line-protocol client against an in-process daemon.
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
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_owned()
    }
}

struct Daemon {
    addr: std::net::SocketAddr,
    shutdown: ShutdownSignal,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn spawn(service: Arc<MatchService>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
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

#[test]
fn mmap_loaded_daemon_answers_like_the_rebuilt_one() {
    let original = populated_service(2);
    let path = TempPath::new("serve.snap");
    original.save_snapshot(&path.0).expect("save");
    let loaded = Arc::new(
        MatchService::load_snapshot(MatchConfig::default(), None, 256, &path.0).expect("load"),
    );
    let reference = Arc::new(original);

    let want = Daemon::spawn(Arc::clone(&reference));
    let got = Daemon::spawn(Arc::clone(&loaded));
    let mut want_client = Client::connect(want.addr);
    let mut got_client = Client::connect(got.addr);
    for method in ["scan", "qgram", "phonidx", "bktree"] {
        for (text, language, threshold) in battery() {
            let line = format!("MATCH {} {method} {threshold} {text}", lang_tag(language));
            assert_eq!(
                want_client.send(&line),
                got_client.send(&line),
                "{line:?} diverged between rebuilt and mmap-loaded daemons"
            );
        }
    }
    // STATS names the provenance on the mmap side.
    let stats = got_client.send("STATS");
    assert!(stats.contains("snapshot_format=mmap"), "{stats}");
    assert!(!stats.contains("mmap_bytes=0 "), "{stats}");
    let ref_stats = want_client.send("STATS");
    assert!(ref_stats.contains("snapshot_format=rebuild"), "{ref_stats}");
    want.stop();
    got.stop();
}
