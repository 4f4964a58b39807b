//! Cover on first use: every start-up source only *declares* its access
//! paths, and a path is covered — its index built — when a request first
//! names it or `BUILD` asks for it. A path nothing names costs its
//! declaration, however many rows come in; a named one is kept covered by
//! the re-cover rule. Whatever the coverage, every answer is what a fully
//! built store gives.

use lexequal::store::NameEntry;
use lexequal::{Language, MatchConfig, NameStore, QgramMode, SearchMethod};
use lexequal_service::proto::format_outcome;
use lexequal_service::server::respond;
use lexequal_service::{BuildSpec, MatchOutcome, MatchService, ReqCtx, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const QGRAM: BuildSpec = BuildSpec::Qgram {
    q: 3,
    mode: QgramMode::Strict,
};
const PATHS: [BuildSpec; 3] = [QGRAM, BuildSpec::PhoneticIndex, BuildSpec::BkTree];
const METHODS: [(&str, SearchMethod); 4] = [
    ("scan", SearchMethod::Scan),
    ("qgram", SearchMethod::Qgram),
    ("phonidx", SearchMethod::PhoneticIndex),
    ("bktree", SearchMethod::BkTree),
];

fn dataset() -> Vec<NameEntry> {
    lexequal_lexicon::build_dataset(&MatchConfig::default(), 1_000)
}

/// A service over `rows` with every path declared and none covered —
/// what `--preload` leaves.
fn declared(rows: Vec<NameEntry>) -> MatchService {
    let service = MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        cache_capacity: 64,
        ..ServiceConfig::default()
    });
    service.extend_transformed(rows);
    for spec in PATHS {
        service.store().declare(spec);
    }
    service
}

fn oracle(rows: Vec<NameEntry>) -> NameStore {
    let mut oracle = NameStore::new(MatchConfig::default());
    oracle.extend_transformed(rows);
    oracle.build_qgram(3, QgramMode::Strict);
    oracle.build_phonetic_index();
    oracle.build_bktree();
    oracle
}

/// The reply a fully built store gives `MATCH en <method> <e> <text>`.
fn expect(oracle: &NameStore, method: SearchMethod, e: f64, text: &str) -> String {
    let r = oracle.search(text, Language::English, e, method).unwrap();
    format_outcome(&MatchOutcome::Matches {
        method,
        threshold: e,
        ids: r.ids,
        verifications: r.verifications,
    })
}

fn ask(service: &MatchService, line: &str) -> Vec<String> {
    respond(line, service, &ReqCtx::default(), None, &mut false)
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Tails in `method_index` order: scan, qgram, phonidx, bktree.
fn tails(service: &MatchService) -> [usize; 4] {
    service.stats().cover.tails
}

/// Covers finished so far. A cover counts itself after its last index is
/// installed, so waiting for the count (not for a tail to reach 0) waits
/// the cover out.
fn covers(service: &MatchService) -> u64 {
    service.stats().cover.covers
}

/// Every method's replies to a tagged `MATCH` and a `BATCH` of `queries`,
/// checked against the oracle — `label` names the state they were asked in.
fn assert_answers(service: &MatchService, oracle: &NameStore, queries: &[String], label: &str) {
    for (wire, method) in METHODS {
        for e in [0.35, 0.45] {
            let want: Vec<String> = queries
                .iter()
                .map(|q| expect(oracle, method, e, q))
                .collect();
            let one_by_one: Vec<String> = queries
                .iter()
                .flat_map(|q| ask(service, &format!("MATCH en {wire} {e} {q}")))
                .collect();
            assert_eq!(one_by_one, want, "{label}: MATCH {wire} e={e}");
            let batch = ask(
                service,
                &format!("BATCH en {wire} {e} {}", queries.join("|")),
            );
            assert_eq!(batch, want, "{label}: BATCH {wire} e={e}");
        }
    }
}

/// Every path answers as a fully built store does before any cover of it
/// has begun, with its own cover parked mid-read, and once covered: a
/// cover of one path is parked holding the one cover turn, so the covers
/// the requests ask for of the other two wait behind it.
#[test]
fn every_method_answers_like_a_built_store_before_during_and_after_its_cover() {
    let rows = dataset();
    let n = rows.len();
    let oracle = oracle(rows.clone());
    let queries: Vec<String> = (0..n)
        .step_by(97)
        .filter(|&id| rows[id].language == Language::English)
        .map(|id| rows[id].text.clone())
        .take(6)
        .collect();
    assert!(queries.len() >= 3, "{queries:?}");
    for parked in PATHS {
        let service = declared(rows.clone());
        assert_eq!(tails(&service), [0, n, n, n], "declared only");
        let (reached, reach) = channel();
        let (release, wait) = channel::<()>();
        let wait = Mutex::new(wait);
        std::thread::scope(|scope| {
            let cover = scope.spawn(|| {
                service.store().cover_with(&[parked], &|| {
                    let _ = reached.send(());
                    let _ = wait.lock().unwrap().recv();
                })
            });
            reach
                .recv()
                .expect("the parked cover reads its first chunk");
            let state = format!("{parked:?} parked, the others not begun");
            assert_answers(&service, &oracle, &queries, &state);
            assert_eq!(tails(&service), [0, n, n, n], "{state}");
            drop(release);
            cover.join().unwrap();
        });
        wait_for("every named path's cover", || tails(&service) == [0; 4]);
        assert_answers(&service, &oracle, &queries, "covered");
    }
}

/// The first request through a path covers that path alone — whether a
/// tagged `MATCH` names it, a `BATCH` item, or a `MATCH` with no method
/// (the cheapest declared path: the phonetic index).
#[test]
fn the_first_naming_covers_that_path_alone() {
    let rows = dataset();
    let n = rows.len();
    for (request, covered) in [
        ("MATCH en qgram - Nehru", 1),
        ("BATCH en bktree 0.4 Nehru|Gandhi", 3),
        ("MATCH en - - Nehru", 2),
        ("MATCH - qgram - Nehru", 1),
    ] {
        let service = declared(rows.clone());
        let before = service.stats().cover;
        assert_eq!((before.covers, before.tails), (0, [0, n, n, n]));
        assert!(ask(&service, request).iter().all(|r| r.starts_with("OK ")));
        wait_for(request, || covers(&service) == 1);
        let mut want = [0, n, n, n];
        want[covered] = 0;
        let after = service.stats().cover;
        assert_eq!((after.covers, after.tails), (1, want), "{request}");
        // Naming it again costs nothing more; a scan names nothing.
        ask(&service, request);
        ask(&service, "MATCH en scan - Nehru");
        assert_eq!(service.stats().cover.covers, 1, "{request}");
    }
}

/// `BUILD` covers without waiting for a search, and answers at once.
#[test]
fn build_covers_without_a_search() {
    let rows = dataset();
    let n = rows.len();
    let service = declared(rows);
    assert_eq!(ask(&service, "BUILD BKTREE"), ["OK built=bktree"]);
    wait_for("the BUILD's cover", || covers(&service) == 1);
    let stats = service.stats().cover;
    assert_eq!((stats.covers, stats.tails), (1, [0, n, n, 0]));
    assert_eq!(stats.index_bytes[0..2], [4, 0], "declarations only");
    assert!(stats.index_bytes[2] > 0);
}

/// Appends past the re-cover floor wake no cover for paths nothing has
/// named; once a search names one, its tail is covered by the rule.
#[test]
fn adds_cover_only_named_paths() {
    // Distinct names of letters only: `Ne` + `i` in base 26.
    let name = |mut i: usize| {
        let mut name = "Ne".to_owned();
        loop {
            name.push(char::from(b'a' + (i % 26) as u8));
            i /= 26;
            if i == 0 {
                break name;
            }
        }
    };
    let service = declared(Vec::new());
    for i in 0..5_000 {
        let added = ask(&service, &format!("ADD en {}", name(i)));
        assert_eq!(added, [format!("OK {i}")]);
    }
    let stats = service.stats().cover;
    assert_eq!((stats.covers, stats.tails), (0, [0, 5_000, 5_000, 5_000]));
    // 5 000 rows covered: due again at a tail of 4 096.
    assert!(ask(&service, "MATCH en phonidx - Nehru")[0].starts_with("OK "));
    wait_for("the first naming's cover", || covers(&service) == 1);
    for i in 5_000..9_095 {
        ask(&service, &format!("ADD en {}", name(i)));
    }
    let stats = service.stats().cover;
    assert_eq!((stats.covers, stats.tails), (1, [0, 9_095, 4_095, 9_095]));
    ask(&service, &format!("ADD en {}", name(9_095)));
    wait_for("the re-cover", || covers(&service) == 2);
    let stats = service.stats().cover;
    assert_eq!((stats.covers, stats.tails), (2, [0, 9_096, 0, 9_096]));
}

// ---------------------------------------------------------------------
// The daemon's three store sources: rows in, paths declared, serving.
// ---------------------------------------------------------------------

struct Daemon {
    child: Child,
    addr: String,
    /// Drains stderr so the daemon never blocks writing it.
    drain: Option<std::thread::JoinHandle<std::io::Result<u64>>>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lexequald"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lexequald");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut seen = Vec::new();
        let addr = loop {
            let mut line = String::new();
            let read = stderr.read_line(&mut line).expect("read stderr");
            assert!(read > 0, "exited before serving: {seen:?}");
            if let Some(rest) = line.strip_prefix("lexequald: serving on ") {
                break rest.split_whitespace().next().expect("addr").to_owned();
            }
            seen.push(line);
        };
        let drain = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
        Daemon {
            child,
            addr,
            drain: Some(drain),
        }
    }

    fn request(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        writeln!(stream, "{line}").expect("write");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("read");
        reply.trim_end().to_owned()
    }

    /// `STATS` holds no cover and no index beyond the declarations.
    fn assert_declared_only(&self, what: &str) {
        let stats = self.request("STATS");
        assert!(stats.contains(" declared=3 "), "{what}: {stats}");
        assert!(stats.contains(" covers=0 "), "{what}: {stats}");
        assert!(
            stats.ends_with(" index_bytes=4 qgram_bytes=4 phonidx_bytes=0 bktree_bytes=0"),
            "{what}: {stats}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// After `--preload`, an image load and a replica seed, `STATS` shows no
/// cover and no index: what `declare` leaves (an empty q-gram CSR's one
/// offset) and nothing more.
#[test]
fn no_start_up_source_covers_anything() {
    let preloaded = Daemon::spawn(&["--shards", "2", "--preload", "2000"]);
    preloaded.assert_declared_only("--preload");

    let pid = std::process::id();
    let image = std::env::temp_dir().join(format!("lexequal_cover_on_use_{pid}.img"));
    let wal = std::env::temp_dir().join(format!("lexequal_cover_on_use_{pid}.wal"));
    std::fs::remove_file(&wal).ok();
    declared(dataset())
        .save_snapshot(&image)
        .expect("save image");
    let (image_str, wal_str) = (image.to_str().unwrap(), wal.to_str().unwrap());
    let primary = Daemon::spawn(&["--snapshot", image_str, "--wal", wal_str]);
    primary.assert_declared_only("an image load");

    let replica = Daemon::spawn(&["--replica-of", &primary.addr]);
    replica.assert_declared_only("a replica seed");
    primary.assert_declared_only("a primary that seeded a replica");

    drop((replica, primary, preloaded));
    std::fs::remove_file(&image).ok();
    std::fs::remove_file(&wal).ok();
}
