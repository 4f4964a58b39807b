//! Black-box tests of the `lexequald` command line: bad flag values
//! must name the flag *and* the value, print the usage line, and exit
//! non-zero — never panic, never start serving. Also covers the full
//! snapshot serving cycle: `--save-snapshot` on one run, `--snapshot`
//! on the next, with a bit-identical MATCH response across the restart.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

fn lexequald() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lexequald"))
}

/// Run the daemon with `args`, expecting it to exit immediately, and
/// return (exit-ok, stderr).
fn run_expect_exit(args: &[&str]) -> (bool, String) {
    let out = lexequald()
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn lexequald");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Assert one bad invocation dies with a message containing every
/// `needles` fragment plus the usage line, and no panic.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let (ok, stderr) = run_expect_exit(args);
    assert!(!ok, "{args:?} must exit non-zero, stderr: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: {needle:?} not in {stderr:?}"
        );
    }
    assert!(
        stderr.contains("usage:"),
        "{args:?}: no usage line in {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr:?}");
}

#[test]
fn bad_flag_values_name_the_flag_and_value() {
    // Non-numeric values: the flag and the literal value both appear.
    assert_usage_error(&["--shards", "x"], &["--shards", "\"x\"", "invalid value"]);
    assert_usage_error(&["--cache", "many"], &["--cache", "\"many\""]);
    assert_usage_error(&["--preload", "abc"], &["--preload", "\"abc\""]);
    assert_usage_error(&["--threshold", "huge"], &["--threshold", "\"huge\""]);
    assert_usage_error(&["--workers", "-1"], &["--workers", "\"-1\""]);
    assert_usage_error(&["--max-pipeline", "1.5"], &["--max-pipeline", "\"1.5\""]);
    assert_usage_error(&["--queue", ""], &["--queue", "\"\""]);

    // Parseable but out of range: same shape.
    assert_usage_error(&["--shards", "0"], &["--shards", "\"0\"", "positive"]);
    assert_usage_error(&["--threshold", "9"], &["--threshold", "\"9\"", "[0,1]"]);
    assert_usage_error(&["--workers", "0"], &["--workers", "\"0\""]);
    assert_usage_error(&["--max-line", "4"], &["--max-line", "\"4\""]);
    // Wider than a snapshot image may be: refused before any file is
    // opened (not after a checkpoint it cannot load), and never a panic
    // spawning the workers.
    for n in ["1025", "100000"] {
        let name = format!("lexequal_cli_shards_{n}_{}.wal", std::process::id());
        let wal = std::env::temp_dir().join(name);
        let args = ["--shards", n, "--wal", wal.to_str().unwrap()];
        assert_usage_error(&args, &["--shards", &format!("{n:?}"), "at most 1024"]);
        assert!(!wal.exists(), "--shards {n} opened the wal");
    }

    // Structural errors.
    assert_usage_error(&["--shards"], &["--shards", "needs a value"]);
    assert_usage_error(&["--frobnicate"], &["--frobnicate", "unknown flag"]);
    // Retired knobs: library settings (`MatchConfig`), not daemon flags.
    assert_usage_error(
        &["--cost-model", "feature"],
        &["--cost-model", "unknown flag"],
    );
    assert_usage_error(
        &["--no-embed-screen"],
        &["--no-embed-screen", "unknown flag"],
    );
    assert_usage_error(&["--mode", "fast"], &["--mode", "\"fast\""]);
    assert_usage_error(
        &["--snapshot", "s.json", "--preload", "10"],
        &["--snapshot", "--preload", "mutually exclusive"],
    );
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = lexequald().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("usage:"));
    for retired in ["--cost-model", "--no-embed-screen"] {
        assert!(!help.contains(retired), "{help}");
    }
}

#[test]
fn missing_and_corrupt_snapshots_fail_cleanly() {
    let (ok, stderr) = run_expect_exit(&["--snapshot", "/nonexistent/lexequal.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot load snapshot"), "{stderr}");

    let path =
        std::env::temp_dir().join(format!("lexequal_cli_corrupt_{}.img", std::process::id()));
    std::fs::write(&path, b"{ not a snapshot").expect("write corrupt file");
    let (ok, stderr) = run_expect_exit(&["--snapshot", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "corrupt snapshot must not serve");
    assert!(stderr.contains("cannot load snapshot"), "{stderr}");

    // What `SAVE JSON` wrote before the image became the only snapshot
    // format (a PR-22 daemon, two names, `BUILD PHONIDX`): well-formed,
    // and no longer a snapshot — there is no second parser to fall to.
    let retired = r#"{"format":"lexequal-store-snapshot","version":1,"shards":2,"names":2,"lsn":0,"fingerprint":"3b0b3026fbb326d1","builds":[{"path":"phonidx"}],"sections":[[["Nehru","English","nɛru","060b070d"]],[["नेहरु","Hindi","neɦrʊ","060b08070d"]]]}"#;
    std::fs::write(&path, retired).expect("write retired document");
    let (ok, stderr) = run_expect_exit(&["--snapshot", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "a JSON document must not serve");
    assert!(stderr.contains("cannot load snapshot"), "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
    // Nor is there a flag left to ask for it with.
    assert_usage_error(
        &["--snapshot-format", "json"],
        &["--snapshot-format", "unknown flag"],
    );
    let help = lexequald().arg("--help").output().expect("spawn");
    assert!(!String::from_utf8_lossy(&help.stdout).contains("--snapshot-format"));
}

/// A running daemon child whose stderr is consumed line by line.
struct Server {
    child: Child,
    stderr: BufReader<std::process::ChildStderr>,
    addr: Option<std::net::SocketAddr>,
}

impl Server {
    fn spawn(args: &[&str]) -> Self {
        let mut child = lexequald()
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lexequald");
        let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        Server {
            child,
            stderr,
            addr: None,
        }
    }

    /// Read stderr until the "serving on ADDR" line; return lines seen.
    fn wait_serving(&mut self) -> Vec<String> {
        let mut seen = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.stderr.read_line(&mut line).expect("read stderr");
            assert!(
                n > 0,
                "daemon exited before serving; stderr so far: {seen:?}"
            );
            let line = line.trim_end().to_owned();
            if let Some(rest) = line.strip_prefix("lexequald: serving on ") {
                let addr = rest.split_whitespace().next().expect("addr token");
                self.addr = Some(addr.parse().expect("socket addr"));
                seen.push(line);
                return seen;
            }
            seen.push(line);
        }
    }

    /// One request/response round trip on a fresh connection.
    fn request(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(self.addr.expect("serving")).expect("connect");
        writeln!(stream, "{line}").expect("write");
        let mut reader = BufReader::new(&stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_owned()
    }

    fn stop(mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// The full serving cycle: preload + save a snapshot, restart from it,
/// and assert the restarted daemon answers a MATCH bit-identically.
#[test]
fn snapshot_written_by_one_run_serves_the_next() {
    let snap = std::env::temp_dir().join(format!("lexequal_cli_cycle_{}.img", std::process::id()));
    let snap_str = snap.to_str().unwrap().to_owned();

    let mut first = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--preload",
        "400",
        "--save-snapshot",
        &snap_str,
    ]);
    let lines = first.wait_serving();
    assert!(
        lines.iter().any(|l| l.contains("snapshot saved")),
        "no save line in {lines:?}"
    );
    let query = "MATCH en qgram 0.45 Nehru";
    let before = first.request(query);
    assert!(before.starts_with("OK "), "{before}");
    let names_before = first.request("STATS");
    first.stop();

    // Restart purely from the snapshot — no --preload, no --shards: the
    // store must come back with the snapshot's own shard count.
    let mut second = Server::spawn(&["--addr", "127.0.0.1:0", "--snapshot", &snap_str]);
    let lines = second.wait_serving();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("loaded via mmap") && l.contains("serve-ready")),
        "no mmap load line in {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("2 shard(s)")),
        "snapshot shard count not adopted: {lines:?}"
    );
    // An mmap load declares the recorded access paths and covers them in
    // the background: the very first method-pinned MATCH is exact.
    let after = second.request(query);
    assert_eq!(after, before, "MATCH diverged across the restart");
    // STATS agrees on the corpus size (strip the volatile counters).
    let names = |s: &str| {
        s.split_whitespace()
            .find(|kv| kv.starts_with("names="))
            .map(str::to_owned)
    };
    assert_eq!(names(&names_before), names(&second.request("STATS")));
    second.stop();

    // A --shards pin that disagrees with the snapshot is a clean startup
    // failure pointing at the open re-sharding item.
    let (ok, stderr) = run_expect_exit(&["--snapshot", &snap_str, "--shards", "5"]);
    assert!(!ok, "mismatched --shards must not serve");
    assert!(stderr.contains("2 shard"), "{stderr}");
    assert!(stderr.contains("rebalancing"), "{stderr}");

    std::fs::remove_file(&snap).ok();
}

/// Regression: `--snapshot X --save-snapshot Y` used to save while the
/// background index rebuild was still running, so Y recorded *zero*
/// access paths and a daemon later loaded from Y served scan-only
/// forever. An image records the *declared* paths, and a load declares
/// what it finds before anything else happens, so the save needs no
/// build in front of it and the chain keeps every path.
#[test]
fn save_snapshot_after_mmap_load_records_access_paths() {
    let pid = std::process::id();
    let first_snap = std::env::temp_dir().join(format!("lexequal_cli_chain_a_{pid}.snap"));
    let second_snap = std::env::temp_dir().join(format!("lexequal_cli_chain_b_{pid}.snap"));
    let first_str = first_snap.to_str().unwrap().to_owned();
    let second_str = second_snap.to_str().unwrap().to_owned();

    // Seed run: preload builds every access path, then saves.
    let mut seed = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--preload",
        "200",
        "--save-snapshot",
        &first_str,
    ]);
    seed.wait_serving();
    seed.stop();

    // Chained run: load the image, save a new one — with no build in
    // between.
    let mut chain = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--snapshot",
        &first_str,
        "--save-snapshot",
        &second_str,
    ]);
    let lines = chain.wait_serving();
    assert!(
        !lines
            .iter()
            .any(|l| l.contains("_ms=") && l.contains("paths=")),
        "a build ran before serving: {lines:?}"
    );
    let resp = chain.request("MATCH en qgram 0.45 Nehru");
    assert!(
        resp.starts_with("OK ") && resp.contains("method=qgram"),
        "{resp}"
    );
    chain.stop();

    // The chained image itself records the access paths: a third
    // daemon loading it knows what to rebuild.
    let image = lexequal_service::mmapstore::load_file(
        lexequal::MatchConfig::default(),
        None,
        &second_snap,
    )
    .expect("chained snapshot loads");
    assert_eq!(
        image.builds.len(),
        3,
        "chained snapshot must record qgram + phonetic + bk-tree, got {:?}",
        image.builds
    );

    std::fs::remove_file(&first_snap).ok();
    std::fs::remove_file(&second_snap).ok();
}

/// The one start-up sequence: rows in, paths declared, `serving on`, and
/// only then the cover — whose first requests are answered exactly.
#[test]
fn preload_listens_before_it_covers_and_answers_exactly_meanwhile() {
    use lexequal::{Language, MatchConfig, NameStore, QgramMode, SearchMethod};
    use lexequal_service::{proto::format_outcome, MatchOutcome};

    let mut daemon = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--preload",
        "20000",
    ]);
    let lines = daemon.wait_serving();
    let preloaded = lines
        .iter()
        .position(|l| l.contains("preloaded names=20418 base_ms="))
        .unwrap_or_else(|| panic!("no preload line in {lines:?}"));
    assert_eq!(
        preloaded + 2,
        lines.len(),
        "preloaded, then serving on: {lines:?}"
    );
    // Not capped (20 000 is far below the lexicon's ceiling), and no cover.
    for absent in ["asked=", "ceiling=", "qgram_ms=", "paths=", "covered"] {
        assert!(!lines[preloaded].contains(absent), "{}", lines[preloaded]);
    }
    assert!(lines[preloaded].contains(" load_ms=") && lines[preloaded].contains(" total_ms="));

    // Sent the moment the listener is announced, most likely answered
    // from an uncovered path (`shard_equivalence.rs` parks a cover to make
    // that certain); either way it is what a fully built store says.
    let dataset = lexequal_lexicon::build_dataset(&MatchConfig::default(), 20_000);
    let stored = dataset[0].text.clone();
    assert_eq!(dataset[0].language, Language::English);
    let got = daemon.request(&format!("MATCH en phonidx - {stored}"));
    let mut oracle = NameStore::new(MatchConfig::default());
    oracle.extend_transformed(dataset);
    oracle.build_qgram(3, QgramMode::Strict);
    oracle.build_phonetic_index();
    oracle.build_bktree();
    let expect = |oracle: &NameStore, method, text: &str| {
        let r = oracle
            .search(text, Language::English, 0.35, method)
            .unwrap();
        format_outcome(&MatchOutcome::Matches {
            method,
            threshold: 0.35,
            ids: r.ids,
            verifications: r.verifications,
        })
    };
    assert_eq!(got, expect(&oracle, SearchMethod::PhoneticIndex, &stored));
    assert!(!got.contains(" n=0 "), "{got}");

    // The cover reports once, after the listener, with the per-path fields.
    let mut covered = String::new();
    daemon.stderr.read_line(&mut covered).expect("read stderr");
    for field in [
        "lexequald: covered in background paths=3 qgram_ms=",
        " phonidx_ms=",
        " bktree_ms=",
        " build_ms=",
        " index_bytes=",
    ] {
        assert!(covered.contains(field), "{field:?} not in {covered:?}");
    }
    // Covered, the paths answer the same — and an ADD costs none of them.
    assert_eq!(daemon.request(&format!("MATCH en phonidx - {stored}")), got);
    assert_eq!(daemon.request("ADD en Nehru"), "OK 20418");
    oracle.insert("Nehru", Language::English).unwrap();
    oracle.build_qgram(3, QgramMode::Strict);
    oracle.build_phonetic_index();
    oracle.build_bktree();
    for (wire, method) in [
        ("qgram", SearchMethod::Qgram),
        ("phonidx", SearchMethod::PhoneticIndex),
        ("bktree", SearchMethod::BkTree),
    ] {
        let reply = daemon.request(&format!("MATCH en {wire} - Nehru"));
        assert_eq!(reply, expect(&oracle, method, "Nehru"));
        assert!(reply.contains("20418"), "{reply}");
    }
    let stats = daemon.request("STATS");
    assert!(stats.contains(" notbuilt=0 "), "{stats}");
    assert!(
        stats.contains(" declared=3 qgram_tail=1 phonidx_tail=1 bktree_tail=1 covers=3 "),
        "{stats}"
    );
    daemon.stop();
}

/// `--mode` is no longer a choice: `evented` names the only serve loop
/// and still starts a daemon (old command lines pass it); the removed
/// value is a usage error that says so.
#[test]
fn mode_accepts_evented_and_names_the_removed_threaded_path() {
    let mut daemon = Server::spawn(&["--addr", "127.0.0.1:0", "--mode", "evented"]);
    daemon.wait_serving();
    assert_eq!(daemon.request("ADD en Nehru"), "OK 0");
    assert!(daemon
        .request("MATCH en scan - Nehru")
        .starts_with("OK n=1 "));
    daemon.stop();

    assert_usage_error(
        &["--mode", "threaded"],
        &["--mode", "\"threaded\"", "threaded serve path was removed"],
    );
    let out = lexequald().arg("--help").output().expect("spawn");
    let usage = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(usage.contains("[--mode evented]"), "{usage}");
    assert!(usage.contains("accepted for old command lines"), "{usage}");
    assert!(!usage.contains("threaded"), "{usage}");
}

/// `--cache` bounds eviction; it is not an allocation request. The
/// largest value the flag parses used to abort start-up (`Hash table
/// capacity overflow`; 4 000 000 000 asked the allocator for 44 GB).
#[test]
fn a_huge_cache_bound_reserves_nothing_up_front() {
    let mut daemon = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--cache",
        "18446744073709551615",
        "--preload",
        "100",
    ]);
    daemon.wait_serving();
    let first = daemon.request("MATCH en scan - Nehru");
    assert!(first.starts_with("OK "), "{first}");
    assert_eq!(daemon.request("MATCH en scan - Nehru"), first);
    let stats = daemon.request("STATS");
    assert!(stats.contains(" cache_hits=1 "), "{stats}");
    daemon.stop();
}

#[test]
fn replication_flags_reject_bad_combinations() {
    // Values are required and must look like addresses.
    assert_usage_error(&["--wal"], &["--wal", "needs a value"]);
    assert_usage_error(&["--replica-of"], &["--replica-of", "needs a value"]);
    assert_usage_error(
        &["--replica-of", "nohost"],
        &["--replica-of", "\"nohost\"", "HOST:PORT"],
    );
    assert_usage_error(
        &["--repl-listen", "9999"],
        &["--repl-listen", "\"9999\"", "HOST:PORT"],
    );
    assert_usage_error(
        &["--addr", "localhost"],
        &["--addr", "\"localhost\"", "HOST:PORT"],
    );

    // A replica seeds itself from the primary: local state flags clash.
    for flag in ["--wal", "--snapshot", "--save-snapshot"] {
        assert_usage_error(
            &["--replica-of", "127.0.0.1:9", flag, "x"],
            &["--replica-of", flag, "mutually exclusive"],
        );
    }
    assert_usage_error(
        &["--replica-of", "127.0.0.1:9", "--preload", "10"],
        &["--replica-of", "--preload", "mutually exclusive"],
    );
    assert_usage_error(
        &[
            "--replica-of",
            "127.0.0.1:9",
            "--repl-listen",
            "127.0.0.1:10",
        ],
        &["--replica-of", "--repl-listen", "mutually exclusive"],
    );

    // A dedicated replication listener is a primary-only concept.
    assert_usage_error(
        &["--repl-listen", "127.0.0.1:10"],
        &["--repl-listen", "requires --wal"],
    );
}

#[test]
fn compaction_flags_validate_and_require_a_wal() {
    // Values must parse, and zero bytes is a nonsense bound.
    assert_usage_error(&["--wal-max-bytes"], &["--wal-max-bytes", "needs a value"]);
    assert_usage_error(
        &["--wal", "w", "--wal-max-bytes", "lots"],
        &["--wal-max-bytes", "\"lots\"", "invalid value"],
    );
    assert_usage_error(
        &["--wal", "w", "--wal-max-bytes", "0"],
        &["--wal-max-bytes", "\"0\"", "positive"],
    );
    assert_usage_error(
        &["--wal", "w", "--wal-ack-grace", "soon"],
        &["--wal-ack-grace", "\"soon\"", "invalid value"],
    );

    // Compaction bounds the WAL — without one, both flags are errors.
    assert_usage_error(
        &["--wal-max-bytes", "4096"],
        &["--wal-max-bytes", "requires --wal"],
    );
    assert_usage_error(
        &["--wal-ack-grace", "5"],
        &["--wal-ack-grace", "requires --wal"],
    );
}

#[test]
fn help_lists_the_replication_flags() {
    let out = lexequald().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--wal",
        "--replica-of",
        "--repl-listen",
        "--wal-max-bytes",
        "--wal-ack-grace",
    ] {
        assert!(stdout.contains(flag), "{flag} missing from usage: {stdout}");
    }
}
