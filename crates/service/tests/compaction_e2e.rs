//! End-to-end WAL compaction through the real `lexequald` binary: a
//! primary with a tiny `--wal-max-bytes` bound and a live replica
//! soaking through several background checkpoint-and-truncate cycles,
//! the explicit `COMPACT` wire command, crash (SIGKILL) loops landing at
//! arbitrary points of the compaction cycle, and the flag/role
//! refusals.

mod common;

use common::{lexequald, stat, wait_stats, Server, TempPath};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The i-th synthetic name: always alphabetic, always G2P-transformable.
fn name(i: usize) -> String {
    let heads = ["Ka", "Re", "Ni", "Mo", "Ta", "Lu", "Sa", "Vi"];
    let tails = ["ram", "vel", "din", "sha", "pur", "nak", "kar", "tel"];
    format!(
        "{}{}{}",
        heads[(i / tails.len()) % heads.len()],
        tails[i % tails.len()],
        i / (heads.len() * tails.len()),
    )
}

/// The MATCH battery both sides must answer identically.
fn battery(server: &Server, names: &[String]) -> Vec<String> {
    names
        .iter()
        .map(|n| {
            let q = format!("MATCH en scan 0.45 {n}");
            format!("{q} => {}", server.request(&q))
        })
        .collect()
}

/// The headline soak: a WAL bounded at a few KiB stays bounded across
/// several background compaction cycles while a live replica streams,
/// drains its lag to zero and answers byte-identically.
#[test]
fn bounded_wal_soaks_with_a_live_replica() {
    let wal = TempPath::new("lexequal_compact", "soak.wal");
    let mut primary = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--wal",
        wal.as_str(),
        "--wal-max-bytes",
        "2048",
    ]);
    primary.wait_serving();
    let primary_addr = primary.addr_str();

    let mut replica = Server::spawn(&["--addr", "127.0.0.1:0", "--replica-of", &primary_addr]);
    replica.wait_serving();

    // Commit in rounds until three compaction cycles have landed (the
    // background compactor polls every 200ms, so rounds give it room).
    let mut names = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for _ in 0..40 {
            let n = name(names.len());
            let resp = primary.request(&format!("ADD en {n}"));
            assert!(resp.starts_with("OK "), "{resp}");
            names.push(n);
        }
        let stats = primary.request("STATS");
        let compactions: u64 = stat(&stats, "compactions")
            .unwrap_or_else(|| panic!("no compactions key: {stats}"))
            .parse()
            .expect("compactions number");
        if compactions >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never reached 3 compactions; last STATS: {stats}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The bound held: the live log (and the file itself) stayed a small
    // multiple of the threshold, far below the total committed bytes.
    let stats = wait_stats(&primary, "post-compaction stats", |s| {
        stat(s, "wal_bytes_live")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|v| v <= 2048)
    });
    let file_bytes = std::fs::metadata(wal.as_str()).expect("wal file").len();
    assert!(
        file_bytes <= 4 * 2048,
        "on-disk wal is {file_bytes} bytes, way past the bound: {stats}"
    );
    assert!(wal.checkpoint().exists(), "checkpoint must exist on disk");
    let checkpoint_lsn: u64 = stat(&stats, "checkpoint_lsn")
        .expect("checkpoint_lsn key")
        .parse()
        .expect("checkpoint_lsn number");
    assert!(checkpoint_lsn > 0, "{stats}");
    assert_eq!(stat(&stats, "divergences"), Some("0"), "{stats}");

    // The replica rode through every truncation and converged.
    // (At the full name count: the lag also reads 0 between two records.)
    let total = names.len().to_string();
    wait_stats(&replica, "replica catch-up", |s| {
        stat(s, "names") == Some(total.as_str())
            && stat(s, "repl_lag") == Some("0")
            && stat(s, "repl_connected") == Some("1")
    });
    let probe: Vec<String> = names.iter().step_by(7).cloned().collect();
    assert_eq!(
        battery(&replica, &probe),
        battery(&primary, &probe),
        "replica diverged across compactions"
    );

    // Explicit COMPACT works on top of the background cycles.
    let compacted = primary.request("COMPACT");
    assert!(
        compacted.starts_with("OK compacted checkpoint_lsn="),
        "{compacted}"
    );
    assert!(compacted.contains("wal_bytes_live="), "{compacted}");

    // And a restart recovers the full corpus from checkpoint + tail.
    primary.kill();
    let mut revived = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--wal",
        wal.as_str(),
        "--wal-max-bytes",
        "2048",
    ]);
    let lines = revived.wait_serving();
    assert!(
        lines.iter().any(|l| l.contains("loaded via mmap")),
        "restart must load the checkpoint: {lines:?}"
    );
    let all: Vec<String> = names.clone();
    for n in &all {
        let resp = revived.request(&format!("MATCH en scan 0.45 {n}"));
        assert!(
            resp.starts_with("OK n=") && !resp.starts_with("OK n=0 "),
            "lost {n} after restart: {resp}"
        );
    }
}

/// Kill -9 loops: crash the primary at staggered points while the
/// background compactor is cycling, restart from whatever the
/// filesystem holds, and require the pre-crash battery byte-identical
/// every time.
#[test]
fn kill_loops_across_compaction_recover_byte_identically() {
    let wal = TempPath::new("lexequal_compact", "killloop.wal");
    let mut names: Vec<String> = Vec::new();
    let mut next = 0usize;
    // Staggered post-commit delays walk the kill across the compactor's
    // 200ms cycle: before a cycle starts, mid-checkpoint, post-rename,
    // post-truncate.
    for (round, delay_ms) in [0u64, 60, 130, 210, 340].into_iter().enumerate() {
        let mut primary = Server::spawn(&[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--wal",
            wal.as_str(),
            "--wal-max-bytes",
            "1024",
        ]);
        let lines = primary.wait_serving();
        if round > 0 {
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains("loaded via mmap") || l.contains("replayed")),
                "restart must recover from checkpoint/wal: {lines:?}"
            );
        }
        // Every name acknowledged in ANY earlier round must still match.
        for n in &names {
            let resp = primary.request(&format!("MATCH en scan 0.45 {n}"));
            assert!(
                resp.starts_with("OK n=") && !resp.starts_with("OK n=0 "),
                "round {round}: lost {n} after crash: {resp}"
            );
        }
        for _ in 0..30 {
            let n = name(next);
            next += 1;
            let resp = primary.request(&format!("ADD en {n}"));
            assert!(resp.starts_with("OK "), "{resp}");
            names.push(n);
        }
        let probe: Vec<String> = names.iter().step_by(5).cloned().collect();
        let before = battery(&primary, &probe);
        std::thread::sleep(Duration::from_millis(delay_ms));
        primary.kill();

        let mut revived = Server::spawn(&[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--wal",
            wal.as_str(),
        ]);
        revived.wait_serving();
        assert_eq!(
            battery(&revived, &probe),
            before,
            "round {round} (delay {delay_ms}ms): recovery diverged"
        );
        revived.kill();
    }
}

/// A cycle with no replica to wait for drops every record, so the log a
/// crash leaves behind is as empty as a fresh one and cannot show the gap
/// between the original `--snapshot` image and the checkpoint. Restarting
/// with the original flags must still land on the checkpoint: every
/// acknowledged `ADD` comes back.
#[test]
fn restart_with_original_flags_after_a_cycle_emptied_the_log() {
    let image = TempPath::new("lexequal_compact", "emptied.img");
    let wal = TempPath::new("lexequal_compact", "emptied.wal");
    let mut seed = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--preload",
        "300",
        "--save-snapshot",
        image.as_str(),
    ]);
    seed.wait_serving();
    seed.kill();

    let flags = [
        "--addr",
        "127.0.0.1:0",
        "--snapshot",
        image.as_str(),
        "--wal",
        wal.as_str(),
    ];
    let mut primary = Server::spawn(&flags);
    primary.wait_serving();
    let mut acknowledged = Vec::new();
    for i in 0..12 {
        let resp = primary.request(&format!("ADD en {}", name(i)));
        let id = resp
            .strip_prefix("OK ")
            .unwrap_or_else(|| panic!("ADD not acknowledged: {resp}"));
        acknowledged.push((name(i), id.to_owned()));
    }
    let resp = primary.request("COMPACT");
    assert_eq!(stat(&resp, "dropped"), Some("12"), "{resp}");
    assert!(wal.checkpoint().exists());
    primary.kill();

    let mut revived = Server::spawn(&flags);
    let lines = revived.wait_serving();
    for (n, id) in &acknowledged {
        let resp = revived.request(&format!("MATCH en scan 0 {n}"));
        let ids = resp.split_once("ids=").map_or("", |(_, ids)| ids);
        assert!(
            ids.split(',').any(|got| got == id),
            "acknowledged id {id} ({n}) lost across the restart: {resp}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("holds no record") && l.contains("falling back")),
        "restart must say it fell back to the checkpoint: {lines:?}"
    );
    // So does every access path the image recorded: the checkpoint was
    // cut after `ADD`s, which used to leave it recording none — the
    // revived daemon answered `NOTBUILT` to all of these, for good.
    use lexequal::{Language, MatchConfig, NameStore, QgramMode, SearchMethod};
    let mut oracle = NameStore::new(MatchConfig::default());
    oracle.extend_transformed(lexequal_lexicon::build_dataset(
        &MatchConfig::default(),
        300,
    ));
    for (n, _) in &acknowledged {
        oracle.insert(n, Language::English).expect("oracle insert");
    }
    oracle.build_qgram(3, QgramMode::Strict);
    oracle.build_phonetic_index();
    oracle.build_bktree();
    for (wire, method) in [
        ("qgram", SearchMethod::Qgram),
        ("phonidx", SearchMethod::PhoneticIndex),
        ("bktree", SearchMethod::BkTree),
    ] {
        for (n, id) in acknowledged.iter().step_by(5) {
            let want = oracle.search(n, Language::English, 0.35, method).unwrap();
            let ids: Vec<String> = want.ids.iter().map(u32::to_string).collect();
            assert!(
                ids.contains(id),
                "{wire} {n}: the oracle finds the name itself"
            );
            assert_eq!(
                revived.request(&format!("MATCH en {wire} - {n}")),
                format!(
                    "OK n={} verified={} method={wire} e=0.35 ids={}",
                    ids.len(),
                    want.verifications,
                    ids.join(",")
                ),
                "{wire} {n}"
            );
        }
    }
    let stats = revived.request("STATS");
    assert_eq!(stat(&stats, "notbuilt"), Some("0"), "{stats}");
    assert_eq!(stat(&stats, "declared"), Some("3"), "{stats}");
    // The fresh ADD continues the LSN sequence past the checkpoint.
    let resp = revived.request("ADD en Zubin");
    assert!(resp.starts_with("OK "), "{resp}");
}

/// SIGKILL while a checkpoint is streaming, under a pipelined `ADD`
/// load: the kill lands as soon as the writer's temp file shows up in
/// the directory, so the image is part-written, the log untruncated and
/// `ADD`s are being acknowledged all the while (a checkpoint no longer
/// stops them). Restarting with the original flags must bring back
/// every acknowledged id, and must sweep the dead writer's temp file.
#[test]
fn kill_during_a_streamed_checkpoint_under_load_loses_no_acknowledged_id() {
    let image = TempPath::new("lexequal_compact", "midstream.img");
    let wal = TempPath::new("lexequal_compact", "midstream.wal");
    let mut seed = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--preload",
        "20000",
        "--save-snapshot",
        image.as_str(),
    ]);
    seed.wait_serving();
    seed.kill();

    let flags = [
        "--addr",
        "127.0.0.1:0",
        "--snapshot",
        image.as_str(),
        "--wal",
        wal.as_str(),
        "--wal-max-bytes",
        "1024",
    ];
    let mut primary = Server::spawn(&flags);
    primary.wait_serving();
    let pid = primary.child.id();
    // The checkpoint writer stages into `<wal>.checkpoint.tmp.<pid>`.
    let tmp = std::path::PathBuf::from(format!("{}.tmp.{pid}", wal.checkpoint().display()));

    // The load: one connection, ADDs pipelined in bursts; every reply
    // read is an acknowledged id.
    let stream = TcpStream::connect(primary.addr.expect("serving")).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut acknowledged: Vec<(String, String)> = Vec::new();
    let mut sent = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed_mid_stream = false;
    'load: while Instant::now() < deadline {
        let mut burst = String::new();
        for _ in 0..16 {
            burst.push_str(&format!("ADD en {}\n", name(sent)));
            sent += 1;
        }
        writer.write_all(burst.as_bytes()).expect("write burst");
        for i in sent - 16..sent {
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read ack");
            let id = resp
                .trim_end()
                .strip_prefix("OK ")
                .unwrap_or_else(|| panic!("ADD not acknowledged: {resp:?}"));
            acknowledged.push((name(i), id.to_owned()));
            if tmp.exists() {
                killed_mid_stream = true;
                break 'load;
            }
        }
    }
    primary.kill();
    assert!(
        killed_mid_stream,
        "no checkpoint temp file ever appeared: the compactor never ran under load"
    );
    assert!(acknowledged.len() >= 16, "{}", acknowledged.len());
    // The rename may have won the race with the kill; when it did not,
    // the part-written temp file is what the restart has to sweep.
    let left_behind = tmp.exists();

    let mut revived = Server::spawn(&flags);
    let lines = revived.wait_serving();
    assert!(!tmp.exists(), "stale temp file survived the restart");
    if left_behind {
        assert!(
            lines
                .iter()
                .any(|l| l.contains("removed stale checkpoint temp file")),
            "the sweep must be logged: {lines:?}"
        );
    }
    // Every ADD read back was durable; the rest of the last burst may or
    // may not have committed before the kill.
    let stats = revived.request("STATS");
    let names: usize = stat(&stats, "names")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no names key: {stats}"));
    assert!(
        (20_418 + acknowledged.len()..=20_418 + sent).contains(&names),
        "{names} names after recovery, {} acknowledged of {sent} sent: {stats}",
        acknowledged.len()
    );
    let stream = TcpStream::connect(revived.addr.expect("serving")).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for batch in acknowledged.chunks(64) {
        let lookups: String = batch
            .iter()
            .map(|(n, _)| format!("MATCH en scan 0 {n}\n"))
            .collect();
        writer.write_all(lookups.as_bytes()).expect("write lookups");
        for (n, id) in batch {
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read lookup");
            let ids = resp
                .trim_end()
                .split_once("ids=")
                .map_or("", |(_, ids)| ids);
            assert!(
                ids.split(',').any(|got| got == id),
                "acknowledged id {id} ({n}) lost across the kill: {resp}"
            );
        }
    }
}

/// Role and flag refusals: COMPACT needs a WAL, runs only on a primary,
/// and a replica's refusal names the primary to go ask instead.
/// One `ADD` whose phoneme string cannot fit the image's `u16` length
/// field used to be acknowledged and then fail every `SAVE` and every
/// checkpoint for good, so the log was never truncated again. It is
/// refused before it is logged or applied — by a primary's `commit_add`
/// and by a standalone daemon's plain `ADD` alike.
#[test]
fn an_oversize_add_is_refused_before_it_is_logged_or_applied() {
    // `x` is /ks/: 40 000 of them are 80 000 phonemes, past 65 535.
    let oversize = format!("ADD en {}", "x".repeat(40_000));
    let refused = |resp: &str| {
        assert!(
            resp.starts_with("ERR") && resp.contains("65535"),
            "an oversize ADD must be refused naming the limit: {resp}"
        );
    };
    let wal = TempPath::new("lexequal_compact", "oversize.wal");
    let image = TempPath::new("lexequal_compact", "oversize.img");
    let mut primary = Server::spawn(&["--addr", "127.0.0.1:0", "--wal", wal.as_str()]);
    primary.wait_serving();
    let mut replica =
        Server::spawn(&["--addr", "127.0.0.1:0", "--replica-of", &primary.addr_str()]);
    replica.wait_serving();
    assert_eq!(primary.request("ADD en Nehru"), "OK 0");
    let logged = std::fs::metadata(&wal.0).expect("wal").len();

    refused(&primary.request(&oversize));
    refused(&primary.request(&oversize.replacen("ADD en", "ADD -", 1)));
    let stats = primary.request("STATS");
    assert_eq!(stat(&stats, "names"), Some("1"), "{stats}");
    assert_eq!(stat(&stats, "wal_lsn"), Some("1"), "{stats}");
    assert_eq!(std::fs::metadata(&wal.0).expect("wal").len(), logged);

    // Persistence is not poisoned: a save and a forced checkpoint work,
    // and the next ADD takes the next id and LSN.
    let resp = primary.request(&format!("SAVE {}", image.as_str()));
    assert!(resp.starts_with("OK saved="), "{resp}");
    let resp = primary.request("COMPACT");
    assert!(resp.starts_with("OK compacted checkpoint_lsn=1 "), "{resp}");
    assert!(wal.checkpoint().exists());
    assert_eq!(primary.request("ADD en Gandhi"), "OK 1");
    // The replica was sent two records and holds two names (`repl_lsn`
    // moves when a record arrives, `names` when its load publishes).
    let stats = wait_stats(&replica, "the replica to apply lsn 2", |s| {
        stat(s, "repl_lsn") == Some("2") && stat(s, "names") == Some("2")
    });
    assert_eq!(stat(&stats, "repl_lsn"), Some("2"), "{stats}");

    let mut standalone = Server::spawn(&["--addr", "127.0.0.1:0"]);
    standalone.wait_serving();
    refused(&standalone.request(&oversize));
    assert_eq!(standalone.request("ADD en Nehru"), "OK 0");
    let resp = standalone.request(&format!("SAVE {}", image.as_str()));
    assert!(resp.starts_with("OK saved="), "{resp}");
}

/// `BUILD QGRAM 5 STRICT` used to answer `OK built=qgram`, log the op and
/// kill both shard workers on the index's own assertion: every later
/// request hung, each restart replayed the op and died the same way, and
/// a replica was sent it too. A gram length no index takes is refused at
/// the door — nothing logged, nothing applied, nothing shipped — and a log
/// that already holds one names it at start-up instead of serving dead.
#[test]
fn a_gram_length_no_index_takes_is_refused_before_it_is_logged_or_applied() {
    use lexequal::QgramMode;
    use lexequal_service::{BuildSpec, Op, Wal, WalMetrics};
    let wal = TempPath::new("lexequal_compact", "badq.wal");
    let flags = ["--addr", "127.0.0.1:0", "--wal", wal.as_str()];
    let mut primary = Server::spawn(&flags);
    primary.wait_serving();
    let mut replica =
        Server::spawn(&["--addr", "127.0.0.1:0", "--replica-of", &primary.addr_str()]);
    replica.wait_serving();
    assert_eq!(primary.request("ADD en Nehru"), "OK 0");
    assert_eq!(primary.request("BUILD QGRAM 3 STRICT"), "OK built=qgram");
    let logged = std::fs::metadata(&wal.0).expect("wal").len();

    for q in ["5", "0", "255"] {
        let resp = primary.request(&format!("BUILD QGRAM {q} STRICT"));
        assert!(
            resp.starts_with("ERR") && resp.contains("1..=4"),
            "BUILD QGRAM {q} must be refused naming the range: {resp}"
        );
    }
    assert_eq!(std::fs::metadata(&wal.0).expect("wal").len(), logged);
    let stats = primary.request("STATS");
    assert_eq!(stat(&stats, "wal_lsn"), Some("2"), "{stats}");
    assert_eq!(stat(&stats, "declared"), Some("1"), "{stats}");
    // The daemon lives: the path declared before still answers, here, on
    // the replica (sent two records, no more) and after a restart.
    let query = "MATCH en qgram 0.35 Nehru";
    let answer = primary.request(query);
    assert_eq!(answer, "OK n=1 verified=1 method=qgram e=0.35 ids=0");
    // The apply loop declares before it publishes the LSN: wait on both.
    let stats = wait_stats(&replica, "the replica to apply lsn 2", |s| {
        let lsn: u64 = stat(s, "repl_lsn").map_or(0, |v| v.parse().expect("lsn"));
        stat(s, "declared") == Some("1") && stat(s, "names") == Some("1") && lsn >= 2
    });
    assert_eq!(stat(&stats, "repl_lsn"), Some("2"), "{stats}");
    assert_eq!(replica.request(query), answer);
    primary.kill();
    let mut restarted = Server::spawn(&flags);
    restarted.wait_serving();
    assert_eq!(restarted.request(query), answer);
    assert_eq!(restarted.request("ADD en Gandhi"), "OK 1");

    // What a daemon without the door left behind: a record with a valid
    // checksum and a `q` of 5.
    let hostile = TempPath::new("lexequal_compact", "badq_logged.wal");
    {
        let metrics = std::sync::Arc::new(WalMetrics::default());
        let (mut log, _) = Wal::open(&hostile.0, 0, metrics).expect("fresh wal");
        let (q, mode) = (5, QgramMode::Strict);
        log.append(&Op::Build(BuildSpec::Qgram { q, mode }))
            .expect("append");
    }
    let out = lexequald()
        .args(["--addr", "127.0.0.1:0", "--wal", hostile.as_str()])
        .output()
        .expect("run lexequald");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success() && stderr.contains("q-gram length 5 is outside 1..=4"),
        "a logged q = 5 must be a named start-up error: {stderr}"
    );
}

#[test]
fn compact_command_refusals_name_the_right_fix() {
    let mut standalone = Server::spawn(&["--addr", "127.0.0.1:0"]);
    standalone.wait_serving();
    let resp = standalone.request("COMPACT");
    assert!(
        resp.starts_with("ERR COMPACT requires a write-ahead log"),
        "{resp}"
    );

    let wal = TempPath::new("lexequal_compact", "refusals.wal");
    let mut primary = Server::spawn(&["--addr", "127.0.0.1:0", "--wal", wal.as_str()]);
    primary.wait_serving();
    let primary_addr = primary.addr_str();
    let mut replica = Server::spawn(&["--addr", "127.0.0.1:0", "--replica-of", &primary_addr]);
    replica.wait_serving();
    let resp = replica.request("COMPACT");
    assert!(resp.starts_with("ERR this daemon is a replica"), "{resp}");
    assert!(resp.contains(&primary_addr), "{resp}");

    // A diverged HELLO on the wire is refused with the primary's head.
    let mut sock = TcpStream::connect(primary.addr.expect("serving")).expect("connect");
    sock.write_all(b"REPL HELLO 999 MMAP\n").expect("hello");
    let mut reply = String::new();
    BufReader::new(&sock)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(reply.starts_with("DIVERGED lsn="), "{reply:?}");
    let stats = wait_stats(&primary, "divergence counter", |s| {
        stat(s, "divergences") == Some("1")
    });
    assert!(stat(&stats, "reseeds").is_some(), "{stats}");
}
