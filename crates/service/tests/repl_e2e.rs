//! End-to-end replication through the real `lexequald` binary: a
//! WAL-backed primary, a `--replica-of` replica attached mid-stream
//! (forcing one snapshot transfer plus an incremental tail), a crash
//! (SIGKILL) and a restart from snapshot + WAL replay — with every
//! MATCH answer byte-identical across primary-before-crash,
//! primary-after-restart, and the replica.

mod common;

use common::{stat, wait_stats, Server, TempPath};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

/// The MATCH battery both sides must answer identically. Every name is
/// plain English (always G2P-transformable) and every access path is
/// covered.
fn battery(server: &Server) -> Vec<String> {
    [
        "MATCH en scan 0.45 Nehru",
        "MATCH en qgram 0.45 Nehru",
        "MATCH en phonidx 0.45 Gandhi",
        "MATCH en bktree 0.45 Bose",
        "MATCH en scan 0.35 Tagore",
        "MATCH en qgram 0.35 Krishnan",
        "MATCH en phonidx 0.6 Patel",
    ]
    .iter()
    .map(|q| format!("{q} => {}", server.request(q)))
    .collect()
}

/// The headline acceptance test: converge, crash, recover, reconverge.
#[test]
fn replica_and_recovered_primary_answer_byte_identically() {
    let wal = TempPath::new("lexequal_repl", "e2e.wal");
    let snap = TempPath::new("lexequal_repl", "e2e.snap.img");

    // Primary with a WAL, empty store.
    let mut primary = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--wal",
        wal.as_str(),
    ]);
    let lines = primary.wait_serving();
    assert!(
        lines.iter().any(|l| l.contains("replayed 0 op(s)")),
        "fresh wal must replay nothing: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("role=primary")),
        "{lines:?}"
    );
    let primary_addr = primary.addr_str();

    // Batch A lands before the replica exists — it will travel inside
    // the snapshot transfer.
    for name in ["Nehru", "Nero", "Gandhi"] {
        let resp = primary.request(&format!("ADD en {name}"));
        assert!(resp.starts_with("OK "), "{resp}");
    }
    assert_eq!(primary.request("BUILD ALL"), "OK built=all");

    // Attach the replica mid-stream.
    let mut replica = Server::spawn(&["--addr", "127.0.0.1:0", "--replica-of", &primary_addr]);
    let rlines = replica.wait_serving();
    assert!(
        rlines.iter().any(|l| l.contains("replica synced from")),
        "{rlines:?}"
    );
    assert!(
        rlines.iter().any(|l| l.contains("role=replica")),
        "{rlines:?}"
    );

    // Batch B arrives over the incremental stream, then a snapshot is
    // cut over the wire, then batch C rides the WAL tail past it.
    for name in ["Bose", "Tagore", "Krishnan"] {
        assert!(primary
            .request(&format!("ADD en {name}"))
            .starts_with("OK "));
    }
    let saved = primary.request(&format!("SAVE {}", snap.as_str()));
    assert!(saved.starts_with("OK saved="), "{saved}");
    assert!(saved.contains("names=6"), "{saved}");
    for name in ["Patel", "Sarojini", "Mehta"] {
        assert!(primary
            .request(&format!("ADD en {name}"))
            .starts_with("OK "));
    }
    assert_eq!(primary.request("BUILD ALL"), "OK built=all");

    // The primary's own STATS carries the replication block.
    let pstats = primary.request("STATS");
    assert_eq!(stat(&pstats, "repl_role"), Some("primary"), "{pstats}");
    assert!(stat(&pstats, "wal_lsn").is_some(), "{pstats}");

    let before_crash = battery(&primary);

    // The replica reports its lag and drains it to zero — at the
    // primary's head: lag is also 0 between two records of the stream.
    let head = stat(&pstats, "wal_lsn");
    let rstats = wait_stats(&replica, "replica catch-up", |s| {
        stat(s, "repl_lsn") == head
            && stat(s, "repl_lag") == Some("0")
            && stat(s, "repl_connected") == Some("1")
    });
    assert_eq!(stat(&rstats, "repl_role"), Some("replica"), "{rstats}");
    assert_eq!(battery(&replica), before_crash, "replica diverged");

    // Mutations bounce with a redirect naming the primary.
    let rejected = replica.request("ADD en Imposter");
    assert!(rejected.starts_with("ERR read-only replica"), "{rejected}");
    assert!(rejected.contains(&primary_addr), "{rejected}");
    assert!(replica
        .request("BUILD ALL")
        .starts_with("ERR read-only replica"));

    // Crash the primary. The replica notices and keeps serving reads.
    primary.kill();
    wait_stats(&replica, "replica to notice the dead primary", |s| {
        stat(s, "repl_connected") == Some("0")
    });
    assert_eq!(battery(&replica), before_crash, "replica lost data");

    // Restart on the same address from snapshot + WAL tail.
    let mut revived = Server::spawn(&[
        "--addr",
        &primary_addr,
        "--snapshot",
        snap.as_str(),
        "--wal",
        wal.as_str(),
    ]);
    let lines = revived.wait_serving();
    assert!(
        lines.iter().any(|l| l.contains("loaded via mmap")),
        "no snapshot load line: {lines:?}"
    );
    let replayed = lines
        .iter()
        .find(|l| l.contains("replayed"))
        .unwrap_or_else(|| panic!("no wal replay line: {lines:?}"));
    // Batch C (3 adds) + BUILD ALL (3 build ops) came after the SAVE.
    assert!(replayed.contains("replayed 6 op(s)"), "{replayed}");
    assert_eq!(battery(&revived), before_crash, "recovery diverged");

    // The replica reconnects to the revived primary and stays converged.
    wait_stats(&replica, "replica reconnect", |s| {
        stat(s, "repl_connected") == Some("1") && stat(s, "repl_lag") == Some("0")
    });
    assert_eq!(battery(&replica), before_crash, "post-recovery divergence");

    // And the stream still works: a fresh mutation reaches the replica.
    // (Wait on the name count, not on `repl_lag`: the lag reads 0 until
    // the replica has *heard* of the new record, so it can hold before
    // the record arrives.)
    assert!(revived.request("ADD en Epilogue").starts_with("OK "));
    let names = revived.request("STATS");
    let names = stat(&names, "names").expect("names in STATS").to_owned();
    wait_stats(&replica, "post-recovery apply", |s| {
        stat(s, "names") == Some(names.as_str())
    });
    let q = "MATCH en scan 0.45 Epilogue";
    assert_eq!(replica.request(q), revived.request(q));

    // That ADD used to cost both sides every accelerated path (`NOTBUILT`
    // until the next BUILD). Both applied `Op::Build`s and then an
    // `Op::Add`: the row is a one-row tail on either side, and every
    // path answers — alike — as the path that was asked for.
    let with_tail = battery(&revived);
    for line in &with_tail {
        let wire = line.split_whitespace().nth(2).expect("method token");
        assert!(
            line.contains("=> OK ") && line.contains(&format!("method={wire}")),
            "{line}"
        );
    }
    assert_eq!(battery(&replica), with_tail, "replica diverged on a tail");
    // And alike again once both have covered it.
    assert_eq!(revived.request("BUILD ALL"), "OK built=all");
    for (server, who) in [(&revived, "primary"), (&replica, "replica")] {
        wait_stats(server, &format!("{who} to cover its tail"), |s| {
            stat(s, "declared") == Some("3")
                && ["qgram_tail", "phonidx_tail", "bktree_tail"]
                    .iter()
                    .all(|key| stat(s, key) == Some("0"))
        });
    }
    assert_eq!(
        battery(&replica),
        with_tail,
        "replica diverged once covered"
    );
    assert_eq!(battery(&revived), with_tail, "a cover changed an answer");
}

/// `SAVE` on a standalone daemon (no WAL): explicit path works and the
/// file restarts a daemon; no path and no default is a clean error.
#[test]
fn save_command_works_standalone() {
    let snap = TempPath::new("lexequal_repl", "standalone.snap.img");
    let mut server = Server::spawn(&["--addr", "127.0.0.1:0", "--shards", "2", "--preload", "300"]);
    server.wait_serving();

    let no_path = server.request("SAVE");
    assert!(no_path.starts_with("ERR SAVE: no path"), "{no_path}");

    let saved = server.request(&format!("SAVE {}", snap.as_str()));
    assert!(saved.starts_with("OK saved="), "{saved}");
    assert!(saved.contains("lsn=0"), "{saved}");
    let q = "MATCH en qgram 0.45 Nehru";
    let before = server.request(q);
    drop(server);

    let mut restarted = Server::spawn(&["--addr", "127.0.0.1:0", "--snapshot", snap.as_str()]);
    restarted.wait_serving();
    // The mmap load declares the recorded paths and covers them in the
    // background: the first method-pinned MATCH is already exact.
    let after = restarted.request(q);
    assert_eq!(after, before);

    // REPL HELLO against a daemon with no WAL is a named refusal.
    let refused = restarted.request("REPL HELLO 0");
    assert!(refused.contains("replication not enabled"), "{refused}");
}

/// `--save-snapshot` doubles as the `SAVE` default target.
#[test]
fn save_without_path_uses_the_configured_default() {
    let snap = TempPath::new("lexequal_repl", "default.snap.img");
    let mut server = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--preload",
        "200",
        "--save-snapshot",
        snap.as_str(),
    ]);
    server.wait_serving();
    assert!(server.request("ADD en Newcomer").starts_with("OK "));
    let saved = server.request("SAVE");
    assert!(saved.starts_with("OK saved="), "{saved}");
    assert!(saved.contains(snap.as_str()), "{saved}");
}

/// Regression: a replica sized its transfer buffer from the `SNAP`
/// header before a payload byte had arrived, so a confused or hostile
/// peer's `bytes=` aborted it (allocation failure at 4 TB, `capacity
/// overflow` at `u64::MAX`). Memory follows the bytes received, and a
/// transfer that ends short is one more handshake failure to retry.
#[test]
fn a_snap_header_that_lies_about_its_length_is_retried_not_fatal() {
    let headers: [(&str, &[u8]); 3] = [
        ("SNAP lsn=0 bytes=4000000000000", b""),
        ("SNAP lsn=0 bytes=18446744073709551615", b""),
        ("SNAP lsn=0 bytes=1000", b"ten bytes."),
    ];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // A scripted primary: one header (and what payload there is) per
    // connection, then the socket closes.
    let primary = std::thread::spawn(move || {
        for (header, payload) in headers {
            let (mut conn, _) = listener.accept().expect("accept replica");
            let mut hello = String::new();
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            reader.read_line(&mut hello).expect("read hello");
            assert_eq!(hello, "REPL HELLO 0 MMAP\n");
            conn.write_all(format!("{header}\n").as_bytes())
                .expect("write header");
            conn.write_all(payload).expect("write payload");
        }
    });

    let mut replica = Server::spawn(&["--addr", "127.0.0.1:0", "--replica-of", &addr]);
    let mut retries = Vec::new();
    while retries.len() < headers.len() {
        let mut line = String::new();
        let n = replica.stderr.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "replica died; retries so far: {retries:?}");
        if line.contains("initial sync with") && line.contains("retrying") {
            retries.push(line);
        }
    }
    primary.join().expect("scripted primary");
    for (retry, (header, payload)) in retries.iter().zip(headers) {
        let announced = header.rsplit('=').next().expect("bytes=");
        let ended = format!("ended after {} of {announced} bytes", payload.len());
        assert!(retry.contains(&ended), "{header}: {retry}");
    }
    assert!(
        replica.child.try_wait().expect("poll replica").is_none(),
        "the replica is still up"
    );
    // It never held more than it was sent: far under the advertised 4 TB.
    let status = std::fs::read_to_string(format!("/proc/{}/status", replica.child.id()));
    if let Ok(status) = status {
        let hwm_kb: u64 = status
            .lines()
            .find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .expect("VmHWM");
        assert!(hwm_kb < 256 * 1024, "replica peaked at {hwm_kb} kB");
    }
}
