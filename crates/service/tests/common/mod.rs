//! The out-of-process daemon harness the service's black-box tests share:
//! the built `lexequald` binary, a running child that is killed on drop,
//! a self-removing temp path, and `STATS` polling.
//!
//! Each test binary that says `mod common;` compiles its own copy and uses
//! part of it, so the parts it leaves unused are not dead code.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The `lexequald` binary cargo built for this test run.
pub fn lexequald() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lexequald"))
}

/// A temp file path that cleans up after itself and its `.checkpoint`
/// sibling (what a compacting WAL writes beside itself).
pub struct TempPath(pub std::path::PathBuf);

impl TempPath {
    /// `<temp dir>/<prefix>_<pid>_<name>`, with any leftover file and
    /// checkpoint of that name removed.
    pub fn new(prefix: &str, name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("{prefix}_{}_{name}", std::process::id()));
        let path = TempPath(p);
        std::fs::remove_file(&path.0).ok();
        std::fs::remove_file(path.checkpoint()).ok();
        path
    }

    pub fn as_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }

    /// The `.checkpoint` sibling of this path.
    pub fn checkpoint(&self) -> std::path::PathBuf {
        self.0.with_file_name(format!(
            "{}.checkpoint",
            self.0.file_name().unwrap().to_str().unwrap()
        ))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
        std::fs::remove_file(self.checkpoint()).ok();
    }
}

/// A running daemon child whose stderr is consumed line by line.
pub struct Server {
    pub child: Child,
    pub stderr: BufReader<std::process::ChildStderr>,
    /// Set by [`wait_serving`](Self::wait_serving).
    pub addr: Option<std::net::SocketAddr>,
}

impl Server {
    pub fn spawn(args: &[&str]) -> Self {
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
    pub fn wait_serving(&mut self) -> Vec<String> {
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

    pub fn addr_str(&self) -> String {
        self.addr.expect("serving").to_string()
    }

    /// One request/response round trip on a fresh connection.
    pub fn request(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(self.addr.expect("serving")).expect("connect");
        writeln!(stream, "{line}").expect("write");
        let mut reader = BufReader::new(&stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_owned()
    }

    /// SIGKILL — the crash the WAL and the checkpoint-before-truncate
    /// ordering exist for, and how a test stops a daemon.
    pub fn kill(mut self) {
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

/// Pull `key=value` out of a STATS line.
pub fn stat<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// Poll the server's STATS until `pred` holds (or fail loudly).
pub fn wait_stats(server: &Server, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.request("STATS");
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last STATS: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
