//! The system under test: a real `lexequald` child process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a daemon may take to announce its listener.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `lexequald`. Dropping it kills the process (SIGKILL) and
/// waits for it, so no run can leave a daemon behind.
pub struct Daemon {
    child: Child,
    /// `127.0.0.1:<port>` the daemon announced on stderr.
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
    log: Arc<Mutex<Vec<String>>>,
}

impl Daemon {
    /// Spawn `binary` with `flags` on an ephemeral port and wait until it
    /// announces its listener.
    pub fn spawn(binary: &Path, flags: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(flags)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = channel();
        let stderr = {
            let log = Arc::clone(&log);
            // Drains stderr for the daemon's whole life: a full pipe would
            // block its compaction log lines, and with them the run.
            std::thread::spawn(move || {
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    if let Some(rest) = line.strip_prefix("lexequald: serving on ") {
                        let _ = tx.send(rest.split(' ').next().unwrap_or("").to_owned());
                    }
                    let mut log = log.lock().expect("log lock");
                    if log.len() < 2000 {
                        log.push(line);
                    }
                }
            })
        };
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: Some(stderr),
            log,
        };
        daemon.addr = daemon.await_addr(&rx)?;
        Ok(daemon)
    }

    fn await_addr(&mut self, rx: &Receiver<String>) -> Result<String, String> {
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => Ok(addr),
            _ => {
                let tail = self.log_tail(8);
                self.kill();
                Err(format!("lexequald did not start serving:\n{tail}"))
            }
        }
    }

    /// The last `n` stderr lines (diagnostics on failure).
    pub fn log_tail(&self, n: usize) -> String {
        let log = self.log.lock().expect("log lock");
        log[log.len().saturating_sub(n)..].join("\n")
    }

    /// Peak resident set of the daemon in MB (`VmHWM` of
    /// `/proc/<pid>/status`).
    pub fn rss_peak_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL the daemon and wait until it — and its stderr reader —
    /// have ended.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Where this run keeps its image, WAL and checkpoint files: a fresh
/// directory beside the benchmark binary (inside the build directory, so
/// inside the checkout and already ignored). Removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Create `<exe dir>/lexbench-work/<tag>-<pid>`.
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("benchmark binary has no parent directory")?
            .join("lexbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Locate `lexequald`: an explicit `--daemon` path, else the sibling of
/// this binary (one `cargo build` puts both in the same directory; test
/// binaries live one level down in `deps/`).
pub fn locate(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        let p = PathBuf::from(p);
        return p
            .is_file()
            .then_some(p.clone())
            .ok_or(format!("--daemon {}: no such file", p.display()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join("lexequald");
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(format!(
        "no lexequald beside {} — build it first (crates/lexbench/run.sh does)",
        exe.display()
    ))
}

/// Guard rail: refuse a daemon binary older than the workspace sources
/// it was built from, or one from a debug profile. `root` is the
/// workspace root; a missing root (binary moved off its checkout) skips
/// the freshness check.
pub fn check_fresh(daemon: &Path, root: &Path, allow_debug: bool) -> Result<(), String> {
    if !allow_debug
        && daemon
            .parent()
            .and_then(Path::file_name)
            .is_some_and(|d| d == "debug")
    {
        return Err(format!(
            "{} is a debug build; timings need --release",
            daemon.display()
        ));
    }
    let built = std::fs::metadata(daemon)
        .and_then(|m| m.modified())
        .map_err(|e| format!("stat {}: {e}", daemon.display()))?;
    let mut stack = vec![root.join("crates"), root.join("Cargo.toml")];
    while let Some(p) = stack.pop() {
        let Ok(meta) = std::fs::metadata(&p) else {
            continue;
        };
        if meta.is_dir() {
            // The benchmark's own sources do not go into the daemon.
            if p.ends_with("crates/lexbench") || p.ends_with("target") {
                continue;
            }
            if let Ok(rd) = std::fs::read_dir(&p) {
                stack.extend(rd.flatten().map(|e| e.path()));
            }
        } else if p.extension().is_some_and(|e| e == "rs" || e == "toml")
            && meta.modified().is_ok_and(|m| m > built)
        {
            return Err(format!(
                "{} is older than {}; rebuild (crates/lexbench/run.sh does)",
                daemon.display(),
                p.display()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_guard_refuses_stale_and_debug_binaries() {
        let work = WorkDir::create("freshness-test").unwrap();
        let dir = work.path("checkout");
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::create_dir_all(dir.join("target/debug")).unwrap();
        std::fs::create_dir_all(dir.join("target/release")).unwrap();
        let src = dir.join("crates/core/src/lib.rs");
        std::fs::write(&src, "").unwrap();
        let release = dir.join("target/release/lexequald");
        let debug = dir.join("target/debug/lexequald");
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(&release, "").unwrap();
        std::fs::write(&debug, "").unwrap();
        assert!(check_fresh(&release, &dir, false).is_ok());
        assert!(check_fresh(&debug, &dir, false)
            .unwrap_err()
            .contains("debug build"));
        assert!(check_fresh(&debug, &dir, true).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(&src, "// edited").unwrap();
        assert!(check_fresh(&release, &dir, false)
            .unwrap_err()
            .contains("older than"));
    }
}
