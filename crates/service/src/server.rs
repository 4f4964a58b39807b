//! `lexequald`'s request side: what one request line means and what a
//! serving loop needs to know to answer it.
//!
//! [`respond`] is the one entry point from a request line to its
//! response lines; `execute_request` behind it is what the serving
//! loop's workers call with a line they have already parsed, except for
//! a lookup (`MATCH`, `MATCH -`, `BATCH`), which they begin and finish
//! in two halves so a run of them overlaps on the shards. The loop
//! itself — one epoll readiness thread plus a fixed verify worker pool,
//! connections pipelined — is [`crate::event_loop::serve`].

use crate::metrics::{method_name, ConnMetrics, ReplRole, ReplStats};
use crate::proto::{format_outcome, format_stats, parse_request, Request};
use crate::repl::{ReplicaState, Replicator};
use crate::service::{AddResolution, MatchRequest, MatchService, PendingLookup};
use crate::shard::BuildSpec;
use lexequal::{Language, QgramMode};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-serving-loop request context: which replication role the daemon
/// plays and where `SAVE` lands without a path. `Default` is a
/// standalone daemon — no WAL, no replica, mutations apply directly.
#[derive(Clone, Default)]
pub struct ReqCtx {
    /// Primary-side replication (set when running with `--wal`):
    /// mutations commit through the WAL before they apply.
    pub repl: Option<Arc<Replicator>>,
    /// Replica-side state (set under `--replica-of`): mutations are
    /// rejected with a redirect to the primary.
    pub replica: Option<Arc<ReplicaState>>,
    /// Default target for `SAVE` without a path.
    pub save_path: Option<PathBuf>,
}

impl ReqCtx {
    /// The `STATS` replication block for this context (`None` when the
    /// daemon is standalone).
    fn repl_stats(&self) -> Option<ReplStats> {
        if let Some(repl) = &self.repl {
            let head = repl.head();
            let (checkpoint_ms_last, checkpoint_rows_last) = repl.checkpoint_last();
            return Some(ReplStats {
                role: ReplRole::Primary,
                head_lsn: head,
                applied_lsn: head,
                lag: 0,
                connected: true,
                replicas: repl.replicas(),
                wal: Some(repl.wal_stats()),
                primary_addr: None,
                wal_bytes_live: repl.live_bytes(),
                compactions: repl.compactions(),
                checkpoint_lsn: repl.checkpoint_lsn(),
                reseeds: repl.reseeds(),
                divergences: repl.divergences(),
                commit_hold_max_us: repl.commit_hold_max_us(),
                checkpoint_ms_last,
                checkpoint_rows_last,
            });
        }
        self.replica.as_ref().map(|state| state.stats())
    }
}

/// Serving-loop tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Verify-dispatch worker threads (the event loop itself is one more
    /// thread; the shard workers belong to the service).
    pub workers: usize,
    /// Per-connection in-flight request window; reads pause beyond it.
    pub max_pipeline: usize,
    /// Longest accepted request line in bytes; longer lines answer
    /// `ERR` and close the connection.
    pub max_line: usize,
    /// Total verify-dispatch queue capacity (split across workers); a
    /// full queue parks the job on its connection and pauses its reads.
    pub queue_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            max_pipeline: 128,
            max_line: 64 * 1024,
            queue_capacity: 4096,
        }
    }
}

/// `TcpListener::bind` with `SO_REUSEADDR`, so a restarted daemon can
/// retake its port immediately even while old connections linger in
/// TIME_WAIT (std's bind does not set the option on Linux). Raw libc
/// shims in the spirit of [`crate::event_loop`]'s epoll bindings.
pub fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    use std::net::ToSocketAddrs;
    let mut last_err = None;
    for sa in addr.to_socket_addrs()? {
        match bind_reusable_one(&sa) {
            Ok(listener) => return Ok(listener),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address {addr:?} resolved to nothing"),
        )
    }))
}

fn bind_reusable_one(sa: &std::net::SocketAddr) -> std::io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    mod sys {
        extern "C" {
            pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            pub fn setsockopt(
                fd: i32,
                level: i32,
                name: i32,
                value: *const core::ffi::c_void,
                len: u32,
            ) -> i32;
            pub fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
            pub fn listen(fd: i32, backlog: i32) -> i32;
            pub fn close(fd: i32) -> i32;
        }
    }
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    // struct sockaddr_in / sockaddr_in6, assembled by hand (the kernel
    // ABI is stable: family is native-endian, port/address are
    // network-order byte sequences).
    let (domain, sockaddr): (i32, Vec<u8>) = match sa {
        std::net::SocketAddr::V4(v4) => {
            let mut b = vec![0u8; 16];
            b[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            b[2..4].copy_from_slice(&v4.port().to_be_bytes());
            b[4..8].copy_from_slice(&v4.ip().octets());
            (AF_INET, b)
        }
        std::net::SocketAddr::V6(v6) => {
            let mut b = vec![0u8; 28];
            b[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            b[2..4].copy_from_slice(&v6.port().to_be_bytes());
            b[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            b[8..24].copy_from_slice(&v6.ip().octets());
            b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (AF_INET6, b)
        }
    };
    let fd = unsafe { sys::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let fail = |fd: i32| {
        let e = std::io::Error::last_os_error();
        unsafe { sys::close(fd) };
        Err(e)
    };
    let one: i32 = 1;
    if unsafe {
        sys::setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    } < 0
    {
        return fail(fd);
    }
    if unsafe { sys::bind(fd, sockaddr.as_ptr(), sockaddr.len() as u32) } < 0 {
        return fail(fd);
    }
    if unsafe { sys::listen(fd, 1024) } < 0 {
        return fail(fd);
    }
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// Compute the response lines for one request line. `ctx` says which
/// replication role answers (`ReqCtx::default()` is a standalone
/// daemon); `conn` surfaces a serving loop's connection gauges in
/// `STATS`; `quit` is set when the line was `QUIT`.
pub fn respond(
    line: &str,
    service: &MatchService,
    ctx: &ReqCtx,
    conn: Option<&ConnMetrics>,
    quit: &mut bool,
) -> Vec<String> {
    let request = match parse_request(line) {
        Ok(Some(r)) => r,
        Ok(None) => return Vec::new(),
        Err(msg) => return vec![format!("ERR {msg}")],
    };
    if matches!(request, Request::Quit) {
        *quit = true;
    }
    execute_request(service, ctx, &request, conn)
}

/// The read-only rejection a replica answers every mutation with.
fn replica_read_only(state: &ReplicaState) -> String {
    format!(
        "read-only replica: writes go to the primary at {}",
        state.primary
    )
}

/// Route one build through the context: reject on a replica, commit
/// through the WAL on a primary, apply directly when standalone. Either
/// way the reply follows the declaration; the cover runs in the
/// background.
fn do_build(service: &MatchService, ctx: &ReqCtx, spec: BuildSpec) -> Result<(), String> {
    if let Some(state) = &ctx.replica {
        return Err(replica_read_only(state));
    }
    if let Some(repl) = &ctx.repl {
        repl.commit_build(service, spec)
            .map_err(|e| e.to_string())?;
    } else {
        service.store().declare(spec);
        service.store().schedule_cover(spec);
    }
    Ok(())
}

/// Route one add through the context as [`do_build`] routes a build;
/// returns the row's id.
fn do_add(service: &MatchService, ctx: &ReqCtx, text: &str, lang: Language) -> Result<u32, String> {
    if let Some(state) = &ctx.replica {
        return Err(replica_read_only(state));
    }
    match &ctx.repl {
        Some(repl) => repl
            .commit_add(service, text, lang)
            .map(|(_lsn, id)| id)
            .map_err(|e| e.to_string()),
        None => service.add(text, lang).map_err(|e| format!("{e:?}")),
    }
}

/// Begin every lookup `req` is — one for a `MATCH` or `MATCH -`, one
/// an item for a `BATCH` — or `None` for any other request.
pub(crate) fn begin_lookups(service: &MatchService, req: &Request) -> Option<Vec<PendingLookup>> {
    let tagged = |r: &MatchRequest| service.begin(&r.text, Some(r.language), r.method, r.threshold);
    Some(match req {
        Request::Match(r) => vec![tagged(r)],
        Request::MatchAuto(r) => vec![service.begin(&r.text, None, r.method, r.threshold)],
        Request::Batch(items) => items.iter().map(tagged).collect(),
        _ => return None,
    })
}

/// Finish begun lookups in order: one reply line each.
pub(crate) fn finish_lookups(service: &MatchService, begun: Vec<PendingLookup>) -> Vec<String> {
    begun
        .into_iter()
        .map(|p| format_outcome(&service.finish(p)))
        .collect()
}

/// Execute one parsed request against the service: [`respond`] past
/// the parse, and what the serving loop's verify workers call for
/// anything but a lookup. `QUIT` answers `BYE` here, connection teardown
/// is the caller's job. Mutations route through `ctx`: WAL-committed on a
/// primary, rejected with a redirect on a replica.
pub(crate) fn execute_request(
    service: &MatchService,
    ctx: &ReqCtx,
    request: &Request,
    conn: Option<&ConnMetrics>,
) -> Vec<String> {
    if let Some(begun) = begin_lookups(service, request) {
        return finish_lookups(service, begun);
    }
    match request {
        Request::Add { language, text } => match do_add(service, ctx, text, *language) {
            Ok(id) => vec![format!("OK {id}")],
            Err(e) => vec![format!("ERR {e}")],
        },
        Request::Build(spec) => match do_build(service, ctx, *spec) {
            Ok(()) => vec![format!("OK built={}", method_name(spec.method()))],
            Err(e) => vec![format!("ERR {e}")],
        },
        Request::BuildAll => {
            // The wire command is one request but logs as three ops, in
            // the same order `build_all` applies them.
            let specs = [
                BuildSpec::Qgram {
                    q: 3,
                    mode: QgramMode::Strict,
                },
                BuildSpec::PhoneticIndex,
                BuildSpec::BkTree,
            ];
            for spec in specs {
                if let Err(e) = do_build(service, ctx, spec) {
                    return vec![format!("ERR {e}")];
                }
            }
            vec!["OK built=all".to_owned()]
        }
        Request::AddAuto { text } => {
            // Untagged ADD: resolve the language *here*, once, so the WAL
            // logs a concrete tag and replicas converge byte-identically
            // without knowing the routing table. A replica refuses before
            // resolving: its reply and untagged counters stay as they were.
            if let Some(state) = &ctx.replica {
                return vec![format!("ERR {}", replica_read_only(state))];
            }
            let language = match service.resolve_add_language(text) {
                AddResolution::Resolved(l) => l,
                AddResolution::NoResource(l) => return vec![format!("NORESOURCE {l}")],
                AddResolution::BadInput(msg) => return vec![format!("ERR bad input: {msg}")],
            };
            match do_add(service, ctx, text, language) {
                Ok(id) => vec![format!("OK {id} lang={language}")],
                Err(e) => vec![format!("ERR {e}")],
            }
        }
        Request::Match(_) | Request::MatchAuto(_) | Request::Batch(_) => {
            unreachable!("a lookup is answered above")
        }
        Request::Stats => {
            let mut snapshot = service.stats();
            snapshot.conn = conn.map(ConnMetrics::snapshot);
            snapshot.repl = ctx.repl_stats();
            vec![format_stats(&snapshot)]
        }
        Request::Save { path } => execute_save(service, ctx, path.as_deref()),
        Request::Compact => vec![match (&ctx.repl, &ctx.replica) {
            (Some(repl), _) => match repl.compact(service) {
                Ok(report) => format!(
                    "OK compacted checkpoint_lsn={} horizon={} dropped={} wal_bytes_live={}",
                    report.checkpoint_lsn,
                    report.horizon,
                    report.dropped_records,
                    report.wal_bytes_live,
                ),
                Err(e) => format!("ERR COMPACT: {e}"),
            },
            (None, Some(state)) => format!(
                "ERR this daemon is a replica (no wal); COMPACT runs on the primary at {}",
                state.primary
            ),
            (None, None) => {
                "ERR COMPACT requires a write-ahead log (start with --wal PATH)".to_owned()
            }
        }],
        Request::ReplHello { .. } => vec![match (&ctx.repl, &ctx.replica) {
            (None, None) => {
                "ERR replication not enabled (start the primary with --wal PATH)".to_owned()
            }
            (_, Some(_)) => {
                "ERR this daemon is a replica; open the stream against the primary".to_owned()
            }
            // Reached only through `respond`, which has no socket to
            // hand off; the serving loop intercepts the handshake
            // before it gets here.
            (Some(_), None) => "ERR replication stream unavailable on this connection".to_owned(),
        }],
        Request::Quit => vec!["BYE".to_owned()],
    }
}

/// `SAVE [path]`: snapshot the running store atomically, stamped with
/// the WAL head (primary), the applied LSN (replica), or 0.
fn execute_save(service: &MatchService, ctx: &ReqCtx, path: Option<&str>) -> Vec<String> {
    let target = match path.map(PathBuf::from).or_else(|| ctx.save_path.clone()) {
        Some(t) => t,
        None => {
            return vec![
                "ERR SAVE: no path given and no default configured (use SAVE <path> \
                 or start with --save-snapshot PATH)"
                    .to_owned(),
            ]
        }
    };
    let saved = if let Some(repl) = &ctx.repl {
        // Cut under the commit lock, written outside it: the snapshot
        // is exact at its LSN and commits flow during the write.
        repl.save_snapshot_atomic(service, &target)
    } else {
        // On a replica the apply loop may advance while capturing; the
        // stamped LSN is a lower bound (see DESIGN §5e).
        let lsn = ctx.replica.as_ref().map_or(0, |s| s.applied());
        service.save_snapshot_with_lsn(&target, lsn).map(|()| lsn)
    };
    match saved {
        Ok(lsn) => vec![format!(
            "OK saved={} names={} lsn={lsn}",
            target.display(),
            service.len()
        )],
        Err(e) => vec![format!("ERR SAVE: {e}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use lexequal::Language;

    fn service() -> MatchService {
        let s = MatchService::new(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        });
        s.extend(
            [
                ("Nehru", Language::English),
                ("नेहरु", Language::Hindi),
                ("Gandhi", Language::English),
            ]
            .map(|(t, l)| (t.to_owned(), l)),
        )
        .unwrap();
        s
    }

    #[test]
    fn respond_covers_the_happy_paths() {
        let s = service();
        let (ctx, mut quit) = (ReqCtx::default(), false);
        assert_eq!(
            respond("BUILD ALL", &s, &ctx, None, &mut quit),
            ["OK built=all"]
        );
        // Strict q-grams have no false dismissals, so the Hindi spelling
        // must surface (phonidx may legitimately drop it — paper §5).
        let lines = respond("MATCH en qgram 0.45 Nehru", &s, &ctx, None, &mut quit);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("ids=0,1"), "{}", lines[0]);
        let lines = respond("BATCH en - 0.45 Nehru|Gandhi", &s, &ctx, None, &mut quit);
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with("OK n=")));
        let lines = respond("ADD en Bose", &s, &ctx, None, &mut quit);
        assert_eq!(lines, ["OK 3"]);
        let stats = respond("STATS", &s, &ctx, None, &mut quit);
        assert!(stats[0].contains("names=4"), "{}", stats[0]);
        assert!(!quit);
        assert_eq!(respond("QUIT", &s, &ctx, None, &mut quit), ["BYE"]);
        assert!(quit);
    }

    #[test]
    fn respond_reports_errors_inline() {
        let s = service();
        let (ctx, mut quit) = (ReqCtx::default(), false);
        assert!(respond("FROB", &s, &ctx, None, &mut quit)[0].starts_with("ERR "));
        assert!(respond("", &s, &ctx, None, &mut quit).is_empty());
        let lines = respond("MATCH en bktree - Nehru", &s, &ctx, None, &mut quit);
        assert_eq!(lines, ["NOTBUILT bktree"]);
    }

    #[test]
    fn stats_surface_conn_gauges_when_provided() {
        let s = service();
        let metrics = ConnMetrics::default();
        metrics.conn_opened();
        metrics.observe_pipeline(3);
        let (ctx, mut quit) = (ReqCtx::default(), false);
        let line = &respond("STATS", &s, &ctx, Some(&metrics), &mut quit)[0];
        assert!(line.contains("conns_current=1"), "{line}");
        assert!(line.contains("conns_peak=1"), "{line}");
        assert!(line.contains("queue_depth=0"), "{line}");
        assert!(line.contains("pipeline_max=3"), "{line}");
        // Without gauges the fields stay off the wire.
        let bare = &respond("STATS", &s, &ctx, None, &mut quit)[0];
        assert!(!bare.contains("conns_current"), "{bare}");
    }

    /// (Named when there were two serve loops; the one loop is what runs.)
    #[test]
    fn both_paths_serve_a_real_socket_end_to_end() {
        use crate::event_loop::{serve, ShutdownSignal};
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::new(service());
        let shutdown = ShutdownSignal::new().unwrap();
        let sd = shutdown.clone();
        let server = std::thread::spawn(move || {
            serve(
                listener,
                svc,
                ReqCtx::default(),
                ServeOptions::default(),
                sd,
            )
        });

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |cmd: &str| {
            let mut s = stream.try_clone().unwrap();
            writeln!(s, "{cmd}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_owned()
        };
        assert_eq!(send("BUILD PHONIDX"), "OK built=phonidx");
        let resp = send("MATCH hi phonidx 0.45 नेहरु");
        assert!(resp.starts_with("OK n="), "{resp}");
        assert_eq!(send("QUIT"), "BYE");

        shutdown.trigger();
        server.join().unwrap().unwrap();
    }
}
