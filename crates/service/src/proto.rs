//! The `lexequald` wire protocol: line-oriented, UTF-8, human-typeable.
//!
//! Every request is one line; every request gets one response line
//! (except `BATCH`, which gets exactly one line per batched query, in
//! order). Grammar (`-` means "use the server default"):
//!
//! ```text
//! ADD <lang|-> <text...>
//! BUILD QGRAM <q> STRICT|PAPER
//! BUILD PHONIDX
//! BUILD BKTREE
//! BUILD ALL
//! MATCH <lang|-> <method|-> <threshold|-> <text...>
//! BATCH <lang> <method|-> <threshold|-> <text>|<text>|...
//! STATS
//! SAVE [path]
//! COMPACT
//! REPL HELLO <lsn> [capability…]
//! QUIT
//! ```
//!
//! where `<lang>` is a language name or ISO code (`english`, `hi`, …)
//! and `<method>` is `scan`, `qgram`, `phonidx` or `bktree`. `-` in the
//! language slot means **untagged**: the server profiles the text's
//! Unicode script and routes it itself — one converter when the script
//! is unambiguous, a fan-out across every language sharing the script
//! (Latin → English/French/Spanish, results unioned) otherwise; scripts
//! without a converter (Hangul, Thai) answer `NORESOURCE`. An untagged
//! `ADD` commits (and WAL-logs) the *resolved* language. `BATCH` stays
//! tagged. Responses:
//!
//! ```text
//! OK <id>                                      (ADD)
//! OK built=<what>                              (BUILD)
//! OK n=<k> verified=<v> method=<m> ids=<a,b,…> (MATCH / each BATCH item)
//! OK <key>=<value> ...                         (STATS, single line)
//! OK saved=<path> names=<n> lsn=<l>            (SAVE)
//! OK compacted checkpoint_lsn=<c> horizon=<h> dropped=<n> wal_bytes_live=<b>  (COMPACT)
//! NORESOURCE <lang>
//! NOTBUILT <method>
//! ERR <message>
//! BYE                                          (QUIT)
//! ```
//!
//! `BUILD` *declares* an access path and answers at once: from that
//! reply on `MATCH … <method>` is served through the path, exactly — an
//! index covers it in the background, and rows `ADD`ed later are its tail
//! until the next cover. `--preload`, a snapshot load and a replica's seed
//! only declare: rows in → paths declared → `serving on`, and a path is
//! covered when a request first names it or `BUILD` asks (DESIGN §5n;
//! `STATS` reports `<method>_tail=`, and ends with what the rows cost:
//! `row_bytes=`, `mapped_bytes=`, `index_bytes=` and its three parts
//! `qgram_bytes=`, `phonidx_bytes=`, `bktree_bytes=`, DESIGN §5o). A `<q>` no index can be built at
//! (outside 1..=4) is an `ERR`, and nothing is declared or logged.
//!
//! `STATS` opens with the request and outcome counters, the transform
//! cache's `cache_hits=` / `cache_misses=`, the screen counters
//! (`screen_accept=`, `screen_reject=`, `screen_dp=`, `screen_bypass=`),
//! the batch counters (`batch_calls=`, `batch_lanes_sum=`,
//! `batch_lanes_max=`, `batch_accept=`, `batch_reject=`, `batch_dp=`) and
//! the dispatched `simd=` level, then what the transform cache holds:
//! `transform_entries=` and `transform_bytes=` (its slot arenas, indices
//! and entries). Per-path searches and latencies, connection gauges,
//! untagged routing, replication and the coverage keys above follow.
//!
//! `verified=` is how many rows the path put to the exact predicate: every
//! row for `scan`, the rows sharing the query's grouped identifier for
//! `phonidx`, and for `qgram` (`STRICT`) and `bktree` alike the rows inside
//! the length filter whose cluster string lies within ⌊e·|q|⌋ unit edits
//! of the query's (DESIGN §5k) — ≈ 130 of 20 418 names at the default
//! threshold where it used to be ≈ 17 000, and the same number whatever
//! part of the store an index covers.
//! `NOTBUILT <method>` therefore means one thing: the path was never
//! declared — no `BUILD`, no `--preload`, none recorded in the snapshot.
//!
//! `SAVE` snapshots the running store to disk (atomically, temp file +
//! rename) as a snapshot image ([`crate::mmapstore`]); everything after
//! the command word is the path. Without a path it uses the daemon's
//! configured snapshot path. `COMPACT` (primaries with `--wal` only)
//! runs one checkpoint-and-truncate cycle by hand: a durable checkpoint
//! at the WAL head, then the log prefix every in-grace replica has
//! acknowledged is dropped — the same cycle the `--wal-max-bytes`
//! trigger runs automatically (see
//! [`crate::repl::Replicator::compact`]). `REPL HELLO <lsn>` is not a
//! request/response pair: on a primary started with `--wal` it converts
//! the connection into a replication stream (see [`crate::repl`] for the
//! stream grammar); anywhere else it draws an `ERR`. Tokens after the
//! LSN are capability advertisements and are ignored — a replica sends
//! `MMAP`, which every primary since the image became the only seed
//! takes as read.

use crate::metrics::{method_index, method_name, ALL_METHODS};
use crate::service::{AutoMatchRequest, MatchOutcome, MatchRequest, StatsSnapshot};
use lexequal::config::THRESHOLD_RANGE;
use lexequal::{BuildSpec, Language, QgramMode, SearchMethod};
use lexequal_g2p::Script;

/// Why incremental framing gave up on a connection's byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A line ran past the configured maximum without a newline (the
    /// payload is the limit in bytes).
    Oversized(usize),
    /// A completed line was not valid UTF-8.
    Utf8,
}

/// Incremental line framing over a nonblocking byte stream.
///
/// Bytes arrive in whatever chunks the socket delivers —
/// [`push`](Self::push) buffers them, [`next_line`](Self::next_line)
/// yields each completed line exactly once (trailing `\r` stripped, so
/// both `\n` and `\r\n` clients work). A line is *complete* only when
/// its newline has arrived; a partial tail survives across any number
/// of reads. Lines longer than `max_line` bytes are rejected rather
/// than buffered without bound.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Start of the current (unconsumed) line within `buf`.
    start: usize,
    /// Scan resume point — bytes before this are known newline-free.
    scan: usize,
    max_line: usize,
}

impl LineFramer {
    /// A framer rejecting lines longer than `max_line` bytes.
    pub fn new(max_line: usize) -> Self {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            scan: 0,
            max_line,
        }
    }

    /// Buffer freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as lines.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next completed line, if one has fully arrived.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        while self.scan < self.buf.len() {
            if self.buf[self.scan] == b'\n' {
                let mut end = self.scan;
                if end > self.start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                if end - self.start > self.max_line {
                    return Err(FrameError::Oversized(self.max_line));
                }
                let line = std::str::from_utf8(&self.buf[self.start..end])
                    .map_err(|_| FrameError::Utf8)?
                    .to_owned();
                self.scan += 1;
                self.start = self.scan;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                    self.scan = 0;
                }
                return Ok(Some(line));
            }
            self.scan += 1;
        }
        if self.buffered() > self.max_line {
            return Err(FrameError::Oversized(self.max_line));
        }
        // Nothing complete: drop consumed bytes so the buffer only ever
        // holds the partial tail.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scan -= self.start;
            self.start = 0;
        }
        Ok(None)
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `ADD <lang> <text...>`
    Add {
        /// Language of the name.
        language: Language,
        /// The name as written.
        text: String,
    },
    /// `ADD - <text...>` — untagged: the server resolves the language by
    /// script profiling and commits under the resolved tag.
    AddAuto {
        /// The name as written.
        text: String,
    },
    /// `BUILD QGRAM <q> STRICT|PAPER`, `BUILD PHONIDX`, `BUILD BKTREE`.
    Build(BuildSpec),
    /// `BUILD ALL` (q-gram defaults to `q=3 STRICT`).
    BuildAll,
    /// `MATCH <lang> <method|-> <threshold|-> <text...>`
    Match(MatchRequest),
    /// `MATCH - <method|-> <threshold|-> <text...>` — untagged: script
    /// profiling routes to one converter or a fan-out set.
    MatchAuto(AutoMatchRequest),
    /// `BATCH <lang> <method|-> <threshold|-> <t1>|<t2>|...`
    Batch(Vec<MatchRequest>),
    /// `STATS`
    Stats,
    /// `SAVE [path]` — snapshot the running store on demand.
    Save {
        /// Target path; `None` uses the daemon's configured default.
        path: Option<String>,
    },
    /// `REPL HELLO <lsn> [capability…]` — a replica opening the stream,
    /// carrying the last LSN it applied (0 = fresh). Trailing capability
    /// tokens are ignored, so a newer replica's HELLO is still accepted.
    ReplHello {
        /// The replica's last applied LSN.
        lsn: u64,
    },
    /// `COMPACT` — checkpoint the store and truncate the WAL prefix
    /// every in-grace replica has acknowledged (primaries only; the
    /// same cycle the `--wal-max-bytes` trigger runs automatically).
    Compact,
    /// `QUIT`
    Quit,
}

/// Parse a method token (`-` is "no override").
fn parse_method(tok: &str) -> Result<Option<SearchMethod>, String> {
    if tok == "-" {
        return Ok(None);
    }
    ALL_METHODS
        .into_iter()
        .find(|&m| method_name(m) == tok.to_ascii_lowercase())
        .map(Some)
        .ok_or_else(|| format!("unknown method {tok:?}"))
}

/// Parse a threshold token (`-` is "no override").
fn parse_threshold(tok: &str) -> Result<Option<f64>, String> {
    if tok == "-" {
        return Ok(None);
    }
    let e: f64 = tok.parse().map_err(|_| format!("bad threshold {tok:?}"))?;
    if !THRESHOLD_RANGE.contains(&e) {
        // The token as sent: `1e308` printed as a number is 309 digits.
        return Err(format!("threshold {tok:?} outside [0,1]"));
    }
    // `-0` is in range and is zero; a reply must not echo `e=-0`.
    Ok(Some(e.abs()))
}

fn parse_lookup_head(
    language: &str,
    method: &str,
    threshold: &str,
) -> Result<(Language, Option<SearchMethod>, Option<f64>), String> {
    Ok((
        language.parse::<Language>()?,
        parse_method(method)?,
        parse_threshold(threshold)?,
    ))
}

/// Parse one request line. Empty/whitespace-only lines yield `None`.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let req = match verb.to_ascii_uppercase().as_str() {
        "ADD" => {
            let (lang, text) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: ADD <lang|-> <text...>")?;
            let text = text.trim();
            if text.is_empty() {
                return Err("ADD: empty name".into());
            }
            if lang == "-" {
                Request::AddAuto {
                    text: text.to_owned(),
                }
            } else {
                Request::Add {
                    language: lang.parse::<Language>()?,
                    text: text.to_owned(),
                }
            }
        }
        "BUILD" => {
            let mut toks = rest.split_whitespace();
            match toks
                .next()
                .ok_or("usage: BUILD QGRAM|PHONIDX|BKTREE|ALL")?
                .to_ascii_uppercase()
                .as_str()
            {
                "QGRAM" => {
                    let q: usize = toks
                        .next()
                        .ok_or("usage: BUILD QGRAM <q> STRICT|PAPER")?
                        .parse()
                        .map_err(|_| "BUILD QGRAM: q must be a positive integer")?;
                    let mode = match toks
                        .next()
                        .ok_or("usage: BUILD QGRAM <q> STRICT|PAPER")?
                        .to_ascii_uppercase()
                        .as_str()
                    {
                        "STRICT" => QgramMode::Strict,
                        "PAPER" => QgramMode::PaperFaithful,
                        other => return Err(format!("unknown q-gram mode {other:?}")),
                    };
                    let spec = BuildSpec::qgram(q, mode);
                    Request::Build(spec.map_err(|e| format!("BUILD QGRAM: {e}"))?)
                }
                "PHONIDX" => Request::Build(BuildSpec::PhoneticIndex),
                "BKTREE" => Request::Build(BuildSpec::BkTree),
                "ALL" => Request::BuildAll,
                other => return Err(format!("unknown build target {other:?}")),
            }
        }
        "MATCH" => {
            let mut toks = rest.splitn(4, char::is_whitespace);
            let usage = "usage: MATCH <lang|-> <method|-> <threshold|-> <text...>";
            let lang = toks.next().ok_or(usage)?;
            let method = toks.next().ok_or(usage)?;
            let threshold = toks.next().ok_or(usage)?;
            let text = toks.next().map(str::trim).unwrap_or("");
            if text.is_empty() {
                return Err("MATCH: empty query".into());
            }
            if lang == "-" {
                Request::MatchAuto(AutoMatchRequest {
                    text: text.to_owned(),
                    threshold: parse_threshold(threshold)?,
                    method: parse_method(method)?,
                })
            } else {
                let (language, method, threshold) = parse_lookup_head(lang, method, threshold)?;
                Request::Match(MatchRequest {
                    text: text.to_owned(),
                    language,
                    threshold,
                    method,
                })
            }
        }
        "BATCH" => {
            let mut toks = rest.splitn(4, char::is_whitespace);
            let usage = "usage: BATCH <lang> <method|-> <threshold|-> <t1>|<t2>|...";
            let lang = toks.next().ok_or(usage)?;
            let method = toks.next().ok_or(usage)?;
            let threshold = toks.next().ok_or(usage)?;
            let texts = toks.next().map(str::trim).unwrap_or("");
            if texts.is_empty() {
                return Err("BATCH: empty query list".into());
            }
            let (language, method, threshold) = parse_lookup_head(lang, method, threshold)?;
            let reqs: Vec<MatchRequest> = texts
                .split('|')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| MatchRequest {
                    text: t.to_owned(),
                    language,
                    threshold,
                    method,
                })
                .collect();
            if reqs.is_empty() {
                return Err("BATCH: empty query list".into());
            }
            Request::Batch(reqs)
        }
        "STATS" => Request::Stats,
        "SAVE" => Request::Save {
            path: (!rest.is_empty()).then(|| rest.to_owned()),
        },
        "REPL" => {
            let usage = "usage: REPL HELLO <lsn>";
            let mut toks = rest.split_whitespace();
            match toks.next().map(str::to_ascii_uppercase).as_deref() {
                Some("HELLO") => {
                    let lsn = toks
                        .next()
                        .ok_or(usage)?
                        .parse::<u64>()
                        .map_err(|_| "REPL HELLO: lsn must be a non-negative integer")?;
                    // Trailing tokens are capability advertisements,
                    // ignored so this primary still accepts a newer
                    // replica's HELLO.
                    Request::ReplHello { lsn }
                }
                _ => return Err(usage.into()),
            }
        }
        "COMPACT" => Request::Compact,
        "QUIT" => Request::Quit,
        other => return Err(format!("unknown command {other:?}")),
    };
    Ok(Some(req))
}

/// Render one lookup outcome as a response line (no trailing newline).
pub fn format_outcome(out: &MatchOutcome) -> String {
    match out {
        MatchOutcome::Matches {
            method,
            threshold,
            ids,
            verifications,
        } => {
            let ids = ids
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "OK n={} verified={} method={} e={} ids={}",
                ids.split(',').filter(|s| !s.is_empty()).count(),
                verifications,
                method_name(*method),
                threshold,
                ids,
            )
        }
        MatchOutcome::NoResource(lang) => format!("NORESOURCE {lang}"),
        MatchOutcome::NotBuilt(method) => format!("NOTBUILT {}", method_name(*method)),
        MatchOutcome::BadInput(msg) => format!("ERR bad input: {}", msg.replace('\n', " ")),
    }
}

/// Render a stats snapshot as the single-line `STATS` response.
pub fn format_stats(s: &StatsSnapshot) -> String {
    let mut line = format!(
        "OK names={} shards={} requests={} matches={} noresource={} notbuilt={} badinput={} cache_hits={} cache_misses={} screen_accept={} screen_reject={} screen_dp={} screen_bypass={} batch_calls={} batch_lanes_sum={} batch_lanes_max={} batch_accept={} batch_reject={} batch_dp={} simd={} transform_entries={} transform_bytes={}",
        s.names,
        s.shards,
        s.requests,
        s.matches_returned,
        s.no_resource,
        s.not_built,
        s.bad_input,
        s.cache_hits,
        s.cache_misses,
        s.screen_fast_accept,
        s.screen_fast_reject,
        s.screen_full_dp,
        s.screen_bypass,
        s.batch_calls,
        s.batch_lanes_sum,
        s.batch_lanes_max,
        s.batch_lane_accept,
        s.batch_lane_reject,
        s.batch_lane_dp,
        s.simd_level,
        s.transform_entries,
        s.transform_bytes,
    );
    line.push_str(&format!(
        " snapshot_format={} mmap_bytes={} load_ms={}",
        s.load.format, s.load.mapped_bytes, s.load.load_ms,
    ));
    for m in ALL_METHODS {
        let pm = &s.per_method[method_index(m)];
        let name = method_name(m);
        line.push_str(&format!(" {name}_searches={}", pm.searches));
        if let Some(p50) = pm.p50_upper_ns {
            line.push_str(&format!(" {name}_p50_ns={p50}"));
        }
        if let Some(p99) = pm.p99_upper_ns {
            line.push_str(&format!(" {name}_p99_ns={p99}"));
        }
    }
    if let Some(conn) = &s.conn {
        line.push_str(&format!(
            " conns_current={} conns_peak={} queue_depth={} queue_peak={} pipeline_max={} dispatches={}",
            conn.conns_current,
            conn.conns_peak,
            conn.queue_depth,
            conn.queue_peak,
            conn.pipeline_max,
            conn.dispatches,
        ));
        if let Some(p99) = conn.pipeline_p99 {
            line.push_str(&format!(" pipeline_p99={p99}"));
        }
    }
    if s.untagged.requests > 0 {
        let u = &s.untagged;
        line.push_str(&format!(
            " untagged_requests={} untagged_noresource={} untagged_fanout_sum={} untagged_fanout_max={} untagged_dedup={}",
            u.requests, u.no_resource, u.fanout_width_sum, u.fanout_width_max, u.dedup_hits,
        ));
        for script in Script::ALL {
            let n = u.per_script[script.index()];
            if n > 0 {
                line.push_str(&format!(" untagged_script_{script}={n}"));
            }
        }
    }
    if let Some(repl) = &s.repl {
        match repl.role {
            crate::metrics::ReplRole::Primary => {
                line.push_str(&format!(
                    " repl_role=primary wal_lsn={} repl_replicas={}",
                    repl.head_lsn, repl.replicas,
                ));
                if let Some(wal) = &repl.wal {
                    line.push_str(&format!(
                        " wal_appends={} wal_fsyncs={} wal_bytes={}",
                        wal.appends, wal.fsyncs, wal.bytes,
                    ));
                }
                // New keys go on the end: every older key keeps its place.
                line.push_str(&format!(
                    " wal_bytes_live={} compactions={} checkpoint_lsn={} reseeds={} \
                     divergences={} commit_hold_max_us={} checkpoint_ms_last={} \
                     checkpoint_rows_last={}",
                    repl.wal_bytes_live,
                    repl.compactions,
                    repl.checkpoint_lsn,
                    repl.reseeds,
                    repl.divergences,
                    repl.commit_hold_max_us,
                    repl.checkpoint_ms_last,
                    repl.checkpoint_rows_last,
                ));
            }
            crate::metrics::ReplRole::Replica => {
                line.push_str(&format!(
                    " repl_role=replica repl_lsn={} repl_head={} repl_lag={} repl_connected={}",
                    repl.applied_lsn,
                    repl.head_lsn,
                    repl.lag,
                    u64::from(repl.connected),
                ));
                if let Some(primary) = &repl.primary_addr {
                    line.push_str(&format!(" repl_primary={primary}"));
                }
                line.push_str(&format!(
                    " repl_reseeds={} repl_divergences={}",
                    repl.reseeds, repl.divergences,
                ));
            }
        }
    }
    // New keys go on the end: every older key keeps its place.
    let tail = |m| s.cover.tails[method_index(m)];
    line.push_str(&format!(
        " declared={} qgram_tail={} phonidx_tail={} bktree_tail={} covers={} cover_ms_last={} \
         row_bytes={} mapped_bytes={} index_bytes={} qgram_bytes={} phonidx_bytes={} \
         bktree_bytes={}",
        s.cover.declared,
        tail(SearchMethod::Qgram),
        tail(SearchMethod::PhoneticIndex),
        tail(SearchMethod::BkTree),
        s.cover.covers,
        s.cover.cover_ms_last,
        s.cover.row_bytes,
        s.cover.mapped_bytes,
        s.cover.index_bytes.iter().sum::<usize>(),
        s.cover.index_bytes[0],
        s.cover.index_bytes[1],
        s.cover.index_bytes[2],
    ));
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_reassembles_lines_split_across_pushes() {
        let mut f = LineFramer::new(1024);
        f.push(b"MAT");
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"CH en scan - Neh");
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"ru\nSTA");
        assert_eq!(
            f.next_line().unwrap().as_deref(),
            Some("MATCH en scan - Nehru")
        );
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"TS\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("STATS"));
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn framer_yields_every_line_from_one_push() {
        let mut f = LineFramer::new(1024);
        f.push(b"A\nB\r\n\nC\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("A"));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("B"));
        assert_eq!(f.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("C"));
        assert_eq!(f.next_line().unwrap(), None);
    }

    #[test]
    fn framer_rejects_oversized_lines_with_and_without_newline() {
        // No newline yet: the partial tail alone trips the limit.
        let mut f = LineFramer::new(8);
        f.push(b"ABCDEFGHIJ");
        assert_eq!(f.next_line(), Err(FrameError::Oversized(8)));
        // Newline present but the line is still too long.
        let mut f = LineFramer::new(8);
        f.push(b"ABCDEFGHIJ\n");
        assert_eq!(f.next_line(), Err(FrameError::Oversized(8)));
        // At the limit exactly: fine.
        let mut f = LineFramer::new(8);
        f.push(b"ABCDEFGH\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("ABCDEFGH"));
    }

    #[test]
    fn framer_rejects_invalid_utf8() {
        let mut f = LineFramer::new(64);
        f.push(&[0x4D, 0xFF, 0xFE, b'\n']);
        assert_eq!(f.next_line(), Err(FrameError::Utf8));
    }

    #[test]
    fn framer_handles_multibyte_utf8_split_mid_character() {
        let mut f = LineFramer::new(1024);
        let bytes = "ADD hi नेहरु\n".as_bytes();
        // Split in the middle of a Devanagari code point.
        f.push(&bytes[..7]);
        assert_eq!(f.next_line().unwrap(), None);
        f.push(&bytes[7..]);
        assert_eq!(f.next_line().unwrap().as_deref(), Some("ADD hi नेहरु"));
    }

    #[test]
    fn parses_repl_hello_with_and_without_mmap_capability() {
        // Bare, with the token every replica sends, and with one no
        // primary has heard of yet: the same request. Capability tokens
        // are ignored, so a *future* replica keeps talking to this primary.
        for line in [
            "REPL HELLO 7",
            "REPL HELLO 7 MMAP",
            "repl hello 7 mmap",
            "REPL HELLO 7 MMAP SOME-FUTURE-CAP",
        ] {
            assert_eq!(
                parse_request(line).unwrap().unwrap(),
                Request::ReplHello { lsn: 7 },
                "{line}"
            );
        }
        assert!(parse_request("REPL HELLO nope").is_err());
        assert!(parse_request("REPL HELLO").is_err());
    }

    #[test]
    fn save_takes_the_rest_of_the_line_as_its_path() {
        let save = |path: Option<&str>| Request::Save {
            path: path.map(str::to_owned),
        };
        assert_eq!(parse_request("SAVE").unwrap().unwrap(), save(None));
        assert_eq!(parse_request("save  ").unwrap().unwrap(), save(None));
        assert_eq!(
            parse_request("SAVE /tmp/a b.img").unwrap().unwrap(),
            save(Some("/tmp/a b.img"))
        );
        // No word after SAVE is a keyword: this names the file `JSON x`.
        assert_eq!(
            parse_request("SAVE JSON x").unwrap().unwrap(),
            save(Some("JSON x"))
        );
    }

    #[test]
    fn parses_add() {
        let r = parse_request("ADD hindi नेहरु जी").unwrap().unwrap();
        assert_eq!(
            r,
            Request::Add {
                language: Language::Hindi,
                text: "नेहरु जी".to_owned(),
            }
        );
    }

    #[test]
    fn parses_match_with_overrides_and_spaces_in_text() {
        let r = parse_request("MATCH en qgram 0.45 Jawaharlal Nehru")
            .unwrap()
            .unwrap();
        assert_eq!(
            r,
            Request::Match(MatchRequest {
                text: "Jawaharlal Nehru".to_owned(),
                language: Language::English,
                threshold: Some(0.45),
                method: Some(SearchMethod::Qgram),
            })
        );
    }

    #[test]
    fn dashes_mean_defaults() {
        let Request::Match(r) = parse_request("MATCH ta - - நேரு").unwrap().unwrap() else {
            panic!()
        };
        assert_eq!(r.language, Language::Tamil);
        assert_eq!(r.threshold, None);
        assert_eq!(r.method, None);
    }

    #[test]
    fn parses_batch_pipe_separated() {
        let Request::Batch(rs) = parse_request("BATCH en - 0.45 Nehru| Nero |Gandhi")
            .unwrap()
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            rs.iter().map(|r| r.text.as_str()).collect::<Vec<_>>(),
            ["Nehru", "Nero", "Gandhi"]
        );
        assert!(rs.iter().all(|r| r.threshold == Some(0.45)));
    }

    #[test]
    fn parses_builds() {
        assert_eq!(
            parse_request("BUILD QGRAM 3 STRICT").unwrap().unwrap(),
            Request::Build(BuildSpec::Qgram {
                q: 3,
                mode: QgramMode::Strict
            })
        );
        assert_eq!(
            parse_request("build qgram 2 paper").unwrap().unwrap(),
            Request::Build(BuildSpec::Qgram {
                q: 2,
                mode: QgramMode::PaperFaithful
            })
        );
        assert_eq!(
            parse_request("BUILD PHONIDX").unwrap().unwrap(),
            Request::Build(BuildSpec::PhoneticIndex)
        );
        assert_eq!(
            parse_request("build bktree").unwrap().unwrap(),
            Request::Build(BuildSpec::BkTree)
        );
        assert_eq!(
            parse_request("BUILD ALL").unwrap().unwrap(),
            Request::BuildAll
        );
    }

    #[test]
    fn blank_lines_are_skipped_and_garbage_rejected() {
        assert_eq!(parse_request("   ").unwrap(), None);
        assert!(parse_request("FROB x").is_err());
        assert!(parse_request("MATCH en scan 1.5 Nehru").is_err());
        assert!(parse_request("MATCH xx - - Nehru").is_err());
        for q in ["0", "5", "255", "-1", "3.0", "99999999999999999999"] {
            let refused = parse_request(&format!("BUILD QGRAM {q} STRICT"));
            assert!(refused.is_err(), "q = {q}: {refused:?}");
        }
        assert!(parse_request("BUILD QGRAM 4 PAPER").is_ok());
        assert!(parse_request("ADD en").is_err());
    }

    /// A refused threshold is named as it was sent — `1e308` is 309 digits
    /// as a number — and `-0` is zero, replied as `e=0`.
    #[test]
    fn thresholds_are_echoed_as_sent_and_minus_zero_is_zero() {
        for (line, tok) in [
            ("MATCH en scan 1e308 x", "1e308"),
            ("MATCH - scan -1e-9 x", "-1e-9"),
            ("BATCH en - NaN x|y", "NaN"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err, format!("threshold \"{tok}\" outside [0,1]"));
        }
        let Request::Match(r) = parse_request("MATCH en scan -0 x").unwrap().unwrap() else {
            panic!()
        };
        let e = r.threshold.expect("an override");
        assert!(e == 0.0 && e.is_sign_positive(), "{e}");
        let line = format_outcome(&MatchOutcome::Matches {
            method: SearchMethod::Scan,
            threshold: e,
            ids: vec![],
            verifications: 0,
        });
        assert_eq!(line, "OK n=0 verified=0 method=scan e=0 ids=");
    }

    #[test]
    fn parses_untagged_add() {
        assert_eq!(
            parse_request("ADD - Неру").unwrap().unwrap(),
            Request::AddAuto {
                text: "Неру".to_owned(),
            }
        );
        // Spaces in the name survive, exactly like tagged ADD.
        assert_eq!(
            parse_request("ADD - Jawaharlal Nehru").unwrap().unwrap(),
            Request::AddAuto {
                text: "Jawaharlal Nehru".to_owned(),
            }
        );
    }

    #[test]
    fn parses_untagged_match_with_overrides() {
        assert_eq!(
            parse_request("MATCH - qgram 0.45 Nehru").unwrap().unwrap(),
            Request::MatchAuto(AutoMatchRequest {
                text: "Nehru".to_owned(),
                threshold: Some(0.45),
                method: Some(SearchMethod::Qgram),
            })
        );
        assert_eq!(
            parse_request("MATCH - - - नेहरु").unwrap().unwrap(),
            Request::MatchAuto(AutoMatchRequest {
                text: "नेहरु".to_owned(),
                threshold: None,
                method: None,
            })
        );
    }

    #[test]
    fn untagged_forms_reject_bad_input_like_tagged_ones() {
        // The language slot is the only difference: every other token
        // still validates.
        assert!(parse_request("ADD -").is_err()); // no text
        assert!(parse_request("ADD - ").is_err());
        assert!(parse_request("MATCH - scan 1.5 Nehru").is_err()); // bad e
        assert!(parse_request("MATCH - frob - Nehru").is_err()); // bad method
        assert!(parse_request("MATCH - - -").is_err()); // no text
                                                        // A literal "-" name is a parse of AddAuto with text "-": allowed
                                                        // here, rejected later by profiling (no letters).
        assert!(parse_request("ADD - -").is_ok());
        // BATCH stays tagged: "-" is not a language there.
        assert!(parse_request("BATCH - - - Nehru|Nero").is_err());
    }

    #[test]
    fn stats_line_includes_untagged_block_only_when_used() {
        let mut s = StatsSnapshot {
            names: 0,
            shards: 1,
            requests: 0,
            matches_returned: 0,
            no_resource: 0,
            not_built: 0,
            bad_input: 0,
            cache_hits: 0,
            cache_misses: 0,
            screen_fast_accept: 0,
            screen_fast_reject: 0,
            screen_full_dp: 0,
            screen_bypass: 0,
            batch_calls: 0,
            batch_lanes_sum: 0,
            batch_lanes_max: 0,
            batch_lane_accept: 0,
            batch_lane_reject: 0,
            batch_lane_dp: 0,
            simd_level: "scalar",
            transform_entries: 0,
            transform_bytes: 0,
            per_method: ALL_METHODS.map(|m| crate::service::MethodStats {
                method: m,
                searches: 0,
                p50_upper_ns: None,
                p99_upper_ns: None,
            }),
            conn: None,
            repl: None,
            untagged: crate::metrics::UntaggedStats {
                requests: 0,
                per_script: [0; Script::COUNT],
                fanout_width_sum: 0,
                fanout_width_max: 0,
                no_resource: 0,
                dedup_hits: 0,
            },
            load: crate::service::LoadInfo::default(),
            cover: crate::shard::CoverStats {
                declared: 2,
                tails: [0, 7, 0, 20_418],
                covers: 3,
                cover_ms_last: 11,
                row_bytes: 1_900_000,
                mapped_bytes: 0,
                index_bytes: [1_200_000, 250_000, 500_000],
            },
        };
        // Coverage, then what the rows cost, ride on the very end of the
        // line, in this order.
        assert!(
            format_stats(&s).ends_with(
                " declared=2 qgram_tail=7 phonidx_tail=0 bktree_tail=20418 covers=3 cover_ms_last=11 \
                 row_bytes=1900000 mapped_bytes=0 index_bytes=1950000 qgram_bytes=1200000 \
                 phonidx_bytes=250000 bktree_bytes=500000"
            ),
            "{}",
            format_stats(&s)
        );
        assert!(format_stats(&s).contains(
            " cache_misses=0 screen_accept=0 screen_reject=0 screen_dp=0 screen_bypass=0 \
             batch_calls=0 batch_lanes_sum=0 batch_lanes_max=0 batch_accept=0 batch_reject=0 \
             batch_dp=0 simd=scalar transform_entries=0 transform_bytes=0 snapshot_format="
        ));
        assert!(!format_stats(&s).contains("untagged_"));
        assert!(format_stats(&s).contains("snapshot_format=rebuild mmap_bytes=0 load_ms=0"));
        s.untagged.requests = 2;
        s.untagged.no_resource = 1;
        s.untagged.fanout_width_sum = 3;
        s.untagged.fanout_width_max = 3;
        s.untagged.per_script[Script::Latin.index()] = 1;
        s.untagged.per_script[Script::Hangul.index()] = 1;
        let line = format_stats(&s);
        assert!(
            line.contains(
                "untagged_requests=2 untagged_noresource=1 untagged_fanout_sum=3 \
                 untagged_fanout_max=3 untagged_dedup=0"
            ),
            "{line}"
        );
        assert!(line.contains("untagged_script_latin=1"), "{line}");
        assert!(line.contains("untagged_script_hangul=1"), "{line}");
        assert!(!line.contains("untagged_script_thai"), "{line}");
    }

    #[test]
    fn formats_outcomes() {
        let line = format_outcome(&MatchOutcome::Matches {
            method: SearchMethod::Qgram,
            threshold: 0.35,
            ids: vec![1, 5, 9],
            verifications: 12,
        });
        assert_eq!(line, "OK n=3 verified=12 method=qgram e=0.35 ids=1,5,9");
        let empty = format_outcome(&MatchOutcome::Matches {
            method: SearchMethod::Scan,
            threshold: 0.35,
            ids: vec![],
            verifications: 4,
        });
        assert!(empty.starts_with("OK n=0 "), "{empty}");
        assert_eq!(
            format_outcome(&MatchOutcome::NoResource(Language::Japanese)),
            "NORESOURCE Japanese"
        );
        assert_eq!(
            format_outcome(&MatchOutcome::NotBuilt(SearchMethod::BkTree)),
            "NOTBUILT bktree"
        );
    }
}
