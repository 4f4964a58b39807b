//! The load generator's socket side: one blocking TCP connection per
//! thread, `ppoll(2)` to sleep until the next reply *or* the next due
//! time, and the closed-/open-loop phase driver.
//!
//! Open loop: request `j` of the phase is due at `start + j / rate`
//! whatever the daemon is doing; connection `c` of `n` owns every
//! `j ≡ c (mod n)` and pipelines them as they fall due. Latency is timed
//! **from the due time**, so a stall is charged to every request it
//! delays, and how late the generator itself ran is reported beside it.

use crate::workload::{Req, StreamGen};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// In-flight requests one connection may have before it stops sending
/// (the daemon's own `--max-pipeline` is 128; anything beyond waits in
/// the socket buffer either way, and the cap keeps writes from blocking).
const MAX_IN_FLIGHT: usize = 1024;
/// How long an answer may take before the request counts as unanswered.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

mod sys {
    use std::ffi::{c_int, c_long, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: i16 = 0x001;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(option: c_int, arg2: c_ulong, ...) -> c_int;
    }
}

/// Ask the kernel for 1 ns timer slack on this thread (default 50 µs), so
/// a `ppoll` timeout wakes at the due time rather than up to 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes this thread's timer rounding; failure is harmless.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1);
    }
}

/// One line-protocol connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    start: usize,
}

impl Conn {
    /// Connect with Nagle off (every request is one small write).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    /// Send one request line.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Sleep until the socket is readable or `timeout` passes
    /// (nanosecond-resolution `ppoll`); `true` when readable.
    pub fn wait_readable(&self, timeout: Duration) -> io::Result<bool> {
        let mut fd = sys::PollFd {
            fd: self.stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        };
        let ts = sys::Timespec {
            tv_sec: timeout.as_secs() as _,
            tv_nsec: timeout.subsec_nanos() as _,
        };
        // SAFETY: `fd` and `ts` are live, properly laid-out locals for
        // the duration of the call; nfds is 1; a null sigmask means
        // "leave the signal mask alone".
        let n = unsafe { sys::ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            };
        }
        Ok(n > 0)
    }

    /// One `read` into the buffer (call when readable); 0 means the
    /// daemon closed the connection.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        let n = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *n.as_ref().unwrap_or(&0));
        n
    }

    /// The next complete buffered line, if any.
    fn pop_line(&mut self) -> Option<String> {
        let rel = self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[self.start..self.start + rel])
            .trim_end_matches('\r')
            .to_owned();
        self.start += rel + 1;
        Some(line)
    }

    /// Send `line` and wait for its one-line answer.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(l) = self.pop_line() {
                return Ok(l);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.wait_readable(left)? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
            }
        }
    }

    /// Send every line, at most `depth` awaiting their answers at a time,
    /// and return the answers in order (the daemon answers a connection's
    /// requests in order). For batteries too long to walk at depth 1.
    pub fn pipeline(&mut self, lines: &[String], depth: usize) -> io::Result<Vec<String>> {
        let mut replies = Vec::with_capacity(lines.len());
        let mut sent = 0;
        while replies.len() < lines.len() {
            while sent < lines.len() && sent - replies.len() < depth.max(1) {
                self.send_line(&lines[sent])?;
                sent += 1;
            }
            // The window is full, or everything is sent: take an answer.
            if let Some(l) = self.pop_line() {
                replies.push(l);
                continue;
            }
            if !self.wait_readable(REPLY_TIMEOUT)? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
            }
        }
        Ok(replies)
    }
}

/// How a phase spaces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Depth 1: the next request goes out when the previous reply is in.
    Closed,
    /// Fixed arrival schedule at `rate` requests/s across all connections.
    Open {
        /// Arrivals per second, all connections together.
        rate: f64,
    },
}

/// One request's record. Times are ns from the phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was sent.
    pub req: Req,
    /// When it was due (closed loop: when it was sent).
    pub due_ns: u64,
    /// When the write returned.
    pub sent_ns: u64,
    /// When its reply was read; `None` = unanswered.
    pub done_ns: Option<u64>,
    /// The raw reply line (checked against the oracle after the phase, so
    /// the measuring threads do no oracle work).
    pub reply: String,
}

impl Sample {
    /// Latency from the due time, ns (`None` = unanswered).
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns.map(|d| d.saturating_sub(self.due_ns))
    }
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Drive one connection through one phase starting at `start` and
/// lasting `dur`; `conn_idx` of `n_conns` picks this connection's slice
/// of an open-loop schedule. `before_send` runs ahead of every send — a
/// test seam for injecting generator stalls.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conn: &mut Conn,
    gen: &mut StreamGen<'_>,
    pace: Pace,
    conn_idx: usize,
    n_conns: usize,
    start: Instant,
    dur: Duration,
    before_send: &mut dyn FnMut(usize),
) -> Vec<Sample> {
    let end = start + dur;
    let mut out: Vec<Sample> = Vec::new();
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let due_at = |k: usize| match pace {
        Pace::Open { rate } => {
            start + Duration::from_secs_f64((k * n_conns + conn_idx) as f64 / rate)
        }
        Pace::Closed => start,
    };
    let mut k = 0usize;
    let mut dead = false;
    let sleep_until_start = start.saturating_duration_since(Instant::now());
    if !sleep_until_start.is_zero() {
        std::thread::sleep(sleep_until_start);
    }
    loop {
        let now = Instant::now();
        // Send whatever is due.
        loop {
            let due = match pace {
                Pace::Closed if in_flight.is_empty() && now < end => now,
                Pace::Open { .. }
                    if due_at(k) <= now && due_at(k) < end && in_flight.len() < MAX_IN_FLIGHT =>
                {
                    due_at(k)
                }
                _ => break,
            };
            before_send(k);
            let req = gen.next_req();
            if conn.send_line(&gen.render(req)).is_err() {
                dead = true;
            }
            let sent = Instant::now();
            out.push(Sample {
                req,
                due_ns: ns_since(start, due),
                sent_ns: ns_since(start, sent),
                done_ns: None,
                reply: String::new(),
            });
            in_flight.push_back(out.len() - 1);
            k += 1;
            if dead || pace == Pace::Closed {
                break;
            }
        }
        if dead {
            break;
        }
        // What are we waiting for?
        let next_due = match pace {
            Pace::Open { .. } if due_at(k) < end => Some(due_at(k)),
            _ => None,
        };
        let sending_done = match pace {
            Pace::Closed => Instant::now() >= end,
            Pace::Open { .. } => next_due.is_none(),
        };
        if in_flight.is_empty() && sending_done {
            break;
        }
        let now = Instant::now();
        let wait = match next_due {
            Some(d) if in_flight.len() < MAX_IN_FLIGHT => d.saturating_duration_since(now),
            _ => {
                // Only replies can make progress: wait for the oldest.
                let oldest = in_flight.front().map_or(now, |&i| {
                    start + Duration::from_nanos(out[i].sent_ns) + REPLY_TIMEOUT
                });
                let left = oldest.saturating_duration_since(now);
                if left.is_zero() {
                    break; // unanswered past the timeout: give up on this phase
                }
                left
            }
        };
        match conn.wait_readable(wait) {
            Ok(true) => match conn.fill() {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let done = ns_since(start, Instant::now());
                    while let Some(line) = conn.pop_line() {
                        let Some(i) = in_flight.pop_front() else {
                            break; // unsolicited line: the oracle pass flags it
                        };
                        out[i].done_ns = Some(done);
                        out[i].reply = line;
                    }
                }
            },
            Ok(false) => {}
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use crate::workload::BenchCorpus;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line server answering `OK 1` per request line.
    fn echo_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                if line.is_err() || w.write_all(b"OK 1\n").is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_due_time_and_reports_lateness_under_a_stall() {
        let corpus = BenchCorpus::build(600);
        let pool = corpus.hot_pool(1, 16);
        let w = workload("scan_hot").unwrap();
        let mut gen = StreamGen::new(&corpus, &pool, w, 1, 0);
        let (addr, server) = echo_server();
        let mut conn = Conn::connect(&addr).unwrap();
        // 200 req/s for 0.5 s = 100 requests, 5 ms apart; the generator
        // stalls 60 ms before request 40.
        let stall = Duration::from_millis(60);
        let start = Instant::now() + Duration::from_millis(5);
        let samples = drive(
            &mut conn,
            &mut gen,
            Pace::Open { rate: 200.0 },
            0,
            1,
            start,
            Duration::from_millis(500),
            &mut |k| {
                if k == 40 {
                    std::thread::sleep(stall);
                }
            },
        );
        drop(conn);
        server.join().unwrap();
        assert_eq!(samples.len(), 100);
        assert!(samples.iter().all(|s| s.reply == "OK 1"));
        // The schedule is fixed: request k was due at k * 5 ms whatever happened.
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.due_ns, k as u64 * 5_000_000, "request {k}");
        }
        let late = |s: &Sample| s.sent_ns - s.due_ns;
        // Before the stall the generator is on time…
        assert!(samples[..40].iter().all(|s| late(s) < 20_000_000));
        // …request 40 goes out a stall late, and its latency — timed from
        // the due time — carries the stall even though the server is fast.
        assert!(late(&samples[40]) >= stall.as_nanos() as u64);
        assert!(samples[40].latency_ns().unwrap() >= stall.as_nanos() as u64);
        // So do the requests that fell due during the stall (41..=51).
        assert!(samples[45].latency_ns().unwrap() >= 30_000_000);
        // The backlog drains and the schedule is met again.
        assert!(late(&samples[99]) < 20_000_000);
    }

    #[test]
    fn closed_loop_keeps_one_request_in_flight() {
        let corpus = BenchCorpus::build(600);
        let pool = corpus.hot_pool(1, 16);
        let w = workload("write_mix").unwrap();
        let mut gen = StreamGen::new(&corpus, &pool, w, 1, 0);
        let (addr, server) = echo_server();
        let mut conn = Conn::connect(&addr).unwrap();
        let span = Duration::from_millis(100);
        let samples = drive(
            &mut conn,
            &mut gen,
            Pace::Closed,
            0,
            1,
            Instant::now(),
            span,
            &mut |_| {},
        );
        assert!(
            samples.len() > 50,
            "{} round trips in 100 ms",
            samples.len()
        );
        assert!(samples.iter().any(|s| matches!(s.req, Req::Add { .. })));
        assert!(samples.iter().any(|s| matches!(s.req, Req::Match { .. })));
        for pair in samples.windows(2) {
            assert!(pair[0].done_ns.unwrap() <= pair[1].sent_ns);
        }
        // Nothing is sent once the phase is over; the last reply is waited for.
        let last = samples.last().unwrap();
        assert!(last.sent_ns <= span.as_nanos() as u64 + 5_000_000);
        assert!(last.done_ns.is_some());

        // A pipelined battery comes back whole and in order.
        let lines: Vec<String> = (0..500).map(|i| format!("PING {i}")).collect();
        let replies = conn.pipeline(&lines, 64).unwrap();
        assert_eq!(replies.len(), 500);
        assert!(replies.iter().all(|r| r == "OK 1"));
        assert_eq!(conn.request("PING").unwrap(), "OK 1");
        drop(conn);
        server.join().unwrap();
    }
}
