//! One nonblocking pipelined connection's state machine.
//!
//! A [`Conn`] owns the socket, the incremental line framer, and the
//! in-order response queue that makes pipelining safe: every parsed
//! request reserves a slot at the tail; dispatched requests fill their
//! slot when the worker's completion arrives (matched by sequence
//! number), inline responses (parse errors, `BYE`) fill immediately.
//! Only the contiguous completed prefix is ever serialized into the
//! outbound buffer, so responses hit the wire in request order no
//! matter how the workers interleave.

use crate::event_loop::Job;
use crate::proto::LineFramer;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;

/// Pause reading a connection whose outbound buffer exceeds this many
/// bytes (a client that pipelines but never reads cannot balloon us).
pub(crate) const WRITE_HIGH_WATER: usize = 256 * 1024;

/// One reserved response position.
enum Slot {
    /// Response ready; lines flush once the slot reaches the head.
    Done(Vec<String>),
    /// Waiting on the worker completion carrying this sequence number.
    Waiting(u64),
}

/// State for one client connection on the event loop.
pub(crate) struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Incremental line framing over whatever bytes have arrived.
    pub framer: LineFramer,
    /// Requests dispatched to workers and not yet completed.
    pub inflight: usize,
    /// A parsed job that found every worker queue full; reads stay
    /// paused until a completion frees a slot and the loop resubmits it.
    pub blocked_job: Option<Job>,
    /// `QUIT` (or a fatal protocol error) seen: stop reading, flush
    /// what's pending, then close.
    pub quitting: bool,
    /// Peer closed its write side; drain our responses, then close.
    pub peer_gone: bool,
    /// Largest in-flight window this connection ever reached.
    pub pipeline_peak: u64,
    /// A `REPL HELLO <lsn>` was parsed on a primary: stop reading, and
    /// once earlier pipelined responses have flushed
    /// ([`ready_for_handoff`](Self::ready_for_handoff)), the loop lifts
    /// the socket onto a dedicated replication sender thread. Carries
    /// the replica's LSN.
    pub handoff: Option<u64>,
    /// Epoll interest bits currently registered for this socket.
    pub interest: u32,
    pending: VecDeque<Slot>,
    next_seq: u64,
    out: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    pub fn new(stream: TcpStream, max_line: usize) -> Self {
        Conn {
            stream,
            framer: LineFramer::new(max_line),
            inflight: 0,
            blocked_job: None,
            quitting: false,
            peer_gone: false,
            pipeline_peak: 0,
            handoff: None,
            interest: crate::event_loop::EPOLLIN,
            pending: VecDeque::new(),
            next_seq: 0,
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// Next per-connection sequence number (labels a dispatched job and
    /// its completion).
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Reserve the next response slot with an already-known answer.
    pub fn enqueue_done(&mut self, lines: Vec<String>) {
        self.pending.push_back(Slot::Done(lines));
    }

    /// Reserve the next response slot for an in-flight worker job.
    pub fn enqueue_waiting(&mut self, seq: u64) {
        self.pending.push_back(Slot::Waiting(seq));
        self.inflight += 1;
    }

    /// Fill the slot waiting on `seq`. Returns whether a slot matched
    /// (a completion for a connection that already gave up is dropped).
    pub fn complete(&mut self, seq: u64, lines: Vec<String>) -> bool {
        for slot in &mut self.pending {
            if matches!(slot, Slot::Waiting(s) if *s == seq) {
                *slot = Slot::Done(lines);
                self.inflight -= 1;
                return true;
            }
        }
        false
    }

    /// Bytes serialized but not yet written to the socket.
    pub fn out_backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Serialize every completed slot at the head of the queue, then
    /// write as much of the outbound buffer as the socket accepts.
    /// `WouldBlock` is success (epoll will say when to continue); a real
    /// I/O error propagates so the loop closes the connection.
    pub fn pump_out(&mut self) -> io::Result<()> {
        while let Some(Slot::Done(_)) = self.pending.front() {
            let Some(Slot::Done(lines)) = self.pending.pop_front() else {
                unreachable!("front checked above")
            };
            for line in lines {
                self.out.extend_from_slice(line.as_bytes());
                self.out.push(b'\n');
            }
        }
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Whether this connection is over: the client quit or hung up, and
    /// every pending response has been flushed.
    pub fn finished(&self) -> bool {
        (self.quitting || self.peer_gone) && self.pending.is_empty() && self.out_backlog() == 0
    }

    /// Whether a pending replication handoff can happen now: every
    /// response queued before the `REPL HELLO` has hit the wire.
    pub fn ready_for_handoff(&self) -> bool {
        self.pending.is_empty() && self.out_backlog() == 0
    }
}
