//! The `lexequald` serving loop: a single-threaded epoll readiness
//! loop driving nonblocking pipelined connections, with verification
//! decoupled onto a small fixed pool of worker threads.
//!
//! The loop runs on a constant number of threads regardless of
//! connection count (the [crate docs](crate) list them all): itself plus
//! `workers` verify threads, each of which runs a request whole — a
//! lookup searches the store under its read lock, through the worker's
//! own warm [`lexequal::BatchVerifier`], which
//! disposes of an access path's candidate stream in interleaved
//! lane-batched steps:
//!
//! ```text
//!              epoll readiness loop (1 thread)
//!   accept ──▶ read ──▶ frame lines ──▶ parse ──▶ dispatch ┐
//!     ▲                                                    ▼
//!     │                                        per-worker bounded queues
//!     │                                                    │
//!     │        eventfd wake ◀── completion queue ◀── worker threads
//!     │                │                              (one job at a time,
//!     └── write ◀── fill response slot                 the store read-locked)
//! ```
//!
//! * **Pipelining** — a client may have many request lines in flight on
//!   one connection; each parsed request reserves an in-order response
//!   slot, completions fill slots by sequence number, and the write side
//!   only ever flushes the contiguous completed prefix, so responses go
//!   back in request order no matter how workers interleave.
//! * **Backpressure** — the loop stops polling a connection's readable
//!   side when its in-flight window is full, its outbound buffer passes
//!   the high-water mark, or its next job found every worker queue full
//!   (the job parks on the connection until a completion drains).
//! * **Ordering** — jobs route to a worker by connection token, and each
//!   worker drains its queue FIFO, so requests from one connection
//!   execute in arrival order (a pipelined `ADD` is visible to the
//!   `MATCH` behind it).
//!
//! No new dependencies: the epoll/eventfd surface is four `extern "C"`
//! shims over the libc that `std` already links.

use crate::conn::{Conn, WRITE_HIGH_WATER};
use crate::metrics::ConnMetrics;
use crate::proto::{parse_request, FrameError, Request};
use crate::server::{execute_request, ReqCtx, Role, ServeOptions};
use crate::service::MatchService;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Raw syscall shims. `std` links libc, so these symbols are always
/// present on the Linux targets this daemon supports; no crate needed.
mod sys {
    use std::ffi::{c_int, c_uint, c_void};

    /// One epoll event. x86-64 packs this struct (kernel ABI quirk);
    /// every other architecture uses natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        /// Readiness bits (`EPOLLIN` | `EPOLLOUT` | ...).
        pub events: u32,
        /// Caller-owned token echoed back on readiness.
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

pub(crate) use sys::{EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// A thin owned wrapper over an `eventfd(2)` file descriptor: a 64-bit
/// kernel counter that epoll can wait on. Writers bump it ([`signal`]),
/// the event loop reads it back to zero ([`drain`]).
///
/// [`signal`]: EventFd::signal
/// [`drain`]: EventFd::drain
#[derive(Debug)]
struct EventFd {
    fd: RawFd,
}

impl EventFd {
    fn new() -> io::Result<Self> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// Bump the counter, waking any epoll waiter. A full counter
    /// (`EAGAIN`) already guarantees a pending wake, so it's not an error.
    fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        loop {
            let n = unsafe { sys::write(self.fd, one.as_ptr().cast(), one.len()) };
            if n >= 0 || io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                return;
            }
        }
    }

    /// Read the counter back to zero so level-triggered epoll quiesces.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        loop {
            let n = unsafe { sys::read(self.fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n >= 0 {
                return;
            }
            if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                return;
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// A cooperative stop signal shared between a serving loop and whoever
/// wants it to exit (tests, a supervisor, a signal handler).
///
/// The serving loop epolls the underlying `eventfd` and exits on the
/// very next readiness wake; background threads (compactor, replica
/// apply, replication listener) poll the flag.
/// [`trigger`](Self::trigger) is idempotent and safe from any thread.
#[derive(Clone, Debug)]
pub struct ShutdownSignal {
    inner: Arc<ShutdownInner>,
}

#[derive(Debug)]
struct ShutdownInner {
    flag: AtomicBool,
    efd: EventFd,
}

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> io::Result<Self> {
        Ok(ShutdownSignal {
            inner: Arc::new(ShutdownInner {
                flag: AtomicBool::new(false),
                efd: EventFd::new()?,
            }),
        })
    }

    /// Ask every listener on this signal to stop.
    pub fn trigger(&self) {
        self.inner.flag.store(true, Ordering::Release);
        self.inner.efd.signal();
    }

    /// Whether [`trigger`](Self::trigger) has been called.
    pub fn is_triggered(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    fn fd(&self) -> RawFd {
        self.inner.efd.fd
    }
}

/// An owned epoll instance.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> io::Result<Self> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: std::ffi::c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Block until readiness; returns how many `events` are filled.
    /// `EINTR` reports zero events rather than an error.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                events.len() as std::ffi::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// One parsed request travelling from the event loop to a worker.
#[derive(Debug)]
pub(crate) struct Job {
    pub token: u64,
    pub seq: u64,
    pub request: Request,
}

/// One finished response travelling back to the event loop.
struct Completion {
    token: u64,
    seq: u64,
    lines: Vec<String>,
}

impl Completion {
    fn of(job: &Job, lines: Vec<String>) -> Self {
        Completion {
            token: job.token,
            seq: job.seq,
            lines,
        }
    }
}

/// Worker → event-loop channel: a mutexed batch plus an eventfd wake.
struct CompletionQueue {
    items: Mutex<Vec<Completion>>,
    wake: EventFd,
}

impl CompletionQueue {
    fn new() -> io::Result<Self> {
        Ok(CompletionQueue {
            items: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }

    fn push(&self, completion: Completion) {
        self.items.lock().expect("completion lock").push(completion);
        self.wake.signal();
    }

    fn drain(&self) -> Vec<Completion> {
        self.wake.drain();
        std::mem::take(&mut *self.items.lock().expect("completion lock"))
    }
}

/// One worker's bounded FIFO of jobs.
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
}

/// The fixed verify-dispatch pool. Jobs route to `queues[token % n]`,
/// which preserves per-connection execution order (each queue drains
/// FIFO); each worker runs its jobs through [`MatchService`] on its own
/// thread, verification included.
struct WorkerPool {
    queues: Vec<Arc<WorkerQueue>>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    metrics: Arc<ConnMetrics>,
}

impl WorkerPool {
    fn new(
        workers: usize,
        queue_capacity: usize,
        service: Arc<MatchService>,
        ctx: ReqCtx,
        completions: Arc<CompletionQueue>,
        metrics: Arc<ConnMetrics>,
    ) -> Self {
        let workers = workers.max(1);
        let per_queue = (queue_capacity / workers).max(8);
        let stop = Arc::new(AtomicBool::new(false));
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = Arc::new(WorkerQueue {
                jobs: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                capacity: per_queue,
            });
            queues.push(Arc::clone(&queue));
            let service = Arc::clone(&service);
            let ctx = ctx.clone();
            let completions = Arc::clone(&completions);
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lexequald-verify-{i}"))
                    .spawn(move || {
                        worker_loop(&queue, &service, &ctx, &completions, &metrics, &stop)
                    })
                    .expect("spawn verify worker"),
            );
        }
        WorkerPool {
            queues,
            stop,
            handles,
            metrics,
        }
    }

    /// Non-blocking submit; a full queue hands the job back so the
    /// caller can park it on the connection (backpressure, not loss).
    fn try_submit(&self, job: Job) -> Result<(), Job> {
        let queue = &self.queues[job.token as usize % self.queues.len()];
        let mut jobs = queue.jobs.lock().expect("worker queue lock");
        if jobs.len() >= queue.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        // Counted under the queue lock: a worker that pops this job
        // must not subtract it from the gauge before it was added.
        self.metrics.queue_pushed();
        drop(jobs);
        queue.available.notify_one();
        Ok(())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for queue in &self.queues {
            queue.available.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    queue: &WorkerQueue,
    service: &MatchService,
    ctx: &ReqCtx,
    completions: &CompletionQueue,
    metrics: &ConnMetrics,
    stop: &AtomicBool,
) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("worker queue lock");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if stop.load(Ordering::Acquire) {
                    return;
                }
                jobs = queue.available.wait(jobs).expect("worker queue wait");
            }
        };
        metrics.queue_popped(1);
        // Each reply goes back the moment its request has run: a
        // pipelined reply never waits for the jobs queued behind it.
        let lines = execute_request(service, ctx, &job.request, Some(metrics));
        completions.push(Completion::of(&job, lines));
    }
}

/// Whether the loop should pull more bytes off this socket right now
/// (the backpressure rule, applied at the read side).
fn reads_wanted(conn: &Conn, max_pipeline: usize) -> bool {
    !conn.quitting
        && !conn.peer_gone
        && conn.handoff.is_none()
        && conn.blocked_job.is_none()
        && conn.inflight < max_pipeline
        && conn.out_backlog() < WRITE_HIGH_WATER
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_SHUTDOWN: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 3;

/// Per-wake read budget per connection: enough to drain a burst, small
/// enough that one firehose connection cannot starve the rest
/// (level-triggered epoll re-fires for whatever remains).
const READ_BUDGET: usize = 64 * 1024;

/// Serve connections on an epoll readiness loop until `shutdown` fires.
///
/// Thread count is a constant: this loop plus `opts.workers` verify
/// threads — it does not grow with connections. See the
/// [module docs](self) for the pipelining, backpressure, and ordering
/// rules. Every request routes through `ctx` (`ReqCtx::default()` is a
/// standalone daemon); on a primary, a `REPL HELLO` hands the socket off
/// the loop onto a dedicated replication sender thread once its
/// pipelined responses have flushed.
pub fn serve(
    listener: TcpListener,
    service: Arc<MatchService>,
    ctx: ReqCtx,
    opts: ServeOptions,
    shutdown: ShutdownSignal,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let metrics = Arc::new(ConnMetrics::default());
    let completions = Arc::new(CompletionQueue::new()?);
    let pool = WorkerPool::new(
        opts.workers,
        opts.queue_capacity,
        Arc::clone(&service),
        ctx.clone(),
        Arc::clone(&completions),
        Arc::clone(&metrics),
    );
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
    poller.add(completions.wake.fd, TOKEN_WAKE, EPOLLIN)?;
    poller.add(shutdown.fd(), TOKEN_SHUTDOWN, EPOLLIN)?;
    EventLoop {
        poller,
        listener,
        service,
        ctx,
        pool,
        completions,
        metrics,
        conns: HashMap::new(),
        blocked: VecDeque::new(),
        next_token: FIRST_CONN_TOKEN,
        max_pipeline: opts.max_pipeline.max(1),
        max_line: opts.max_line.max(1),
    }
    .run(&shutdown)
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    service: Arc<MatchService>,
    ctx: ReqCtx,
    pool: WorkerPool,
    completions: Arc<CompletionQueue>,
    metrics: Arc<ConnMetrics>,
    conns: HashMap<u64, Conn>,
    /// Tokens whose next job found every worker queue full, oldest first.
    blocked: VecDeque<u64>,
    next_token: u64,
    max_pipeline: usize,
    max_line: usize,
}

impl EventLoop {
    fn run(mut self, shutdown: &ShutdownSignal) -> io::Result<()> {
        let mut events = vec![EpollEvent::default(); 256];
        loop {
            let n = self.poller.wait(&mut events, -1)?;
            for ev in &events[..n] {
                // Copy out of the (possibly packed) event before use.
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_SHUTDOWN => return Ok(()),
                    TOKEN_LISTENER => self.accept_ready()?,
                    TOKEN_WAKE => self.drain_completions(),
                    _ => self.conn_event(token, bits),
                }
            }
            if shutdown.is_triggered() {
                return Ok(());
            }
        }
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(stream.as_raw_fd(), token, EPOLLIN).is_err() {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, self.max_line));
                    self.metrics.conn_opened();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends) must not take the whole daemon down.
                Err(_) => return Ok(()),
            }
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        if bits & EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        let max_pipeline = self.max_pipeline;
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if bits & EPOLLIN != 0 {
                let mut buf = [0u8; 8192];
                let mut taken = 0usize;
                while taken < READ_BUDGET && reads_wanted(conn, max_pipeline) {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.peer_gone = true;
                            break;
                        }
                        Ok(n) => {
                            taken += n;
                            conn.framer.push(&buf[..n]);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            } else if bits & EPOLLHUP != 0 && bits & EPOLLOUT == 0 {
                dead = true;
            }
        }
        if dead {
            self.close_conn(token);
            return;
        }
        self.advance(token);
    }

    /// Parse framed lines as far as the window allows, dispatch jobs,
    /// flush completed output, and re-register interest — the one
    /// function every readiness source funnels through.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.quitting
            && conn.handoff.is_none()
            && conn.blocked_job.is_none()
            && conn.inflight < self.max_pipeline
            && conn.out_backlog() < WRITE_HIGH_WATER
        {
            match conn.framer.next_line() {
                Ok(Some(line)) => match parse_request(&line) {
                    Ok(None) => {}
                    Err(msg) => conn.enqueue_done(vec![format!("ERR {msg}")]),
                    Ok(Some(Request::Quit)) => {
                        conn.enqueue_done(vec!["BYE".to_owned()]);
                        conn.quitting = true;
                    }
                    Ok(Some(Request::ReplHello { lsn }))
                        if matches!(self.ctx.role, Role::Primary(_)) =>
                    {
                        // Stop reading; once every earlier pipelined
                        // response has flushed, the socket leaves the
                        // event loop for a dedicated sender thread.
                        conn.handoff = Some(lsn);
                    }
                    Ok(Some(request)) => {
                        let seq = conn.alloc_seq();
                        conn.enqueue_waiting(seq);
                        let depth = conn.inflight as u64;
                        conn.pipeline_peak = conn.pipeline_peak.max(depth);
                        self.metrics.observe_pipeline(depth);
                        if let Err(job) = self.pool.try_submit(Job {
                            token,
                            seq,
                            request,
                        }) {
                            conn.blocked_job = Some(job);
                            self.blocked.push_back(token);
                        }
                    }
                },
                Ok(None) => break,
                Err(FrameError::Oversized(max)) => {
                    conn.enqueue_done(vec![format!("ERR line exceeds {max} bytes")]);
                    conn.quitting = true;
                }
                Err(FrameError::Utf8) => {
                    conn.enqueue_done(vec!["ERR invalid utf-8".to_owned()]);
                    conn.quitting = true;
                }
            }
        }
        if conn.pump_out().is_err() || conn.finished() {
            self.close_conn(token);
            return;
        }
        if conn.handoff.is_some() && conn.ready_for_handoff() {
            self.start_handoff(token);
            return;
        }
        self.update_interest(token);
    }

    /// Lift a handshaken replication connection off the event loop onto
    /// its own sender thread (the stream side is blocking-push, the
    /// opposite of this loop's readiness model).
    fn start_handoff(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.delete(conn.stream.as_raw_fd());
        self.metrics.conn_closed();
        let Role::Primary(repl) = &self.ctx.role else {
            return;
        };
        let repl = Arc::clone(repl);
        let stream = conn.stream;
        if stream.set_nonblocking(false).is_err() {
            return;
        }
        let lsn = conn.handoff.unwrap_or(0);
        let service = Arc::clone(&self.service);
        let spawned = std::thread::Builder::new()
            .name("lexequald-repl".to_owned())
            .spawn({
                let repl = Arc::clone(&repl);
                move || {
                    // A dropped replica just reconnects; nothing to report.
                    let _ = crate::repl::serve_replica(stream, lsn, &service, &repl);
                }
            });
        if let Ok(handle) = spawned {
            repl.adopt_thread(handle);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut desired = 0u32;
        if !conn.quitting
            && !conn.peer_gone
            && conn.handoff.is_none()
            && conn.blocked_job.is_none()
            && conn.inflight < self.max_pipeline
            && conn.out_backlog() < WRITE_HIGH_WATER
        {
            desired |= EPOLLIN;
        }
        if conn.out_backlog() > 0 {
            desired |= EPOLLOUT;
        }
        if desired != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = desired;
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut touched: HashSet<u64> = HashSet::new();
        for c in self.completions.drain() {
            if let Some(conn) = self.conns.get_mut(&c.token) {
                if conn.complete(c.seq, c.lines) {
                    touched.insert(c.token);
                }
            }
        }
        // Freed queue slots: retry parked jobs, oldest connection first.
        for _ in 0..self.blocked.len() {
            let Some(token) = self.blocked.pop_front() else {
                break;
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(job) = conn.blocked_job.take() else {
                continue;
            };
            match self.pool.try_submit(job) {
                Ok(()) => {
                    touched.insert(token);
                }
                Err(job) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.blocked_job = Some(job);
                    }
                    self.blocked.push_back(token);
                }
            }
        }
        for token in touched {
            self.advance(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.delete(conn.stream.as_raw_fd());
            self.metrics.conn_closed();
        }
    }
}
