//! Socket front end: a non-blocking reactor per listener feeding a fixed
//! pool of compute workers.
//!
//! The PR-4 server spawned one detached thread per connection — simple,
//! but the thread count tracked the *connection* count (10k idle
//! dashboards = 10k blocked threads), and drain could only infer handler
//! completion from a request counter because the handles were thrown
//! away. The front end is now a **reactor**: each listener gets one
//! thread that owns every connection accepted from it, serving
//! non-blocking sockets (`set_nonblocking` + `WouldBlock`) with
//! per-connection read buffers, [`FrameBuffer`](crate::frame) reassembly,
//! and per-connection write queues. Complete frames are dispatched to a
//! fixed **worker pool** (sized by [`ServeConfig::effective_workers`]
//! (crate::service::ServeConfig) — deliberately larger than the admission
//! gate so cache hits keep flowing while every gate slot is occupied by a
//! blocked batch leader); workers run
//! [`Service::handle_line`](crate::service::Service) and push the reply
//! to a completion queue that wakes the owning reactor.
//!
//! **Readiness wait.** After each pass the reactor blocks in `poll(2)`
//! (declared directly, no crate) on the listener, every connection that
//! can make progress (`POLLIN` unless it is closing, `POLLOUT` while its
//! write queue holds bytes) and the read end of a per-reactor wake
//! socket. A completion push, [`Server::drain`] and [`Server::shutdown`]
//! each write one byte to that socket. No timer wakes an idle reactor:
//! the next request costs one `poll` return, and an idle daemon costs no
//! CPU. A timed wait would not do: socket bytes cannot cut a condvar
//! wait short, and Linux's default 50 µs timer slack stretches short
//! sleeps — on a 2-vCPU Linux host a 10 µs condvar wait took 66 µs and
//! a 500 µs wait 564–573 µs at the median of 200 waits, most of a hot
//! hit's wire time.
//!
//! **Inline hit fast path.** Before dispatching a frame, the reactor
//! tries [`Service::try_hit`](crate::service::Service::try_hit): a
//! `simulate` request whose result is already cached is answered on the
//! reactor thread itself, skipping the pool round trip (two context
//! switches per request — about half the wire cost of a hit on a busy
//! single-core host). The trade is deliberate: hit service time (~tens
//! of µs) briefly occupies the I/O thread, capping per-reactor hit
//! throughput at one core's worth — but the reactor already serializes
//! all of its connections' socket I/O, so the ceiling was one core
//! regardless, and the saved switches dominate. Misses, `stats`, and
//! malformed frames take the pool as before.
//!
//! Thread count is now `reactors (≤2) + workers (fixed)`, independent of
//! connections — and every one of those threads is tracked and joined at
//! shutdown, making "all handlers finished" a structural guarantee
//! instead of an inference.
//!
//! **Ordering.** A connection may pipeline many requests; replies must
//! come back in request order even though workers finish out of order.
//! Each frame gets a per-connection sequence number; completed replies
//! park in a `BTreeMap` until every earlier sequence has been released to
//! the write queue. (Pipelined requests still *dispatch* immediately —
//! that concurrency is what feeds the batcher.)
//!
//! **Stale completions.** Connection slots are reused, so a completion
//! for a connection that died mid-compute could otherwise be delivered to
//! an unrelated client. Every slot carries a generation counter; a
//! completion whose `(slot, generation)` no longer matches is discarded.
//!
//! ```text
//! Running ──drain()──▶ Draining ──(in-flight = 0, buffers empty)──▶ Stopped
//! ```
//!
//! * **Running** — listeners accept; every request line is served.
//! * **Draining** — listeners are *closed* (new connects are refused at
//!   the socket, not silently parked in a backlog); established
//!   connections keep their replies coming but cache misses answer
//!   `{"error":"draining"}`; dispatched work runs to completion and its
//!   replies are flushed.
//! * **Stopped** — [`Server::shutdown`] has observed zero in-flight jobs,
//!   zero admitted computations and zero buffered reply bytes, then
//!   joined every reactor and worker thread.

use std::collections::{BTreeMap, VecDeque};
use std::ffi::{c_int, c_short};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paxsim_core::faultinject;

use crate::frame::FrameBuffer;
use crate::protocol;
use crate::service::Service;

/// How long a listener whose `accept` failed hard sits out of the poll
/// set before the reactor tries it again.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Reactor gauges are refreshed at most this often.
const GAUGE_PERIOD: Duration = Duration::from_millis(50);

/// Read-chunk size per `read` syscall.
const READ_CHUNK: usize = 64 * 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Worker pool and completion queue.
// ---------------------------------------------------------------------------

/// `(slot, generation)` connection identity; generation protects reused
/// slots from stale completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnId {
    slot: usize,
    generation: u64,
}

struct Job {
    conn: ConnId,
    seq: u64,
    line: String,
    /// The completion queue of the reactor that owns the connection.
    completions: Arc<Completions>,
}

struct Completion {
    conn: ConnId,
    seq: u64,
    reply: String,
}

/// Per-reactor mailbox: the completion queue plus the wake socket whose
/// read end sits in the reactor's `poll(2)` set.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    /// Both ends non-blocking. Every push writes one byte to `wake_tx`;
    /// the reactor reads `wake_rx` dry before it takes the queue.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Completions {
    fn new() -> std::io::Result<Arc<Completions>> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
        }))
    }

    fn push(&self, c: Completion) {
        lock(&self.queue).push(c);
        self.wake();
    }

    /// Make the reactor's next (or current) `poll` return. A `WouldBlock`
    /// is ignored: a full socket already holds an unread wake byte.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Read the wake socket dry, *then* take everything queued. In this
    /// order a push racing the take always leaves a byte behind, so the
    /// reactor's next `poll` cannot sleep through a queued completion.
    fn take(&self) -> Vec<Completion> {
        let mut sink = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        std::mem::take(&mut *lock(&self.queue))
    }

    fn wake_fd(&self) -> RawFd {
        self.wake_rx.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// poll(2), declared directly so the daemon needs no external crate.
// ---------------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an fd in `fds` is ready or `timeout` passes (`None`:
/// no timeout). Returns the number of ready fds; an error (a signal
/// interrupted the wait) reads as an early wake, which a reactor pass
/// absorbs because it re-checks every source anyway.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` records
    // laid out as `struct pollfd`, and `nfds` is its length, so poll(2)
    // reads and writes only inside it; it keeps no pointer after return.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) }
}

/// The fixed compute-worker pool. Jobs are request lines; the pool is
/// shared by every reactor.
struct WorkerPool {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl WorkerPool {
    fn new() -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        })
    }

    fn submit(&self, job: Job) {
        lock(&self.jobs).push_back(job);
        self.cv.notify_one();
    }

    fn depth(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// Stop the pool: discard queued jobs (only non-empty when a drain
    /// grace period expired) and wake every worker to exit.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        lock(&self.jobs).clear();
        self.cv.notify_all();
    }

    fn worker_loop(&self, service: &Service, active: &AtomicUsize) {
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(job) = jobs.pop_front() {
                        break job;
                    }
                    jobs = self.cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            };
            // The worker is the last line of panic isolation: a panic
            // escaping `handle_line` (or injected by `chaos::worker_job`)
            // must not kill the thread — that would strand the job's
            // reply, leak the `active` count, and hang drain forever.
            // One retry (panics here are transient by construction: the
            // compute path below already did its own retries), then a
            // typed reply.
            let reply = match run_job(service, &job.line) {
                Ok(r) => r,
                Err(_) => match run_job(service, &job.line) {
                    Ok(r) => r,
                    Err(payload) => protocol::render_error(
                        "panic",
                        &format!("worker panicked twice handling this request: {payload}"),
                    ),
                },
            };
            // Push before decrementing `active`, so `active == 0` implies
            // every finished reply is already visible to its reactor.
            let (conn, seq, completions) = (job.conn, job.seq, job.completions);
            completions.push(Completion { conn, seq, reply });
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Run one request line inside the worker's `catch_unwind` boundary.
/// `chaos::worker_job` fires injected worker panics here, so the
/// boundary (and its retry) is exercised deterministically in tests.
fn run_job(service: &Service, line: &str) -> Result<String, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::chaos::worker_job();
        service.handle_line(line)
    }))
    .map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    })
}

// ---------------------------------------------------------------------------
// Non-blocking listener/stream abstraction over TCP and Unix sockets.
// ---------------------------------------------------------------------------

trait NbListener: AsRawFd + Send + 'static {
    type Stream: Read + Write + AsRawFd + Send + 'static;
    fn accept_nb(&self) -> std::io::Result<Self::Stream>;
}

impl NbListener for TcpListener {
    type Stream = TcpStream;
    fn accept_nb(&self) -> std::io::Result<TcpStream> {
        let (s, _) = self.accept()?;
        s.set_nonblocking(true)?;
        // Reply lines are written as soon as they are released; batching
        // to the wire is done by our own write queue, not Nagle.
        let _ = s.set_nodelay(true);
        Ok(s)
    }
}

impl NbListener for UnixListener {
    type Stream = UnixStream;
    fn accept_nb(&self) -> std::io::Result<UnixStream> {
        let (s, _) = self.accept()?;
        s.set_nonblocking(true)?;
        Ok(s)
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
    )
}

// ---------------------------------------------------------------------------
// Per-connection state.
// ---------------------------------------------------------------------------

struct Conn<S> {
    stream: S,
    generation: u64,
    frames: FrameBuffer,
    /// Bytes queued to the client, drained as the socket accepts them.
    out: VecDeque<u8>,
    /// Next sequence number to assign to an incoming frame.
    next_seq: u64,
    /// Next sequence number to release to `out` (FIFO reply order).
    next_release: u64,
    /// Out-of-order completions parked until their turn.
    ready: BTreeMap<u64, String>,
    /// Frames dispatched to the pool, not yet completed.
    pending_jobs: usize,
    /// Client closed its half (or erred); close once everything owed has
    /// been written.
    closing: bool,
    /// Socket write failed; drop without flushing.
    dead: bool,
}

impl<S> Conn<S> {
    /// Replies owed or buffered — the connection cannot be dropped (and
    /// the server cannot claim "drained") while this is nonzero.
    fn unsettled(&self) -> usize {
        self.pending_jobs + self.ready.len() + usize::from(!self.out.is_empty())
    }

    fn release_ready(&mut self) {
        while let Some(reply) = self.ready.remove(&self.next_release) {
            self.out.extend(reply.as_bytes());
            self.out.push_back(b'\n');
            self.next_release += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// A running daemon front end.
pub struct Server {
    service: Arc<Service>,
    drain: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    /// Request lines dispatched to the pool and not yet completed.
    active: Arc<AtomicUsize>,
    /// Per-reactor count of connections still owed bytes (pending jobs,
    /// parked replies, or unflushed output).
    unsettled: Vec<Arc<AtomicUsize>>,
    /// Each reactor's mailbox, for waking it on drain and shutdown.
    mailboxes: Vec<Arc<Completions>>,
    pool: Arc<WorkerPool>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind the requested listeners and start the reactor(s) and worker
    /// pool. At least one of `tcp` (an address like `127.0.0.1:7077`;
    /// port 0 picks a free one) or `unix` (a socket path, replaced if it
    /// already exists) must be given.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures, or neither listener requested.
    pub fn start(
        service: Arc<Service>,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> std::io::Result<Server> {
        if tcp.is_none() && unix.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "need a TCP address or a Unix socket path to listen on",
            ));
        }
        let drain = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new();
        // Reactors and workers serve the caller's execution: they take
        // over its fault plan.
        let plan = faultinject::current();
        let mut reactors = Vec::new();
        let mut unsettled = Vec::new();
        let mut mailboxes = Vec::new();
        let mut spawn_reactor = |listener: ReactorKind| -> std::io::Result<()> {
            let counters = Arc::new(AtomicUsize::new(0));
            unsettled.push(counters.clone());
            let completions = Completions::new()?;
            mailboxes.push(completions.clone());
            let (drain, stop, active, pool, service, plan) = (
                drain.clone(),
                stop.clone(),
                active.clone(),
                pool.clone(),
                service.clone(),
                plan.clone(),
            );
            reactors.push(std::thread::spawn(move || {
                faultinject::scoped(plan, || match listener {
                    ReactorKind::Tcp(l) => reactor_loop(
                        l,
                        &service,
                        &drain,
                        &stop,
                        &active,
                        &counters,
                        &pool,
                        &completions,
                    ),
                    ReactorKind::Unix(l) => reactor_loop(
                        l,
                        &service,
                        &drain,
                        &stop,
                        &active,
                        &counters,
                        &pool,
                        &completions,
                    ),
                })
            }));
            Ok(())
        };
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            spawn_reactor(ReactorKind::Tcp(listener))?;
        }
        let mut unix_path = None;
        if let Some(path) = unix {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.to_path_buf());
            spawn_reactor(ReactorKind::Unix(listener))?;
        }
        let workers = (0..service.config().effective_workers())
            .map(|_| {
                let (pool, service, active, plan) =
                    (pool.clone(), service.clone(), active.clone(), plan.clone());
                std::thread::spawn(move || {
                    faultinject::scoped(plan, || pool.worker_loop(&service, &active))
                })
            })
            .collect();
        Ok(Server {
            service,
            drain,
            stop,
            active,
            unsettled,
            mailboxes,
            pool,
            reactors,
            workers,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (with the actual port when 0 was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Enter the Draining state: close the listeners (new connects are
    /// refused), refuse new computations, let dispatched work finish.
    pub fn drain(&self) {
        self.service.set_draining();
        self.drain.store(true, Ordering::SeqCst);
        self.wake_reactors();
    }

    /// Wake every reactor so its next pass sees the drain or stop flag.
    fn wake_reactors(&self) {
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
    }

    /// Request lines dispatched and not yet completed.
    pub fn active_requests(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Connections still owed work or bytes, across all reactors.
    fn unsettled_connections(&self) -> usize {
        self.unsettled
            .iter()
            .map(|u| u.load(Ordering::SeqCst))
            .sum()
    }

    /// Drain and wait (up to `grace`) for every dispatched request, every
    /// admitted computation, and every buffered reply byte to clear, then
    /// stop and **join** every reactor and worker thread and remove the
    /// Unix socket file. Returns `true` when everything drained inside
    /// the grace period — at which point each in-flight client has had
    /// its reply flushed to the socket, proven by joined handlers rather
    /// than inferred from counters.
    pub fn shutdown(self, grace: Duration) -> bool {
        self.drain();
        let deadline = Instant::now() + grace;
        let drained = loop {
            if self.active.load(Ordering::SeqCst) == 0
                && self.service.busy() == 0
                && self.unsettled_connections() == 0
            {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        self.stop.store(true, Ordering::SeqCst);
        self.wake_reactors();
        self.pool.stop();
        for h in self.reactors {
            let _ = h.join();
        }
        for h in self.workers {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        drained
    }
}

enum ReactorKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

// ---------------------------------------------------------------------------
// The reactor loop.
// ---------------------------------------------------------------------------

/// One reactor: owns its listener and every connection accepted from it.
/// Each pass serves everything ready, then the reactor blocks in
/// `poll(2)` until a socket it watches or its wake socket has news.
#[allow(clippy::too_many_arguments)]
fn reactor_loop<L: NbListener>(
    listener: L,
    service: &Service,
    drain: &AtomicBool,
    stop: &AtomicBool,
    active: &AtomicUsize,
    unsettled: &AtomicUsize,
    pool: &Arc<WorkerPool>,
    completions: &Arc<Completions>,
) {
    let mut listener = Some(listener);
    let mut conns: Vec<Option<Conn<L::Stream>>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut generation: u64 = 0;
    let mut buf = vec![0u8; READ_CHUNK];
    let mut last_gauges = Instant::now() - GAUGE_PERIOD;
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        fds.clear();
        fds.push(PollFd::new(completions.wake_fd(), POLLIN));
        for c in completions.take() {
            let Some(conn) = conns.get_mut(c.conn.slot).and_then(Option::as_mut) else {
                continue; // connection died mid-compute
            };
            if conn.generation != c.conn.generation {
                continue; // slot reused: stale completion
            }
            conn.pending_jobs -= 1;
            conn.ready.insert(c.seq, c.reply);
        }

        // Drain closes the listener: connects made after this point are
        // refused by the OS instead of parking in a backlog nobody will
        // ever accept.
        let mut accept_stalled = false;
        if drain.load(Ordering::SeqCst) {
            listener = None;
        } else if let Some(l) = &listener {
            loop {
                match l.accept_nb() {
                    Ok(stream) => {
                        generation += 1;
                        let conn = Conn {
                            stream,
                            generation,
                            frames: FrameBuffer::default(),
                            out: VecDeque::new(),
                            next_seq: 0,
                            next_release: 0,
                            ready: BTreeMap::new(),
                            pending_jobs: 0,
                            closing: false,
                            dead: false,
                        };
                        match free.pop() {
                            Some(slot) => conns[slot] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                    }
                    Err(ref e) if would_block(e) => break,
                    Err(_) => {
                        // A hard error (say, out of fds) leaves the
                        // listener readable: it sits out of this wait and
                        // is retried on a timer instead of spinning.
                        accept_stalled = true;
                        break;
                    }
                }
            }
            if !accept_stalled {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            }
        }

        // Per-connection I/O.
        let mut open = 0usize;
        let mut owed = 0usize;
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };

            // Read until the socket runs dry, dispatching every complete
            // frame (pipelined frames dispatch immediately and
            // concurrently — that is what feeds the batcher).
            if !conn.closing && !conn.dead {
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.closing = true;
                            break;
                        }
                        Ok(n) => {
                            conn.frames.push(&buf[..n]);
                            while let Some(frame) = conn.frames.next_frame() {
                                let seq = conn.next_seq;
                                conn.next_seq += 1;
                                // Chaos hook: a `serve-conn-kill` plan
                                // resets this connection right after it
                                // delivered a frame — the request is
                                // received but its reply never leaves,
                                // exactly the torn state a mid-request
                                // network partition produces. The client
                                // sees EOF and must retry elsewhere.
                                if crate::chaos::conn_kill() {
                                    conn.dead = true;
                                    break;
                                }
                                match frame {
                                    Ok(line) => {
                                        // Inline fast path: a pure cache
                                        // hit is answered on this thread,
                                        // skipping the pool round trip.
                                        // Misses, stats, and bad requests
                                        // return `None` and dispatch. A
                                        // panic here must not kill the
                                        // reactor: treat it as a miss and
                                        // let the worker's own isolation
                                        // boundary absorb it.
                                        let inline = std::panic::catch_unwind(
                                            std::panic::AssertUnwindSafe(|| service.try_hit(&line)),
                                        )
                                        .unwrap_or(None);
                                        if let Some(reply) = inline {
                                            conn.ready.insert(seq, reply);
                                            continue;
                                        }
                                        conn.pending_jobs += 1;
                                        active.fetch_add(1, Ordering::SeqCst);
                                        pool.submit(Job {
                                            conn: ConnId {
                                                slot,
                                                generation: conn.generation,
                                            },
                                            seq,
                                            line,
                                            completions: completions.clone(),
                                        });
                                    }
                                    Err(e) => {
                                        // Typed, in-order, connection
                                        // keeps serving.
                                        conn.ready.insert(
                                            seq,
                                            protocol::render_error("bad-request", &e.detail()),
                                        );
                                    }
                                }
                            }
                            if conn.dead {
                                break;
                            }
                        }
                        Err(ref e) if would_block(e) => break,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
            }

            // Release in-order replies and flush what the socket accepts.
            conn.release_ready();
            while !conn.out.is_empty() && !conn.dead {
                let (front, _) = conn.out.as_slices();
                // Chaos hook: a `serve-partial-write` plan caps this
                // pass at one byte, exercising the partial-write
                // bookkeeping a saturated socket produces (the rest
                // stays queued and goes out on later passes).
                let cap = crate::chaos::write_cap()
                    .unwrap_or(front.len())
                    .min(front.len());
                match conn.stream.write(&front[..cap]) {
                    Ok(0) => {
                        conn.dead = true;
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                    }
                    Err(ref e) if would_block(e) => break,
                    Err(_) => {
                        conn.dead = true;
                    }
                }
            }

            // Retire connections that owe nothing (or can't be paid).
            let retire = conn.dead || (conn.closing && conn.unsettled() == 0);
            if retire {
                *entry = None;
                free.push(slot);
            } else {
                open += 1;
                if conn.unsettled() > 0 {
                    owed += 1;
                }
                let mut events = 0;
                if !conn.closing {
                    events |= POLLIN;
                }
                if !conn.out.is_empty() {
                    events |= POLLOUT;
                }
                // A closing connection with nothing to write waits on its
                // workers' completions alone; watching its fd would spin
                // on the hang-up that poll(2) always reports.
                if events != 0 {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                }
            }
        }
        unsettled.store(owed, Ordering::SeqCst);

        let mut timeout = accept_stalled.then_some(ACCEPT_RETRY);
        if paxsim_obs::enabled() {
            let since = last_gauges.elapsed();
            if since >= GAUGE_PERIOD {
                last_gauges = Instant::now();
                paxsim_obs::gauge("serve.reactor.open_connections").set(open as f64);
                paxsim_obs::gauge("serve.reactor.ready_queue_depth").set(pool.depth() as f64);
            } else {
                // The refresh is owed: cap the wait so it still lands if
                // the reactor goes idle now.
                let due = GAUGE_PERIOD - since;
                timeout = Some(timeout.map_or(due, |t| t.min(due)));
            }
        }

        if stop.load(Ordering::SeqCst) {
            // Final flush attempt happened above; anything still owed
            // missed the grace period.
            return;
        }
        wait_ready(&mut fds, timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(seq: u64) -> Completion {
        Completion {
            conn: ConnId {
                slot: 0,
                generation: 1,
            },
            seq,
            reply: String::new(),
        }
    }

    fn poll_wake_fd(mailbox: &Completions, timeout: Duration) -> c_int {
        wait_ready(&mut [PollFd::new(mailbox.wake_fd(), POLLIN)], Some(timeout))
    }

    #[test]
    fn pushes_never_block_and_one_take_returns_them_in_order() {
        // Far more pushes than the wake socket buffers bytes: once it is
        // full, each push's write would block and is skipped instead.
        let mailbox = Completions::new().unwrap();
        for seq in 0..100_000 {
            mailbox.push(completion(seq));
        }
        let taken = mailbox.take();
        assert!(taken.iter().map(|c| c.seq).eq(0..100_000), "push order");
        assert_eq!(poll_wake_fd(&mailbox, Duration::ZERO), 0, "take reads dry");
        assert!(mailbox.take().is_empty());
    }

    #[test]
    fn wake_fd_sleeps_until_the_next_push() {
        let mailbox = Completions::new().unwrap();
        mailbox.push(completion(0));
        assert_eq!(mailbox.take().len(), 1);
        assert_eq!(poll_wake_fd(&mailbox, Duration::ZERO), 0, "take reads dry");
        let start = Instant::now();
        let pusher = {
            let mailbox = mailbox.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                mailbox.push(completion(1));
            })
        };
        // The long timeout turns a lost wake into a failure, not a hang.
        let ready = poll_wake_fd(&mailbox, Duration::from_secs(10));
        let waited = start.elapsed();
        pusher.join().unwrap();
        assert_eq!(ready, 1, "the push woke the poll");
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_secs(5),
            "poll returned after {waited:?}, not at the push"
        );
        let taken = mailbox.take();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].seq, 1);
    }
}
