//! The event-driven connection core: one thread owns every socket.
//!
//! A level-triggered readiness loop ([`EventLoop::run`]) accepts
//! connections, feeds whatever bytes each socket has into that
//! connection's incremental [`RequestParser`], and hands only *fully
//! parsed* requests to the compute threads over the bounded queue. They
//! are pure compute — they never touch a socket — and deliver finished
//! responses back through [`Completions`] plus a self-pipe wake. The
//! loop then streams each response out with nonblocking writes,
//! switching to `transfer-encoding: chunked` framing for large bodies on
//! HTTP/1.1 connections.
//!
//! Because no thread ever blocks on client I/O, ten thousand idle
//! keep-alive connections cost ten thousand fds and parser states — not
//! ten thousand threads — and a slow-loris client is just a connection
//! whose per-request deadline (a [`TimerWheel`] entry armed at its first
//! byte) expires into a `408`.
//!
//! ## Admission and accounting
//!
//! The loop accepts up to `max_connections` concurrent clients; arrivals
//! beyond the cap are answered `503` + `retry-after` immediately and
//! never reach the parser. The PR-3 ledger `accepted == handled + shed`
//! is preserved: every accepted connection is counted exactly once —
//! *shed* if it was refused admission or its first request found the
//! dispatch queue full, *handled* otherwise (at first dispatch, or at
//! close for connections that never completed a request).
//!
//! ## Shutdown
//!
//! Graceful drain is a first-class loop state: the listener closes,
//! idle connections are dropped at once, in-flight requests finish and
//! their responses flush, and the loop exits when the last connection
//! closes or the drain deadline passes — whichever comes first.

use crate::chaos::{self, IoShape};
use crate::http::{encode_head, Framing, Request, RequestParser, Response};
use crate::server::{error_body, Shared};
use crate::sys::{self, Interest, Poller, WakeReceiver};
use crate::timer::TimerWheel;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Poller token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token of the wake pipe's read end.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Read buffer per readiness event (stack-allocated, reused).
const READ_BUF: usize = 16 * 1024;
/// Payload bytes per chunk of a chunked response.
const RESPONSE_CHUNK: usize = 16 * 1024;
/// Over-cap connections beyond this many concurrent 503 writes are
/// dropped without a response (defends the loop itself during a flood).
const SHED_HEADROOM: usize = 128;
/// How long a closing connection lingers so the peer can read the final
/// response before the socket drops.
const LINGER: Duration = Duration::from_millis(500);
/// Poll timeout when no timer is armed.
const IDLE_WAIT: Duration = Duration::from_millis(500);
/// Timer wheel tick — deadlines are honored to this resolution.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(20);
const WHEEL_SLOTS: usize = 64;

/// Event-loop knobs lifted from [`crate::server::ServerConfig`].
pub(crate) struct LoopConfig {
    /// Concurrent-connection cap; arrivals beyond it are shed with `503`.
    pub max_connections: usize,
    /// Per-request wall-clock budget (first byte → response flushed).
    pub request_timeout: Option<Duration>,
    /// Grace period for in-flight work at shutdown.
    pub drain_timeout: Duration,
    /// Response bodies larger than this stream chunked to HTTP/1.1
    /// clients; `0` disables chunked responses entirely.
    pub chunk_threshold: usize,
}

/// A fully parsed request handed to the compute threads.
pub(crate) struct WorkItem {
    /// Slab index of the owning connection.
    pub token: usize,
    /// Connection generation — stale completions are dropped on mismatch.
    pub gen: u64,
    pub request: Request,
    /// When the request's first byte arrived (latency accounting).
    pub started: Instant,
    /// When the loop queued it (the `bstc_batch_wait_us` span).
    pub dispatched: Instant,
}

/// A finished response traveling back from a compute thread to the loop.
pub(crate) struct Done {
    pub token: usize,
    pub gen: u64,
    pub response: Response,
    pub keep_alive: bool,
}

/// Compute → loop completion mailbox: a mutexed vector plus the wake
/// pipe, so a push is two syscall-free moves and one pipe write.
pub(crate) struct Completions {
    items: Mutex<Vec<Done>>,
    waker: sys::Waker,
}

impl Completions {
    pub fn new(waker: sys::Waker) -> Completions {
        Completions { items: Mutex::new(Vec::new()), waker }
    }

    /// Deliver one finished response and nudge the loop.
    pub fn push(&self, done: Done) {
        self.items.lock().unwrap_or_else(PoisonError::into_inner).push(done);
        self.waker.wake();
    }

    /// Nudge the loop without a completion (shutdown notification).
    pub fn wake(&self) {
        self.waker.wake();
    }

    pub fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.items.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

enum Progress {
    Done,
    Blocked,
}

#[derive(Clone, Copy)]
enum Seg {
    Head,
    Frame,
    Body,
}

/// Incremental response writer: resumes from any byte offset after a
/// short write, and frames large bodies as chunks on the fly.
struct Writer {
    head: Vec<u8>,
    head_pos: usize,
    body: Vec<u8>,
    body_pos: usize,
    chunked: bool,
    /// Current chunk-size frame (`"\r\n{len:x}\r\n"` or the terminator).
    frame: Vec<u8>,
    frame_pos: usize,
    /// End of the current chunk's payload within `body`.
    chunk_end: usize,
    first_chunk: bool,
    terminated: bool,
    keep_alive: bool,
}

impl Writer {
    fn new(response: Response, keep_alive: bool, chunked: bool) -> Writer {
        let framing = if chunked { Framing::Chunked } else { Framing::Length(response.body.len()) };
        let head = encode_head(&response, keep_alive, framing);
        Writer {
            head,
            head_pos: 0,
            body: response.body,
            body_pos: 0,
            chunked,
            frame: Vec::new(),
            frame_pos: 0,
            chunk_end: 0,
            first_chunk: true,
            terminated: false,
            keep_alive,
        }
    }

    /// Write as much as the socket accepts right now.
    fn write_some(&mut self, mut stream: &TcpStream) -> io::Result<Progress> {
        loop {
            let (seg, start, end) = if self.head_pos < self.head.len() {
                (Seg::Head, self.head_pos, self.head.len())
            } else if !self.chunked {
                if self.body_pos >= self.body.len() {
                    return Ok(Progress::Done);
                }
                (Seg::Body, self.body_pos, self.body.len())
            } else if self.frame_pos < self.frame.len() {
                (Seg::Frame, self.frame_pos, self.frame.len())
            } else if self.body_pos < self.chunk_end {
                (Seg::Body, self.body_pos, self.chunk_end)
            } else if self.terminated {
                return Ok(Progress::Done);
            } else {
                self.next_frame();
                continue;
            };
            let buf = match seg {
                Seg::Head => &self.head[start..end],
                Seg::Frame => &self.frame[start..end],
                Seg::Body => &self.body[start..end],
            };
            let buf = match chaos::io_shape("event_loop") {
                IoShape::Normal => buf,
                IoShape::Short => &buf[..1],
                IoShape::Eagain => return Ok(Progress::Blocked),
                IoShape::Error => {
                    return Err(io::Error::other("chaos: injected write failure"));
                }
            };
            match stream.write(buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => match seg {
                    Seg::Head => self.head_pos += n,
                    Seg::Frame => self.frame_pos += n,
                    Seg::Body => self.body_pos += n,
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Progress::Blocked),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Generate the next chunk-size frame (or the terminator). Every
    /// frame after the first leads with the CRLF that closes the
    /// previous chunk's payload.
    fn next_frame(&mut self) {
        let remaining = self.body.len() - self.body_pos;
        if remaining == 0 {
            self.frame =
                if self.first_chunk { b"0\r\n\r\n".to_vec() } else { b"\r\n0\r\n\r\n".to_vec() };
            self.terminated = true;
        } else {
            let n = remaining.min(RESPONSE_CHUNK);
            self.frame = if self.first_chunk {
                format!("{n:x}\r\n").into_bytes()
            } else {
                format!("\r\n{n:x}\r\n").into_bytes()
            };
            self.chunk_end = self.body_pos + n;
            self.first_chunk = false;
        }
        self.frame_pos = 0;
    }
}

enum ConnState {
    /// Feeding socket bytes into the parser.
    Reading,
    /// A request is with the compute threads; the loop waits for its [`Done`].
    Dispatched,
    /// Streaming a response out.
    Writing(Writer),
    /// Write half shut; discarding input until EOF or the linger timer.
    Draining,
}

struct Conn {
    stream: TcpStream,
    /// Bumped per accept into this slot; guards against stale
    /// completions and timers after slot reuse.
    gen: u64,
    state: ConnState,
    parser: RequestParser,
    /// Pipelined bytes beyond the request currently in flight.
    pending: Vec<u8>,
    interest: Interest,
    registered: bool,
    /// Generation of this connection's armed timer (0 = disarmed).
    timer_gen: u64,
    /// When the in-progress request's first byte arrived.
    started_at: Option<Instant>,
    /// Whether this connection has been counted as handled or shed.
    accounted: bool,
    /// Whether it counts against `max_connections` (503-shed ones don't).
    admitted: bool,
    /// Last request's protocol version (chunked responses need 1.1).
    http11: bool,
    closing: bool,
    /// Close after the current write even if the client asked keep-alive.
    force_linger: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64, admitted: bool) -> Conn {
        Conn {
            stream,
            gen,
            state: ConnState::Reading,
            parser: RequestParser::new(),
            pending: Vec::new(),
            interest: Interest::NONE,
            registered: false,
            timer_gen: 0,
            started_at: None,
            accounted: false,
            admitted,
            http11: true,
            closing: false,
            force_linger: false,
        }
    }
}

/// The connection core. Owns the listener, every client socket, the
/// poller, and the timer wheel; runs on its own thread.
pub(crate) struct EventLoop {
    poller: Poller,
    /// Dropped (closed) when drain begins.
    listener: Option<TcpListener>,
    wake_rx: WakeReceiver,
    shared: Arc<Shared>,
    config: LoopConfig,
    /// Connection slab indexed by poller token.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Live connections, admitted or shedding.
    open: usize,
    /// Live connections that count against `max_connections`.
    open_admitted: usize,
    wheel: TimerWheel,
    next_gen: u64,
    next_timer_gen: u64,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    pub fn new(
        listener: TcpListener,
        wake_rx: WakeReceiver,
        shared: Arc<Shared>,
        config: LoopConfig,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READ)?;
        Ok(EventLoop {
            poller,
            listener: Some(listener),
            wake_rx,
            shared,
            config,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            open_admitted: 0,
            wheel: TimerWheel::new(WHEEL_GRANULARITY, WHEEL_SLOTS),
            next_gen: 0,
            next_timer_gen: 0,
            drain_deadline: None,
        })
    }

    pub fn run(&mut self) {
        let mut events: Vec<sys::Event> = Vec::new();
        loop {
            if self.drain_deadline.is_none() && self.shared.shutting_down.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if let Some(deadline) = self.drain_deadline {
                if self.open == 0 {
                    break;
                }
                if Instant::now() >= deadline {
                    self.close_all();
                    break;
                }
            }
            let mut timeout = self.wheel.next_wakeup().unwrap_or(IDLE_WAIT);
            if self.drain_deadline.is_some() {
                timeout = timeout.min(Duration::from_millis(50));
            }
            if let Err(e) = self.poller.wait(&mut events, Some(timeout)) {
                obs::log::warn("event_loop_poll_error", &[("error", e.to_string().as_str())]);
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.on_accept(),
                    WAKE_TOKEN => self.wake_rx.drain(),
                    t => self.on_conn_event(t as usize, ev),
                }
            }
            self.apply_completions();
            self.fire_timers();
        }
        self.shared.metrics.conns_open.set(0);
    }

    // -- admission ----------------------------------------------------------

    fn on_accept(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    self.shared.metrics.conns_accepted.inc();
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.metrics.conns_handled.inc();
                        continue;
                    }
                    if self.open_admitted >= self.config.max_connections {
                        self.shared.metrics.conns_shed.inc();
                        self.shed_connection(stream);
                    } else {
                        self.admit(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(t) => t,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let t = self.alloc_slot();
        self.next_gen += 1;
        let conn = Conn::new(stream, self.next_gen, true);
        self.open += 1;
        self.open_admitted += 1;
        self.shared.metrics.conns_open.set(self.open as u64);
        self.settle(t, conn);
    }

    /// Answer an over-cap arrival with an immediate `503` and close. The
    /// connection is already accounted (shed); it occupies a slot only
    /// for the duration of the write.
    fn shed_connection(&mut self, stream: TcpStream) {
        if self.open - self.open_admitted >= SHED_HEADROOM {
            // A flood of over-cap arrivals must not pile up 503 writers:
            // past the headroom, drop without a response.
            return;
        }
        let t = self.alloc_slot();
        self.next_gen += 1;
        let mut conn = Conn::new(stream, self.next_gen, false);
        conn.accounted = true;
        conn.force_linger = true;
        self.open += 1;
        self.shared.metrics.conns_open.set(self.open as u64);
        let response = Response::json(
            503,
            error_body("overloaded", "connection limit reached; retry shortly"),
        )
        .with_header("retry-after", "1");
        self.respond(&mut conn, t, response, false);
        self.settle(t, conn);
    }

    // -- event dispatch -----------------------------------------------------

    fn on_conn_event(&mut self, t: usize, ev: sys::Event) {
        let Some(mut conn) = self.conns.get_mut(t).and_then(Option::take) else {
            return;
        };
        match conn.state {
            ConnState::Reading => {
                if ev.readable || ev.hangup {
                    self.read_ready(&mut conn, t);
                }
            }
            ConnState::Dispatched => {
                if ev.hangup && conn.registered {
                    // Level-triggered RDHUP would refire every wait while
                    // the request computes; drop the registration and
                    // re-register when the response is ready.
                    let _ = self.poller.deregister(conn.stream.as_raw_fd());
                    conn.registered = false;
                }
            }
            ConnState::Writing(_) => {
                if ev.writable || ev.hangup {
                    self.flush(&mut conn, t);
                }
            }
            ConnState::Draining => {
                if ev.readable || ev.hangup {
                    self.drain_ready(&mut conn);
                }
            }
        }
        self.settle(t, conn);
    }

    // -- reading ------------------------------------------------------------

    fn read_ready(&mut self, conn: &mut Conn, t: usize) {
        let mut buf = [0u8; READ_BUF];
        loop {
            if conn.closing || !matches!(conn.state, ConnState::Reading) {
                return;
            }
            let cap = match chaos::io_shape("event_loop") {
                IoShape::Normal => buf.len(),
                IoShape::Short => 1,
                IoShape::Eagain => return,
                IoShape::Error => {
                    conn.closing = true;
                    return;
                }
            };
            match (&conn.stream).read(&mut buf[..cap]) {
                Ok(0) => {
                    self.on_eof(conn, t);
                    return;
                }
                Ok(n) => {
                    let data = buf[..n].to_vec();
                    self.ingest(conn, t, &data);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    /// Feed bytes to the connection's parser, dispatching at most one
    /// request (leftovers wait in `pending` until its response is done).
    fn ingest(&mut self, conn: &mut Conn, t: usize, data: &[u8]) {
        let mut off = 0;
        while off < data.len() {
            if conn.closing || !matches!(conn.state, ConnState::Reading) {
                conn.pending.extend_from_slice(&data[off..]);
                return;
            }
            if !conn.parser.started() && conn.started_at.is_none() {
                // First byte of a request starts its wall-clock budget —
                // this is the slow-loris deadline.
                conn.started_at = Some(Instant::now());
                if let Some(rt) = self.config.request_timeout {
                    self.arm_timer(conn, t, Instant::now() + rt);
                }
            }
            match conn.parser.advance(&data[off..]) {
                Ok((n, None)) => off += n,
                Ok((n, Some(request))) => {
                    off += n;
                    conn.http11 = request.http11;
                    self.dispatch(conn, t, request);
                }
                Err(pe) => {
                    let status = pe.status();
                    let (family, code) = match status {
                        501 => ("unsupported", "not_implemented"),
                        413 => ("malformed", "payload_too_large"),
                        _ => ("malformed", "bad_request"),
                    };
                    if status == 501 {
                        obs::log::warn("unsupported_request", &[("detail", pe.detail())]);
                    }
                    self.shared.metrics.record_request(family, status);
                    self.disarm(conn);
                    conn.pending.clear();
                    let response = Response::json(status, error_body(code, pe.detail()));
                    self.respond(conn, t, response, false);
                    return;
                }
            }
        }
    }

    fn dispatch(&mut self, conn: &mut Conn, t: usize, request: Request) {
        let started = conn.started_at.take().unwrap_or_else(Instant::now);
        self.disarm(conn);
        let item =
            WorkItem { token: t, gen: conn.gen, request, started, dispatched: Instant::now() };
        match self.shared.queue.push(item) {
            Ok(()) => {
                if !conn.accounted {
                    conn.accounted = true;
                    self.shared.metrics.conns_handled.inc();
                }
                conn.state = ConnState::Dispatched;
            }
            Err(_) => {
                // Dispatch queue full: shed exactly like the PR-3
                // acceptor did, with an immediate 503 + retry-after.
                if !conn.accounted {
                    conn.accounted = true;
                    self.shared.metrics.conns_shed.inc();
                }
                conn.force_linger = true;
                conn.pending.clear();
                let response = Response::json(
                    503,
                    error_body("overloaded", "server is at capacity; retry shortly"),
                )
                .with_header("retry-after", "1");
                self.respond(conn, t, response, false);
            }
        }
    }

    fn on_eof(&mut self, conn: &mut Conn, t: usize) {
        if conn.parser.started() {
            // The peer quit mid-request: answer the half-open socket
            // with a 400 (its read half may still be open).
            self.shared.metrics.record_request("malformed", 400);
            self.disarm(conn);
            let response =
                Response::json(400, error_body("bad_request", "connection closed mid-request"));
            self.respond(conn, t, response, false);
        } else {
            conn.closing = true;
        }
    }

    fn drain_ready(&mut self, conn: &mut Conn) {
        let mut buf = [0u8; 1024];
        loop {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    conn.closing = true;
                    return;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    // -- writing ------------------------------------------------------------

    /// Start streaming `response` out, chunked when it is large and the
    /// client speaks HTTP/1.1.
    fn respond(&mut self, conn: &mut Conn, t: usize, response: Response, keep_alive: bool) {
        let chunked = self.config.chunk_threshold > 0
            && response.body.len() > self.config.chunk_threshold
            && conn.http11;
        let keep = keep_alive && !conn.force_linger;
        conn.state = ConnState::Writing(Writer::new(response, keep, chunked));
        let stall = self.config.request_timeout.unwrap_or(Duration::from_secs(10));
        self.arm_timer(conn, t, Instant::now() + stall);
        self.flush(conn, t);
    }

    fn flush(&mut self, conn: &mut Conn, t: usize) {
        let ConnState::Writing(ref mut writer) = conn.state else {
            return;
        };
        match writer.write_some(&conn.stream) {
            Ok(Progress::Done) => {
                let keep = writer.keep_alive;
                self.finish_response(conn, t, keep);
            }
            Ok(Progress::Blocked) => {}
            Err(_) => {
                self.disarm(conn);
                conn.closing = true;
            }
        }
    }

    fn finish_response(&mut self, conn: &mut Conn, t: usize, keep_alive: bool) {
        self.disarm(conn);
        if keep_alive {
            conn.state = ConnState::Reading;
            if !conn.pending.is_empty() {
                let pending = std::mem::take(&mut conn.pending);
                self.ingest(conn, t, &pending);
            }
        } else if conn.force_linger || conn.parser.started() || !conn.pending.is_empty() {
            // Half-close and linger so the peer reads the response
            // before the socket drops (a hard close could RST it away).
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.state = ConnState::Draining;
            conn.parser = RequestParser::new();
            conn.pending.clear();
            self.arm_timer(conn, t, Instant::now() + LINGER);
        } else {
            conn.closing = true;
        }
    }

    // -- completions and timers ---------------------------------------------

    fn apply_completions(&mut self) {
        for done in self.shared.completions.drain() {
            let t = done.token;
            let Some(mut conn) = self.conns.get_mut(t).and_then(Option::take) else {
                continue;
            };
            if conn.gen != done.gen || !matches!(conn.state, ConnState::Dispatched) {
                self.conns[t] = Some(conn);
                continue;
            }
            // Same chaos site the blocking server exposed before its
            // response write; keeps injected write-failure tests honest.
            if chaos::io_point("write").is_err() {
                conn.closing = true;
            } else {
                self.respond(&mut conn, t, done.response, done.keep_alive);
            }
            self.settle(t, conn);
        }
    }

    fn fire_timers(&mut self) {
        let expired = self.wheel.expired(Instant::now());
        for (token, tgen) in expired {
            let t = token as usize;
            let Some(mut conn) = self.conns.get_mut(t).and_then(Option::take) else {
                continue;
            };
            if conn.timer_gen != tgen {
                // Stale entry from a disarmed or re-armed deadline.
                self.conns[t] = Some(conn);
                continue;
            }
            conn.timer_gen = 0;
            match conn.state {
                ConnState::Reading => {
                    if conn.parser.started() {
                        self.shared.metrics.record_request("timeout", 408);
                        conn.pending.clear();
                        let response = Response::json(
                            408,
                            error_body("timeout", "request not received in time"),
                        );
                        self.respond(&mut conn, t, response, false);
                    } else {
                        conn.closing = true;
                    }
                }
                ConnState::Writing(_) | ConnState::Draining => conn.closing = true,
                ConnState::Dispatched => {}
            }
            self.settle(t, conn);
        }
    }

    fn arm_timer(&mut self, conn: &mut Conn, t: usize, deadline: Instant) {
        self.next_timer_gen += 1;
        conn.timer_gen = self.next_timer_gen;
        self.wheel.insert(t as u64, conn.timer_gen, deadline);
    }

    fn disarm(&mut self, conn: &mut Conn) {
        conn.timer_gen = 0;
        conn.started_at = None;
    }

    // -- lifecycle ----------------------------------------------------------

    /// Re-apply poller interest for the connection's state and return it
    /// to the slab — or close it out if it is done.
    fn settle(&mut self, t: usize, mut conn: Conn) {
        if conn.closing {
            self.finalize_close(t, conn);
            return;
        }
        let want = match conn.state {
            ConnState::Reading | ConnState::Draining => Interest::READ,
            ConnState::Writing(_) => Interest::WRITE,
            ConnState::Dispatched => Interest::NONE,
        };
        let fd = conn.stream.as_raw_fd();
        if !conn.registered {
            if matches!(conn.state, ConnState::Dispatched) {
                // Deregistered on hangup while the request computes;
                // re-registers when the completion arrives.
            } else if self.poller.register(fd, t as u64, want).is_ok() {
                conn.registered = true;
                conn.interest = want;
            } else {
                conn.closing = true;
                self.finalize_close(t, conn);
                return;
            }
        } else if want != conn.interest {
            if self.poller.modify(fd, t as u64, want).is_ok() {
                conn.interest = want;
            } else {
                conn.closing = true;
                self.finalize_close(t, conn);
                return;
            }
        }
        self.conns[t] = Some(conn);
    }

    fn finalize_close(&mut self, t: usize, conn: Conn) {
        if conn.registered {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        if !conn.accounted {
            // Never dispatched, never shed: an idle or errored-out
            // connection still balances the ledger as handled.
            self.shared.metrics.conns_handled.inc();
        }
        self.open -= 1;
        if conn.admitted {
            self.open_admitted -= 1;
        }
        self.free.push(t);
        self.shared.metrics.conns_open.set(self.open as u64);
    }

    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.config.drain_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        // Idle connections have nothing in flight: close them now.
        for t in 0..self.conns.len() {
            let Some(conn) = &self.conns[t] else { continue };
            let idle = matches!(conn.state, ConnState::Reading)
                && !conn.parser.started()
                && conn.pending.is_empty();
            if idle {
                let conn = self.conns[t].take().expect("checked above");
                self.finalize_close(t, conn);
            }
        }
        obs::log::info("drain_started", &[("open_connections", self.open.to_string().as_str())]);
    }

    fn close_all(&mut self) {
        for t in 0..self.conns.len() {
            if let Some(conn) = self.conns[t].take() {
                self.finalize_close(t, conn);
            }
        }
    }
}
