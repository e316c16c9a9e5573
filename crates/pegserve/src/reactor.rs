//! The epoll readiness-loop front end (Linux only).
//!
//! Thread-per-connection pins one OS thread stack (~8 MiB of address
//! space, a kernel task, two context switches per exchange) on every
//! *idle* connection, which caps `ServerState::max_connections` in the
//! hundreds. This module is the classic answer, hand-rolled over raw
//! `epoll(7)` syscalls because the registry (and with it tokio/mio) is
//! unreachable: **one** event loop owns every socket and an idle
//! connection costs one registered fd.
//!
//! Division of labor:
//!
//! * The **event loop** does only O(bytes) work — non-blocking accept,
//!   byte-level line framing (same `MAX_LINE_BYTES` cap as the thread
//!   front end, partial lines survive across readiness events), and
//!   draining per-connection write buffers. It never parses JSON and
//!   never executes a query, so one slow session cannot stall another
//!   connection's bytes.
//! * A fixed **executor pool** (`ServerState::executor_threads` — sized
//!   so admission, not the executor, is what queues compute) runs
//!   `dispatch` on framed request lines and hands finished replies back
//!   through a completion queue + eventfd wake.
//!
//! Each connection is processed **serially**: one request line in flight
//! at a time, replies in request order, and `EPOLLIN` interest is dropped
//! while a request runs so a pipelining client is backpressured into the
//! socket buffer instead of ballooning server memory. (Request-id
//! multiplexing still works — ids are echoed by `dispatch` — but
//! out-of-order overlap *within* one connection is the thread front end's
//! trade; the event loop's scaling axis is connection count.) Admission
//! semantics are unchanged: permits are taken inside the op handlers,
//! FIFO ticket order included, so `overloaded`/`timeout` replies are
//! byte-identical across front ends.
//!
//! Failure semantics mirror the thread front end: an over-cap request
//! line gets a structured `bad_request` and the connection closes (the
//! stream cannot be resynchronized); EOF with a buffered tail still
//! answers the tail; a connection that stops draining its replies is
//! dropped after `WRITE_STALL`; past `max_connections`, new sockets get
//! a best-effort `overloaded` line and are closed.

use crate::json::obj;
use crate::server::{dispatch, reply_clock, ServerState, MAX_LINE_BYTES};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw `epoll(7)` / `eventfd(2)` bindings. Hand-declared because the
/// in-tree workspace has no `libc` crate; the symbols live in the
/// platform libc that `std` already links.
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    // The kernel's epoll_event is 12 bytes; x86-64 declares it
    // __attribute__((packed)) while other architectures use natural
    // alignment — the repr must match or epoll_wait scribbles past the
    // buffer.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    #[repr(C, packed)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[derive(Clone, Copy)]
    #[repr(C)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

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
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// A connection that stops draining replies for this long is dropped —
/// the same bound as the thread front end's per-write socket timeout.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// Event-loop tick. Bounds how stale the shutdown check and the
/// write-stall sweep can be; matches the thread handlers' read-poll tick.
const TICK_MS: i32 = 250;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        token: u64,
        events: u32,
    ) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent { events, data: token };
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, events)
    }

    fn del(&self, fd: RawFd) {
        // Deregistration is best-effort: the fd is about to close, which
        // removes it from the interest set anyway.
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        let _ = unsafe { sys::epoll_ctl(self.fd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits one tick; EINTR retries with the same timeout.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            let n = unsafe {
                sys::epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// The executor→loop wake channel: workers bump the counter, the loop
/// sees `TOKEN_WAKE` readable and drains the completion queue.
struct EventFd {
    fd: RawFd,
}

impl EventFd {
    fn new() -> std::io::Result<EventFd> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    fn signal(&self) {
        let one: u64 = 1;
        let _ =
            unsafe { sys::write(self.fd, (&one as *const u64).cast(), std::mem::size_of::<u64>()) };
    }

    fn drain(&self) {
        let mut val: u64 = 0;
        let _ = unsafe {
            sys::read(self.fd, (&mut val as *mut u64).cast(), std::mem::size_of::<u64>())
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

struct Conn {
    stream: TcpStream,
    /// Read accumulator: partial lines survive across readiness events,
    /// exactly like the thread handler's `Vec<u8>` framing buffer.
    buf: Vec<u8>,
    /// Reply bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// A request line is at the executor; reads are paused until its
    /// reply comes back (serial per connection).
    busy: bool,
    /// Close once `out` drains and no request is in flight.
    closing: bool,
    /// Peer closed its write half; any buffered tail still answers.
    eof: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Set when a flush leaves bytes behind; cleared on progress.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            closing: false,
            eof: false,
            interest: sys::EPOLLIN,
            stalled_since: None,
        }
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Queues one encoded reply line (newline included). With nothing
    /// else pending, the line's buffer becomes `out` as it is, uncopied.
    fn queue_reply(&mut self, line: String) {
        if self.out.is_empty() {
            self.out = line.into_bytes();
        } else {
            self.out.extend_from_slice(line.as_bytes());
        }
    }

    /// Non-blocking drain of the write buffer. Returns `false` when the
    /// socket is dead.
    fn try_flush(&mut self) -> bool {
        while self.pending_out() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.out_pos += n;
                    self.stalled_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.pending_out() {
            if self.stalled_since.is_none() {
                self.stalled_since = Some(Instant::now());
            }
        } else {
            self.out.clear();
            self.out_pos = 0;
            self.stalled_since = None;
            let _ = self.stream.flush();
        }
        true
    }

    /// Length of the trailing incomplete line (the only part of `buf`
    /// the line cap applies to — complete lines drain promptly).
    fn partial_len(&self) -> usize {
        match self.buf.iter().rposition(|&b| b == b'\n') {
            Some(p) => self.buf.len() - p - 1,
            None => self.buf.len(),
        }
    }
}

fn error_line(code: &str, message: &str) -> String {
    obj().field("ok", false).field("error", code).field("message", message).build().to_line()
}

/// Serves the bound listener on the epoll readiness loop until shutdown.
/// Entered via [`crate::server::Server::serve`] with
/// [`ServeMode::Epoll`](crate::server::ServeMode::Epoll).
pub(crate) fn serve_epoll(listener: TcpListener, state: Arc<ServerState>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let ep = Epoll::new()?;
    let wake = Arc::new(EventFd::new()?);
    ep.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)?;
    ep.add(wake.fd, TOKEN_WAKE, sys::EPOLLIN)?;

    // Executor pool: framed lines in, finished reply lines out. Workers
    // exit when the job sender drops at loop exit.
    type Completions = Arc<Mutex<Vec<(u64, String)>>>;
    let completions: Completions = Arc::new(Mutex::new(Vec::new()));
    let (jobs_tx, jobs_rx) = mpsc::channel::<(u64, String)>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let mut workers = Vec::with_capacity(state.executor_threads);
    for i in 0..state.executor_threads {
        let rx = Arc::clone(&jobs_rx);
        let st = Arc::clone(&state);
        let done = Arc::clone(&completions);
        let wk = Arc::clone(&wake);
        workers.push(std::thread::Builder::new().name(format!("pegserve-exec-{i}")).spawn(
            move || {
                loop {
                    // Hold the receiver lock only while dequeuing, never
                    // while executing.
                    let job = rx.lock().unwrap().recv();
                    let Ok((token, line)) = job else { break };
                    let reply = dispatch(&st, &line);
                    // `serve.reply_us` here ends with the encode: the
                    // event loop writes the bytes whenever the socket
                    // takes them.
                    let t0 = reply_clock();
                    let reply = reply.to_line();
                    st.metrics.histogram("serve.reply_us").record(t0.elapsed());
                    done.lock().unwrap().push((token, reply));
                    wk.signal();
                }
            },
        )?);
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
    let mut dead: Vec<u64> = Vec::new();

    // Advances one connection's framing: dispatches the next complete
    // (or EOF-tail) line unless a request is already in flight. Blank
    // lines are skipped like the thread handler's.
    let advance = |conn: &mut Conn, token: u64, jobs: &mpsc::Sender<(u64, String)>| {
        while !conn.busy && !conn.closing {
            if let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    conn.busy = true;
                    let _ = jobs.send((token, trimmed.to_string()));
                }
            } else if conn.eof {
                let text = String::from_utf8_lossy(&conn.buf);
                let trimmed = text.trim().to_string();
                conn.buf.clear();
                // EOF ends the connection either way; a non-blank tail
                // still gets its answer first.
                conn.closing = true;
                if !trimmed.is_empty() {
                    conn.busy = true;
                    let _ = jobs.send((token, trimmed));
                }
                return;
            } else {
                return;
            }
        }
    };

    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let n = ep.wait(&mut events, TICK_MS)?;
        let mut touched: Vec<u64> = Vec::new();
        for ev in events.iter().take(n).copied() {
            let (token, bits) = (ev.data, ev.events);
            match token {
                TOKEN_LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            if conns.len() >= state.max_connections {
                                // Same contract as the thread front end:
                                // a structured overload line, best-effort
                                // (the fresh socket buffer almost always
                                // takes it), then close.
                                let mut s = stream;
                                let text = error_line("overloaded", "connection limit reached");
                                let _ = s.write_all(text.as_bytes());
                                continue;
                            }
                            let token = next_token;
                            next_token += 1;
                            if ep.add(stream.as_raw_fd(), token, sys::EPOLLIN).is_ok() {
                                conns.insert(token, Conn::new(stream));
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                },
                TOKEN_WAKE => wake.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                        dead.push(token);
                        continue;
                    }
                    if bits & sys::EPOLLOUT != 0 && !conn.try_flush() {
                        dead.push(token);
                        continue;
                    }
                    if bits & sys::EPOLLIN != 0 && !conn.busy && !conn.closing {
                        let mut chunk = [0u8; 4096];
                        loop {
                            match conn.stream.read(&mut chunk) {
                                Ok(0) => {
                                    conn.eof = true;
                                    break;
                                }
                                Ok(got) => {
                                    conn.buf.extend_from_slice(&chunk[..got]);
                                    if conn.partial_len() > MAX_LINE_BYTES {
                                        // The stream cannot be
                                        // resynchronized past an over-cap
                                        // line: answer and close.
                                        conn.queue_reply(error_line(
                                            "bad_request",
                                            "request line too long",
                                        ));
                                        conn.buf.clear();
                                        conn.closing = true;
                                        break;
                                    }
                                    // A complete line pauses reading —
                                    // serial per connection.
                                    if conn.buf.contains(&b'\n') {
                                        break;
                                    }
                                }
                                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                                Err(_) => {
                                    dead.push(token);
                                    break;
                                }
                            }
                        }
                        advance(conn, token, &jobs_tx);
                    }
                    touched.push(token);
                }
            }
        }

        // Finished replies: queue bytes, resume framing (more lines may
        // already be buffered), flush what the socket will take now.
        let finished: Vec<(u64, String)> = {
            let mut done = completions.lock().unwrap();
            done.drain(..).collect()
        };
        for (token, reply) in finished {
            let Some(conn) = conns.get_mut(&token) else { continue };
            conn.busy = false;
            conn.queue_reply(reply);
            advance(conn, token, &jobs_tx);
            if !conn.try_flush() {
                dead.push(token);
                continue;
            }
            touched.push(token);
        }

        // Interest bookkeeping for every connection whose state moved,
        // plus the sweeps: write-stalled connections are dropped, closing
        // connections leave once their replies drain.
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            let Some(conn) = conns.get_mut(&token) else { continue };
            let mut desired = 0u32;
            if !conn.busy && !conn.closing && !conn.eof {
                desired |= sys::EPOLLIN;
            }
            if conn.pending_out() {
                desired |= sys::EPOLLOUT;
            }
            if desired != conn.interest {
                if ep.modify(conn.stream.as_raw_fd(), token, desired).is_err() {
                    dead.push(token);
                    continue;
                }
                conn.interest = desired;
            }
        }
        let now = Instant::now();
        for (&token, conn) in &conns {
            let stalled = conn.stalled_since.is_some_and(|t| now.duration_since(t) > WRITE_STALL);
            let drained = conn.closing && !conn.busy && !conn.pending_out();
            if stalled || drained {
                dead.push(token);
            }
        }
        dead.sort_unstable();
        dead.dedup();
        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                ep.del(conn.stream.as_raw_fd());
            }
        }
    }

    // Shutdown: close every socket, let queued jobs finish, join the
    // executor. Late completions land in a queue nobody reads — their
    // connections are gone with the process about to follow.
    for (_, conn) in conns.drain() {
        ep.del(conn.stream.as_raw_fd());
    }
    drop(jobs_tx);
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}
