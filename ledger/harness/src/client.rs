//! The closed-loop load generator: one blocking line-protocol connection
//! per client thread, each sending its next request only after the
//! previous reply arrived.

use crate::workload::{update_line, Request};
use graphstore::GraphOp;
use pegwire::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A reply slower than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Sends one request line and reads the reply line; the duration is
    /// the client round trip, from before the write to after the reply's
    /// last byte.
    pub fn call(&mut self, line: &str) -> std::io::Result<(Vec<u8>, Duration)> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let t0 = Instant::now();
        self.writer.write_all(&framed)?;
        let mut reply = Vec::new();
        self.reader.read_until(b'\n', &mut reply)?;
        let rtt = t0.elapsed();
        if reply.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        reply.pop();
        Ok((reply, rtt))
    }

    /// [`Conn::call`] with the reply parsed as JSON.
    pub fn call_json(&mut self, line: &str) -> Result<Json, String> {
        let (reply, _) = self.call(line).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&reply).map_err(|e| e.to_string())?;
        crate::json::parse_reply(text).map(|(tree, _)| tree)
    }
}

/// One match as the wire carries it: node ids plus the f64 bits of its
/// two probability factors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireMatch {
    pub nodes: Vec<u32>,
    pub prle: u64,
    pub prn: u64,
}

#[derive(Debug)]
pub enum Reply {
    Matches {
        elapsed_us: u64,
        truncated: bool,
        plan_from_cache: Option<bool>,
        matches: Vec<WireMatch>,
    },
    Update {
        version: u64,
        nodes: usize,
        edges: usize,
        update_us: u64,
    },
    /// An error reply, a transport failure or a timeout.
    Failed(String),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Query,
    Update,
}

/// One completed exchange.
pub struct Sample {
    pub kind: Kind,
    /// Index into the request list (queries) or the batch list (updates).
    pub index: usize,
    pub rtt: Duration,
    pub bytes: usize,
    pub reply: Reply,
    /// Graph versions the server may have answered a query at: from
    /// the updates acknowledged before it was sent to the updates sent
    /// before its reply arrived.
    pub versions: (usize, usize),
}

fn parse_reply(kind: Kind, id: usize, raw: &[u8]) -> Reply {
    let parsed =
        std::str::from_utf8(raw).map_err(|e| e.to_string()).and_then(crate::json::parse_reply);
    let (j, matches) = match parsed {
        Ok(p) => p,
        Err(e) => return Reply::Failed(format!("unparsable reply: {e}")),
    };
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Reply::Failed(format!("error reply: {j}"));
    }
    if j.get("id").and_then(Json::as_usize) != Some(id) {
        return Reply::Failed(format!("reply id mismatch: {j}"));
    }
    let num = |k: &str| j.get(k).and_then(Json::as_u64);
    match kind {
        Kind::Update => match (num("version"), num("nodes"), num("edges"), num("update_us")) {
            (Some(version), Some(nodes), Some(edges), Some(update_us)) => {
                Reply::Update { version, nodes: nodes as usize, edges: edges as usize, update_us }
            }
            _ => Reply::Failed(format!("malformed update reply: {j}")),
        },
        Kind::Query => {
            match (matches, num("elapsed_us"), j.get("truncated").and_then(Json::as_bool)) {
                (Some(matches), Some(elapsed_us), Some(truncated)) => Reply::Matches {
                    elapsed_us,
                    truncated,
                    plan_from_cache: j.get("plan_from_cache").and_then(Json::as_bool),
                    matches,
                },
                _ => Reply::Failed(format!("malformed query reply: {j}")),
            }
        }
    }
}

fn exchange(
    conn: &mut Conn,
    kind: Kind,
    index: usize,
    line: &str,
    versions: (usize, usize),
) -> Sample {
    match conn.call(line) {
        Ok((raw, rtt)) => {
            // Parsed after the clock stopped: client decode is not part
            // of the round trip, and the check itself runs after the
            // window.
            let reply = parse_reply(kind, index, &raw);
            Sample { kind, index, rtt, bytes: raw.len(), reply, versions }
        }
        Err(e) => Sample {
            kind,
            index,
            rtt: REPLY_TIMEOUT,
            bytes: 0,
            reply: Reply::Failed(format!("transport: {e}")),
            versions,
        },
    }
}

/// What the query window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    /// From the window's start to its last completed reply.
    pub wall: Duration,
}

/// Drives the query window: `readers` connections pull the next request
/// off the shared list until `seconds` have passed; with `updates`, one
/// more connection sends those batches back to back over the same span.
/// A request in flight at the deadline completes and counts.
pub fn run_window(
    addr: &str,
    requests: &[Request],
    updates: Option<&[Vec<GraphOp>]>,
    readers: usize,
    seconds: f64,
) -> Result<Window, String> {
    let next = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let acked = AtomicUsize::new(0);
    let mut conns: Vec<Conn> = (0..readers + usize::from(updates.is_some()))
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    type Timed = (Vec<(Instant, Sample)>, bool);
    let results: Vec<Timed> = std::thread::scope(|s| {
        let mut conns = conns.iter_mut();
        let mut handles = Vec::new();
        for _ in 0..readers {
            let conn = conns.next().expect("one connection per reader");
            let (next, sent, acked) = (&next, &sent, &acked);
            handles.push(s.spawn(move || {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = requests.get(i) else { return (local, true) };
                    let lo = acked.load(Ordering::SeqCst);
                    let mut sample = exchange(conn, Kind::Query, i, &req.line(i), (lo, lo));
                    sample.versions.1 = sent.load(Ordering::SeqCst);
                    local.push((Instant::now(), sample));
                }
                (local, false)
            }));
        }
        if let Some(batches) = updates {
            let conn = conns.next().expect("one connection for the writer");
            let (sent, acked) = (&sent, &acked);
            handles.push(s.spawn(move || {
                let mut local = Vec::new();
                for (k, batch) in batches.iter().enumerate() {
                    if Instant::now() >= deadline {
                        return (local, false);
                    }
                    sent.store(k + 1, Ordering::SeqCst);
                    let sample =
                        exchange(conn, Kind::Update, k, &update_line(k, batch), (k, k + 1));
                    acked.store(k + 1, Ordering::SeqCst);
                    local.push((Instant::now(), sample));
                }
                (local, true)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    if results.iter().any(|(_, exhausted)| *exhausted) {
        return Err("an input list ran out before the deadline; lengthen it".into());
    }
    let mut all: Vec<(Instant, Sample)> = results.into_iter().flat_map(|(s, _)| s).collect();
    let wall = all.iter().map(|(t, _)| *t).max().map_or(Duration::ZERO, |t| t - t0);
    all.sort_by_key(|(_, s)| (s.kind == Kind::Update, s.index));
    Ok(Window { samples: all.into_iter().map(|(_, s)| s).collect(), wall })
}

/// Sends `batches` one after another on a fresh connection: the write
/// probe of the workloads that do not write inside the window.
pub fn run_updates(addr: &str, batches: &[Vec<GraphOp>]) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::open(addr)?;
    Ok(batches
        .iter()
        .enumerate()
        .map(|(k, b)| exchange(&mut conn, Kind::Update, k, &update_line(k, b), (k, k + 1)))
        .collect())
}
