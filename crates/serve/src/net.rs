//! Std-only TCP front end over the [`Engine`].
//!
//! # Wire protocol
//!
//! Length-prefixed binary frames, all integers little-endian:
//!
//! ```text
//! request:  [len: u32][opcode: u8][payload: len-1 bytes]
//! response: [len: u32][status: u8][payload: len-1 bytes]
//! ```
//!
//! `status` is [`STATUS_OK`] or [`STATUS_ERR`]; an error payload is
//! `[code: u8][message: UTF-8]` with `code` one of the `ERR_*` constants,
//! so clients can distinguish a malformed frame ([`ERR_BAD_FRAME`]), a
//! well-framed but invalid request ([`ERR_BAD_REQUEST`]) and an engine
//! that is gone ([`ERR_UNAVAILABLE`]). Malformed and oversized requests
//! are answered with a typed error frame and the connection **stays
//! open** — one bad client request never tears down a connection that
//! may have pipelined good ones behind it. Oversized frames are
//! discarded from the stream without buffering them.
//! Opcodes and payloads:
//!
//! | opcode | request payload | ok payload |
//! |---|---|---|
//! | [`OP_STAB`] | `q: i64` | `count: u32`, then `count` × `id: u64` |
//! | [`OP_STAB_BATCH`] | `n: u32`, then `n` × `q: i64` | `n` × (`count: u32`, `count` × `id: u64`) |
//! | [`OP_XRANGE`] | `x1: i64, x2: i64` | `count: u32`, then `count` × (`lo: i64, hi: i64, id: u64`) |
//! | [`OP_APPLY`] | `n: u32`, then `n` × op (`tag: u8` 0=insert 1=delete, then `lo: i64, hi: i64, id: u64`) | `seq: u64, ops_applied: u64` |
//! | [`OP_EPOCH`] | empty | `seq: u64, ops_applied: u64, len: u64` |
//! | [`OP_PING`] | empty | empty |
//!
//! `OP_APPLY` replies only after its [`crate::CommitTicket`] resolves, so a
//! client that has seen the reply is guaranteed every later query (on any
//! connection) observes the write — the commit-visibility rule of the
//! engine carried over the wire.
//!
//! Each worker takes a [`Engine::snapshot`] per request, so a client
//! pipelining queries always reads a consistent epoch per request and
//! advances automatically as the writer publishes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use ccix_interval::{Interval, IntervalOp};

use crate::engine::{CommitInfo, Engine};

/// Stabbing query: ids of intervals containing a point.
pub const OP_STAB: u8 = 1;
/// Batched stabbing queries.
pub const OP_STAB_BATCH: u8 = 2;
/// Left-endpoint range report.
pub const OP_XRANGE: u8 = 3;
/// Submit a write batch; replies at commit visibility.
pub const OP_APPLY: u8 = 4;
/// Report the newest published epoch's coordinates.
pub const OP_EPOCH: u8 = 5;
/// Liveness check.
pub const OP_PING: u8 = 6;

/// Request handled successfully.
pub const STATUS_OK: u8 = 0;
/// Request failed; payload is `[code: u8][UTF-8 message]`.
pub const STATUS_ERR: u8 = 1;

/// Error code: unframeable request (zero-length or over [`MAX_FRAME`]).
pub const ERR_BAD_FRAME: u8 = 1;
/// Error code: well-framed request that does not decode or validate.
pub const ERR_BAD_REQUEST: u8 = 2;
/// Error code: the engine is gone (shut down, or dead after a fatal
/// durability error) — retrying on this connection cannot succeed.
pub const ERR_UNAVAILABLE: u8 = 3;

/// Largest accepted frame (sanity bound against corrupt length prefixes).
pub const MAX_FRAME: u32 = 64 << 20;

/// Wire size of one `OP_APPLY` op: tag, `lo`, `hi`, `id`.
const APPLY_OP_BYTES: usize = 1 + 3 * 8;

/// Receive-buffer room a frame read starts from. Past it (and past what
/// earlier frames left in the buffer) the buffer at most doubles what has
/// arrived, so a peer that declares a large frame and stalls pins this
/// much, not the declared length.
const READ_CHUNK: usize = 8 << 10;

/// A running server: one acceptor thread plus a fixed worker pool sharing
/// an [`Engine`]. Obtained from [`Server::start`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connections, so shutdown can unblock workers parked in reads.
    conns: Arc<Mutex<Vec<TcpStream>>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the workers, and join all threads. Open
    /// connections are closed after their in-flight request.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.stop.store(true, SeqCst);
        // The acceptor blocks in accept(); a throwaway local connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Unblock workers parked in a read on a still-open connection:
        // shutting the socket makes their read return EOF. Entries for
        // already-closed connections just error harmlessly.
        for conn in self.conns.lock().expect("conn registry lock").drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The TCP front end. See the module docs for the wire protocol.
pub struct Server;

impl Server {
    /// Bind `addr` and serve `engine` with `workers` handler threads.
    ///
    /// ```
    /// use ccix_extmem::{Geometry, IoCounter};
    /// use ccix_interval::{IndexBuilder, Interval, IntervalOp};
    /// use ccix_serve::{Client, Engine, EngineConfig, Server};
    ///
    /// let idx = IndexBuilder::new(Geometry::new(16)).open(IoCounter::new());
    /// let engine = Engine::start(idx, EngineConfig::default());
    /// let server = Server::start(engine, "127.0.0.1:0", 2).unwrap();
    /// let mut client = Client::connect(server.local_addr()).unwrap();
    /// client.apply(&[IntervalOp::Insert(Interval::new(1, 5, 7))]).unwrap();
    /// assert_eq!(client.stab(3).unwrap(), vec![7]);
    /// server.shutdown();
    /// ```
    pub fn start(
        engine: Engine,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> io::Result<ServerHandle> {
        assert!(workers > 0, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(engine);
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let worker_handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&conn_rx);
                let engine = Arc::clone(&engine);
                let conns = Arc::clone(&conns);
                std::thread::Builder::new()
                    .name(format!("ccix-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the recv itself.
                        let conn = match rx.lock().expect("conn queue lock").recv() {
                            Ok(c) => c,
                            Err(_) => return, // acceptor gone: drain done
                        };
                        // Register so shutdown can sever a parked read.
                        if let Ok(clone) = conn.try_clone() {
                            conns.lock().expect("conn registry lock").push(clone);
                        }
                        let _ = serve_connection(conn, &engine);
                    })
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("ccix-serve-acceptor".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(SeqCst) {
                            break;
                        }
                        if let Ok(conn) = conn {
                            // Workers exit only after this sender drops.
                            let _ = conn_tx.send(conn);
                        }
                    }
                })
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            addr,
            stop,
            conns,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }
}

/// Handle one connection until the peer closes it. Malformed or
/// oversized frames are answered with a typed error frame and the
/// connection keeps serving; only transport errors (and clean closes)
/// end the loop.
fn serve_connection(mut conn: TcpStream, engine: &Engine) -> io::Result<()> {
    conn.set_nodelay(true)?;
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    loop {
        match read_frame(&mut conn, &mut req)? {
            FrameRead::Closed => return Ok(()), // clean close between frames
            FrameRead::Frame => {
                start_frame(&mut resp, STATUS_OK);
                if let Err((code, msg)) = handle_request(&req, engine, &mut resp) {
                    error_frame(&mut resp, code, &msg);
                }
            }
            FrameRead::Unframeable(len) => {
                // The declared payload is discarded (never buffered), the
                // client gets a typed error, and the stream stays usable:
                // the length prefix told us exactly where the next frame
                // starts.
                discard_exact(&mut conn, len as u64)?;
                error_frame(
                    &mut resp,
                    ERR_BAD_FRAME,
                    &format!("bad frame length {len} (cap {MAX_FRAME})"),
                );
            }
        };
        finish_frame(&mut resp);
        conn.write_all(&resp)?;
    }
}

/// Dispatch one decoded request frame (`[opcode][payload]`), appending the
/// ok payload to `body` — the response frame under construction, so the
/// answer is encoded once, where it is sent from. Errors are `(ERR_* code,
/// message)` pairs for the typed error frame.
fn handle_request(req: &[u8], engine: &Engine, body: &mut Vec<u8>) -> Result<(), (u8, String)> {
    let bad = |msg: String| (ERR_BAD_REQUEST, msg);
    let (&opcode, payload) = req.split_first().ok_or_else(|| bad("empty frame".into()))?;
    let mut r = Reader(payload);
    match opcode {
        OP_STAB => {
            let q = r.i64().map_err(bad)?;
            r.done().map_err(bad)?;
            put_ids(body, &engine.snapshot().query(q));
        }
        OP_STAB_BATCH => {
            let n = r.u32().map_err(bad)? as usize;
            let qs: Vec<i64> = r.words(n).map_err(bad)?.map(i64::from_le_bytes).collect();
            r.done().map_err(bad)?;
            for ids in engine.snapshot().stab_batch(&qs) {
                put_ids(body, &ids);
            }
        }
        OP_XRANGE => {
            let (x1, x2) = (r.i64().map_err(bad)?, r.i64().map_err(bad)?);
            r.done().map_err(bad)?;
            let ivs = engine.snapshot().x_range(x1, x2);
            put_u32(body, ivs.len());
            for iv in ivs {
                body.extend_from_slice(&iv.lo.to_le_bytes());
                body.extend_from_slice(&iv.hi.to_le_bytes());
                body.extend_from_slice(&iv.id.to_le_bytes());
            }
        }
        OP_APPLY => {
            let n = r.u32().map_err(bad)? as usize;
            // Sized by what the frame can hold, not by what it declares: a
            // 9-byte frame claiming `u32::MAX` ops allocates nothing much.
            let mut ops = Vec::with_capacity(n.min(payload.len() / APPLY_OP_BYTES));
            for _ in 0..n {
                let tag = r.u8().map_err(bad)?;
                let (lo, hi) = (r.i64().map_err(bad)?, r.i64().map_err(bad)?);
                let id = r.u64().map_err(bad)?;
                // Validate before constructing: `Interval::new` panics on
                // inverted endpoints, and a hostile frame must not be able
                // to panic a worker.
                if hi < lo {
                    return Err(bad(format!("inverted interval [{lo}, {hi}]")));
                }
                let iv = Interval::new(lo, hi, id);
                ops.push(match tag {
                    0 => IntervalOp::Insert(iv),
                    1 => IntervalOp::Delete(iv),
                    t => return Err(bad(format!("bad op tag {t}"))),
                });
            }
            r.done().map_err(bad)?;
            // Reply only once the commit is visible to every snapshot
            // (and durable, when durability is on). A dead engine is a
            // typed error, not a worker panic.
            let unavailable = || (ERR_UNAVAILABLE, "engine is gone".to_string());
            let ticket = engine.submit_checked(ops).map_err(|_| unavailable())?;
            let info: CommitInfo = ticket.wait_result().ok_or_else(unavailable)?;
            body.extend_from_slice(&info.seq.to_le_bytes());
            body.extend_from_slice(&info.ops_applied.to_le_bytes());
        }
        OP_EPOCH => {
            r.done().map_err(bad)?;
            let snap = engine.snapshot();
            body.extend_from_slice(&snap.seq().to_le_bytes());
            body.extend_from_slice(&snap.ops_applied().to_le_bytes());
            body.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        }
        OP_PING => r.done().map_err(bad)?,
        op => return Err(bad(format!("bad opcode {op}"))),
    }
    Ok(())
}

/// Connection policy for [`Client::connect_with`].
#[derive(Clone, Copy, Debug)]
pub struct ConnectOpts {
    /// Total connect attempts (≥ 1). Transient failures — refused, reset,
    /// timed out — are retried with linear backoff; anything else fails
    /// immediately.
    pub attempts: u32,
    /// Backoff after the first failed attempt; attempt `k` waits
    /// `k × backoff`.
    pub backoff: std::time::Duration,
    /// Read timeout on the connected socket (`None` = block forever).
    /// A durable `apply` can legitimately wait for a group fsync, so the
    /// default leaves reads unbounded; set one when talking to servers
    /// that may silently die.
    pub read_timeout: Option<std::time::Duration>,
}

impl Default for ConnectOpts {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: std::time::Duration::from_millis(20),
            read_timeout: None,
        }
    }
}

/// Blocking client for the wire protocol. One request in flight at a time.
#[derive(Debug)]
pub struct Client {
    conn: TcpStream,
    buf: Vec<u8>,
}

fn transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
    )
}

impl Client {
    /// Connect to a [`Server`] with the default [`ConnectOpts`] (three
    /// attempts, 20 ms linear backoff, no read timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ConnectOpts::default())
    }

    /// Connect with explicit retry/backoff/timeout policy. Retries only
    /// transient connect failures (refused/reset/aborted/timed out), so a
    /// server still binding its listener doesn't cost the caller an
    /// error, while a hard failure (unreachable, permission) surfaces at
    /// once.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: ConnectOpts) -> io::Result<Self> {
        let attempts = opts.attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(opts.backoff * attempt);
            }
            match TcpStream::connect(&addr) {
                Ok(conn) => {
                    conn.set_nodelay(true)?;
                    conn.set_read_timeout(opts.read_timeout)?;
                    return Ok(Self {
                        conn,
                        buf: Vec::new(),
                    });
                }
                Err(e) if transient(e.kind()) && attempt + 1 < attempts => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("at least one attempt"))
    }

    /// One round trip. The request payload is whatever `fill` appends; the
    /// ok payload comes back as a cursor over the receive buffer, decoded
    /// where it landed.
    fn call(&mut self, opcode: u8, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Reader<'_>> {
        start_frame(&mut self.buf, opcode);
        fill(&mut self.buf);
        finish_frame(&mut self.buf);
        self.conn.write_all(&self.buf)?;
        match read_frame(&mut self.conn, &mut self.buf)? {
            FrameRead::Frame => {}
            FrameRead::Closed => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed connection",
                ))
            }
            FrameRead::Unframeable(len) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad reply frame length {len}"),
                ))
            }
        }
        match self.buf.split_first() {
            Some((&STATUS_OK, body)) => Ok(Reader(body)),
            Some((&STATUS_ERR, err)) => {
                let (code, msg) = match err.split_first() {
                    Some((&code, msg)) => (code, String::from_utf8_lossy(msg).into_owned()),
                    None => (0, "unspecified error".to_string()),
                };
                let kind = match code {
                    ERR_BAD_FRAME | ERR_BAD_REQUEST => io::ErrorKind::InvalidInput,
                    ERR_UNAVAILABLE => io::ErrorKind::ConnectionAborted,
                    _ => io::ErrorKind::Other,
                };
                Err(io::Error::new(kind, format!("server error {code}: {msg}")))
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame")),
        }
    }

    /// Ids of intervals containing `q`.
    pub fn stab(&mut self, q: i64) -> io::Result<Vec<u64>> {
        let mut r = self.call(OP_STAB, |p| p.extend_from_slice(&q.to_le_bytes()))?;
        decode_ids(&mut r).map_err(bad_reply)
    }

    /// Batched stabbing queries; answers in input order.
    pub fn stab_batch(&mut self, qs: &[i64]) -> io::Result<Vec<Vec<u64>>> {
        let mut r = self.call(OP_STAB_BATCH, |p| {
            put_u32(p, qs.len());
            put_words(p, qs.iter().map(|q| q.to_le_bytes()));
        })?;
        (0..qs.len())
            .map(|_| decode_ids(&mut r).map_err(bad_reply))
            .collect()
    }

    /// Intervals with left endpoint in `[x1, x2]`.
    pub fn x_range(&mut self, x1: i64, x2: i64) -> io::Result<Vec<Interval>> {
        let mut r = self.call(OP_XRANGE, |p| {
            p.extend_from_slice(&x1.to_le_bytes());
            p.extend_from_slice(&x2.to_le_bytes());
        })?;
        let n = r.u32().map_err(bad_reply)? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let (lo, hi) = (r.i64().map_err(bad_reply)?, r.i64().map_err(bad_reply)?);
            out.push(Interval::new(lo, hi, r.u64().map_err(bad_reply)?));
        }
        Ok(out)
    }

    /// Submit a write batch; returns once the commit is visible.
    pub fn apply(&mut self, ops: &[IntervalOp]) -> io::Result<CommitInfo> {
        let mut r = self.call(OP_APPLY, |p| {
            put_u32(p, ops.len());
            for op in ops {
                let (tag, iv) = match *op {
                    IntervalOp::Insert(iv) => (0, iv),
                    IntervalOp::Delete(iv) => (1, iv),
                };
                p.push(tag);
                p.extend_from_slice(&iv.lo.to_le_bytes());
                p.extend_from_slice(&iv.hi.to_le_bytes());
                p.extend_from_slice(&iv.id.to_le_bytes());
            }
        })?;
        Ok(CommitInfo {
            seq: r.u64().map_err(bad_reply)?,
            ops_applied: r.u64().map_err(bad_reply)?,
        })
    }

    /// `(seq, ops_applied, len)` of the newest published epoch.
    pub fn epoch(&mut self) -> io::Result<(u64, u64, u64)> {
        let mut r = self.call(OP_EPOCH, |_| {})?;
        Ok((
            r.u64().map_err(bad_reply)?,
            r.u64().map_err(bad_reply)?,
            r.u64().map_err(bad_reply)?,
        ))
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> io::Result<()> {
        self.call(OP_PING, |_| {}).map(|_| ())
    }
}

/// Outcome of reading one frame header + body.
enum FrameRead {
    /// A frame landed in `buf`.
    Frame,
    /// Peer closed cleanly before a new frame started.
    Closed,
    /// The header declared an unserviceable length (0 or over
    /// [`MAX_FRAME`]); the payload has **not** been consumed.
    Unframeable(u32),
}

/// Read one `[len: u32][body]` frame into `buf`.
fn read_frame(conn: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<FrameRead> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match conn.read(&mut len[got..])? {
            0 if got == 0 => return Ok(FrameRead::Closed),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated frame header",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Ok(FrameRead::Unframeable(len));
    }
    // Grow the buffer with the bytes that arrive, never ahead of them.
    let len = len as usize;
    buf.clear();
    let mut filled = 0;
    while filled < len {
        if filled == buf.len() {
            let room = (2 * filled).max(READ_CHUNK).max(buf.capacity());
            buf.resize(room.min(len), 0);
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame)
}

/// Consume and drop `n` bytes from the stream (an oversized frame's
/// payload) without ever buffering more than a small window.
fn discard_exact(conn: &mut TcpStream, mut n: u64) -> io::Result<()> {
    let mut sink = [0u8; 8192];
    while n > 0 {
        let want = sink.len().min(n as usize);
        match conn.read(&mut sink[..want])? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-discard",
                ))
            }
            m => n -= m as u64,
        }
    }
    Ok(())
}

/// Begin a `[len: u32][tag: u8][payload]` frame in `out` (reused across
/// frames): the length is patched in by [`finish_frame`] once the payload
/// has been appended in place.
fn start_frame(out: &mut Vec<u8>, tag: u8) {
    out.clear();
    out.extend_from_slice(&[0, 0, 0, 0, tag]);
}

fn finish_frame(out: &mut [u8]) {
    let len = u32::try_from(out.len() - 4).expect("frame length");
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// Replace whatever `out` holds with a typed error frame's content.
fn error_frame(out: &mut Vec<u8>, code: u8, msg: &str) {
    start_frame(out, STATUS_ERR);
    out.push(code);
    out.extend_from_slice(msg.as_bytes());
}

fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).expect("frame element count").to_le_bytes());
}

/// Append 8-byte words: one resize, then fixed-width copies.
fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; 8]>) {
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (dst, word) in out[start..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&word);
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[u64]) {
    put_u32(out, ids.len());
    put_words(out, ids.iter().map(|id| id.to_le_bytes()));
}

fn decode_ids(r: &mut Reader<'_>) -> Result<Vec<u64>, String> {
    let n = r.u32()? as usize;
    Ok(r.words(n)?.map(u64::from_le_bytes).collect())
}

fn bad_reply(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Cursor over a request/response payload.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.0.len() < n {
            return Err("truncated payload".into());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// The next `n` 8-byte words, bounds-checked once.
    fn words(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = [u8; 8]> + '_, String> {
        let bytes = n.checked_mul(8).ok_or("element count overflows")?;
        Ok(self
            .take(bytes)?
            .chunks_exact(8)
            .map(|w| w.try_into().expect("8-byte chunk")))
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err("trailing bytes in payload".into())
        }
    }
}
