//! Wire-protocol roundtrips against a real server on a loopback socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use ccix_extmem::{Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalOp};
use ccix_serve::net::{
    ERR_BAD_FRAME, ERR_BAD_REQUEST, MAX_FRAME, OP_APPLY, OP_PING, STATUS_ERR, STATUS_OK,
};
use ccix_serve::{Client, Engine, EngineConfig, Server};

fn start_server(intervals: &[Interval]) -> ccix_serve::ServerHandle {
    let idx = IndexBuilder::new(Geometry::new(8)).bulk(IoCounter::new(), intervals);
    let engine = Engine::start(idx, EngineConfig::default());
    Server::start(engine, "127.0.0.1:0", 2).expect("bind loopback")
}

#[test]
fn queries_roundtrip() {
    let ivs: Vec<Interval> = (0..100)
        .map(|i| Interval::new(i * 7 % 300, i * 7 % 300 + 40, i as u64))
        .collect();
    let server = start_server(&ivs);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.ping().expect("ping");

    let expect = |q: i64| {
        let mut ids: Vec<u64> = ivs
            .iter()
            .filter(|iv| iv.lo <= q && q <= iv.hi)
            .map(|iv| iv.id)
            .collect();
        ids.sort_unstable();
        ids
    };
    for q in [-5, 0, 17, 150, 299, 400] {
        let mut got = client.stab(q).expect("stab");
        got.sort_unstable();
        assert_eq!(got, expect(q), "stab {q}");
    }

    let qs = [3i64, 90, 250];
    let batched = client.stab_batch(&qs).expect("stab_batch");
    assert_eq!(batched.len(), qs.len());
    for (q, mut got) in qs.iter().zip(batched) {
        got.sort_unstable();
        assert_eq!(got, expect(*q), "batched stab {q}");
    }

    let mut got = client.x_range(10, 60).expect("x_range");
    got.sort_unstable_by_key(|iv| (iv.lo, iv.id));
    let mut want: Vec<Interval> = ivs
        .iter()
        .filter(|iv| (10..=60).contains(&iv.lo))
        .copied()
        .collect();
    want.sort_unstable_by_key(|iv| (iv.lo, iv.id));
    assert_eq!(got, want);

    let (seq, ops, len) = client.epoch().expect("epoch");
    assert_eq!((seq, ops, len), (0, 0, 100));

    server.shutdown();
}

#[test]
fn apply_is_visible_across_connections() {
    let server = start_server(&[]);
    let mut writer = Client::connect(server.local_addr()).expect("connect writer");
    let mut reader = Client::connect(server.local_addr()).expect("connect reader");

    let info = writer
        .apply(&[
            IntervalOp::Insert(Interval::new(5, 15, 1)),
            IntervalOp::Insert(Interval::new(10, 20, 2)),
        ])
        .expect("apply");
    assert_eq!(info.ops_applied, 2);

    // The apply reply is the visibility point: a different connection must
    // immediately observe the write.
    let mut got = reader.stab(12).expect("stab");
    got.sort_unstable();
    assert_eq!(got, vec![1, 2]);

    let info = writer
        .apply(&[IntervalOp::Delete(Interval::new(5, 15, 1))])
        .expect("delete");
    assert_eq!(info.ops_applied, 3);
    assert_eq!(reader.stab(12).expect("stab"), vec![2]);

    let (_, ops, len) = reader.epoch().expect("epoch");
    assert_eq!((ops, len), (3, 1));

    server.shutdown();
}

// ---- hostile bytes on a raw socket -----------------------------------------
//
// Each case talks to the server through a bare `TcpStream`, so it can send
// what `Client` never would. A bad request gets a typed error frame and the
// stream keeps working; a broken stream costs only its own connection. After
// every case a fresh `Client` still gets the oracle's answers.

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect raw")
}

/// A `[len][body]` frame around `body`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Read one reply frame: `(status, payload)`.
fn reply(conn: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).expect("reply header");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    conn.read_exact(&mut body).expect("reply body");
    (body[0], body[1..].to_vec())
}

/// The reply is a typed error with `code` whose message contains `what`.
fn assert_error(conn: &mut TcpStream, code: u8, what: &str) {
    let (status, payload) = reply(conn);
    assert_eq!(status, STATUS_ERR);
    assert_eq!(payload[0], code, "error code");
    let msg = String::from_utf8_lossy(&payload[1..]);
    assert!(msg.contains(what), "message {msg:?} lacks {what:?}");
}

/// The stream still frames requests: a ping comes back ok.
fn assert_usable(conn: &mut TcpStream) {
    conn.write_all(&frame(&[OP_PING])).expect("ping");
    assert_eq!(reply(conn), (STATUS_OK, Vec::new()), "ping after error");
}

/// A fresh client sees exactly the oracle's content.
fn assert_oracle(addr: SocketAddr, ivs: &[Interval]) {
    let mut client = Client::connect(addr).expect("connect");
    for q in (-10..=360).step_by(10) {
        let mut got = client.stab(q).expect("stab");
        got.sort_unstable();
        let mut want: Vec<u64> = ivs
            .iter()
            .filter(|iv| iv.lo <= q && q <= iv.hi)
            .map(|iv| iv.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "stab {q}");
    }
    assert_eq!(client.epoch().expect("epoch").2, ivs.len() as u64);
}

fn apply_op(tag: u8, lo: i64, hi: i64, id: u64) -> Vec<u8> {
    let mut op = vec![tag];
    for word in [lo.to_le_bytes(), hi.to_le_bytes(), id.to_le_bytes()] {
        op.extend_from_slice(&word);
    }
    op
}

#[test]
fn hostile_frames_get_typed_errors_and_leave_the_server_serving() {
    let ivs: Vec<Interval> = (0..60)
        .map(|i| Interval::new(i * 5, i * 5 + 30, i as u64))
        .collect();
    let server = start_server(&ivs);
    let addr = server.local_addr();
    assert_oracle(addr, &ivs);

    // A zero-length frame: unframeable, nothing to discard.
    let mut conn = connect(addr);
    conn.write_all(&0u32.to_le_bytes()).unwrap();
    assert_error(&mut conn, ERR_BAD_FRAME, "bad frame length 0");
    assert_usable(&mut conn);
    drop(conn);
    assert_oracle(addr, &ivs);

    // An oversized frame: its declared payload is discarded from the
    // stream, never buffered, and the next frame parses.
    let mut conn = connect(addr);
    let len = MAX_FRAME + 1;
    conn.write_all(&len.to_le_bytes()).unwrap();
    let junk = vec![0xAB; 1 << 20];
    let mut left = len as usize;
    while left > 0 {
        let n = left.min(junk.len());
        conn.write_all(&junk[..n]).unwrap();
        left -= n;
    }
    assert_error(&mut conn, ERR_BAD_FRAME, &format!("bad frame length {len}"));
    assert_usable(&mut conn);
    drop(conn);
    assert_oracle(addr, &ivs);

    // An unknown opcode.
    let mut conn = connect(addr);
    conn.write_all(&frame(&[0xEE, 1, 2, 3])).unwrap();
    assert_error(&mut conn, ERR_BAD_REQUEST, "bad opcode 238");
    assert_usable(&mut conn);
    drop(conn);
    assert_oracle(addr, &ivs);

    // An inverted interval behind a valid op: the whole submission is
    // refused, nothing of it applied.
    let mut conn = connect(addr);
    let mut body = vec![OP_APPLY];
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&apply_op(0, 1, 2, 9_000));
    body.extend_from_slice(&apply_op(0, 10, 5, 9_001));
    conn.write_all(&frame(&body)).unwrap();
    assert_error(&mut conn, ERR_BAD_REQUEST, "inverted interval [10, 5]");
    assert_usable(&mut conn);
    drop(conn);
    assert_oracle(addr, &ivs);

    // A batch declaring u32::MAX ops and carrying none.
    let mut conn = connect(addr);
    let mut body = vec![OP_APPLY];
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    conn.write_all(&frame(&body)).unwrap();
    assert_error(&mut conn, ERR_BAD_REQUEST, "truncated payload");
    assert_usable(&mut conn);
    drop(conn);
    assert_oracle(addr, &ivs);

    // Mid-frame disconnects: a small frame cut short, and a frame
    // declaring the largest legal length that stops after a few bytes.
    // Each costs only its own connection.
    for declared in [100u32, MAX_FRAME] {
        let mut conn = connect(addr);
        conn.write_all(&declared.to_le_bytes()).unwrap();
        conn.write_all(&[OP_PING; 10]).unwrap();
        drop(conn);
        assert_oracle(addr, &ivs);
    }

    // The server still takes writes.
    let mut client = Client::connect(addr).expect("connect");
    let added = Interval::new(7, 8, 9_002);
    client.apply(&[IntervalOp::Insert(added)]).expect("apply");
    drop(client);
    let mut ivs = ivs;
    ivs.push(added);
    assert_oracle(addr, &ivs);
    server.shutdown();
}
