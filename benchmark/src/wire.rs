//! `wire_read` and `wire_write`: what a TCP client of the durable, sharded
//! serving engine sees, plus the read and write layer ladders.
//!
//! Both workloads share one set-up (bulk load → durable engine → a fixed
//! tail of commits → crash image) and one restart (recoveries of that image
//! before and after the window; the last one before it serves the run, so
//! the whole run checks the recovered state). They differ only in which
//! connection runs closed-loop and which is paced.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccix_core::{DiagOptions, MetablockTree, Op, Tuning};
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_interval::{
    IndexBuilder, Interval, IntervalIndex, IntervalOp, IntervalOptions, ShardedIntervalIndex,
};
use ccix_serve::{Client, DurabilityConfig, Engine, EngineConfig, Meta, Server};
use ccix_testkit::oracle;

use crate::env::{self, Ctx, Scratch};
use crate::gen::IntervalGen;
use crate::micro;
use crate::spec::{self, Report};
use crate::stats::{fastest, median, overhead_pct, Samples, Slices};
use crate::trace::{Tracer, ROOT};

/// Records per page: the `B` of the exact-I/O tables.
const B: usize = 32;
const SHARDS: usize = 2;
/// Server workers = client connections = cores of the reference box.
const WORKERS: usize = 2;
/// Stab points per read request and ops per write request. A single stab
/// round trip is scheduler-bound and bimodal on two cores (README.md); in a
/// batch of 64 the program, not the wake-up, is > 90 % of the time.
const BATCH: usize = 64;
const HALF: usize = BATCH / 2;
/// Set-up submits the tail this many commits deep.
const PIPELINE: usize = 4;
/// Recoveries of the crash image before the window (the last one serves
/// the run) and after it: a burst on the shared box lasts seconds, so one
/// group can be its victim but rarely both.
const RECOVERIES: usize = 3;
const RECOVERIES_AFTER: usize = 2;
/// Requests per second on the paced connection.
const PACED_PER_S: u32 = 50;
/// One read response in this many is checked for soundness.
const SOUNDNESS_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Read,
    Write,
}

struct Sizes {
    n: usize,
    tail_commits: usize,
    setups: usize,
    warmup: f64,
    /// Requests replayed down the ladder.
    ladder: usize,
    /// Read and write requests replayed on the twin for the exact counts.
    exact: usize,
    /// Batches of 64 stabs compared with the oracle once the writer is quiet.
    verify: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.quick {
        Sizes {
            n: 5_000,
            tail_commits: 20,
            setups: 1,
            warmup: 0.1,
            ladder: 20,
            exact: 16,
            verify: 4,
        }
    } else {
        Sizes {
            n: 200_000,
            tail_commits: 625,
            // setup_s is the median of three set-ups; a traced run does
            // not report it and sets up once.
            setups: if ctx.traced { 1 } else { 3 },
            warmup: 2.0,
            ladder: 200,
            exact: 1024,
            verify: 16,
        }
    }
}

fn meta() -> Meta {
    Meta::new(Geometry::new(B), IntervalOptions::default())
}

fn durable(dir: &Path) -> EngineConfig {
    EngineConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..EngineConfig::default()
    }
}

fn sharded_bulk(content: &[Interval]) -> ShardedIntervalIndex {
    let los: Vec<i64> = content.iter().map(|iv| iv.lo).collect();
    IndexBuilder::new(Geometry::new(B))
        .sharded()
        .splits_from_sample(&los, SHARDS)
        .bulk(content)
}

/// What set-up leaves behind.
struct Stage {
    /// The index the set-up engine handed back at shutdown: the served
    /// (recovered) engine's logical twin, kept in process for the exact
    /// counts and the ladder.
    twin: ShardedIntervalIndex,
    /// Generator state after the tail.
    gen: IntervalGen,
    tail: Vec<Vec<IntervalOp>>,
    /// Copy of the durable directory taken after the last ticket resolved.
    image: PathBuf,
}

fn set_up(sizes: &Sizes, gen0: &IntervalGen, scratch: &Scratch, round: usize) -> (Stage, f64) {
    let mut gen = gen0.clone();
    let tail: Vec<Vec<IntervalOp>> = (0..sizes.tail_commits)
        .map(|_| gen.write_batch(HALF))
        .collect();
    let dir = scratch.sub(format!("setup-{round}"));
    let image = scratch.sub(format!("image-{round}"));

    let t = Instant::now();
    let engine = Engine::try_start_sharded(sharded_bulk(&gen0.live), durable(&dir))
        .expect("start durable engine");
    let mut inflight = VecDeque::new();
    for ops in &tail {
        inflight.push_back(engine.submit(ops.clone()));
        if inflight.len() >= PIPELINE {
            inflight.pop_front().expect("non-empty").wait();
        }
    }
    inflight.into_iter().for_each(|ticket| {
        ticket.wait();
    });
    env::copy_dir(&dir, &image).expect("copy crash image");
    let twin = engine.shutdown_sharded();
    let secs = t.elapsed().as_secs_f64();
    let stage = Stage {
        twin,
        gen,
        tail,
        image,
    };
    (stage, secs)
}

/// Recover a fresh copy of the crash image; `None` when the recovered state
/// is not the acknowledged one.
fn recover(stage: &Stage, dir: &Path) -> (Option<Engine>, f64) {
    env::copy_dir(&stage.image, dir).expect("copy crash image");
    let t = Instant::now();
    let (engine, _report) =
        Engine::recover_sharded(meta(), &[], durable(dir)).expect("recover crash image");
    let secs = t.elapsed().as_secs_f64();
    let snap = engine.snapshot();
    let ok = snap.ops_applied() == (stage.tail.len() * BATCH) as u64
        && snap.len() == stage.gen.live.len();
    (ok.then_some(engine), secs)
}

// ---- answer checking --------------------------------------------------------

/// Every interval the generator ever issued, by id, with the time its
/// delete was acknowledged — what a read response is checked against while
/// the writer runs.
struct IdTable(Vec<Entry>);

#[derive(Clone, Copy)]
struct Entry {
    lo: i64,
    hi: i64,
    /// 0 while live; otherwise nanoseconds since the clock's origin.
    del_ack_ns: u64,
}

impl IdTable {
    fn new(gen: &IntervalGen) -> Self {
        // Ids below `next_id` that are not live were deleted long ago.
        let dead = Entry {
            lo: 0,
            hi: -1,
            del_ack_ns: 1,
        };
        let mut entries = vec![dead; gen.next_id() as usize];
        for iv in &gen.live {
            entries[iv.id as usize] = Entry {
                lo: iv.lo,
                hi: iv.hi,
                del_ack_ns: 0,
            };
        }
        Self(entries)
    }

    fn submitted(&mut self, ops: &[IntervalOp]) {
        for op in ops {
            if let IntervalOp::Insert(iv) = op {
                assert_eq!(iv.id as usize, self.0.len(), "ids are issued in order");
                self.0.push(Entry {
                    lo: iv.lo,
                    hi: iv.hi,
                    del_ack_ns: 0,
                });
            }
        }
    }

    fn acked(&mut self, ops: &[IntervalOp], now_ns: u64) {
        for op in ops {
            if let IntervalOp::Delete(iv) = op {
                self.0[iv.id as usize].del_ack_ns = now_ns;
            }
        }
    }

    /// Each reported id was inserted, contains its point, is reported once,
    /// and was not deleted-and-acknowledged before the request was sent.
    fn sound(&self, qs: &[i64], answers: &[Vec<u64>], sent_ns: u64) -> bool {
        qs.len() == answers.len()
            && qs.iter().zip(answers).all(|(&q, ids)| {
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
                    && ids.iter().all(|&id| {
                        self.0.get(id as usize).is_some_and(|e| {
                            e.lo <= q && q <= e.hi && (e.del_ack_ns == 0 || e.del_ack_ns >= sent_ns)
                        })
                    })
            })
    }
}

fn same_ids(mut got: Vec<u64>, mut want: Vec<u64>) -> bool {
    got.sort_unstable();
    want.sort_unstable();
    got == want
}

/// Order-insensitive digest of one batch answer, so rungs can be compared
/// without keeping ≈ 16 000 ids per request alive.
fn digest_ids(answers: &[Vec<u64>]) -> u64 {
    let mut h = env::Fnv::new();
    for ids in answers {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        h.eat(sorted.len() as u64);
        sorted.into_iter().for_each(|id| h.eat(id));
    }
    h.0
}

// ---- the two connections ------------------------------------------------------

#[derive(Clone, Copy)]
enum Pace {
    /// Next request as soon as the previous one completes.
    Closed,
    /// On a fixed schedule, each request timed from when it was due.
    Open,
}

struct Clock {
    origin: Instant,
    start: Instant,
    end: Instant,
    traced: bool,
}

impl Clock {
    /// Nanoseconds since the origin, kept clear of `Entry::del_ack_ns`'s
    /// 0 (live) and 1 (deleted before the run).
    fn ns(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.origin).as_nanos() as u64).max(2)
    }

    /// The 1 s slice a request completed in, if it ran inside the window.
    fn slice(&self, from: Instant, done: Instant) -> Option<usize> {
        (from >= self.start && done < self.end)
            .then(|| done.duration_since(self.start).as_secs() as usize)
    }

    /// Spans are recorded in odd slices only, so one traced run yields its
    /// own untraced baseline for `trace.overhead_pct`.
    fn spans_on(&self, slice: usize) -> bool {
        self.traced && slice % 2 == 1
    }
}

struct Pacer {
    pace: Pace,
    first: Instant,
    sent: u32,
}

impl Pacer {
    /// Wait for the next send time; returns the instant the request is
    /// timed from (its due time when paced).
    fn next(&mut self) -> Instant {
        match self.pace {
            Pace::Closed => Instant::now(),
            Pace::Open => {
                let due = self.first + Duration::from_secs(1) * self.sent / PACED_PER_S;
                self.sent += 1;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                due
            }
        }
    }
}

/// One connection's measurements.
struct Side {
    /// `(slice, latency ns)` of every request inside the window.
    samples: Vec<(usize, u64)>,
    /// When the first of them was due and the last one completed.
    span: Option<(Instant, Instant)>,
    /// How late the generator sent, per request (open loop).
    late: Samples,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

impl Side {
    fn new() -> Self {
        Self {
            samples: Vec::new(),
            span: None,
            late: Samples::default(),
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(),
        }
    }

    fn record(&mut self, clock: &Clock, name: &'static str, from: Instant, sent: Instant) {
        let done = Instant::now();
        if let Some(slice) = clock.slice(from, done) {
            self.samples.push((slice, (done - from).as_nanos() as u64));
            self.span = Some((self.span.map_or(from, |(first, _)| first), done));
            self.late.push((sent - from).as_nanos() as u64);
            if clock.spans_on(slice) {
                self.tracer.span(name, ROOT, sent, done);
            }
        }
    }

    fn latencies(&self, keep: impl Fn(usize) -> bool) -> Samples {
        let mut s = Samples::default();
        self.samples
            .iter()
            .filter(|(slice, _)| keep(*slice))
            .for_each(|&(_, ns)| s.push(ns));
        s
    }

    /// Operations acknowledged per second of the schedule: what a paced
    /// connection gets, whatever each request took, until the server falls
    /// behind the schedule.
    fn achieved_ops_per_s(&self) -> f64 {
        let (first, last) = self.span.expect("requests inside the window");
        (self.samples.len() * BATCH) as f64 / (last - first).as_secs_f64()
    }

    /// Per-slice summaries of the window's 1 s slices.
    fn slices(&self, slices: usize) -> Slices {
        let mut out = Slices::default();
        for k in 0..slices {
            out.close(&mut self.latencies(|slice| slice == k), BATCH);
        }
        out
    }
}

fn read_side(
    mut client: Client,
    mut gen: IntervalGen,
    pace: Pace,
    clock: &Clock,
    table: &Mutex<IdTable>,
) -> (Client, Side) {
    let mut side = Side::new();
    let mut pacer = Pacer {
        pace,
        first: Instant::now(),
        sent: 0,
    };
    while Instant::now() < clock.end {
        let qs = gen.stab_points(BATCH);
        let from = pacer.next();
        let sent = Instant::now();
        let reply = client.stab_batch(&qs);
        side.record(clock, "Client::stab_batch", from, sent);
        side.attempted += 1;
        let ok = match reply {
            Err(_) => false,
            Ok(answers) if side.attempted.is_multiple_of(SOUNDNESS_EVERY) => table
                .lock()
                .expect("id table")
                .sound(&qs, &answers, clock.ns(sent)),
            Ok(answers) => answers.len() == qs.len(),
        };
        side.failed += u64::from(!ok);
    }
    (client, side)
}

fn write_side(
    mut client: Client,
    mut gen: IntervalGen,
    pace: Pace,
    clock: &Clock,
    table: &Mutex<IdTable>,
) -> (Client, IntervalGen, Side) {
    let mut side = Side::new();
    let mut pacer = Pacer {
        pace,
        first: Instant::now(),
        sent: 0,
    };
    while Instant::now() < clock.end {
        let ops = gen.write_batch(HALF);
        table.lock().expect("id table").submitted(&ops);
        let from = pacer.next();
        let sent = Instant::now();
        let reply = client.apply(&ops);
        side.record(clock, "Client::apply", from, sent);
        side.attempted += 1;
        side.failed += u64::from(reply.is_err());
        table
            .lock()
            .expect("id table")
            .acked(&ops, clock.ns(Instant::now()));
    }
    (client, gen, side)
}

// ---- the workload ---------------------------------------------------------------

pub fn run(kind: Kind, ctx: &Ctx) -> Report {
    let name = match kind {
        Kind::Read => "wire_read",
        Kind::Write => "wire_write",
    };
    let mut report = Report::new(name, ctx.traced);
    env::describe(&mut report, ctx);
    let sizes = sizes(ctx);
    let scratch = Scratch::new(ctx, name);
    let mut tracer = Tracer::new();
    let gen0 = IntervalGen::new(ctx.seed, sizes.n);

    // Set-up, several times over; the last one's crash image is served.
    let (mut stage, mut setup_s) =
        env::repeated(sizes.setups, |round| set_up(&sizes, &gen0, &scratch, round));

    // Restart: recover the image a few times; serve the last recovery.
    let mut recover_s = Vec::new();
    let mut engine = None;
    for round in 0..RECOVERIES {
        drop(engine.take());
        let (e, secs) = recover(&stage, &scratch.sub(format!("serve-{round}")));
        recover_s.push(secs);
        report.check(e.is_some());
        engine = e;
    }
    let serve_dir = scratch.sub(format!("serve-{}", RECOVERIES - 1));
    let Some(engine) = engine else {
        // Nothing sound to serve; the failed check above marks the run.
        return report;
    };
    let server = Server::start(engine, "127.0.0.1:0", WORKERS).expect("start server");
    let mut reader = Client::connect(server.local_addr()).expect("connect reader");
    let mut writer = Client::connect(server.local_addr()).expect("connect writer");

    // A traced run replays the first requests of its own streams down the
    // layer ladder now, on a quiet server whose state still equals the twin's.
    let mut reader_gen = stage.gen.clone();
    let mut writer_gen = stage.gen.clone();
    if ctx.traced {
        match kind {
            Kind::Read => read_ladder(
                &mut report,
                &sizes,
                &mut reader,
                &mut reader_gen,
                &stage,
                &gen0,
                &mut tracer,
            ),
            Kind::Write => write_ladder(
                &mut report,
                &sizes,
                &mut writer,
                &mut writer_gen,
                &mut stage,
                &gen0,
                &scratch,
                &mut tracer,
            ),
        }
    }

    // Warm-up, then the measured window, both connections at once.
    let window = ctx.window();
    let slices = window.ceil() as usize;
    let origin = Instant::now();
    let start = origin + Duration::from_secs_f64(sizes.warmup);
    let clock = Clock {
        origin,
        start,
        end: start + Duration::from_secs_f64(window),
        traced: ctx.traced,
    };
    let table = Mutex::new(IdTable::new(&writer_gen));
    let (read_pace, write_pace) = match kind {
        Kind::Read => (Pace::Closed, Pace::Open),
        Kind::Write => (Pace::Open, Pace::Closed),
    };
    let (mut reads, mut writes, mut reader, gen_end) = std::thread::scope(|s| {
        let r = s.spawn(|| read_side(reader, reader_gen, read_pace, &clock, &table));
        let w = s.spawn(|| write_side(writer, writer_gen, write_pace, &clock, &table));
        let (reader, reads) = r.join().expect("reader thread");
        let (_writer, gen_end, writes) = w.join().expect("writer thread");
        (reads, writes, reader, gen_end)
    });
    report.attempted += reads.attempted + writes.attempted;
    report.failed += reads.failed + writes.failed;

    // The writer is quiet: stabs over TCP must now equal the oracle over the
    // generator's live set, and the server must hold exactly that many.
    let mut probe = gen_end.clone();
    for _ in 0..sizes.verify {
        let qs = probe.stab_points(BATCH);
        match reader.stab_batch(&qs) {
            Ok(answers) => {
                for (q, ids) in qs.iter().zip(answers) {
                    report.check(same_ids(ids, oracle::stabbing_ids(&gen_end.live, *q)));
                }
            }
            Err(_) => report.check(false),
        }
    }
    report.check(matches!(reader.epoch(), Ok((_, _, len)) if len == gen_end.live.len() as u64));
    drop(reader);
    // Dropping the engine with the server checkpoints and truncates the WAL.
    server.shutdown();
    let stored = env::dir_bytes(&serve_dir) as f64 / gen_end.live.len() as f64;
    // The same restart again, now that the box has had the window to change.
    for round in 0..RECOVERIES_AFTER {
        let (e, secs) = recover(&stage, &scratch.sub(format!("again-{round}")));
        recover_s.push(secs);
        report.check(e.is_some());
    }

    let (read_slices, write_slices) = (reads.slices(slices), writes.slices(slices));
    report.note("n", sizes.n);
    report.note("B", B);
    report.note("shards", SHARDS);
    report.note("server_workers", WORKERS);
    report.note("tail_ops", sizes.tail_commits * BATCH);
    report.note("read_requests", read_slices.requests);
    report.note("write_requests", write_slices.requests);
    report.note("slices", slices);
    report.note("read_series", read_slices.series());
    report.note("write_series", write_slices.series());
    report.note("paced_per_s", PACED_PER_S);

    let late = match kind {
        Kind::Read => &mut writes.late,
        Kind::Write => &mut reads.late,
    };
    report.set("gen.late_p99_us", late.p99_us());
    report.set("durable.stored_bytes_per_record", stored);
    report.set_timings(spec::READ, &read_slices);
    report.set_timings(spec::WRITE, &write_slices);
    match kind {
        Kind::Read => report.set("write_ops_per_s", writes.achieved_ops_per_s()),
        Kind::Write => report.set("read_ops_per_s", reads.achieved_ops_per_s()),
    }
    if ctx.traced {
        // Diagnostics of the window; spans were on in its odd slices.
        let closed = match kind {
            Kind::Read => &reads,
            Kind::Write => &writes,
        };
        let mut plain = closed.latencies(|s| s % 2 == 0);
        let mut traced = closed.latencies(|s| s % 2 == 1);
        report.set("trace.overhead_pct", overhead_pct(&mut plain, &mut traced));
        match kind {
            Kind::Read => report.set("client.write_trickle_p99_us", write_slices.p99_us()),
            Kind::Write => report.set("client.read_under_flood_p50_us", read_slices.p50_us()),
        }
        tracer.absorb(reads.tracer);
        tracer.absorb(writes.tracer);
        ctx.finish_traced(&mut report, &tracer);
    } else {
        report.set("setup_s", median(&mut setup_s));
        report.set("recover_s", fastest(&recover_s));
        exact_counts(&mut report, &sizes, &mut stage);
        report.set("rss_peak_mb", env::rss_peak_mb());
    }
    report
}

/// Billed page transfers per request and pages per record, counted on the
/// twin: the client cannot see the server's counters, and with one thread
/// and a fixed number of requests of the run's own streams the counts
/// repeat exactly for a seed.
fn exact_counts(report: &mut Report, sizes: &Sizes, stage: &mut Stage) {
    let mut gen = stage.gen.clone();
    let twin = &mut stage.twin;
    let mut outs = Vec::new();
    let before = twin.io_totals().total();
    for _ in 0..sizes.exact {
        twin.stab_batch_into(&gen.stab_points(BATCH), &mut outs);
    }
    let after_reads = twin.io_totals().total();
    for _ in 0..sizes.exact {
        twin.apply_batch(&gen.write_batch(HALF));
    }
    let after_writes = twin.io_totals().total();
    report.set(
        "io_per_read",
        (after_reads - before) as f64 / sizes.exact as f64,
    );
    report.set(
        "io_per_write",
        (after_writes - after_reads) as f64 / sizes.exact as f64,
    );
    report.set(
        "pages_per_krecord",
        1000.0 * twin.space_pages() as f64 / twin.len() as f64,
    );
    report.note("exact_requests", sizes.exact);
}

// ---- layer ladders --------------------------------------------------------------
//
// The same requests on the same data at each successively lower public
// surface, before the window opens, while the served engine's state still
// equals the twin's. Every rung must return the same ids; a layer's self
// time is its rung's p50 minus the p50 of the rung below, so self times
// telescope to the top rung.

/// Rungs timed side by side: request `k` runs on every rung before request
/// `k + 1` runs on any, so a slow second on a shared box slows them alike.
struct Rungs {
    names: &'static [&'static str],
    parents: Vec<u32>,
    lat: Vec<Samples>,
}

impl Rungs {
    fn open(tracer: &mut Tracer, names: &'static [&'static str]) -> Self {
        Self {
            names,
            parents: names.iter().map(|name| tracer.open(name, ROOT)).collect(),
            lat: names.iter().map(|_| Samples::default()).collect(),
        }
    }

    fn time<T>(&mut self, tracer: &mut Tracer, rung: usize, call: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = call();
        let done = Instant::now();
        self.lat[rung].push((done - t).as_nanos() as u64);
        tracer.span(self.names[rung], self.parents[rung], t, done);
        out
    }

    /// The p50 of every rung, in µs.
    fn close(mut self, tracer: &mut Tracer) -> Vec<f64> {
        self.parents.iter().for_each(|&p| tracer.close(p));
        self.lat.iter_mut().map(Samples::p50_us).collect()
    }
}

fn point(iv: &Interval) -> Point {
    Point::new(iv.lo, iv.hi, iv.id)
}

fn core_ops(ops: &[IntervalOp]) -> Vec<Op> {
    ops.iter()
        .map(|op| match op {
            IntervalOp::Insert(iv) => Op::Insert(point(iv)),
            IntervalOp::Delete(iv) => Op::Delete(point(iv)),
        })
        .collect()
}

/// The unsharded index and the bare metablock tree, grown through the same
/// history as the served engine: bulk load, then the tail commit by commit.
fn lower_structures(stage: &Stage, gen0: &IntervalGen) -> (IntervalIndex, MetablockTree) {
    let mut unsharded = IndexBuilder::new(Geometry::new(B)).bulk(IoCounter::new(), &gen0.live);
    let mut tree = MetablockTree::build_tuned(
        Geometry::new(B),
        IoCounter::new(),
        gen0.live.iter().map(point).collect(),
        DiagOptions::default(),
        Tuning::default(),
    );
    for commit in &stage.tail {
        unsharded.apply_batch(commit);
        tree.apply_batch(&core_ops(commit));
    }
    (unsharded, tree)
}

const READ_RUNGS: [&str; 5] = [
    "Client::stab_batch",
    "Snapshot::stab_batch_into",
    "ShardedIntervalIndex::stab_batch_into",
    "IntervalIndex::stab_batch_into",
    "MetablockTree::query_batch_into",
];

fn read_ladder(
    report: &mut Report,
    sizes: &Sizes,
    client: &mut Client,
    gen: &mut IntervalGen,
    stage: &Stage,
    gen0: &IntervalGen,
    tracer: &mut Tracer,
) {
    let requests: Vec<Vec<i64>> = (0..sizes.ladder).map(|_| gen.stab_points(BATCH)).collect();
    let stabs = (requests.len() * BATCH) as f64;
    let (unsharded, tree) = lower_structures(stage, gen0);
    // An engine of its own on a fork of the twin: reads never copy a page.
    let engine = Engine::start_sharded(
        stage.twin.fork_snapshot(IoCounter::new()),
        EngineConfig::default(),
    );
    let serve_io = engine.snapshot().counter().total();
    let interval_io = unsharded.counter().total();
    let core_io = tree.counter().reads();

    let mut rungs = Rungs::open(tracer, &READ_RUNGS);
    let mut outs: Vec<Vec<u64>> = Vec::new();
    let mut points: Vec<Vec<Point>> = Vec::new();
    let (mut ok, mut same, mut ids) = (true, true, 0usize);
    for qs in &requests {
        let Ok(answers) = rungs.time(tracer, 0, || client.stab_batch(qs)) else {
            ok = false;
            continue;
        };
        ids += answers.iter().map(Vec::len).sum::<usize>();
        let want = digest_ids(&answers);
        rungs.time(tracer, 1, || {
            engine.snapshot().stab_batch_into(qs, &mut outs)
        });
        same &= digest_ids(&outs) == want;
        rungs.time(tracer, 2, || stage.twin.stab_batch_into(qs, &mut outs));
        same &= digest_ids(&outs) == want;
        rungs.time(tracer, 3, || unsharded.stab_batch_into(qs, &mut outs));
        same &= digest_ids(&outs) == want;
        rungs.time(tracer, 4, || tree.query_batch_into(qs, &mut points));
        outs.clear();
        outs.extend(points.iter().map(|ps| ps.iter().map(|p| p.id).collect()));
        same &= digest_ids(&outs) == want;
    }
    let p50 = rungs.close(tracer);
    report.check(ok);
    report.check(same);
    let serve_io = (engine.snapshot().counter().total() - serve_io) as f64 / stabs;
    let interval_io = (unsharded.counter().total() - interval_io) as f64 / stabs;
    let pages_per_request = (tree.counter().reads() - core_io) as f64 / requests.len() as f64;

    // Diagnostics only: both are scheduler-bound on two cores.
    const EXTRA: [&str; 3] = ["Client::stab", "Client::ping", "Engine::snapshot"];
    let mut extra = Rungs::open(tracer, &EXTRA);
    for q in requests.iter().flatten().take(500) {
        ok &= extra.time(tracer, 0, || client.stab(*q)).is_ok();
    }
    for _ in 0..2000 {
        ok &= extra.time(tracer, 1, || client.ping()).is_ok();
        std::hint::black_box(extra.time(tracer, 2, || engine.snapshot()));
    }
    let extra = extra.close(tracer);
    report.check(ok);
    drop(engine);

    let costs = micro::model_store(report, B, stage.twin.space_pages());
    let store = pages_per_request * costs.read_page_ns / 1e3;
    // Frame header and status, then a count and 8 bytes an id per point.
    let frames = requests.len();
    report.set(
        "net.resp_bytes_per_stab",
        (5 * frames + 4 * frames * BATCH + 8 * ids) as f64 / stabs,
    );
    report.set("net.stab_single_rtt_p50_us", extra[0]);
    report.set("net.ping_rtt_p50_us", extra[1]);
    report.set("serve.snapshot_ns", extra[2] * 1e3);
    report.set("net.stab_batch_self_us", p50[0] - p50[1]);
    report.set("serve.stab_batch_self_us", p50[1] - p50[2]);
    report.set("serve.io_per_stab", serve_io);
    report.set("interval.sharded_self_us", p50[2] - p50[3]);
    report.set("interval.stab_self_us", p50[3] - p50[4]);
    report.set("interval.io_per_stab", interval_io);
    report.set("core.diag.query_batch_us", p50[4]);
    report.set("core.diag.self_us", p50[4] - store);
    report.set("core.diag.io_per_query", pages_per_request / BATCH as f64);
    report.note("ladder_requests", requests.len());
    report.note("ladder_rung_p50_us", format!("{p50:?}"));
    report.note("ladder_bottom_us", store);
}

const ENGINE_RUNGS: [&str; 3] = [
    "Client::apply",
    "Engine::submit.wait (durable)",
    "Engine::submit.wait (volatile)",
];
const INDEX_RUNGS: [&str; 3] = [
    "ShardedIntervalIndex::apply_batch",
    "IntervalIndex::apply_batch",
    "MetablockTree::apply_batch",
];

#[allow(clippy::too_many_arguments)]
fn write_ladder(
    report: &mut Report,
    sizes: &Sizes,
    client: &mut Client,
    gen: &mut IntervalGen,
    stage: &mut Stage,
    gen0: &IntervalGen,
    scratch: &Scratch,
    tracer: &mut Tracer,
) {
    let requests: Vec<Vec<IntervalOp>> = (0..sizes.ladder).map(|_| gen.write_batch(HALF)).collect();
    let ops = (requests.len() * BATCH) as f64;
    let (mut unsharded, mut tree) = lower_structures(stage, gen0);

    // What every rung must hold afterwards, and where to look.
    let mut after = gen.clone();
    let probes = after.stab_points(BATCH);
    let want: Vec<Vec<u64>> = probes
        .iter()
        .map(|q| oracle::stabbing_ids(&after.live, *q))
        .collect();
    let holds = |report: &mut Report, got: Vec<Vec<u64>>| {
        for (ids, want) in got.into_iter().zip(&want) {
            report.check(same_ids(ids, want.clone()));
        }
    };

    // Client::apply and Engine::submit().wait(), durable then volatile, each
    // engine on a fork of the twin: an engine republishes after every
    // commit, so its live index always shares its pages with an epoch,
    // exactly as a fork does.
    let fork = |twin: &ShardedIntervalIndex| twin.fork_snapshot(IoCounter::new());
    let durable_engine =
        Engine::try_start_sharded(fork(&stage.twin), durable(&scratch.sub("ladder-durable")))
            .expect("start ladder engine");
    let volatile_engine = Engine::start_sharded(fork(&stage.twin), EngineConfig::default());
    let mut rungs = Rungs::open(tracer, &ENGINE_RUNGS);
    let mut ok = true;
    for request in &requests {
        ok &= rungs.time(tracer, 0, || client.apply(request)).is_ok();
        rungs.time(tracer, 1, || durable_engine.submit(request.clone()).wait());
        rungs.time(tracer, 2, || volatile_engine.submit(request.clone()).wait());
    }
    let engines = rungs.close(tracer);
    report.check(ok);
    holds(report, durable_engine.snapshot().stab_batch(&probes));
    holds(report, volatile_engine.snapshot().stab_batch(&probes));
    let debt = volatile_engine.reorg_debt();
    // The forks must be gone before the twin is written to, or the twin
    // would pay their copy-on-write.
    drop((durable_engine, volatile_engine));

    let interval_io = unsharded.counter().total();
    let core_io = tree.counter().snapshot();
    let mut rungs = Rungs::open(tracer, &INDEX_RUNGS);
    for request in &requests {
        rungs.time(tracer, 0, || stage.twin.apply_batch(request));
        rungs.time(tracer, 1, || unsharded.apply_batch(request));
        rungs.time(tracer, 2, || tree.apply_batch(&core_ops(request)));
    }
    let indexes = rungs.close(tracer);
    let interval_io = (unsharded.counter().total() - interval_io) as f64 / ops;
    let billed = tree.counter().since(core_io);
    holds(report, stage.twin.stab_batch(&probes));
    holds(report, unsharded.stab_batch(&probes));
    holds(
        report,
        tree.query_batch(&probes)
            .into_iter()
            .map(|ps| ps.into_iter().map(|p| p.id).collect())
            .collect(),
    );

    // Single inserts and deletes, on the next requests of the same
    // (stationary) stream.
    let (mut insert, mut delete) = (Samples::default(), Samples::default());
    let (mut insert_io, mut delete_io) = (0u64, 0u64);
    for _ in 0..requests.len() {
        for op in core_ops(&after.write_batch(HALF)) {
            let io = tree.counter().total();
            let t = Instant::now();
            match op {
                Op::Insert(p) => tree.insert(p),
                Op::Delete(p) => tree.delete(p),
            }
            let ns = t.elapsed().as_nanos() as u64;
            let (lat, billed) = match op {
                Op::Insert(_) => (&mut insert, &mut insert_io),
                Op::Delete(_) => (&mut delete, &mut delete_io),
            };
            lat.push(ns);
            *billed += tree.counter().total() - io;
        }
    }
    let halves = (requests.len() * HALF) as f64;

    let costs = micro::model_store(report, B, stage.twin.space_pages());
    let per_request = |n: u64| n as f64 / requests.len() as f64;
    let store = (per_request(billed.reads) * costs.read_page_ns
        + per_request(billed.writes) * costs.write_page_ns)
        / 1e3;
    micro::durable_store(
        report,
        &scratch.sub("ladder-store"),
        &stage.image,
        meta(),
        &after.live,
        &requests,
    );

    report.set("net.apply_self_us", engines[0] - engines[1]);
    report.set("serve.commit_durable_p50_us", engines[1]);
    report.set("serve.commit_volatile_p50_us", engines[2]);
    report.set("durable.commit_self_us", engines[1] - engines[2]);
    report.set("serve.commit_self_us", engines[2] - indexes[0]);
    report.set("serve.reorg_debt_end", debt as f64);
    report.set("interval.sharded_self_us", indexes[0] - indexes[1]);
    report.set("interval.apply_self_us", indexes[1] - indexes[2]);
    report.set("interval.io_per_apply_op", interval_io);
    report.set("core.diag.self_us", indexes[2] - store);
    report.set("core.diag.insert_us", insert.p50_us());
    report.set("core.diag.delete_us", delete.p50_us());
    report.set(
        "core.diag.worst_op_ms",
        insert.max_ms().max(delete.max_ms()),
    );
    report.set("core.diag.io_per_insert", insert_io as f64 / halves);
    report.set("core.diag.io_per_delete", delete_io as f64 / halves);
    report.note("ladder_requests", requests.len());
    report.note("ladder_rung_p50_us", format!("{engines:?} {indexes:?}"));
    report.note("ladder_bottom_us", store);
}
