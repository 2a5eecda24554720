//! Direct calls into the lowest public surfaces — `TypedStore` on both
//! backends and `DurableStore` — timed beside the ladders. A ladder's
//! bottom rung is "pages billed × the per-page cost measured here".

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ccix_durable::{DurabilityConfig, DurableStore, Meta};
use ccix_extmem::{BackendSpec, FileConfig, IoCounter, PageId, Point, TypedStore};
use ccix_interval::{Interval, IntervalOp};

use crate::spec::Report;
use crate::stats::Samples;

/// Visit `0..n` in a scattered but fixed order.
fn scattered(n: usize) -> impl Iterator<Item = usize> {
    // Any stride coprime with n visits every index once.
    let mut stride = 7919 % n.max(1);
    while stride == 0 || gcd(stride, n) != 1 {
        stride += 1;
    }
    (0..n).map(move |i| (i * stride) % n)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn page(records: usize) -> Vec<Point> {
    (0..records as i64)
        .map(|i| Point::new(i, i, i as u64))
        .collect()
}

fn per_call_ns(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Per-page costs of the in-memory model store.
pub struct ModelCosts {
    pub read_page_ns: f64,
    pub write_page_ns: f64,
}

/// `TypedStore` on the model backend: `b` records a page, `pages` pages
/// (sized like the index the ladder ran on, so `fork` copies as many page
/// handles as an epoch publication does).
pub fn model_store(report: &mut Report, b: usize, pages: usize) -> ModelCosts {
    let mut store: TypedStore<Point> = TypedStore::new(b, IoCounter::new());
    // One record short of full, so the copy-on-write append below fits.
    let ids: Vec<PageId> = (0..pages).map(|_| store.alloc(page(b - 1))).collect();

    let t = Instant::now();
    for i in scattered(pages) {
        black_box(store.read(ids[i]));
    }
    let read_page_ns = per_call_ns(t, pages);

    let t = Instant::now();
    for i in scattered(pages) {
        store.write(ids[i], page(b - 1));
    }
    let write_page_ns = per_call_ns(t, pages);

    let mut forks = Samples::default();
    for _ in 0..15 {
        let t = Instant::now();
        black_box(store.fork(IoCounter::new()));
        forks.push(t.elapsed().as_nanos() as u64);
    }

    // The first in-place mutation of a page shared with a live fork copies
    // the page: what every buffer append pays once per epoch.
    let epoch = store.fork(IoCounter::new());
    let t = Instant::now();
    for i in scattered(pages) {
        store.append(ids[i], Point::new(0, 0, 0));
    }
    let cow_write_page_ns = per_call_ns(t, pages);
    drop(epoch);

    report.set("extmem.read_page_ns", read_page_ns);
    report.set("extmem.write_page_ns", write_page_ns);
    report.set("extmem.cow_write_page_ns", cow_write_page_ns);
    report.set("extmem.fork_us", forks.p50_us());
    ModelCosts {
        read_page_ns,
        write_page_ns,
    }
}

/// `TypedStore::new_on` a file backend with `cache` cached pages of `pages`.
pub fn file_store(report: &mut Report, dir: &Path, b: usize, pages: usize, cache: usize) {
    let spec = BackendSpec::File(FileConfig::new(dir).cache_pages(cache));
    let mut store: TypedStore<Point> = TypedStore::new_on(&spec, b, IoCounter::new());
    let ids: Vec<PageId> = (0..pages).map(|_| store.alloc(page(b))).collect();

    // Far more pages than cache slots, scattered: every read is a pread.
    store.clear_file_cache();
    let t = Instant::now();
    for i in scattered(pages) {
        black_box(store.read(ids[i]));
    }
    report.set("extmem.file_cold_read_us", per_call_ns(t, pages) / 1e3);

    // A set that fits the cache, read over and over: every read is a hit.
    let hot = (cache / 2).max(1);
    for id in &ids[..hot] {
        black_box(store.read(*id));
    }
    let t = Instant::now();
    for round in 0..pages {
        black_box(store.read(ids[round % hot]));
    }
    report.set("extmem.file_warm_read_ns", per_call_ns(t, pages));

    let t = Instant::now();
    for i in scattered(pages) {
        store.write(ids[i], page(b));
    }
    report.set("extmem.file_write_us", per_call_ns(t, pages) / 1e3);
}

/// `DurableStore` timed directly: append and fsync per commit, WAL bytes
/// per op, one checkpoint of `live`, then `open` + `rebuild_sharded` of the
/// crash `image`.
pub fn durable_store(
    report: &mut Report,
    dir: &Path,
    image: &Path,
    meta: Meta,
    live: &[Interval],
    commits: &[Vec<IntervalOp>],
) {
    let config = DurabilityConfig::new(dir);
    let mut store =
        DurableStore::create(&config, meta, &[], &[]).expect("create durable directory");
    let (mut append, mut sync) = (Samples::default(), Samples::default());
    let mut ops = 0usize;
    for commit in commits {
        let t = Instant::now();
        store.append_commit(commit).expect("append commit");
        append.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        store.sync().expect("fsync WAL");
        sync.push(t.elapsed().as_nanos() as u64);
        ops += commit.len();
    }
    report.set("durable.append_us", append.p50_us());
    report.set("durable.sync_us", sync.p50_us());
    report.set(
        "durable.wal_bytes_per_op",
        store.wal_bytes() as f64 / ops.max(1) as f64,
    );

    let t = Instant::now();
    store.checkpoint(meta, &[], live).expect("checkpoint");
    report.set("durable.checkpoint_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let (_store, recovered) =
        DurableStore::open(&DurabilityConfig::new(image)).expect("open crash image");
    report.set("durable.open_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box(recovered.rebuild_sharded(meta, &[]));
    report.set("durable.rebuild_s", t.elapsed().as_secs_f64());
}
