//! `file_mixed`: the interval index on the file backend, far larger than
//! its page cache, under single stabs, inserts and deletes — the only
//! workload where `extmem`'s pread/pwrite/encode/LRU path does most of the
//! work (served snapshots are model-backed and never touch it).

use std::path::Path;
use std::time::Instant;

use ccix_extmem::{BackendSpec, FileConfig, Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalIndex};
use ccix_testkit::oracle;

use crate::env::{self, Ctx, Scratch};
use crate::gen::{Call, IntervalGen};
use crate::inproc::{drive, Library, Plan};
use crate::micro;
use crate::spec::Report;
use crate::stats::{fastest, median};
use crate::trace::Tracer;

/// One 4 KiB slot per page; the other workloads keep the `B = 32` of the
/// exact-I/O tables.
const B: usize = 128;
/// Cached pages, of ≈ 5 100 at n = 200 000.
const CACHE_PAGES: usize = 64;
/// setup_s is the median of this many bulk loads (≈ 70 ms each, most of it
/// the kernel taking 20 MB of page writes, so a few more than elsewhere).
const BUILDS: usize = 7;
/// recover_s is the fastest of this many, spread over the window.
const REBUILDS: usize = 7;

struct FileIndex<'a> {
    gen: IntervalGen,
    index: IntervalIndex,
    scratch: &'a Scratch,
    rebuilds: usize,
}

impl Library for FileIndex<'_> {
    type Record = Interval;
    type Query = i64;
    const CALLS: [&'static str; 3] = [
        "IntervalIndex::stabbing",
        "IntervalIndex::insert",
        "IntervalIndex::delete",
    ];

    fn next(&mut self) -> Call<Interval, i64> {
        self.gen.call()
    }
    fn read(&mut self, q: i64) -> Vec<u64> {
        self.index.stabbing(q)
    }
    fn insert(&mut self, iv: Interval) {
        self.index.insert(iv.lo, iv.hi, iv.id);
    }
    fn delete(&mut self, iv: Interval) {
        self.index.delete(iv.lo, iv.hi, iv.id);
    }
    /// No reopen path exists above `TypedStore`, so after a restart a caller
    /// bulk-loads the live records again: that is its recovery.
    fn rebuild(&mut self) -> f64 {
        self.rebuilds += 1;
        let dir = self.scratch.sub(format!("again-{}", self.rebuilds));
        build(on_file(&dir), &self.gen.live).1
    }
    fn expected(&self, q: i64) -> Vec<u64> {
        oracle::stabbing_ids(&self.gen.live, q)
    }
    fn io_total(&self) -> u64 {
        self.index.counter().total()
    }
    fn space_pages(&self) -> usize {
        self.index.space_pages()
    }
    fn live_records(&self) -> usize {
        self.gen.live.len()
    }
}

fn on_file(dir: &Path) -> BackendSpec {
    BackendSpec::File(FileConfig::new(dir).cache_pages(CACHE_PAGES))
}

/// Bulk-load `content` on `spec`, timed.
fn build(spec: BackendSpec, content: &[Interval]) -> (IntervalIndex, f64) {
    let t = Instant::now();
    let index = IndexBuilder::new(Geometry::new(B))
        .backend(spec)
        .bulk(IoCounter::new(), content);
    (index, t.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("file_mixed", ctx.traced);
    env::describe(&mut report, ctx);
    let n = if ctx.quick { 5_000 } else { 200_000 };
    let scratch = Scratch::new(ctx, "file_mixed");
    let mut tracer = Tracer::new();
    let gen = IntervalGen::new(ctx.seed, n);

    let (index, mut setup_s) = env::repeated(BUILDS, |round| {
        build(on_file(&scratch.sub(format!("pages-{round}"))), &gen.live)
    });
    let pages_dir = scratch.sub(format!("pages-{}", BUILDS - 1));
    let mut lib = FileIndex {
        gen: gen.clone(),
        index,
        scratch: &scratch,
        rebuilds: 0,
    };

    let rebuilds = if ctx.traced { 0 } else { REBUILDS };
    let plan = Plan::new(ctx.quick, Some(ctx.window()), rebuilds, ctx.traced);
    let driven = drive(&mut lib, &plan, &mut tracer);
    report.attempted += driven.attempted;
    report.failed += driven.failed;
    report.check(lib.index.len() == lib.gen.live.len());
    let (cold, warm) = lib.index.file_stats().expect("file backed");
    let bytes_per_record = env::dir_bytes(&pages_dir) as f64 / lib.gen.live.len() as f64;

    report.note("n", n);
    report.note("B", B);
    report.note("cache_pages", CACHE_PAGES);
    report.note("pages", lib.index.space_pages());
    driven.note_counts(&mut report, &plan);
    driven.report_end_to_end(&mut report);

    let hit_ratio = warm as f64 / (cold + warm) as f64;
    report.set("extmem.file_warm_hit_ratio", hit_ratio);
    report.set("extmem.file_bytes_per_record", bytes_per_record);
    if ctx.traced {
        report.set("trace.overhead_pct", driven.trace_overhead_pct);
        report.set("interval.io_per_stab", driven.io_per_read);
        report.set("interval.io_per_apply_op", driven.io_per_write);
        report.set(
            "extmem.file_cold_reads_per_op",
            cold as f64 / driven.attempted as f64,
        );

        // Backend ladder: the same first calls of the same stream on a
        // fresh file-backed index and on a model-backed one; the file
        // backend's self time is the difference.
        let fixed = Plan::new(ctx.quick, None, 0, false);
        let mut rung = |spec: BackendSpec| {
            let mut lib = FileIndex {
                gen: gen.clone(),
                index: build(spec, &gen.live).0,
                scratch: &scratch,
                rebuilds: 0,
            };
            let driven = drive(&mut lib, &fixed, &mut Tracer::new());
            report.attempted += driven.attempted;
            report.failed += driven.failed;
            (driven.exact_us_per_op, driven.io_per_read)
        };
        let (file_us, file_io) = rung(on_file(&scratch.sub("ladder-pages")));
        let (model_us, model_io) = rung(BackendSpec::Model);
        // Both backends must bill the same transfers for the same calls.
        report.check(file_io == model_io && file_io == driven.io_per_read);
        report.set("extmem.backend_self_us_per_op", file_us - model_us);
        micro::model_store(&mut report, B, lib.index.space_pages());
        micro::file_store(&mut report, &scratch.sub("micro"), B, 4096, CACHE_PAGES);
        ctx.finish_traced(&mut report, &tracer);
    } else {
        report.set("setup_s", median(&mut setup_s));
        report.set("recover_s", fastest(&driven.rebuild_s));
        report.set("rss_peak_mb", env::rss_peak_mb());
    }
    report
}
