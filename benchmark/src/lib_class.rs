//! `lib_class`: the paper's §4 stack — class → three-sided trees → PST →
//! B+-tree — as a library, under single range queries, inserts and
//! deletes. No serving workload touches these crates.

use std::hint::black_box;
use std::time::Instant;

use ccix_bptree::{BPlusTree, Entry};
use ccix_class::{ClassId, ClassIndex, IndexBuilder, Object, Strategy};
use ccix_constraint::{Atom, GeneralizedIndex, GeneralizedRelation, GeneralizedTuple, Rat};
use ccix_core::{ThreeSidedTree, Tuning};
use ccix_extmem::{Disk, Geometry, IoCounter, Point};
use ccix_pst::ExternalPst;
use ccix_testkit::oracle;

use crate::env::{self, Ctx};
use crate::gen::{Call, ClassGen};
use crate::inproc::{drive, Library, Plan};
use crate::spec::Report;
use crate::stats::{fastest, median, Samples};
use crate::trace::{Tracer, ROOT};

const B: usize = 32;
/// setup_s is the median of this many bulk loads (each takes about a
/// second, the first one more).
const BUILDS: usize = 5;
/// recover_s is the fastest of this many, spread over the window.
const REBUILDS: usize = 4;

struct RakeIndex {
    gen: ClassGen,
    index: Box<dyn ClassIndex>,
    /// The counter the index bills (the trait object does not expose it).
    counter: IoCounter,
}

impl Library for RakeIndex {
    type Record = Object;
    type Query = (ClassId, i64, i64);
    const CALLS: [&'static str; 3] = [
        "ClassIndex::query",
        "ClassIndex::insert",
        "ClassIndex::delete",
    ];

    fn next(&mut self) -> Call<Object, Self::Query> {
        self.gen.call()
    }
    fn read(&mut self, (class, a1, a2): Self::Query) -> Vec<u64> {
        self.index.query(class, a1, a2)
    }
    fn insert(&mut self, o: Object) {
        self.index.insert(o);
    }
    fn delete(&mut self, o: Object) {
        self.index.delete(o);
    }
    /// The class index has no persistent form: after a restart a caller
    /// bulk-loads the live objects again, and that is its recovery.
    fn rebuild(&mut self) -> f64 {
        build(&self.gen).1
    }
    fn expected(&self, (class, a1, a2): Self::Query) -> Vec<u64> {
        oracle::class_range_ids(&self.gen.hierarchy, &self.gen.live, class, a1, a2)
    }
    fn io_total(&self) -> u64 {
        self.counter.total()
    }
    fn space_pages(&self) -> usize {
        self.index.space_pages()
    }
    fn live_records(&self) -> usize {
        self.gen.live.len()
    }
}

/// Bulk-load the generator's live objects into a rake index, timed.
fn build(gen: &ClassGen) -> ((Box<dyn ClassIndex>, IoCounter), f64) {
    let counter = IoCounter::new();
    let t = Instant::now();
    let index = IndexBuilder::new(gen.hierarchy.clone(), Geometry::new(B))
        .strategy(Strategy::Rake)
        .bulk(counter.clone(), &gen.live);
    ((index, counter), t.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("lib_class", ctx.traced);
    env::describe(&mut report, ctx);
    // 200 000 objects take 7 s to load; 50 000 with a four times wider
    // query keep t ≈ 27 and let set-up run three times a run.
    let n = if ctx.quick { 5_000 } else { 50_000 };
    let mut tracer = Tracer::new();
    let gen = ClassGen::new(ctx.seed, n);

    let builds = if ctx.traced { 1 } else { BUILDS };
    let ((index, counter), mut setup_s) = env::repeated(builds, |_| build(&gen));
    let mut lib = RakeIndex {
        gen: gen.clone(),
        index,
        counter,
    };

    let rebuilds = if ctx.traced { 0 } else { REBUILDS };
    let plan = Plan::new(ctx.quick, Some(ctx.window()), rebuilds, ctx.traced);
    let driven = drive(&mut lib, &plan, &mut tracer);
    report.attempted += driven.attempted;
    report.failed += driven.failed;

    report.note("n", n);
    report.note("B", B);
    report.note("classes", ClassGen::CLASSES);
    report.note("query_width", gen.width);
    driven.note_counts(&mut report, &plan);
    driven.report_end_to_end(&mut report);

    if ctx.traced {
        report.set("trace.overhead_pct", driven.trace_overhead_pct);
        report.set("class.query_us", driven.reads().p50_us());
        report.set("class.insert_us", driven.inserts().p50_us());
        report.set("class.delete_us", driven.deletes().p50_us());
        report.set("class.io_per_query", driven.io_per_read);
        report.set("class.io_per_write", driven.io_per_write);
        report.set("class.build_s", median(&mut setup_s));
        lower_layers(
            &mut report,
            &gen,
            if ctx.quick { 100 } else { 2_000 },
            &mut tracer,
        );
        ctx.finish_traced(&mut report, &tracer);
    } else {
        report.set("setup_s", median(&mut setup_s));
        report.set("recover_s", fastest(&driven.rebuild_s));
        report.set("rss_peak_mb", env::rss_peak_mb());
    }
    report
}

/// `(p50 µs, billed transfers per call)` of `calls` timed calls.
fn per_call(
    tracer: &mut Tracer,
    name: &'static str,
    counter: &IoCounter,
    calls: usize,
    mut call: impl FnMut(usize),
) -> (f64, f64) {
    let mut lat = Samples::default();
    let io = counter.total();
    let parent = tracer.open(name, ROOT);
    for k in 0..calls {
        let t = Instant::now();
        call(k);
        let done = Instant::now();
        lat.push((done - t).as_nanos() as u64);
        tracer.span(name, parent, t, done);
    }
    tracer.close(parent);
    (lat.p50_us(), (counter.total() - io) as f64 / calls as f64)
}

/// Per-call costs of the structures under the rake index, over the same
/// objects projected to points `(attr, class label)`. These are not nested
/// rungs of `ClassIndex::query` (the rake index spreads its objects over
/// one three-sided tree per heavy path), so they are costs, not shares.
fn lower_layers(report: &mut Report, gen: &ClassGen, calls: usize, tracer: &mut Tracer) {
    let h = &gen.hierarchy;
    let point = |o: &Object| Point::new(o.attr, h.label(o.class), o.id);
    let points: Vec<Point> = gen.live.iter().map(point).collect();
    // (x1, x2, y0) with t ≈ 30, and fresh objects to insert.
    let mut stream = gen.clone();
    let mut queries = Vec::new();
    let mut fresh = Vec::new();
    while queries.len() < calls || fresh.len() < calls {
        match stream.call() {
            Call::Read((class, a, _)) => queries.push((a, a + gen.width / 16, h.label(class))),
            Call::Insert(o) => fresh.push(point(&o)),
            Call::Delete(_) => {}
        }
    }

    let counter = IoCounter::new();
    let mut tree = ThreeSidedTree::build_tuned(
        Geometry::new(B),
        counter.clone(),
        points.clone(),
        Tuning::default(),
    );
    let (us, io) = per_call(tracer, "ThreeSidedTree::query", &counter, calls, |k| {
        let (x1, x2, y0) = queries[k];
        let got = tree.query(x1, x2, y0);
        // Checked on a sample: the oracle scans every point.
        if k % 100 == 0 {
            let want = oracle::three_sided(&points, x1, x2, y0);
            report.check(got.len() == want.len());
        }
    });
    report.set("core.threesided.query_us", us);
    report.set("core.threesided.io_per_query", io);
    let (us, io) = per_call(tracer, "ThreeSidedTree::insert", &counter, calls, |k| {
        tree.insert(fresh[k]);
    });
    report.set("core.threesided.insert_us", us);
    report.set("core.threesided.io_per_insert", io);
    let (us, _) = per_call(tracer, "ThreeSidedTree::delete", &counter, calls, |k| {
        tree.delete(points[k]);
    });
    report.set("core.threesided.delete_us", us);
    report.check(tree.len() == points.len());

    let counter = IoCounter::new();
    let t = Instant::now();
    let pst = ExternalPst::build(Geometry::new(B), counter.clone(), points.clone());
    report.set("pst.build_s", t.elapsed().as_secs_f64());
    let (us, io) = per_call(tracer, "ExternalPst::query", &counter, calls, |k| {
        let (x1, x2, y0) = queries[k];
        black_box(pst.query(x1, x2, y0));
    });
    report.set("pst.query_us", us);
    report.set("pst.io_per_query", io);

    // Page size with the stores' record budget: B 24-byte entries + header.
    let counter = IoCounter::new();
    let mut disk = Disk::new(24 * B + 7, counter.clone());
    let mut entries: Vec<Entry> = points.iter().map(|p| Entry::new(p.x, p.id)).collect();
    entries.sort_unstable();
    let mut btree = BPlusTree::bulk_load(&mut disk, &entries);
    let (us, io) = per_call(tracer, "BPlusTree::range", &counter, calls, |k| {
        let (x1, x2, _) = queries[k];
        black_box(btree.range(&disk, x1, x2));
    });
    report.set("bptree.range_us", us);
    report.set("bptree.io_per_range", io);
    let (us, _) = per_call(tracer, "BPlusTree::insert", &counter, calls, |k| {
        btree.insert(&mut disk, fresh[k].x, fresh[k].id);
    });
    report.set("bptree.insert_us", us);

    // The thinnest crate: a generalized index over n/10 one-variable tuples
    // `lo ≤ x ≤ hi`, searched with the same ranges.
    let mut relation = GeneralizedRelation::new(1);
    for p in points.iter().take(points.len() / 10) {
        let mut tuple = GeneralizedTuple::new(1);
        tuple.and(Atom::var_ge_const(0, Rat::from(p.x)));
        tuple.and(Atom::var_le_const(0, Rat::from(p.x + gen.width)));
        relation.add(tuple);
    }
    let counter = IoCounter::new();
    let index = GeneralizedIndex::build(&relation, 0, Geometry::new(B), counter.clone())
        .expect("integer endpoints are on the grid");
    let (us, io) = per_call(
        tracer,
        "GeneralizedIndex::range_search",
        &counter,
        calls,
        |k| {
            let (x1, x2, _) = queries[k];
            black_box(index.range_search(Rat::from(x1), Rat::from(x2)));
        },
    );
    report.set("constraint.range_search_us", us);
    report.set("constraint.io_per_search", io);
}
