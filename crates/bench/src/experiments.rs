//! The experiment suite: one function per reproducible claim (DESIGN.md §5).
//!
//! Each returns [`Table`]s of measured I/O counts against the paper's
//! closed-form bounds. Runs are deterministic (seeded workloads, exact
//! counters), so `EXPERIMENTS.md` can be regenerated bit-identically with
//! `cargo run --release -p ccix-bench --bin exp_all`.

use ccix_bptree::{BPlusTree, Entry};
use ccix_class::{
    ClassIndex, FullExtentBaseline, RakeClassIndex, RangeTreeClassIndex, SingleIndexBaseline,
};
use ccix_core::{CornerStructure, DiagOptions, MetablockTree, Tuning};
use ccix_extmem::{Disk, Geometry, IoCounter, Point, TypedStore};
use ccix_interval::{IndexBuilder, IntervalIndex, NaiveIntervalStore};
use ccix_pst::ExternalPst;

use crate::report::{ratio, Table};
use crate::workloads::{self, HierarchyShape};

/// E1 — Theorem 3.2: static metablock tree query cost is
/// `O(log_B n + t/B)` and space is `O(n/B)`.
pub fn e1_metablock_query() -> Vec<Table> {
    let mut t = Table::new(
        "E1 — Theorem 3.2 (static metablock tree)",
        "Diagonal-corner queries cost O(log_B n + t/B) I/Os; space O(n/B) pages.",
        &[
            "B",
            "n",
            "queries",
            "avg t",
            "avg I/O",
            "max I/O",
            "bound",
            "max/bound",
            "pages",
            "pages/(n/B)",
        ],
    );
    for &b in &[16usize, 64] {
        for &n in &[1_000usize, 10_000, 100_000, 400_000] {
            let geo = Geometry::new(b);
            let ivs = workloads::uniform_intervals(n, 0xE1 + n as u64, 4 * n as i64, n as i64 / 4);
            let pts = workloads::interval_points(&ivs);
            let counter = IoCounter::new();
            let tree = MetablockTree::build(geo, counter.clone(), pts);
            let mut r = workloads::rng(0x01E1);
            let queries = 64usize;
            let (mut sum_io, mut max_io, mut sum_t, mut worst_ratio_bound) =
                (0u64, 0u64, 0usize, 0usize);
            for _ in 0..queries {
                let q = r.gen_range(0..4 * n as i64);
                let before = counter.snapshot();
                let out = tree.query(q);
                let cost = counter.since(before).reads;
                sum_io += cost;
                sum_t += out.len();
                let bound = geo.log_b(n) + geo.out_blocks(out.len());
                if cost > max_io {
                    max_io = cost;
                    worst_ratio_bound = bound;
                }
            }
            t.row(vec![
                b.to_string(),
                n.to_string(),
                queries.to_string(),
                (sum_t / queries).to_string(),
                format!("{:.1}", sum_io as f64 / queries as f64),
                max_io.to_string(),
                worst_ratio_bound.to_string(),
                ratio(max_io, worst_ratio_bound),
                tree.space_pages().to_string(),
                format!(
                    "{:.2}",
                    tree.space_pages() as f64 / geo.out_blocks(n) as f64
                ),
            ]);
        }
    }
    vec![t]
}

/// E2 — Lemma 3.1: corner structures answer in `≤ 2⌈t/B⌉ + O(1)` I/Os
/// within `O(|S|/B)` blocks.
pub fn e2_corner_structure() -> Vec<Table> {
    let mut t = Table::new(
        "E2 — Lemma 3.1 (corner structure)",
        "A kB²-point corner structure answers diagonal queries in ≤ 2t/B + O(1) I/Os.",
        &[
            "B",
            "|S|",
            "queries",
            "max I/O",
            "max 2⌈t/B⌉+6",
            "worst slack",
            "pages",
            "pages/(|S|/B)",
        ],
    );
    for &b in &[16usize, 64] {
        for &mult in &[1usize, 2] {
            let geo = Geometry::new(b);
            let s = mult * geo.b2();
            let ivs = workloads::uniform_intervals(s, 0xE2 + s as u64, 10_000, 3_000);
            let pts = workloads::interval_points(&ivs);
            let counter = IoCounter::new();
            let mut store = TypedStore::new(b, counter.clone());
            let cs = CornerStructure::build(&mut store, &pts);
            let mut max_io = 0u64;
            let mut max_bound = 0usize;
            let mut worst_slack: i64 = i64::MIN;
            let queries = 400;
            for q in (0..13_000).step_by(13_000 / queries) {
                let before = counter.snapshot();
                let mut out = Vec::new();
                cs.query_into(&store, q, &mut out);
                let cost = counter.since(before).reads;
                let bound = 2 * geo.out_blocks(out.len()) + 6;
                max_io = max_io.max(cost);
                max_bound = max_bound.max(bound);
                worst_slack = worst_slack.max(cost as i64 - bound as i64);
            }
            t.row(vec![
                b.to_string(),
                s.to_string(),
                queries.to_string(),
                max_io.to_string(),
                max_bound.to_string(),
                worst_slack.to_string(),
                cs.pages().to_string(),
                format!("{:.2}", cs.pages() as f64 / geo.out_blocks(s) as f64),
            ]);
        }
    }
    vec![t]
}

/// E3 — Proposition 3.3: on the staircase instance every query is answered
/// within a constant factor of the `Ω(log_B n + t/B)` lower bound.
pub fn e3_lower_bound() -> Vec<Table> {
    let mut t = Table::new(
        "E3 — Proposition 3.3 (lower-bound instance)",
        "Staircase S = {(x, x+1)}: measured I/O over the Ω(log_B n + t/B) lower bound.",
        &[
            "B",
            "n",
            "queries",
            "avg I/O",
            "max I/O",
            "lower bound",
            "max/LB",
        ],
    );
    for &b in &[16usize, 64] {
        for &n in &[10_000usize, 100_000] {
            let geo = Geometry::new(b);
            let pts = workloads::staircase_points(n);
            let counter = IoCounter::new();
            let tree = MetablockTree::build(geo, counter.clone(), pts);
            let (mut sum, mut max) = (0u64, 0u64);
            let queries = 128;
            for i in 1..=queries {
                let q = (i * (n - 1) / queries) as i64;
                let before = counter.snapshot();
                let out = tree.query(q);
                let cost = counter.since(before).reads;
                assert!(out.len() <= 2);
                sum += cost;
                max = max.max(cost);
            }
            let lb = geo.log_b(n) + 1;
            t.row(vec![
                b.to_string(),
                n.to_string(),
                queries.to_string(),
                format!("{:.1}", sum as f64 / queries as f64),
                max.to_string(),
                lb.to_string(),
                ratio(max, lb),
            ]);
        }
    }
    vec![t]
}

/// E4 — Theorem 3.7: amortised insert cost `O(log_B n + (log_B n)²/B)`.
pub fn e4_metablock_insert() -> Vec<Table> {
    let mut t = Table::new(
        "E4 — Theorem 3.7 (semi-dynamic insertion)",
        "Amortised insert I/O is O(log_B n + (log_B n)²/B); queries stay optimal afterwards.",
        &[
            "B",
            "order",
            "n",
            "amort I/O",
            "bound",
            "amort/bound",
            "worst op",
            "post-insert q avg",
        ],
    );
    for &b in &[16usize, 64] {
        for order in ["random", "ascending"] {
            let geo = Geometry::new(b);
            let n = 100_000usize;
            let counter = IoCounter::new();
            let mut tree = MetablockTree::new(geo, counter.clone());
            let mut r = workloads::rng(0xE4);
            let before_all = counter.snapshot();
            let mut worst = 0u64;
            for i in 0..n {
                let p = match order {
                    "random" => {
                        let lo = r.gen_range(0..(4 * n) as i64);
                        let len = r.gen_range(0..1_000i64);
                        Point::new(lo, lo + len, i as u64)
                    }
                    _ => Point::new(i as i64, i as i64 + 500, i as u64),
                };
                let before = counter.snapshot();
                tree.insert(p);
                worst = worst.max(counter.since(before).total());
            }
            let total = counter.since(before_all).total();
            let amort = total as f64 / n as f64;
            let logb = geo.log_b(n) as f64;
            let bound = logb + logb * logb / b as f64;
            // Post-insert query health.
            let mut qsum = 0u64;
            for i in 0..32 {
                let q = (i * 4 * n / 32) as i64;
                let before = counter.snapshot();
                let _ = tree.query(q);
                qsum += counter.since(before).reads;
            }
            t.row(vec![
                b.to_string(),
                order.to_string(),
                n.to_string(),
                format!("{amort:.1}"),
                format!("{bound:.1}"),
                format!("{:.1}", amort / bound),
                worst.to_string(),
                format!("{:.1}", qsum as f64 / 32.0),
            ]);
        }
    }
    vec![t]
}

/// Shared driver for E5/E6: load a class index and measure.
fn class_experiment<I: ClassIndex>(
    make: impl Fn(ccix_class::Hierarchy, IoCounter) -> I,
    shapes: &[(HierarchyShape, usize)],
    n: usize,
    table: &mut Table,
    bound: impl Fn(Geometry, usize, usize, usize) -> usize, // (geo, c, n, t) -> bound
) {
    let geo = Geometry::new(16);
    for &(shape, c) in shapes {
        let h = workloads::hierarchy(shape, c, 0xC1A55);
        let objects = workloads::uniform_objects(&h, n, 0x0B7 + c as u64, 1_000_000);
        let counter = IoCounter::new();
        let mut idx = make(h.clone(), counter.clone());
        let before = counter.snapshot();
        for o in &objects {
            idx.insert(*o);
        }
        let insert_amort = counter.since(before).total() as f64 / n as f64;

        let mut r = workloads::rng(1 + c as u64);
        let queries = 48;
        let (mut sum_io, mut max_io, mut sum_t, mut worst_bound) = (0u64, 0u64, 0usize, 0usize);
        for _ in 0..queries {
            let class = r.gen_range(0..h.len());
            let a = r.gen_range(0..900_000i64);
            let before = counter.snapshot();
            let out = idx.query(class, a, a + 50_000);
            let cost = counter.since(before).reads;
            sum_io += cost;
            sum_t += out.len();
            let bd = bound(geo, c, n, out.len());
            if cost > max_io {
                max_io = cost;
                worst_bound = bd;
            }
        }
        // Narrow queries isolate the search term (t ≈ 0): this is where the
        // log2 c factor of Theorem 2.6 vs the c-independence of Theorem 4.7
        // becomes visible. Sweep every class to capture the worst cover.
        let mut narrow_sum = 0u64;
        let mut narrow_max = 0u64;
        let mut narrow_n = 0u64;
        for class in 0..h.len() {
            let a = r.gen_range(0..999_000i64);
            let before = counter.snapshot();
            let _ = idx.query(class, a, a + 10);
            let cost = counter.since(before).reads;
            narrow_sum += cost;
            narrow_max = narrow_max.max(cost);
            narrow_n += 1;
        }
        table.row(vec![
            format!("{shape:?}"),
            c.to_string(),
            n.to_string(),
            (sum_t / queries).to_string(),
            format!("{:.1}", sum_io as f64 / queries as f64),
            max_io.to_string(),
            worst_bound.to_string(),
            ratio(max_io, worst_bound),
            format!("{:.1}/{narrow_max}", narrow_sum as f64 / narrow_n as f64),
            format!("{insert_amort:.1}"),
            idx.space_pages().to_string(),
        ]);
    }
}

/// E5 — Theorem 2.6: the range-tree class index.
pub fn e5_class_simple() -> Vec<Table> {
    let mut t = Table::new(
        "E5 — Theorem 2.6 (range-tree class index)",
        "Query O(log2 c·log_B n + t/B); insert O(log2 c·log_B n); space O((n/B)·log2 c).",
        &[
            "shape",
            "c",
            "n",
            "avg t",
            "avg I/O",
            "max I/O",
            "bound",
            "max/bound",
            "narrow avg/max",
            "insert I/O",
            "pages",
        ],
    );
    let shapes = [
        (HierarchyShape::Balanced, 15),
        (HierarchyShape::Balanced, 127),
        (HierarchyShape::Balanced, 1023),
        (HierarchyShape::Random, 255),
        (HierarchyShape::Star, 255),
        (HierarchyShape::Path, 255),
    ];
    class_experiment(
        |h, c| RangeTreeClassIndex::new(h, Geometry::new(16), c),
        &shapes,
        60_000,
        &mut t,
        |geo, c, n, out| 2 * Geometry::log2(c) * geo.log_b(n) + geo.out_blocks(out),
    );
    vec![t]
}

/// E6 — Theorem 4.7: the rake-and-contract class index.
pub fn e6_class_rc() -> Vec<Table> {
    let mut t = Table::new(
        "E6 — Theorem 4.7 (rake-and-contract class index)",
        "Query O(log_B n + t/B + log2 B) — independent of c; space O((n/B)·log2 c).",
        &[
            "shape",
            "c",
            "n",
            "avg t",
            "avg I/O",
            "max I/O",
            "bound",
            "max/bound",
            "narrow avg/max",
            "insert I/O",
            "pages",
        ],
    );
    let shapes = [
        (HierarchyShape::Balanced, 15),
        (HierarchyShape::Balanced, 127),
        (HierarchyShape::Balanced, 1023),
        (HierarchyShape::Random, 255),
        (HierarchyShape::Star, 255),
        (HierarchyShape::Path, 255),
    ];
    class_experiment(
        |h, c| RakeClassIndex::new(h, Geometry::new(16), c),
        &shapes,
        60_000,
        &mut t,
        |geo, _c, n, out| geo.log_b(n) + geo.out_blocks(out) + Geometry::log2(geo.b3()),
    );
    vec![t]
}

/// E7 — Lemma 4.1: the external PST answers 3-sided queries in
/// `O(log2 n + t/B)` I/Os.
pub fn e7_pst() -> Vec<Table> {
    let mut t = Table::new(
        "E7 — Lemma 4.1 (external priority search tree)",
        "3-sided queries in O(log2 n + t/B) I/Os; space O(n/B) pages.",
        &[
            "B",
            "n",
            "avg t",
            "avg I/O",
            "max I/O",
            "bound",
            "max/bound",
            "pages",
        ],
    );
    for &b in &[16usize, 64] {
        for &n in &[10_000usize, 100_000, 400_000] {
            let geo = Geometry::new(b);
            let pts = workloads::uniform_points(n, 0xE7, 1_000_000);
            let counter = IoCounter::new();
            let pst = ExternalPst::build(geo, counter.clone(), pts);
            let mut r = workloads::rng(7);
            let queries = 64;
            let (mut sum_io, mut max_io, mut sum_t, mut worst_bound) = (0u64, 0u64, 0usize, 0usize);
            for _ in 0..queries {
                let a = r.gen_range(0..900_000i64);
                let w = r.gen_range(0..200_000i64);
                let y0 = r.gen_range(0..1_000_000i64);
                let before = counter.snapshot();
                let out = pst.query(a, a + w, y0);
                let cost = counter.since(before).reads;
                sum_io += cost;
                sum_t += out.len();
                let bd = Geometry::log2(n) + geo.out_blocks(out.len());
                if cost > max_io {
                    max_io = cost;
                    worst_bound = bd;
                }
            }
            t.row(vec![
                b.to_string(),
                n.to_string(),
                (sum_t / queries).to_string(),
                format!("{:.1}", sum_io as f64 / queries as f64),
                max_io.to_string(),
                worst_bound.to_string(),
                ratio(max_io, worst_bound),
                pst.space_pages().to_string(),
            ]);
        }
    }
    vec![t]
}

/// E8 — Lemma 2.7 / Theorem 2.8: no rectangular tessellation of a grid
/// serves all row and column queries within `k·q/B` blocks unless `B ≤ k²`.
pub fn e8_tessellation() -> Vec<Table> {
    let mut t = Table::new(
        "E8 — Lemma 2.7 (tessellation lower bound)",
        "For any tessellation max(k_row, k_col) ≥ √B: one copy + rectangular blocks can't be optimal.",
        &["B", "p", "tessellation", "k_row", "k_col", "max k", "√B"],
    );
    let p = 256usize;
    for &b in &[16usize, 64, 256] {
        // Tessellations: w×h tiles with w·h = B.
        let mut shapes: Vec<(usize, usize, String)> = Vec::new();
        let mut w = 1;
        while w <= b {
            if b % w == 0 {
                shapes.push((w, b / w, format!("{w}x{}", b / w)));
            }
            w *= 2;
        }
        for (w, h, name) in shapes {
            // A row query of length p crosses ceil(p/w) tiles; per reported
            // point it touches (p/w) / (p/B) = B/w tiles per B outputs ⇒
            // k_row = B/w / ... : blocks touched = p/w for p outputs ⇒
            // k_row = (p/w)/(p/B) = B/w. Symmetrically k_col = B/h = w.
            let k_row = b / w;
            let k_col = b / h;
            let kmax = k_row.max(k_col);
            t.row(vec![
                b.to_string(),
                p.to_string(),
                name,
                k_row.to_string(),
                k_col.to_string(),
                kmax.to_string(),
                format!("{:.1}", (b as f64).sqrt()),
            ]);
        }
    }
    vec![t]
}

/// E9 — Proposition 2.2: the interval index vs the linear-scan baseline.
pub fn e9_interval() -> Vec<Table> {
    let mut t = Table::new(
        "E9 — Proposition 2.2 (interval management vs naive scan)",
        "Index queries cost O(log_B n + t/B); the heap-file scan costs n/B. Crossover is tiny.",
        &[
            "B",
            "n",
            "avg t",
            "index q I/O",
            "scan q I/O",
            "speedup",
            "index ins I/O",
            "scan ins I/O",
            "index pages",
            "scan pages",
        ],
    );
    let b = 32;
    let geo = Geometry::new(b);
    for &n in &[1_000usize, 10_000, 100_000, 500_000] {
        let ivs = workloads::uniform_intervals(n, 0xE9, 4 * n as i64, 2_000);
        let ic = IoCounter::new();
        let before_build = ic.snapshot();
        let idx = IndexBuilder::new(geo).bulk(ic.clone(), &ivs);
        let _build = ic.since(before_build);
        let nc = IoCounter::new();
        let mut naive = NaiveIntervalStore::new(geo, nc.clone());
        let before_naive_ins = nc.snapshot();
        for iv in &ivs {
            naive.insert(iv.lo, iv.hi, iv.id);
        }
        let naive_ins = nc.since(before_naive_ins).total() as f64 / n as f64;

        // Fresh incremental index for the insert-cost column.
        let ic2 = IoCounter::new();
        let mut idx2 = IndexBuilder::new(geo).open(ic2.clone());
        let before = ic2.snapshot();
        for iv in ivs.iter().take(20_000) {
            idx2.insert(iv.lo, iv.hi, iv.id);
        }
        let idx_ins = ic2.since(before).total() as f64 / ivs.len().min(20_000) as f64;

        let mut r = workloads::rng(9);
        let queries = 32;
        let (mut iq, mut nq, mut sum_t) = (0u64, 0u64, 0usize);
        for _ in 0..queries {
            let q = r.gen_range(0..4 * n as i64);
            let before = ic.snapshot();
            let a = idx.stabbing(q);
            iq += ic.since(before).reads;
            let before = nc.snapshot();
            let bhits = naive.stabbing(q);
            nq += nc.since(before).reads;
            assert_eq!(a.len(), bhits.len());
            sum_t += a.len();
        }
        t.row(vec![
            b.to_string(),
            n.to_string(),
            (sum_t / queries).to_string(),
            format!("{:.1}", iq as f64 / queries as f64),
            format!("{:.1}", nq as f64 / queries as f64),
            format!("{:.1}x", nq as f64 / iq.max(1) as f64),
            format!("{idx_ins:.1}"),
            format!("{naive_ins:.1}"),
            idx.space_pages().to_string(),
            naive.space_pages().to_string(),
        ]);
    }
    vec![t]
}

/// E10 — §2.2's strategy comparison on one workload.
pub fn e10_class_strategies() -> Vec<Table> {
    let mut t = Table::new(
        "E10 — §2.2 (class-indexing strategy trade-offs)",
        "All four strategies on one workload: c=255 balanced, n=100k, B=16.",
        &[
            "strategy",
            "selective q I/O",
            "selective t",
            "broad q I/O",
            "broad t",
            "insert I/O",
            "pages",
        ],
    );
    let geo = Geometry::new(16);
    let c = 255;
    let h = workloads::hierarchy(HierarchyShape::Balanced, c, 5);
    let n = 100_000;
    let objects = workloads::uniform_objects(&h, n, 0xE10, 1_000_000);
    // A leaf class (selective) and the root (broad).
    let leaf = (0..c).find(|&x| h.children(x).is_empty()).unwrap();
    let root = h.roots()[0];

    let counters: Vec<IoCounter> = (0..4).map(|_| IoCounter::new()).collect();
    let mut strategies: Vec<Box<dyn ClassIndex>> = vec![
        Box::new(SingleIndexBaseline::new(
            h.clone(),
            geo,
            counters[0].clone(),
        )),
        Box::new(FullExtentBaseline::new(h.clone(), geo, counters[1].clone())),
        Box::new(RangeTreeClassIndex::new(
            h.clone(),
            geo,
            counters[2].clone(),
        )),
        Box::new(RakeClassIndex::new(h.clone(), geo, counters[3].clone())),
    ];
    for (s, counter) in strategies.iter_mut().zip(&counters) {
        let before = counter.snapshot();
        for o in &objects {
            s.insert(*o);
        }
        let ins = counter.since(before).total() as f64 / n as f64;
        let before = counter.snapshot();
        let sel = s.query(leaf, 0, 500_000);
        let sel_io = counter.since(before).reads;
        let before = counter.snapshot();
        let broad = s.query(root, 0, 500_000);
        let broad_io = counter.since(before).reads;
        t.row(vec![
            s.name().to_string(),
            sel_io.to_string(),
            sel.len().to_string(),
            broad_io.to_string(),
            broad.len().to_string(),
            format!("{ins:.1}"),
            s.space_pages().to_string(),
        ]);
    }
    vec![t]
}

/// E11 — Figs. 8–10: structural statistics of the metablock tree.
pub fn e11_structure_shape() -> Vec<Table> {
    let mut t = Table::new(
        "E11 — Figs. 8–10 (metablock tree anatomy)",
        "Metablock counts, heights and page breakdown; every non-leaf holds exactly B² points.",
        &[
            "B",
            "n",
            "metablocks",
            "leaves",
            "height",
            "pages",
            "TS pages",
            "corner pages",
            "pages/(n/B)",
        ],
    );
    for &b in &[16usize, 64] {
        for &n in &[10_000usize, 100_000, 400_000] {
            let geo = Geometry::new(b);
            let ivs = workloads::uniform_intervals(n, 0xE11, 4 * n as i64, 5_000);
            let tree =
                MetablockTree::build(geo, IoCounter::new(), workloads::interval_points(&ivs));
            let s = tree.stats();
            t.row(vec![
                b.to_string(),
                n.to_string(),
                s.metablocks.to_string(),
                s.leaves.to_string(),
                s.height.to_string(),
                s.pages.to_string(),
                s.snapshot_pages.to_string(),
                s.org_pages.to_string(),
                format!("{:.2}", s.pages as f64 / geo.out_blocks(n) as f64),
            ]);
        }
    }
    vec![t]
}

/// E12 — §5: the metablock tree vs a dynamized-\[17\]-style PST on diagonal
/// queries: `log_B n` vs `log2 n` search terms.
pub fn e12_pst_vs_metablock() -> Vec<Table> {
    let mut t = Table::new(
        "E12 — §5 (metablock tree vs external PST on diagonal queries)",
        "Same data, same queries: the metablock search term scales as log_B n, the PST as log2 n.",
        &[
            "B",
            "n",
            "avg t",
            "metablock avg I/O",
            "PST avg I/O",
            "log_B n",
            "log2 n",
        ],
    );
    for &b in &[16usize, 64, 256] {
        let n = 400_000usize;
        let geo = Geometry::new(b);
        let ivs = workloads::uniform_intervals(n, 0xE12, 8 * n as i64, 200);
        let pts = workloads::interval_points(&ivs);
        let mc = IoCounter::new();
        let tree = MetablockTree::build(geo, mc.clone(), pts.clone());
        let pc = IoCounter::new();
        let pst = ExternalPst::build(geo, pc.clone(), pts);
        let mut r = workloads::rng(12);
        let queries = 64;
        let (mut mio, mut pio, mut sum_t) = (0u64, 0u64, 0usize);
        for _ in 0..queries {
            let q = r.gen_range(0..8 * n as i64);
            let before = mc.snapshot();
            let a = tree.query(q);
            mio += mc.since(before).reads;
            let before = pc.snapshot();
            let mut out = Vec::new();
            pst.diagonal_into(q, &mut out);
            pio += pc.since(before).reads;
            assert_eq!(a.len(), out.len());
            sum_t += a.len();
        }
        t.row(vec![
            b.to_string(),
            n.to_string(),
            (sum_t / queries).to_string(),
            format!("{:.1}", mio as f64 / queries as f64),
            format!("{:.1}", pio as f64 / queries as f64),
            geo.log_b(n).to_string(),
            Geometry::log2(n).to_string(),
        ]);
    }
    vec![t]
}

/// B+-tree reference numbers (§1.1), used as the yardstick row in reports.
pub fn e0_bptree_reference() -> Vec<Table> {
    let mut t = Table::new(
        "E0 — §1.1 (B+-tree yardstick)",
        "External 1-D range search: query O(log_B n + t/B), insert O(log_B n), space O(n/B).",
        &[
            "B(leaf)",
            "n",
            "avg q I/O",
            "max q I/O",
            "insert I/O",
            "pages",
            "pages/(n/B)",
        ],
    );
    let page_size = 1024usize;
    let leaf_cap = (page_size - 7) / 24;
    for &n in &[10_000usize, 100_000, 500_000] {
        let counter = IoCounter::new();
        let mut disk = Disk::new(page_size, counter.clone());
        let entries: Vec<Entry> = (0..n as i64).map(|k| Entry::new(k, k as u64)).collect();
        let tree = BPlusTree::bulk_load(&mut disk, &entries);
        let mut r = workloads::rng(0);
        let queries = 64;
        let (mut sum, mut max) = (0u64, 0u64);
        for _ in 0..queries {
            let a = r.gen_range(0..n as i64);
            let before = counter.snapshot();
            let _ = tree.range(&disk, a, a + 2_000);
            let c = counter.since(before).reads;
            sum += c;
            max = max.max(c);
        }
        let before = counter.snapshot();
        let mut tree2 = BPlusTree::new(&mut disk);
        for k in 0..10_000i64 {
            tree2.insert(&mut disk, k, k as u64);
        }
        let ins = counter.since(before).total() as f64 / 10_000.0;
        let pages = tree.validate_unbilled(&disk);
        t.row(vec![
            leaf_cap.to_string(),
            n.to_string(),
            format!("{:.1}", sum as f64 / queries as f64),
            max.to_string(),
            format!("{ins:.1}"),
            pages.to_string(),
            format!("{:.2}", pages as f64 / (n as f64 / leaf_cap as f64)),
        ]);
    }
    vec![t]
}

/// E13 — ablation of the metablock tree's design choices: Lemma 3.1 corner
/// structures and the Fig. 17 TS shortcut.
pub fn e13_ablation() -> Vec<Table> {
    let b = 32;
    let geo = Geometry::new(b);
    let n = 200_000usize;
    let configs = [(true, true), (false, true), (true, false), (false, false)];

    // Regime 1 — corner structures. Short intervals make stabbing answers
    // small, so the query corner lands inside a full metablock and Lemma 3.1
    // is what keeps the Type II visit at O(t/B) instead of O(B) blocks.
    let mut t1 = Table::new(
        "E13a — ablation: corner structures (Lemma 3.1)",
        "Short intervals, point-sized answers: without corner structures the corner metablock is scanned.",
        &["B", "n", "corners", "TS", "avg t", "avg I/O", "max I/O", "pages"],
    );
    let ivs = workloads::uniform_intervals(n, 0xE13, 4 * n as i64, 200);
    let pts = workloads::interval_points(&ivs);
    let mut reference: Option<Vec<usize>> = None;
    for (corners, ts) in configs {
        let options = DiagOptions {
            corner_structures: corners,
            ts_shortcut: ts,
        };
        let counter = IoCounter::new();
        let tree = MetablockTree::build_with(geo, counter.clone(), pts.clone(), options);
        let mut r = workloads::rng(131);
        let queries = 96;
        let (mut sum, mut max, mut sum_t) = (0u64, 0u64, 0usize);
        let mut sizes = Vec::new();
        for _ in 0..queries {
            let q = r.gen_range(0..4 * n as i64);
            let before = counter.snapshot();
            let out = tree.query(q);
            let cost = counter.since(before).reads;
            sizes.push(out.len());
            sum += cost;
            max = max.max(cost);
            sum_t += out.len();
        }
        match &reference {
            None => reference = Some(sizes),
            Some(rf) => assert_eq!(rf, &sizes, "ablation changed answers"),
        }
        t1.row(vec![
            b.to_string(),
            n.to_string(),
            corners.to_string(),
            ts.to_string(),
            (sum_t / queries).to_string(),
            format!("{:.1}", sum as f64 / queries as f64),
            max.to_string(),
            tree.space_pages().to_string(),
        ]);
    }

    // Regime 2 — the TS shortcut. A mixture workload: mostly tiny intervals
    // (they fill the slabs and die below the query) plus a sprinkling of
    // long ones (every slab's metablock straddles the query bottom with a
    // handful of answers). Without TS, each straddling sibling costs its
    // own block reads, unbacked by output.
    let mut t2 = Table::new(
        "E13b — ablation: TS sibling snapshots (Fig. 17)",
        "Sprinkled long intervals: many straddling siblings, few answers each.",
        &["B", "n", "corners", "TS", "avg t", "avg I/O", "max I/O"],
    );
    let mut r = workloads::rng(0x213);
    let mix: Vec<Point> = (0..n)
        .map(|i| {
            let lo = r.gen_range(0..4 * n as i64);
            let len = if i % 64 == 0 {
                r.gen_range(0..(n / 2) as i64) // the sprinkling
            } else {
                r.gen_range(0..50i64)
            };
            Point::new(lo, lo + len, i as u64)
        })
        .collect();
    let mut reference: Option<Vec<usize>> = None;
    for (corners, ts) in configs {
        let options = DiagOptions {
            corner_structures: corners,
            ts_shortcut: ts,
        };
        let counter = IoCounter::new();
        let tree = MetablockTree::build_with(geo, counter.clone(), mix.clone(), options);
        let mut r = workloads::rng(132);
        let queries = 96;
        let (mut sum, mut max, mut sum_t) = (0u64, 0u64, 0usize);
        let mut sizes = Vec::new();
        for _ in 0..queries {
            let q = r.gen_range(0..4 * n as i64);
            let before = counter.snapshot();
            let out = tree.query(q);
            let cost = counter.since(before).reads;
            sizes.push(out.len());
            sum += cost;
            max = max.max(cost);
            sum_t += out.len();
        }
        match &reference {
            None => reference = Some(sizes),
            Some(rf) => assert_eq!(rf, &sizes, "ablation changed answers"),
        }
        t2.row(vec![
            b.to_string(),
            n.to_string(),
            corners.to_string(),
            ts.to_string(),
            (sum_t / queries).to_string(),
            format!("{:.1}", sum as f64 / queries as f64),
            max.to_string(),
        ]);
    }
    vec![t1, t2]
}

/// E14 — write-path tuning: the `Tuning` knobs on the E9 workload.
///
/// One row per configuration; the shipped `Tuning::default()` is the row
/// that dominates the paper's constants on insert and space without giving
/// up stabbing-query I/O.
pub fn e14_write_tuning() -> Vec<Table> {
    let mut t = Table::new(
        "E14 — write-path tuning (batched reorganisation + space knobs)",
        "Update batching amortises level-I; α and the TS budget trade query slack for space.",
        &[
            "batch",
            "td",
            "ts pages",
            "α",
            "n",
            "q I/O",
            "ins I/O",
            "pages",
            "pages/scan",
        ],
    );
    let b = 32;
    let geo = Geometry::new(b);
    let n = 200_000usize;
    let ivs = workloads::uniform_intervals(n, 0xE9, 4 * n as i64, 2_000);
    let configs: &[ccix_core::Tuning] = &[
        // The paper's constants, then each knob family in isolation on top
        // of them, then the shipped default, then an aggressive corner.
        ccix_core::Tuning::paper(),
        ccix_core::Tuning {
            ts_snapshot_pages: None,
            ..ccix_core::Tuning::default()
        },
        ccix_core::Tuning {
            ts_snapshot_pages: Some(16),
            ..ccix_core::Tuning::default()
        },
        ccix_core::Tuning::default(),
        ccix_core::Tuning {
            corner_alpha: 3,
            ..ccix_core::Tuning::default()
        },
        ccix_core::Tuning {
            update_batch_pages: 8,
            td_batch_pages: 4,
            corner_alpha: 4,
            ..ccix_core::Tuning::default()
        },
    ];
    for &tuning in configs {
        let ic = IoCounter::new();
        let idx = IndexBuilder::new(geo).tuning(tuning).bulk(ic.clone(), &ivs);
        let mut r = workloads::rng(9);
        let queries = 32;
        let mut iq = 0u64;
        for _ in 0..queries {
            let q = r.gen_range(0..4 * n as i64);
            let before = ic.snapshot();
            let _ = idx.stabbing(q);
            iq += ic.since(before).reads;
        }
        let ic2 = IoCounter::new();
        let mut idx2 = IndexBuilder::new(geo).tuning(tuning).open(ic2.clone());
        let before = ic2.snapshot();
        for iv in ivs.iter().take(20_000) {
            idx2.insert(iv.lo, iv.hi, iv.id);
        }
        let ins = ic2.since(before).total() as f64 / 20_000.0;
        t.row(vec![
            tuning.update_batch_pages.to_string(),
            tuning.td_batch_pages.to_string(),
            tuning
                .ts_snapshot_pages
                .map_or("B".into(), |p| p.to_string()),
            tuning.corner_alpha.to_string(),
            n.to_string(),
            format!("{:.1}", iq as f64 / queries as f64),
            format!("{ins:.1}"),
            idx.space_pages().to_string(),
            format!("{:.2}", idx.space_pages() as f64 / geo.out_blocks(n) as f64),
        ]);
    }
    vec![t]
}

/// EQB — PR 3's batched multi-query engine: single vs amortised stabbing
/// I/O on the `workloads::*_flood` families, plus the corner-build
/// wall-clock smoke for the Fenwick-selection fix.
///
/// The budgets the perf gate enforces on the n=500k, B=32 rows: uniform
/// single-query ≤ 12 I/Os, adversarial-correlated flood ≤ 6 I/Os amortised
/// at batch = 64.
pub fn eqb_query_batch() -> Vec<Table> {
    let mut t = Table::new(
        "EQB — batched multi-query engine (stabbing floods)",
        "A sorted flood over one pinned read context bills each shared descent block once per residency.",
        &[
            "B",
            "n",
            "workload",
            "batch",
            "avg t",
            "single q I/O",
            "amortised q I/O",
            "batch speedup",
        ],
    );
    let b = 32;
    let geo = Geometry::new(b);
    let batch = 64usize;
    for &n in &[100_000usize, 500_000] {
        let range = 4 * n as i64;
        let ivs = workloads::uniform_intervals(n, 0xE9, range, 2_000);
        let ic = IoCounter::new();
        let idx = IndexBuilder::new(geo).bulk(ic.clone(), &ivs);
        let floods: Vec<(&str, Vec<i64>)> = vec![
            ("uniform", workloads::uniform_flood(batch, 0xEB1, range)),
            ("skewed-8", workloads::skewed_flood(batch, 0xEB2, range, 8)),
            (
                "correlated-2k",
                workloads::correlated_flood(batch, 0xEB3, range, 2_000),
            ),
        ];
        for (name, qs) in floods {
            let before = ic.snapshot();
            let mut sum_t = 0usize;
            for &q in &qs {
                sum_t += idx.stabbing(q).len();
            }
            let single = ic.since(before).reads as f64 / batch as f64;
            let before = ic.snapshot();
            let outs = idx.stab_batch(&qs);
            let amortised = ic.since(before).reads as f64 / batch as f64;
            let batch_t: usize = outs.iter().map(Vec::len).sum();
            assert_eq!(batch_t, sum_t, "batched flood disagrees with singles");
            t.row(vec![
                b.to_string(),
                n.to_string(),
                name.to_string(),
                batch.to_string(),
                (sum_t / batch).to_string(),
                format!("{single:.1}"),
                format!("{amortised:.1}"),
                format!("{:.1}x", single / amortised.max(0.01)),
            ]);
        }
    }

    let mut w = Table::new(
        "EQB-build — corner-structure build wall-clock",
        "CornerStructure::build stays off the wall-clock profile at large B (Fenwick selection: precomputed ranks + maintained live total).",
        &["B", "|S|", "build ms"],
    );
    for &bb in &[256usize, 1024] {
        let s = 2 * bb * bb;
        let ivs = workloads::uniform_intervals(s, 0xEBB + bb as u64, 4 * s as i64, 10_000);
        let pts = workloads::interval_points(&ivs);
        let counter = IoCounter::new();
        let mut store = TypedStore::new(bb, counter);
        let started = std::time::Instant::now();
        let cs = ccix_core::CornerStructure::build(&mut store, &pts);
        let ms = started.elapsed().as_millis();
        assert_eq!(cs.len(), s);
        w.row(vec![bb.to_string(), s.to_string(), ms.to_string()]);
    }
    vec![t, w]
}

/// EB — the merge-based reorganisation pipeline's wall clock: static build
/// plus a rebuild-heavy insert flood (level-I merges, TS reorganisations,
/// level-II push-downs and branching splits all fire), with build planning
/// fanned out over the machine's cores.
///
/// I/O counts do not depend on the thread count (planning is the only
/// parallel phase; every page allocation stays on the calling thread, and
/// `tree::tests::static_build_is_pinned_on_both_trees_across_thread_counts`
/// pins that), so `build I/O` is gated exactly and the wall-clock cells
/// get **absolute ceilings only** — timings are noisy where I/O counts are
/// exact (see `perf_gate`).
pub fn eb_build() -> Vec<Table> {
    let mut t = Table::new(
        "EB — rebuild-pipeline wall clock (build + insert flood)",
        "Sortedness-preserving merges + parallel build planning: (re)builds scale with cores, not n·log n re-sorting.",
        &["tree", "B", "n", "build ms", "build I/O", "flood", "flood ms"],
    );
    let b = 32;
    let geo = Geometry::new(b);
    for &n in &[100_000usize, 500_000, 2_100_000] {
        let flood_n = (n / 10).min(60_000);
        let ivs = workloads::uniform_intervals(n + flood_n, 0xEB0 + n as u64, 4 * n as i64, 2_000);
        let counter = IoCounter::new();
        let probe = ccix_testkit::iocheck::IoProbe::start(&counter, "EB diag build");
        let mut tree =
            MetablockTree::build(geo, counter.clone(), workloads::interval_points(&ivs[..n]));
        let (build_io, build_span) = probe.finish_timed();
        let probe = ccix_testkit::iocheck::IoProbe::start(&counter, "EB diag flood");
        for iv in &ivs[n..] {
            tree.insert(Point::new(iv.lo, iv.hi, iv.id));
        }
        let (_, flood_span) = probe.finish_timed();
        t.row(vec![
            "diag".into(),
            b.to_string(),
            n.to_string(),
            build_span.as_millis().to_string(),
            build_io.total().to_string(),
            flood_n.to_string(),
            flood_span.as_millis().to_string(),
        ]);
    }
    // The 3-sided tree exercises the PST planning + layout-reuse side of the
    // pipeline; its flood rebuilds per-metablock and children PSTs.
    for &n in &[100_000usize, 500_000] {
        let flood_n = n / 10;
        let pts = workloads::uniform_points(n + flood_n, 0xEB5 + n as u64, 4 * n as i64);
        let counter = IoCounter::new();
        let probe = ccix_testkit::iocheck::IoProbe::start(&counter, "EB 3sided build");
        let mut tree = ccix_core::ThreeSidedTree::build(geo, counter.clone(), pts[..n].to_vec());
        let (build_io, build_span) = probe.finish_timed();
        let probe = ccix_testkit::iocheck::IoProbe::start(&counter, "EB 3sided flood");
        for p in &pts[n..] {
            tree.insert(*p);
        }
        let (_, flood_span) = probe.finish_timed();
        t.row(vec![
            "3sided".into(),
            b.to_string(),
            n.to_string(),
            build_span.as_millis().to_string(),
            build_io.total().to_string(),
            flood_n.to_string(),
            flood_span.as_millis().to_string(),
        ]);
    }
    vec![t]
}

/// ED — deletion support: the tombstone write path under delete and mixed
/// floods (the paper's §5 open problem, closed in this reproduction).
///
/// Four phases per `n`, all seeded and exactly reproducible:
///
/// * **delete-flood** — serial deletes of 10% random-ish victims from a
///   bulk-built index; the amortised cost per delete must stay within the
///   E9 *insert* budget (deletes ride the insert machinery);
/// * **delete-batch64** — the same volume as correlated batches of 64
///   through [`IntervalIndex::delete_batch`] (one pinned routing context
///   per batch);
/// * **mixed-45-35-20** — an empty index driven by
///   `workloads::mixed_interval_flood` (45% inserts, 35% deletes, 20%
///   stabbing queries), the workload shape the insert-only suite could not
///   express; the `q I/O` column is the mid-flood stabbing cost with
///   tombstone buffers live;
/// * **drain-to-10pct** (largest `n` only) — batched deletes down to 10%
///   occupancy; the `pages` column pins the occupancy-triggered shrink.
pub fn ed_delete() -> Vec<Table> {
    let mut t = Table::new(
        "ED — deletion support (tombstone write path, mixed floods)",
        "Deletes are amortised within the insert budget; queries filter tombstones; shrink bounds space.",
        &[
            "B",
            "n",
            "phase",
            "ops",
            "amortised I/O",
            "q I/O",
            "pending",
            "pages",
            "ms",
        ],
    );
    let b = 32usize;
    let geo = Geometry::new(b);
    // Average stabbing-read cost over a fixed probe flood.
    fn avg_q(idx: &IntervalIndex, ic: &IoCounter, range: i64) -> f64 {
        let mut r = workloads::rng(0xED0);
        let queries = 32u64;
        let mut reads = 0u64;
        for _ in 0..queries {
            let q = r.gen_range(0..range);
            let before = ic.snapshot();
            let _ = idx.stabbing(q);
            reads += ic.since(before).reads;
        }
        reads as f64 / queries as f64
    }
    for &n in &[100_000usize, 500_000] {
        let range = 4 * n as i64;
        let ivs = workloads::uniform_intervals(n, 0xED, range, 2_000);
        let n_del = n / 10;

        // Phase 1 — serial delete flood.
        {
            let ic = IoCounter::new();
            let mut idx = IndexBuilder::new(geo).bulk(ic.clone(), &ivs);
            let probe = ccix_testkit::iocheck::IoProbe::start(&ic, "ED serial deletes");
            for i in 0..n_del {
                let iv = ivs[i * 10];
                idx.delete(iv.lo, iv.hi, iv.id);
            }
            let (d, span) = probe.finish_timed();
            t.row(vec![
                b.to_string(),
                n.to_string(),
                "delete-flood".into(),
                n_del.to_string(),
                format!("{:.1}", d.total() as f64 / n_del as f64),
                format!("{:.1}", avg_q(&idx, &ic, range)),
                idx.pending_deletes().to_string(),
                idx.space_pages().to_string(),
                span.as_millis().to_string(),
            ]);
        }

        // Phase 2 — correlated batches of 64.
        {
            let ic = IoCounter::new();
            let mut idx = IndexBuilder::new(geo).bulk(ic.clone(), &ivs);
            let mut victims: Vec<&ccix_interval::Interval> = ivs.iter().step_by(10).collect();
            victims.sort_unstable_by_key(|iv| (iv.lo, iv.id));
            let probe = ccix_testkit::iocheck::IoProbe::start(&ic, "ED batched deletes");
            for chunk in victims.chunks(64) {
                let batch: Vec<(i64, i64, u64)> =
                    chunk.iter().map(|iv| (iv.lo, iv.hi, iv.id)).collect();
                idx.delete_batch(&batch);
            }
            let (d, span) = probe.finish_timed();
            t.row(vec![
                b.to_string(),
                n.to_string(),
                "delete-batch64".into(),
                victims.len().to_string(),
                format!("{:.1}", d.total() as f64 / victims.len() as f64),
                format!("{:.1}", avg_q(&idx, &ic, range)),
                idx.pending_deletes().to_string(),
                idx.space_pages().to_string(),
                span.as_millis().to_string(),
            ]);
        }

        // Phase 3 — mixed flood from empty (45% ins / 35% del / 20% stab).
        {
            let n_ops = n / 2;
            let ops = workloads::mixed_interval_flood(n_ops, 0xED3, range, 2_000, 35, 20);
            let ic = IoCounter::new();
            let mut idx = IndexBuilder::new(geo).open(ic.clone());
            let probe = ccix_testkit::iocheck::IoProbe::start(&ic, "ED mixed flood");
            let (mut q_reads, mut q_count) = (0u64, 0u64);
            for op in &ops {
                match *op {
                    workloads::IntervalOp::Insert(iv) => idx.insert(iv.lo, iv.hi, iv.id),
                    workloads::IntervalOp::Delete(iv) => idx.delete(iv.lo, iv.hi, iv.id),
                    workloads::IntervalOp::Stab(q) => {
                        let before = ic.snapshot();
                        let _ = idx.stabbing(q);
                        q_reads += ic.since(before).reads;
                        q_count += 1;
                    }
                }
            }
            let (d, span) = probe.finish_timed();
            t.row(vec![
                b.to_string(),
                n.to_string(),
                "mixed-45-35-20".into(),
                n_ops.to_string(),
                format!("{:.1}", d.total() as f64 / n_ops as f64),
                format!("{:.1}", q_reads as f64 / q_count.max(1) as f64),
                idx.pending_deletes().to_string(),
                idx.space_pages().to_string(),
                span.as_millis().to_string(),
            ]);
        }

        // Phase 4 — drain to 10% occupancy (largest n only): the shrink.
        if n == 500_000 {
            let ic = IoCounter::new();
            let mut idx = IndexBuilder::new(geo).bulk(ic.clone(), &ivs);
            let drain = 9 * n / 10;
            let probe = ccix_testkit::iocheck::IoProbe::start(&ic, "ED drain");
            for chunk in ivs[..drain].chunks(256) {
                let batch: Vec<(i64, i64, u64)> =
                    chunk.iter().map(|iv| (iv.lo, iv.hi, iv.id)).collect();
                idx.delete_batch(&batch);
            }
            let (d, span) = probe.finish_timed();
            t.row(vec![
                b.to_string(),
                n.to_string(),
                "drain-to-10pct".into(),
                drain.to_string(),
                format!("{:.1}", d.total() as f64 / drain as f64),
                format!("{:.1}", avg_q(&idx, &ic, range)),
                idx.pending_deletes().to_string(),
                idx.space_pages().to_string(),
                span.as_millis().to_string(),
            ]);
        }
    }
    vec![t]
}

/// EL — per-operation latency under incremental reorganisation: the
/// stop-the-world pause and its cure.
///
/// A bulk-built diagonal metablock tree (the stabbing structure behind
/// [`IntervalIndex`]) is driven through a delete-heavy flood deep enough to
/// trip the occupancy shrink, with a sprinkle of inserts to exercise the
/// frozen-side divert. Every operation is timed and I/O-metered
/// individually; the table reports the per-op distribution (p50 / p99 /
/// max) in exact I/Os and in wall-clock time, one row per
/// [`Tuning::reorg_pages_per_op`] budget:
///
/// * **k = 0** — the all-at-once legacy behaviour: the shrink rebuilds the
///   whole structure inside one delete, so `max I/O` carries an `O(n/B)`
///   spike (tens of thousands of transfers in a single operation);
/// * **k = 8** — the incremental engine: triggered rebuilds run behind a
///   transfer shunt and are bled at most `k` page transfers per subsequent
///   operation, so `max I/O` collapses to the descent envelope plus `O(k)`.
///
/// The I/O columns are exact and bit-reproducible; the µs/ms columns are
/// wall-clock context (smoke-ceilinged in the gate, never diffed).
pub fn el_latency() -> Vec<Table> {
    let mut t = Table::new(
        "EL — per-op latency under incremental reorganisation",
        "A finite reorg budget bounds the worst single op; k = 0 keeps the stop-the-world spike.",
        &[
            "B", "n", "k", "ops", "p50 I/O", "p99 I/O", "max I/O", "p50 us", "p99 us", "max ms",
            "ms",
        ],
    );
    let b = 32usize;
    let geo = Geometry::new(b);
    let n = 500_000usize;
    let range = 4 * n as i64;
    let ivs = workloads::uniform_intervals(n, 0xE1, range, 2_000);
    let pts: Vec<Point> = ivs
        .iter()
        .map(|iv| Point::new(iv.lo, iv.hi, iv.id))
        .collect();
    let n_ops = 3 * n / 5;

    fn pctl(sorted: &[u64], pct: usize) -> u64 {
        sorted[(sorted.len() - 1) * pct / 100]
    }

    for &k in &[0usize, 8] {
        let tuning = Tuning {
            reorg_pages_per_op: k,
            ..Tuning::default()
        };
        let ic = IoCounter::new();
        let mut tree = MetablockTree::build_tuned(
            geo,
            ic.clone(),
            pts.clone(),
            DiagOptions::default(),
            tuning,
        );
        let mut rng = workloads::rng(0xE15);
        let mut io: Vec<u64> = Vec::with_capacity(n_ops);
        let mut us: Vec<u64> = Vec::with_capacity(n_ops);
        let mut victim = 0usize;
        let mut fresh = 10_000_000u64;
        let flood_started = std::time::Instant::now();
        for step in 0..n_ops {
            let before = ic.snapshot();
            let op_started = std::time::Instant::now();
            if step % 10 == 9 {
                let lo = rng.gen_range(0..range);
                let hi = lo + rng.gen_range(0..2_000i64);
                tree.insert(Point::new(lo, hi, fresh));
                fresh += 1;
            } else {
                let iv = &ivs[victim];
                victim += 1;
                tree.delete(Point::new(iv.lo, iv.hi, iv.id));
            }
            us.push(op_started.elapsed().as_micros() as u64);
            io.push(ic.since(before).total());
        }
        let total = flood_started.elapsed();
        tree.flush_reorgs();
        io.sort_unstable();
        us.sort_unstable();
        t.row(vec![
            b.to_string(),
            n.to_string(),
            k.to_string(),
            n_ops.to_string(),
            pctl(&io, 50).to_string(),
            pctl(&io, 99).to_string(),
            io.last().copied().unwrap_or(0).to_string(),
            pctl(&us, 50).to_string(),
            pctl(&us, 99).to_string(),
            format!("{:.1}", *us.last().unwrap_or(&0) as f64 / 1_000.0),
            total.as_millis().to_string(),
        ]);
    }
    vec![t]
}

/// EC — snapshot-serving throughput: reader threads scale on Arc-published
/// epochs while a writer floods group commits.
///
/// Unlike the I/O tables this one is wall-clock only, so the perf gate
/// applies **absolute** bounds, not relative diffs. The headline column is
/// *scaling loss* at 8 readers: `min(readers, cores) / speedup`, where
/// speedup is qps relative to the single-reader row. Perfect scaling is
/// 1.0; the gate allows 2.0, which on an 8-core runner enforces the ≥ 4×
/// acceptance criterion and on a 1-core box degenerates to ~1 (no
/// parallelism to lose). p99 commit-visibility latency (submit →
/// publication, measured on every commit of the flood) gets an absolute
/// ceiling as well.
///
/// `cores` is `available_parallelism()` **corrected upward by the
/// evidence**: under cgroup quotas or CPU affinity masks the std call can
/// report fewer cores than the scheduler actually grants, and trusting it
/// blindly once made this column print the *reciprocal* of the loss
/// (`1/speedup` — e.g. an impossible 0.21 at 8 readers / 4.78×, below the
/// perfect-scaling floor of 1.0). A measured speedup of `s` is a
/// constructive witness that at least `⌈s⌉` cores were usable, so the rows
/// are computed first and `cores = max(available_parallelism(), ⌊max
/// speedup⌋)` — `⌊·⌋` rather than `⌈·⌉` so measurement noise (an apparent
/// 1.2× on a genuinely serial box) can never inflate the ideal and fail
/// the gate spuriously. The documented formula then can never drop below
/// its 1.0 floor, and on a runner whose core detection works the ≤ 2.0
/// gate still enforces ≥ 4× at 8 readers.
pub fn ec_throughput() -> Vec<Table> {
    use ccix_serve::{Engine, EngineConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::time::{Duration, Instant};

    let mut t = Table::new(
        "EC — snapshot-serving throughput under writer flood",
        "Readers scale on epoch snapshots; commit visibility stays bounded under group commit.",
        &[
            "B",
            "n",
            "readers",
            "queries",
            "qps",
            "speedup",
            "scaling loss",
            "p99 vis ms",
            "commits",
        ],
    );
    let b = 32usize;
    let n = 200_000usize;
    let range = 4 * n as i64;
    let ivs = workloads::uniform_intervals(n, 0xEC, range, 2_000);
    let avail = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let measure = Duration::from_millis(250);
    let mut base_qps = 0.0f64;
    // (readers, queries, qps, speedup, p99 vis ms, commits) — rows are
    // measured first and emitted after, because the scaling-loss column
    // needs the max measured speedup to correct a collapsed core count.
    let mut measured: Vec<(usize, u64, f64, f64, f64, usize)> = Vec::new();
    for &readers in &[1usize, 2, 4, 8] {
        let idx = ccix_interval::IndexBuilder::new(Geometry::new(b)).bulk(IoCounter::new(), &ivs);
        let engine = Engine::start(idx, EngineConfig::default());
        let stop = AtomicBool::new(false);
        let queries = AtomicU64::new(0);
        let (commits, mut vis_ms) = std::thread::scope(|scope| {
            // Writer flood: mixed inserts, pipelined a few commits deep so
            // the measured wait is the true submit → visibility latency.
            let flood = scope.spawn(|| {
                let mut rng = workloads::rng(0xEC1);
                let mut fresh = 10_000_000u64;
                let mut pending = std::collections::VecDeque::new();
                let mut vis = Vec::new();
                while !stop.load(Relaxed) {
                    let batch: Vec<ccix_interval::IntervalOp> = (0..64)
                        .map(|_| {
                            let lo = rng.gen_range(0..range);
                            fresh += 1;
                            ccix_interval::IntervalOp::Insert(ccix_interval::Interval::new(
                                lo,
                                lo + rng.gen_range(0..2_000i64),
                                fresh,
                            ))
                        })
                        .collect();
                    pending.push_back((Instant::now(), engine.submit(batch)));
                    while pending.len() >= 4 {
                        let (t0, ticket) = pending.pop_front().expect("nonempty");
                        ticket.wait();
                        vis.push(t0.elapsed().as_secs_f64() * 1_000.0);
                    }
                }
                for (t0, ticket) in pending {
                    ticket.wait();
                    vis.push(t0.elapsed().as_secs_f64() * 1_000.0);
                }
                vis
            });
            for r in 0..readers {
                let engine = &engine;
                let stop = &stop;
                let queries = &queries;
                let mut rng = workloads::rng(0xEC2 + r as u64);
                scope.spawn(move || {
                    let mut local = 0u64;
                    while !stop.load(Relaxed) {
                        let snap = engine.snapshot();
                        // A small burst per snapshot, like a real client.
                        for _ in 0..16 {
                            let out = snap.query(rng.gen_range(0..range));
                            std::hint::black_box(out);
                            local += 1;
                        }
                    }
                    queries.fetch_add(local, Relaxed);
                });
            }
            std::thread::sleep(measure);
            stop.store(true, Relaxed);
            let vis = flood.join().expect("flood thread");
            (vis.len(), vis)
        });
        let done = queries.load(Relaxed);
        let qps = done as f64 / measure.as_secs_f64();
        if readers == 1 {
            base_qps = qps;
        }
        let speedup = qps / base_qps;
        vis_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p99 = if vis_ms.is_empty() {
            0.0
        } else {
            vis_ms[(vis_ms.len() - 1) * 99 / 100]
        };
        measured.push((readers, done, qps, speedup, p99, commits));
        engine.shutdown();
    }
    // A measured speedup of s proves ≥ ⌈s⌉ usable cores even when
    // available_parallelism() is clamped by a cgroup or affinity mask;
    // credit only ⌊s⌋ so noise can't inflate the ideal.
    let witnessed = measured
        .iter()
        .map(|&(_, _, _, s, _, _)| s.floor() as usize)
        .max()
        .unwrap_or(1);
    let cores = avail.max(witnessed).max(1);
    for (readers, done, qps, speedup, p99, commits) in measured {
        let ideal = readers.min(cores) as f64;
        t.row(vec![
            b.to_string(),
            n.to_string(),
            readers.to_string(),
            done.to_string(),
            format!("{qps:.0}"),
            format!("{speedup:.2}"),
            format!("{:.2}", ideal / speedup),
            format!("{p99:.1}"),
            commits.to_string(),
        ]);
    }
    vec![t]
}

/// ES — sharded parallel execution: an x-range routing directory over K
/// independent interval indexes; insert floods and batched stabbing
/// queries are split into per-shard sub-batches and fanned out over the
/// machine's cores.
///
/// The aggregate I/O columns are exact and **thread-invariant**: the
/// fan-out only moves per-shard work between threads, and every shard
/// charges its own striped counter, so `flood I/O`/`query I/O` are
/// bit-reproducible and diffed exactly by the perf gate (`ccix-interval`'s
/// sharded unit tests pin the invariance at budgets 1 to 4). Wall clock
/// gets absolute smoke ceilings only; the speedup columns compare each row
/// with the 1-shard row of the same workload.
///
/// Workloads: `uniform` floods spread over all shards; `zipf` floods are
/// Zipf-skewed (exponent 1.1) over *shards*, the tenant-skew regime where
/// one hot shard serialises most of the work.
pub fn es_shard() -> Vec<Table> {
    use std::time::Instant;

    let mut t = Table::new(
        "ES — sharded parallel execution (x-range fan-out)",
        "Aggregate I/O is thread-invariant and exact; wall clock scales with shards × threads.",
        &[
            "workload",
            "shards",
            "n",
            "build ms",
            "flood ms",
            "query ms",
            "flood I/O",
            "query I/O",
            "flood speedup",
            "query speedup",
        ],
    );
    let b = 32usize;
    let n = 200_000usize;
    let range = 4 * n as i64;
    let max_len = 2_000i64;
    let flood_n = 40_000usize;
    let queries = 40_000usize;
    let batch = 1_024usize;

    let base = workloads::uniform_intervals(n, 0xE5, range, max_len);
    let sample: Vec<i64> = base.iter().map(|iv| iv.lo).collect();

    for &workload in &["uniform", "zipf"] {
        // The 1-shard row's (flood ms, query ms), which the speedups divide.
        let mut one_shard: Option<(f64, f64)> = None;
        for &shards in &[1usize, 2, 4, 8] {
            let splits = ccix_interval::split_points_from_sample(&sample, shards);
            let (flood_ivs, stabs) = match workload {
                "uniform" => (
                    workloads::uniform_intervals(flood_n, 0xE51, range, max_len),
                    workloads::uniform_flood(queries, 0xE52, range),
                ),
                _ => (
                    workloads::zipf_shard_intervals(flood_n, 0xE53, &splits, range, max_len, 1.1),
                    workloads::zipf_shard_flood(queries, 0xE53, &splits, range, 1.1),
                ),
            };
            let flood_ops: Vec<ccix_interval::IntervalOp> = flood_ivs
                .iter()
                .map(|iv| {
                    ccix_interval::IntervalOp::Insert(ccix_interval::Interval::new(
                        iv.lo,
                        iv.hi,
                        n as u64 + iv.id,
                    ))
                })
                .collect();
            let builder = IndexBuilder::new(Geometry::new(b)).sharded().splits(splits);
            let t0 = Instant::now();
            let mut idx = builder.bulk(&base);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;

            let before = idx.io_totals();
            let t0 = Instant::now();
            idx.apply_batch(&flood_ops);
            let flood_ms = t0.elapsed().as_secs_f64() * 1e3;
            let flood_io = before.delta(idx.io_totals()).total();

            let before = idx.io_totals();
            let t0 = Instant::now();
            let mut outs = Vec::new();
            for chunk in stabs.chunks(batch) {
                idx.stab_batch_into(chunk, &mut outs);
                std::hint::black_box(&outs);
            }
            let query_ms = t0.elapsed().as_secs_f64() * 1e3;
            let query_io = before.delta(idx.io_totals()).total();

            let (f0, q0) = *one_shard.get_or_insert((flood_ms, query_ms));
            t.row(vec![
                workload.to_string(),
                shards.to_string(),
                n.to_string(),
                format!("{build_ms:.0}"),
                format!("{flood_ms:.1}"),
                format!("{query_ms:.1}"),
                flood_io.to_string(),
                query_io.to_string(),
                format!("{:.2}", f0 / flood_ms),
                format!("{:.2}", q0 / query_ms),
            ]);
        }
    }
    vec![t]
}

/// ER — durability: durable-commit overhead vs the volatile path, and
/// recovery wall-clock vs WAL length.
pub fn er_recovery() -> Vec<Table> {
    use ccix_durable::{DurabilityConfig, DurableStore, FsyncPolicy, Meta, TempDir};
    use ccix_serve::{Engine, EngineConfig};
    use std::time::Instant;

    let b = 32usize;

    // -- ER: per-commit submit -> ack latency under each fsync policy.
    let mut t = Table::new(
        "ER — durable-commit overhead vs volatile",
        "Group-committed WAL keeps durable p99 commit latency within 2x the volatile path.",
        &[
            "mode",
            "commits",
            "batch",
            "p50 ms",
            "p99 ms",
            "overhead p99",
            "wall ms",
        ],
    );
    let n = 20_000usize;
    let range = 4 * n as i64;
    let commits = 300usize;
    let batch = 64usize;
    let initial = workloads::uniform_intervals(n, 0xE6_0001, range, 2_000);
    // One pre-generated batch stream, shared by every mode.
    let mut rng = workloads::rng(0xE6_0002);
    let mut fresh = 10_000_000u64;
    let stream: Vec<Vec<ccix_interval::IntervalOp>> = (0..commits)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    let lo = rng.gen_range(0..range);
                    fresh += 1;
                    ccix_interval::IntervalOp::Insert(ccix_interval::Interval::new(
                        lo,
                        lo + rng.gen_range(0..2_000i64),
                        fresh,
                    ))
                })
                .collect()
        })
        .collect();
    let mut volatile_p99 = 0.0f64;
    let modes: [(&str, Option<FsyncPolicy>); 4] = [
        ("volatile", None),
        ("fsync-1", Some(FsyncPolicy::EveryCommits(1))),
        ("fsync-8", Some(FsyncPolicy::EveryCommits(8))),
        ("fsync-group", Some(FsyncPolicy::Group { max_delay_ms: 10 })),
    ];
    for (mode, fsync) in modes {
        let tmp = TempDir::new("er-commit");
        let durability = fsync.map(|fsync| DurabilityConfig {
            fsync,
            ..DurabilityConfig::new(tmp.path())
        });
        let idx =
            ccix_interval::IndexBuilder::new(Geometry::new(b)).bulk(IoCounter::new(), &initial);
        let engine = Engine::start(
            idx,
            EngineConfig {
                durability,
                ..EngineConfig::default()
            },
        );
        let t0 = Instant::now();
        // Pipeline a few commits deep (like a real client) so fsyncs can
        // group, while still measuring true submit -> durable-ack latency.
        let mut pending = std::collections::VecDeque::new();
        let mut lat_ms = Vec::with_capacity(commits);
        for ops in &stream {
            pending.push_back((Instant::now(), engine.submit(ops.clone())));
            while pending.len() >= 4 {
                let (s0, ticket) = pending.pop_front().expect("nonempty");
                ticket.wait();
                lat_ms.push(s0.elapsed().as_secs_f64() * 1_000.0);
            }
        }
        for (s0, ticket) in pending {
            ticket.wait();
            lat_ms.push(s0.elapsed().as_secs_f64() * 1_000.0);
        }
        let wall = t0.elapsed().as_secs_f64() * 1_000.0;
        engine.shutdown();
        lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p50 = lat_ms[lat_ms.len() / 2];
        let p99 = lat_ms[(lat_ms.len() - 1) * 99 / 100];
        if mode == "volatile" {
            volatile_p99 = p99;
        }
        // Overhead vs a 1 ms floor: on fast disks the volatile p99 is tens
        // of microseconds and a raw ratio would gate on noise.
        let overhead = p99 / volatile_p99.max(1.0);
        t.row(vec![
            mode.to_string(),
            commits.to_string(),
            batch.to_string(),
            format!("{p50:.2}"),
            format!("{p99:.2}"),
            format!("{overhead:.2}"),
            format!("{wall:.0}"),
        ]);
    }

    // -- ER-recover: recovery wall-clock against WAL length. The WAL is
    // built through the store directly (a clean engine shutdown would
    // checkpoint and truncate it — exactly what a crash does not do).
    let mut r = Table::new(
        "ER-recover — recovery wall clock vs WAL length",
        "Recovery folds the WAL suffix into the checkpoint and bulk-loads once; 100k ops stay far under the 2 s smoke ceiling.",
        &["wal ops", "commits", "wal KB", "recover ms", "replayed ops"],
    );
    for &wal_ops in &[10_000usize, 100_000] {
        let tmp = TempDir::new("er-recover");
        let dcfg = DurabilityConfig {
            checkpoint_every_ops: 0,
            ..DurabilityConfig::new(tmp.path())
        };
        let meta = Meta::new(Geometry::new(b), ccix_interval::IntervalOptions::default());
        let mut store = DurableStore::create(&dcfg, meta, &[], &[]).expect("create durable dir");
        let per_commit = 100usize;
        let mut rng = workloads::rng(0xE6_0003);
        let mut id = 0u64;
        for _ in 0..wal_ops / per_commit {
            let ops: Vec<ccix_interval::IntervalOp> = (0..per_commit)
                .map(|_| {
                    let lo = rng.gen_range(0..range);
                    id += 1;
                    ccix_interval::IntervalOp::Insert(ccix_interval::Interval::new(
                        lo,
                        lo + rng.gen_range(0..2_000i64),
                        id,
                    ))
                })
                .collect();
            store.append_commit(&ops).expect("append");
        }
        store.sync().expect("sync");
        let wal_kb = store.wal_bytes() / 1024;
        drop(store); // die without checkpointing, as a crash would
        let t0 = Instant::now();
        let (engine, report) = Engine::recover(
            meta,
            EngineConfig {
                durability: Some(dcfg),
                ..EngineConfig::default()
            },
        )
        .expect("recover");
        let ms = t0.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(engine.snapshot().ops_applied(), wal_ops as u64);
        engine.shutdown();
        r.row(vec![
            wal_ops.to_string(),
            (wal_ops / per_commit).to_string(),
            wal_kb.to_string(),
            format!("{ms:.0}"),
            report.replayed_ops.to_string(),
        ]);
    }
    vec![t, r]
}

/// EF — the file backend vs the in-memory model, wall clock. The billed
/// I/O counts are identical by construction (the backends differential
/// suite asserts it exactly), so this table measures what the model
/// cannot: the real cost of the write-through mirror on build and flood,
/// and the cold/warm split of the in-process page cache on stabs.
pub fn ef_file() -> Vec<Table> {
    use ccix_durable::TempDir;
    use std::time::Instant;

    let b = 4_096usize;
    let n = 200_000usize;
    let range = 4 * n as i64;
    let initial = workloads::uniform_intervals(n, 0xEF_0001, range, 2_000);
    // One pre-generated flood and stab stream shared by both backends.
    let flood: Vec<workloads::IntervalOp> = {
        let raw = workloads::mixed_interval_flood(20_000, 0xEF_0002, range, 2_000, 30, 0);
        // The flood numbers ids from 0; shift clear of the initial set.
        raw.into_iter()
            .map(|op| match op {
                workloads::IntervalOp::Insert(iv) => workloads::IntervalOp::Insert(
                    ccix_interval::Interval::new(iv.lo, iv.hi, iv.id + n as u64),
                ),
                workloads::IntervalOp::Delete(iv) => workloads::IntervalOp::Delete(
                    ccix_interval::Interval::new(iv.lo, iv.hi, iv.id + n as u64),
                ),
                other => other,
            })
            .collect()
    };
    let stabs: Vec<i64> = {
        let mut r = workloads::rng(0xEF_0003);
        (0..2_000).map(|_| r.gen_range(0..range)).collect()
    };

    let mut t = Table::new(
        "EF — file backend vs model (wall clock)",
        "Mirroring every page to a real file: build/flood overhead stays small at B=4096, and repeated stabs hit the in-process page cache (warm) instead of pread (cold).",
        &[
            "backend",
            "B",
            "n",
            "build ms",
            "flood ms",
            "stab1 ms",
            "stab2 ms",
            "cold reads",
            "warm hits",
        ],
    );
    for backend in ["model", "file"] {
        let tmp = TempDir::new("ef-file");
        let mut builder = IndexBuilder::new(Geometry::new(b));
        if backend == "file" {
            builder = builder.file_backed(tmp.path());
        }
        let t0 = Instant::now();
        let mut idx = builder.bulk(IoCounter::new(), &initial);
        let build_ms = t0.elapsed().as_secs_f64() * 1_000.0;

        let t0 = Instant::now();
        for op in &flood {
            match op {
                workloads::IntervalOp::Insert(iv) => idx.insert(iv.lo, iv.hi, iv.id),
                workloads::IntervalOp::Delete(iv) => idx.delete(iv.lo, iv.hi, iv.id),
                workloads::IntervalOp::Stab(_) => {}
            }
        }
        idx.flush_reorgs();
        let flood_ms = t0.elapsed().as_secs_f64() * 1_000.0;

        // First pass on an empty cache (all cold on the file backend),
        // second pass re-reads the same pages (warm).
        idx.clear_file_caches();
        let t0 = Instant::now();
        let got1 = idx.stab_batch(&stabs);
        let stab1_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let t0 = Instant::now();
        let got2 = idx.stab_batch(&stabs);
        let stab2_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(got1, got2, "stab answers changed between passes");
        let (cold, warm) = idx.file_stats().unwrap_or((0, 0));
        t.row(vec![
            backend.to_string(),
            b.to_string(),
            n.to_string(),
            format!("{build_ms:.0}"),
            format!("{flood_ms:.0}"),
            format!("{stab1_ms:.1}"),
            format!("{stab2_ms:.1}"),
            cold.to_string(),
            warm.to_string(),
        ]);
    }
    vec![t]
}

/// Run every experiment in order.
pub fn all() -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(e0_bptree_reference());
    out.extend(e1_metablock_query());
    out.extend(e2_corner_structure());
    out.extend(e3_lower_bound());
    out.extend(e4_metablock_insert());
    out.extend(e5_class_simple());
    out.extend(e6_class_rc());
    out.extend(e7_pst());
    out.extend(e8_tessellation());
    out.extend(e9_interval());
    out.extend(e10_class_strategies());
    out.extend(e11_structure_shape());
    out.extend(e12_pst_vs_metablock());
    out.extend(e13_ablation());
    out.extend(e14_write_tuning());
    out.extend(eqb_query_batch());
    out.extend(eb_build());
    out.extend(ed_delete());
    out.extend(el_latency());
    out.extend(ec_throughput());
    out.extend(es_shard());
    out.extend(er_recovery());
    out.extend(ef_file());
    out
}
