//! Behavioural and bound-conformance tests for the 3-sided metablock tree
//! (§4, Lemmas 4.3 / 4.4).

use ccix_core::ThreeSidedTree;
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_pst::oracle;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn random_points(n: usize, seed: u64, range: i64) -> Vec<Point> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|i| {
            Point::new(
                (next() % range as u64) as i64,
                (next() % range as u64) as i64,
                i as u64,
            )
        })
        .collect()
}

fn build(b: usize, pts: &[Point]) -> ThreeSidedTree {
    ThreeSidedTree::build(Geometry::new(b), IoCounter::new(), pts.to_vec())
}

fn check_queries(t: &ThreeSidedTree, pts: &[Point], queries: &[(i64, i64, i64)], tag: &str) {
    for &(x1, x2, y0) in queries {
        let got = t.query(x1, x2, y0);
        let want = oracle::three_sided(pts, x1, x2, y0);
        oracle::assert_same_points(got, want, &format!("{tag} q=({x1},{x2},{y0})"));
    }
}

#[test]
fn empty_and_single() {
    let t = build(4, &[]);
    assert!(t.is_empty());
    assert!(t.query(i64::MIN, i64::MAX, i64::MIN).is_empty());
    t.validate_unbilled();

    let t = build(4, &[Point::new(3, -5, 1)]);
    assert_eq!(t.query(0, 5, -5).len(), 1);
    assert!(t.query(0, 5, -4).is_empty());
    assert!(t.query(4, 5, -10).is_empty());
    assert!(t.query(5, 4, -10).is_empty(), "inverted x-range");
    t.validate_unbilled();
}

#[test]
fn static_small_trees_match_oracle() {
    let queries: Vec<(i64, i64, i64)> = vec![
        (0, 99, 0),
        (0, 99, 50),
        (10, 20, 0),
        (50, 50, 25),
        (0, 0, 0),
        (99, 99, 99),
        (-5, 105, -5),
        (30, 70, 90),
        (98, 99, 1),
    ];
    for &(n, b) in &[
        (1usize, 2usize),
        (4, 2),
        (16, 2),
        (17, 2),
        (65, 2),
        (100, 3),
        (500, 4),
        (2000, 4),
    ] {
        let pts = random_points(n, 0x3511 + n as u64, 100);
        let t = build(b, &pts);
        t.validate_unbilled();
        check_queries(&t, &pts, &queries, &format!("static n={n} b={b}"));
    }
}

#[test]
fn exhaustive_small_queries() {
    let pts = random_points(300, 0xE55, 24);
    let t = build(2, &pts);
    for x1 in -1..25 {
        for x2 in x1..25 {
            for y0 in [-1i64, 5, 12, 23, 24] {
                let got = t.query(x1, x2, y0);
                let want = oracle::three_sided(&pts, x1, x2, y0);
                oracle::assert_same_points(got, want, &format!("q=({x1},{x2},{y0})"));
            }
        }
    }
}

#[test]
fn grid_input_matches_oracle() {
    // The uniform grid from §1.4 — the input on which heuristic structures
    // degrade to O(t/√B); ours must stay exact (and, per E1, optimal).
    let mut pts = Vec::new();
    for x in 0..40i64 {
        for y in 0..40i64 {
            pts.push(Point::new(x, y, (x * 40 + y) as u64));
        }
    }
    let t = build(4, &pts);
    t.validate_unbilled();
    let queries: Vec<(i64, i64, i64)> = vec![
        (0, 39, 39),  // full row
        (0, 39, 20),  // half the grid
        (5, 5, 0),    // full column
        (10, 30, 35), // wide, shallow
        (17, 23, 17),
    ];
    check_queries(&t, &pts, &queries, "grid");
}

#[test]
fn inserts_from_empty_match_oracle() {
    let queries: Vec<(i64, i64, i64)> = vec![
        (0, 199, 0),
        (0, 199, 100),
        (40, 60, 50),
        (120, 140, 190),
        (0, 10, 195),
    ];
    for &(n, b) in &[(60usize, 2usize), (300, 2), (800, 3), (2500, 4)] {
        let mut next = xorshift(0xF00D + n as u64);
        let mut t = ThreeSidedTree::new(Geometry::new(b), IoCounter::new());
        let mut pts = Vec::new();
        for i in 0..n {
            let p = Point::new((next() % 200) as i64, (next() % 200) as i64, i as u64);
            t.insert(p);
            pts.push(p);
            if i % 173 == 0 {
                t.validate_unbilled();
                check_queries(&t, &pts, &queries, &format!("grow n={i} b={b}"));
            }
        }
        t.validate_unbilled();
        check_queries(&t, &pts, &queries, &format!("final n={n} b={b}"));
    }
}

#[test]
fn inserts_into_built_tree_match_oracle() {
    let mut pts = random_points(2_000, 0xB0B, 500);
    let mut t = ThreeSidedTree::build(Geometry::new(3), IoCounter::new(), pts.clone());
    let mut next = xorshift(0xCAFE);
    let queries: Vec<(i64, i64, i64)> = vec![(0, 499, 250), (100, 150, 0), (250, 260, 490)];
    for i in 0..2_000u64 {
        let p = Point::new((next() % 500) as i64, (next() % 500) as i64, 100_000 + i);
        t.insert(p);
        pts.push(p);
        if i % 311 == 0 {
            t.validate_unbilled();
            check_queries(&t, &pts, &queries, &format!("i={i}"));
        }
    }
    t.validate_unbilled();
}

#[test]
fn adversarial_insert_orders() {
    let n = 1_200i64;
    for mode in 0..3 {
        let mut t = ThreeSidedTree::new(Geometry::new(3), IoCounter::new());
        let mut pts = Vec::new();
        for i in 0..n {
            let p = match mode {
                0 => Point::new(i, n - i, i as u64),       // ascending x
                1 => Point::new(n - i, i, i as u64),       // descending x
                _ => Point::new(i % 10, i / 10, i as u64), // few x values
            };
            t.insert(p);
            pts.push(p);
        }
        t.validate_unbilled();
        let queries: Vec<(i64, i64, i64)> =
            vec![(0, n, 0), (0, n, n / 2), (n / 4, n / 2, n / 3), (0, 9, 100)];
        check_queries(&t, &pts, &queries, &format!("mode={mode}"));
    }
}

/// Lemma 4.3: queries cost `O(log_B n + t/B + log2 B)` I/Os.
#[test]
fn static_query_io_bound() {
    for &(n, b) in &[(30_000usize, 8usize), (60_000, 16)] {
        let pts = random_points(n, 0xAB + n as u64, 100_000);
        let counter = IoCounter::new();
        let t = ThreeSidedTree::build(Geometry::new(b), counter.clone(), pts.clone());
        let geo = Geometry::new(b);
        let mut next = xorshift(9 + n as u64);
        for _ in 0..40 {
            let a = (next() % 100_000) as i64;
            let w = (next() % 30_000) as i64;
            let y0 = (next() % 100_000) as i64;
            let before = counter.snapshot();
            let got = t.query(a, a + w, y0);
            let cost = counter.since(before);
            let t_out = got.len();
            // Two boundary paths at ~5 I/Os per level + three PST accesses
            // (log2 of B³-sized structures) + the output term.
            let bound =
                10 * geo.log_b(n) + 4 * geo.out_blocks(t_out) + 6 * Geometry::log2(geo.b3()) + 12;
            assert!(
                cost.reads <= bound as u64,
                "n={n} b={b} q=({a},{},{y0}): {} reads > {bound} (t={t_out})",
                a + w,
                cost.reads
            );
            assert_eq!(cost.writes, 0, "queries must not write");
        }
    }
}

/// Space stays `O(n/B)` pages (with the PST and snapshot constants).
#[test]
fn space_bound() {
    for &(n, b) in &[(30_000usize, 8usize), (60_000, 16)] {
        let pts = random_points(n, 77 + n as u64, 1_000_000);
        let t = build(b, &pts);
        let geo = Geometry::new(b);
        let pages = t.space_pages();
        let budget = 12 * geo.out_blocks(n) + 30;
        assert!(pages <= budget, "n={n} b={b}: {pages} pages > {budget}");
    }
}

/// Lemma 4.4: amortised insert cost.
#[test]
fn amortized_insert_io_bound() {
    let b = 8;
    let n = 15_000usize;
    let counter = IoCounter::new();
    let mut t = ThreeSidedTree::new(Geometry::new(b), counter.clone());
    let mut next = xorshift(4242);
    let before = counter.snapshot();
    for i in 0..n {
        t.insert(Point::new(
            (next() % 100_000) as i64,
            (next() % 100_000) as i64,
            i as u64,
        ));
    }
    let cost = counter.since(before);
    let geo = Geometry::new(b);
    let per_insert = cost.total() as f64 / n as f64;
    let logb = geo.log_b(n) as f64;
    let log2b = Geometry::log2(geo.b3()) as f64;
    let bound = 14.0 * (logb + logb * logb / b as f64 + log2b / b as f64) + 18.0;
    assert!(
        per_insert <= bound,
        "amortised insert {per_insert:.1} I/Os > bound {bound:.1}"
    );
    t.validate_unbilled();
}

#[test]
fn stats_reflect_shape() {
    let pts = random_points(4_000, 11, 10_000);
    let t = build(8, &pts);
    let s = t.stats();
    assert_eq!(s.points, 4_000);
    assert!(s.height >= 2);
    assert!(s.org_pages > 0, "interior nodes carry PSTs");
    assert!(s.snapshot_pages > 0, "children carry TSL/TSR snapshots");
    assert_eq!((s.pending_updates, s.pending_tombs), (0, 0));
}

/// A striped workload in which every x-slab's metablock straddles the query
/// bottom: exercises the TSR/TSL snapshot routes (many partial middles) and
/// the fork's children-PST route, with answers checked against the oracle.
#[test]
fn striped_straddlers_hit_snapshot_routes() {
    // y cycles 0..100 while x sweeps: every slab holds points on both sides
    // of y0 = 50 for any x-range.
    let n = 4_000;
    let pts: Vec<Point> = (0..n)
        .map(|i| Point::new(i as i64, (i % 100) as i64, i as u64))
        .collect();
    for b in [2usize, 3, 4] {
        let counter = IoCounter::new();
        let t = ThreeSidedTree::build(Geometry::new(b), counter.clone(), pts.clone());
        t.validate_unbilled();
        let queries: Vec<(i64, i64, i64)> = vec![
            (0, n as i64, 50),         // full cover: children-PST at the root
            (100, n as i64 - 100, 50), // fork with many partial middles
            (100, n as i64, 97),       // left-boundary only (TSR route), tiny t
            (0, n as i64 - 100, 97),   // right-boundary only (TSL route), tiny t
            (500, 600, 99),            // both sides in one slab
        ];
        check_queries(&t, &pts, &queries, &format!("striped b={b}"));
    }
}

/// After heavy insertion the same routes must read from the TD structures
/// (stale snapshots) without duplicating or dropping answers.
#[test]
fn striped_straddlers_after_inserts() {
    let mut pts: Vec<Point> = (0..1_500)
        .map(|i| Point::new(i as i64, (i % 100) as i64, i as u64))
        .collect();
    let mut t = ThreeSidedTree::build(Geometry::new(3), IoCounter::new(), pts.clone());
    // Insert a second stripe offset by 50, interleaved in x.
    for i in 0..1_500u64 {
        let p = Point::new(i as i64, ((i + 50) % 100) as i64, 10_000 + i);
        t.insert(p);
        pts.push(p);
    }
    t.validate_unbilled();
    let queries: Vec<(i64, i64, i64)> = vec![
        (0, 1_500, 50),
        (100, 1_400, 75),
        (100, 1_500, 97),
        (0, 1_400, 97),
        (700, 800, 99),
    ];
    check_queries(&t, &pts, &queries, "striped+inserts");
}
