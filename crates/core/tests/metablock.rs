//! Behavioural and bound-conformance tests for the metablock tree (§3).

use ccix_core::MetablockTree;
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

/// Random intervals as points (x = left endpoint, y = right endpoint).
fn interval_points(n: usize, seed: u64, range: i64) -> Vec<Point> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|i| {
            let a = (next() % range as u64) as i64;
            let b = (next() % range as u64) as i64;
            Point::new(a.min(b), a.max(b), i as u64)
        })
        .collect()
}

fn build(b: usize, pts: &[Point]) -> MetablockTree {
    MetablockTree::build(Geometry::new(b), IoCounter::new(), pts.to_vec())
}

#[test]
fn empty_tree() {
    let t = build(4, &[]);
    assert!(t.is_empty());
    assert!(t.query(0).is_empty());
    t.validate_unbilled();
}

#[test]
fn single_point() {
    let t = build(4, &[Point::new(2, 7, 1)]);
    assert_eq!(t.query(2).len(), 1);
    assert_eq!(t.query(7).len(), 1);
    assert_eq!(t.query(5).len(), 1);
    assert!(t.query(1).is_empty());
    assert!(t.query(8).is_empty());
    t.validate_unbilled();
}

#[test]
fn static_small_trees_match_oracle() {
    for &(n, b) in &[
        (1usize, 2usize),
        (5, 2),
        (16, 2),
        (17, 2),
        (64, 2),
        (65, 2),
        (100, 3),
        (300, 4),
        (1000, 4),
    ] {
        let pts = interval_points(n, 42 + n as u64, 120);
        let t = build(b, &pts);
        t.validate_unbilled();
        for q in -2..125 {
            let got = t.query(q);
            let want = oracle::diagonal_corner(&pts, q);
            oracle::assert_same_points(got, want, &format!("static n={n} b={b} q={q}"));
        }
    }
}

#[test]
fn static_larger_tree_matches_oracle() {
    let pts = interval_points(20_000, 7, 5_000);
    let t = build(8, &pts);
    t.validate_unbilled();
    for q in (-3..5_100).step_by(97) {
        let got = t.query(q);
        let want = oracle::diagonal_corner(&pts, q);
        oracle::assert_same_points(got, want, &format!("q={q}"));
    }
}

#[test]
fn clustered_and_degenerate_inputs() {
    // All-identical intervals.
    let same: Vec<Point> = (0..200).map(|i| Point::new(5, 9, i)).collect();
    let t = build(4, &same);
    t.validate_unbilled();
    assert_eq!(t.query(7).len(), 200);
    assert!(t.query(4).is_empty());
    assert!(t.query(10).is_empty());

    // Zero-length intervals exactly on the diagonal.
    let diag: Vec<Point> = (0..300).map(|i| Point::new(i, i, i as u64)).collect();
    let t = build(4, &diag);
    t.validate_unbilled();
    for q in [0i64, 1, 150, 299] {
        assert_eq!(t.query(q).len(), 1, "q={q}");
    }

    // Fully nested intervals: every stabbing query near the centre hits
    // a long prefix.
    let nested: Vec<Point> = (0..500).map(|i| Point::new(-i, i, i as u64)).collect();
    let t = build(4, &nested);
    t.validate_unbilled();
    for q in [-499i64, -250, 0, 250, 499] {
        let got = t.query(q);
        let want = oracle::diagonal_corner(&nested, q);
        oracle::assert_same_points(got, want, &format!("nested q={q}"));
    }
}

#[test]
fn inserts_from_empty_match_oracle() {
    for &(n, b) in &[(50usize, 2usize), (200, 2), (500, 3), (2000, 4)] {
        let mut next = xorshift(0xD1CE + n as u64);
        let mut t = MetablockTree::new(Geometry::new(b), IoCounter::new());
        let mut pts: Vec<Point> = Vec::new();
        for i in 0..n {
            let a = (next() % 200) as i64;
            let c = (next() % 200) as i64;
            let p = Point::new(a.min(c), a.max(c), i as u64);
            t.insert(p);
            pts.push(p);
            if i % 97 == 0 {
                t.validate_unbilled();
                for q in (-1..202).step_by(23) {
                    let got = t.query(q);
                    let want = oracle::diagonal_corner(&pts, q);
                    oracle::assert_same_points(got, want, &format!("n={i} b={b} q={q}"));
                }
            }
        }
        t.validate_unbilled();
        for q in -1..202 {
            let got = t.query(q);
            let want = oracle::diagonal_corner(&pts, q);
            oracle::assert_same_points(got, want, &format!("final n={n} b={b} q={q}"));
        }
    }
}

#[test]
fn inserts_into_built_tree_match_oracle() {
    let mut pts = interval_points(3_000, 0xBEE, 1_000);
    let counter = IoCounter::new();
    let mut t = MetablockTree::build(Geometry::new(4), counter, pts.clone());
    let mut next = xorshift(0xACE);
    for i in 0..3_000u64 {
        let a = (next() % 1_000) as i64;
        let c = (next() % 1_000) as i64;
        let p = Point::new(a.min(c), a.max(c), 10_000 + i);
        t.insert(p);
        pts.push(p);
        if i % 233 == 0 {
            t.validate_unbilled();
            for q in (-1..1_005).step_by(131) {
                let got = t.query(q);
                let want = oracle::diagonal_corner(&pts, q);
                oracle::assert_same_points(got, want, &format!("i={i} q={q}"));
            }
        }
    }
    t.validate_unbilled();
}

#[test]
fn sorted_adversarial_insert_orders() {
    // Ascending x, descending x, ascending y: each stresses a different
    // reorganisation path (rightmost leaf splits, leftmost splits, root
    // update churn).
    let n = 1_500i64;
    for mode in 0..3 {
        let mut t = MetablockTree::new(Geometry::new(3), IoCounter::new());
        let mut pts = Vec::new();
        for i in 0..n {
            let p = match mode {
                0 => Point::new(i, i + 10, i as u64),
                1 => Point::new(n - i, n - i + 10, i as u64),
                _ => Point::new(i % 50, i % 50 + 1 + i / 50, i as u64),
            };
            t.insert(p);
            pts.push(p);
        }
        t.validate_unbilled();
        for q in (-1..n + 60).step_by(37) {
            let got = t.query(q);
            let want = oracle::diagonal_corner(&pts, q);
            oracle::assert_same_points(got, want, &format!("mode={mode} q={q}"));
        }
    }
}

/// Theorem 3.2: static queries cost `O(log_B n + t/B)` I/Os.
#[test]
fn static_query_io_bound() {
    for &(n, b) in &[(20_000usize, 8usize), (50_000, 16), (50_000, 32)] {
        let pts = interval_points(n, 99 + n as u64, 100_000);
        let counter = IoCounter::new();
        let t = MetablockTree::build(Geometry::new(b), counter.clone(), pts.clone());
        let geo = Geometry::new(b);
        for q in (0..100_000).step_by(3_701) {
            let before = counter.snapshot();
            let got = t.query(q);
            let cost = counter.since(before);
            let t_out = got.len();
            // Per level: ~4 I/Os of control/vertical/update slack; plus the
            // output term with the corner-structure constant.
            let bound = 8 * geo.log_b(n) + 4 * geo.out_blocks(t_out) + 10;
            assert!(
                cost.reads <= bound as u64,
                "n={n} b={b} q={q}: {} reads > {bound} (t={t_out})",
                cost.reads
            );
            assert_eq!(cost.writes, 0, "queries must not write");
        }
    }
}

/// Lemma 3.4: the tree occupies `O(n/B)` pages.
#[test]
fn space_bound() {
    for &(n, b) in &[(20_000usize, 8usize), (50_000, 16)] {
        let pts = interval_points(n, 5 + n as u64, 50_000);
        let t = build(b, &pts);
        let geo = Geometry::new(b);
        let pages = t.space_pages();
        // Mains ×2 (two blockings) + corner (×3 worst) + TS + control.
        let budget = 9 * geo.out_blocks(n) + 20;
        assert!(
            pages <= budget,
            "n={n} b={b}: {pages} pages > budget {budget}"
        );
    }
}

/// Theorem 3.7: amortised insert cost is `O(log_B n + (log_B n)²/B)`.
#[test]
fn amortized_insert_io_bound() {
    let b = 8;
    let n = 20_000usize;
    let counter = IoCounter::new();
    let mut t = MetablockTree::new(Geometry::new(b), counter.clone());
    let mut next = xorshift(77);
    let before = counter.snapshot();
    for i in 0..n {
        let a = (next() % 100_000) as i64;
        let c = (next() % 100_000) as i64;
        t.insert(Point::new(a.min(c), a.max(c), i as u64));
    }
    let cost = counter.since(before);
    let geo = Geometry::new(b);
    let per_insert = cost.total() as f64 / n as f64;
    let logb = geo.log_b(n) as f64;
    // Generous constant: routing + cache writes + amortised reorgs.
    let bound = 12.0 * (logb + logb * logb / b as f64) + 16.0;
    assert!(
        per_insert <= bound,
        "amortised insert {per_insert:.1} I/Os > bound {bound:.1}"
    );
    t.validate_unbilled();
}

/// Queries remain within the Theorem 3.2 bound after heavy insertion
/// (Lemma 3.5: the dynamic additions add O(1) per examined organisation).
#[test]
fn dynamic_query_io_bound() {
    let b = 8;
    let geo = Geometry::new(b);
    let counter = IoCounter::new();
    let mut t = MetablockTree::new(geo, counter.clone());
    let mut next = xorshift(31337);
    let n = 30_000usize;
    let mut pts = Vec::new();
    for i in 0..n {
        let a = (next() % 60_000) as i64;
        let c = (next() % 60_000) as i64;
        let p = Point::new(a.min(c), a.max(c), i as u64);
        t.insert(p);
        pts.push(p);
    }
    for q in (0..60_000).step_by(2_113) {
        let before = counter.snapshot();
        let got = t.query(q);
        let cost = counter.since(before);
        let want = oracle::diagonal_corner(&pts, q);
        oracle::assert_same_points(got.clone(), want, &format!("q={q}"));
        let bound = 10 * geo.log_b(n) + 5 * geo.out_blocks(got.len()) + 12;
        assert!(
            cost.reads <= bound as u64,
            "q={q}: {} reads > {bound} (t={})",
            cost.reads,
            got.len()
        );
    }
}

#[test]
fn stats_reflect_shape() {
    let pts = interval_points(5_000, 3, 10_000);
    let t = build(8, &pts);
    let s = t.stats();
    assert_eq!(s.points, 5_000);
    assert!(s.leaves >= 1);
    assert!(s.height >= 2, "5000 points at B=8 need at least two levels");
    assert!(s.metablocks >= s.leaves);
    assert!(s.pages >= 2 * 5_000 / 8);
    assert!(
        s.snapshot_pages > 0,
        "non-first children carry TS snapshots"
    );
    assert_eq!((s.pending_updates, s.pending_tombs), (0, 0));
}

#[test]
#[should_panic(expected = "diagonal")]
fn below_diagonal_rejected() {
    let _ = build(4, &[Point::new(5, 2, 1)]);
}

#[test]
#[should_panic(expected = "duplicate point ids")]
fn duplicate_ids_rejected_in_build() {
    let _ = build(4, &[Point::new(0, 1, 7), Point::new(2, 3, 7)]);
}
