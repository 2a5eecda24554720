//! Behavioural tests for the external B+-tree: correctness against an
//! in-core oracle and conformance to the paper's §1.1 I/O bounds.

use ccix_bptree::{BPlusTree, Entry};
use ccix_extmem::{Disk, Geometry, IoCounter};
use std::collections::BTreeSet;

fn fresh(page_size: usize) -> (Disk, IoCounter) {
    let counter = IoCounter::new();
    (Disk::new(page_size, counter.clone()), counter)
}

#[test]
fn empty_tree_queries() {
    let (mut disk, _) = fresh(256);
    let tree = BPlusTree::new(&mut disk);
    assert!(tree.is_empty());
    assert_eq!(tree.get(&disk, 0), None);
    assert!(tree.range(&disk, i64::MIN, i64::MAX).is_empty());
    tree.validate_unbilled(&disk);
}

#[test]
fn insert_then_get() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    for k in 0..500i64 {
        tree.insert(&mut disk, k * 3, k as u64);
    }
    assert_eq!(tree.len(), 500);
    for k in 0..500i64 {
        assert_eq!(tree.get(&disk, k * 3), Some(k as u64), "key {}", k * 3);
        assert_eq!(tree.get(&disk, k * 3 + 1), None);
    }
    tree.validate_unbilled(&disk);
}

#[test]
fn duplicate_keys_coexist_and_are_returned() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    for v in 0..200u64 {
        tree.insert(&mut disk, 7, v);
    }
    tree.insert(&mut disk, 3, 1);
    tree.insert(&mut disk, 9, 2);
    let hits = tree.range(&disk, 7, 7);
    assert_eq!(hits.len(), 200);
    assert_eq!(hits, (0..200u64).collect::<Vec<_>>());
    tree.validate_unbilled(&disk);
}

#[test]
fn exact_duplicate_pair_is_ignored() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    tree.insert(&mut disk, 1, 1);
    tree.insert(&mut disk, 1, 1);
    assert_eq!(tree.len(), 1);
}

#[test]
fn range_matches_oracle_random() {
    let (mut disk, _) = fresh(512);
    let mut tree = BPlusTree::new(&mut disk);
    let mut oracle: BTreeSet<(i64, u64)> = BTreeSet::new();
    let mut x: u64 = 0x9E3779B97F4A7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..3000u64 {
        let k = (next() % 1000) as i64 - 500;
        tree.insert(&mut disk, k, i);
        oracle.insert((k, i));
    }
    for _ in 0..50 {
        let a = (next() % 1200) as i64 - 600;
        let b = a + (next() % 300) as i64;
        let got = tree.range(&disk, a, b);
        let want: Vec<u64> = oracle
            .iter()
            .filter(|(k, _)| *k >= a && *k <= b)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(got, want, "range [{a}, {b}]");
    }
    tree.validate_unbilled(&disk);
}

#[test]
fn delete_random_interleaved() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    let mut oracle: BTreeSet<(i64, u64)> = BTreeSet::new();
    let mut x: u64 = 0xDEADBEEF12345678;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..2000u64 {
        let k = (next() % 300) as i64;
        if next() % 3 == 0 {
            // Delete a (possibly absent) pair.
            let v = next() % 50;
            let present = oracle.remove(&(k, v));
            assert_eq!(tree.delete(&mut disk, k, v), present, "delete ({k},{v})");
        } else {
            let v = i % 50;
            tree.insert(&mut disk, k, v);
            oracle.insert((k, v));
        }
        if i % 277 == 0 {
            tree.validate_unbilled(&disk);
        }
    }
    assert_eq!(tree.len(), oracle.len() as u64);
    let got = tree.range(&disk, i64::MIN, i64::MAX);
    let want: Vec<u64> = oracle.iter().map(|&(_, v)| v).collect();
    assert_eq!(got, want);
    tree.validate_unbilled(&disk);
}

#[test]
fn delete_everything_collapses_to_empty_root() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    for k in 0..800i64 {
        tree.insert(&mut disk, k, k as u64);
    }
    for k in 0..800i64 {
        assert!(tree.delete(&mut disk, k, k as u64));
    }
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 1);
    assert_eq!(tree.validate_unbilled(&disk), 1, "only the empty root leaf");
}

#[test]
fn bulk_load_equals_incremental() {
    let (mut disk, _) = fresh(512);
    let entries: Vec<Entry> = (0..5000i64)
        .map(|k| Entry::new(k, (k * 2) as u64))
        .collect();
    let bulk = BPlusTree::bulk_load(&mut disk, &entries);
    bulk.validate_unbilled(&disk);

    let (mut disk2, _) = fresh(512);
    let mut inc = BPlusTree::new(&mut disk2);
    for e in &entries {
        inc.insert(&mut disk2, e.key, e.value);
    }
    for probe in [-1i64, 0, 1, 2499, 4999, 5000] {
        assert_eq!(bulk.get(&disk, probe), inc.get(&disk2, probe));
    }
    assert_eq!(bulk.range(&disk, 100, 222), inc.range(&disk2, 100, 222));
}

#[test]
fn bulk_load_empty() {
    let (mut disk, _) = fresh(256);
    let tree = BPlusTree::bulk_load(&mut disk, &[]);
    assert!(tree.is_empty());
    tree.validate_unbilled(&disk);
}

/// §1.1: a range query costs `O(log_B n + t/B)` I/Os. We assert the measured
/// cost against the bound with a small explicit constant.
#[test]
fn range_query_io_bound() {
    let page_size = 1024; // leaf capacity (1024-7)/24 = 42
    let (mut disk, counter) = fresh(page_size);
    let n = 60_000i64;
    let entries: Vec<Entry> = (0..n).map(|k| Entry::new(k, k as u64)).collect();
    let tree = BPlusTree::bulk_load(&mut disk, &entries);
    let b = (page_size - 7) / 24;
    let geo = Geometry::new(b);

    for (lo, hi) in [(0, 0), (17, 17), (100, 5_000), (0, n - 1), (59_000, 59_999)] {
        let before = counter.snapshot();
        let got = tree.range(&disk, lo, hi);
        let cost = counter.since(before);
        let t = got.len();
        assert_eq!(t as i64, hi - lo + 1);
        let bound = 3 * (geo.log_b(n as usize) + geo.out_blocks(t)) + 2;
        assert!(
            cost.reads <= bound as u64,
            "range [{lo},{hi}]: {} reads > bound {bound}",
            cost.reads
        );
        assert_eq!(cost.writes, 0, "queries must not write");
    }
}

/// §1.1: inserts cost `O(log_B n)` I/Os (splits amortise; we assert the
/// worst single insert against height + a split chain).
#[test]
fn insert_io_bound() {
    let (mut disk, counter) = fresh(1024);
    let mut tree = BPlusTree::new(&mut disk);
    let mut worst = 0u64;
    for k in 0..30_000i64 {
        let before = counter.snapshot();
        tree.insert(&mut disk, k, k as u64);
        worst = worst.max(counter.since(before).total());
    }
    // Reads ≤ height; writes ≤ 2·height + 1 on a full split chain.
    let bound = (3 * tree.height() + 2) as u64;
    assert!(worst <= bound, "worst insert {worst} > bound {bound}");
}

/// §1.1: the tree occupies `O(n/B)` pages.
#[test]
fn space_bound() {
    let page_size = 1024;
    let (mut disk, _) = fresh(page_size);
    let n = 50_000i64;
    let entries: Vec<Entry> = (0..n).map(|k| Entry::new(k, k as u64)).collect();
    let tree = BPlusTree::bulk_load(&mut disk, &entries);
    let pages = tree.validate_unbilled(&disk);
    let b = (page_size - 7) / 24;
    let min_pages = (n as usize).div_ceil(b);
    assert!(pages >= min_pages);
    assert!(
        pages <= 3 * min_pages + 3,
        "space {pages} pages exceeds 3·n/B = {}",
        3 * min_pages + 3
    );
}

#[test]
fn get_finds_key_at_leaf_boundary() {
    // Force a key to be the first entry of a right leaf: regression test for
    // the next-leaf probe in `get`.
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    for k in 0..64i64 {
        tree.insert(&mut disk, k * 2, k as u64);
    }
    for k in 0..64i64 {
        assert_eq!(tree.get(&disk, k * 2), Some(k as u64));
    }
}

#[test]
fn scan_and_extrema() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    assert_eq!(tree.first(&disk), None);
    assert_eq!(tree.last(&disk), None);
    assert!(tree.scan(&disk).is_empty());
    for k in [5i64, -3, 9, 0, 12] {
        tree.insert(&mut disk, k, (k + 100) as u64);
    }
    let scan = tree.scan(&disk);
    let keys: Vec<i64> = scan.iter().map(|e| e.key).collect();
    assert_eq!(keys, vec![-3, 0, 5, 9, 12]);
    assert_eq!(tree.first(&disk).unwrap().key, -3);
    assert_eq!(tree.last(&disk).unwrap().key, 12);
}

#[test]
fn extrema_after_heavy_churn() {
    let (mut disk, _) = fresh(256);
    let mut tree = BPlusTree::new(&mut disk);
    for k in 0..1_000i64 {
        tree.insert(&mut disk, k, k as u64);
    }
    for k in 0..500i64 {
        assert!(tree.delete(&mut disk, k, k as u64));
    }
    assert_eq!(tree.first(&disk).unwrap().key, 500);
    assert_eq!(tree.last(&disk).unwrap().key, 999);
    assert_eq!(tree.scan(&disk).len(), 500);
}
