//! Property suite for the merge-based reorganisation pipeline (PR 4).
//!
//! Level-I, TS and level-II reorganisations no longer sort from scratch:
//! they merge the already-sorted runs with sorted deltas
//! (`ccix_extmem::merge`). The invariants that pins down are **mid-flood
//! run discipline** — after every reorganisation trigger the mains must
//! still be strictly x-sorted (vertical) and y-sorted (horizontal), the
//! TS/TSL/TSR snapshots y-sorted with sound `truncated` bits, and every
//! run densely packed — plus **oracle agreement** of full query answers via
//! `assert_same_points`. The run-sortedness and density checks live in
//! both trees' `validate_unbilled`, so a merge regression fails in
//! `validate` (every structural walk), not only here.
//!
//! A reorganisation trigger is detected from the outside: an insert whose
//! I/O delta exceeds the quiet-path bound must have fired at least a
//! level-I; the validator runs right there, mid-flood, while the
//! surrounding buffers are in whatever partial state the trigger left.

use ccix_core::{MetablockTree, ThreeSidedTree, Tuning};
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_testkit::iocheck::IoProbe;
use ccix_testkit::{check, oracle, workloads, DetRng};

/// A tuning from the corners of the knob space.
fn random_tuning(rng: &mut DetRng) -> Tuning {
    match rng.gen_range(0..3u32) {
        0 => Tuning::paper(),
        1 => Tuning::default(),
        _ => Tuning {
            update_batch_pages: rng.gen_range(1..9usize),
            td_batch_pages: rng.gen_range(1..5usize),
            tomb_batch_pages: rng.gen_range(1..5usize),
            ts_snapshot_pages: if rng.gen_bool(0.5) {
                None
            } else {
                Some(rng.gen_range(1..9usize))
            },
            corner_alpha: rng.gen_range(2..5usize),
            pack_h_pages: rng.gen_range(0..5usize),
            resident_root: rng.gen_bool(0.5),
            ..Tuning::default()
        },
    }
}

/// An insert that stayed on the quiet path (buffer append, path pins, TD
/// staging) spends at most this many I/Os; anything above it fired a
/// reorganisation.
fn quiet_insert_bound(tree_height_hint: usize, tuning: &Tuning, b: usize) -> u64 {
    let buffers = 2 * (tuning.update_batch_pages + tuning.td_batch_pages + 2);
    (2 * tree_height_hint + buffers + b) as u64
}

/// Diagonal tree: flood inserts over a built prefix; validate (sortedness,
/// density, TS coverage) at every detected reorganisation trigger and
/// check full-answer oracle agreement via `assert_same_points`.
#[test]
fn diag_reorganisations_keep_runs_sorted_and_answers_exact() {
    check::trials("merge_pipeline::diag", 40, 0x4D47, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let n = rng.gen_range(1..400usize);
        let range = rng.gen_range(20i64..600);
        let ivs = workloads::uniform_intervals(n, rng.next_u64(), range, range / 2 + 1);
        let split = rng.gen_range(0..ivs.len() + 1);
        let counter = IoCounter::new();
        let mut tree = MetablockTree::build_tuned(
            geo,
            counter.clone(),
            workloads::interval_points(&ivs[..split]),
            Default::default(),
            tuning,
        );
        tree.validate_unbilled();

        let quiet = quiet_insert_bound(6, &tuning, b);
        let mut triggers = 0usize;
        for (i, iv) in ivs[split..].iter().enumerate() {
            let probe = IoProbe::start(&counter, "diag insert");
            tree.insert(Point::new(iv.lo, iv.hi, iv.id));
            let (delta, _) = probe.finish_timed();
            if delta.total() > quiet {
                // A reorganisation fired: every run must already be back in
                // merge-clean shape, mid-flood.
                triggers += 1;
                tree.validate_unbilled();
            }
            if i % 7 == 0 {
                let so_far = workloads::interval_points(&ivs[..split + i + 1]);
                let q = rng.gen_range(-5..range + 5);
                oracle::assert_same_points(
                    tree.query(q),
                    oracle::diagonal_corner(&so_far, q),
                    &format!("diag b={b} tuning={tuning:?} q={q}"),
                );
            }
        }
        // At least the final state validates even when no trigger fired.
        if triggers == 0 {
            tree.validate_unbilled();
        }
    });
}

/// 3-sided tree: the same discipline over TSL/TSR snapshots and the PST
/// layout-reuse rebuilds.
#[test]
fn threesided_reorganisations_keep_runs_sorted_and_answers_exact() {
    check::trials("merge_pipeline::threesided", 32, 0x35D3, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let n = rng.gen_range(1..350usize);
        let range = rng.gen_range(20i64..600);
        let pts = workloads::uniform_points(n, rng.next_u64(), range);
        let split = rng.gen_range(0..pts.len() + 1);
        let counter = IoCounter::new();
        let mut tree =
            ThreeSidedTree::build_tuned(geo, counter.clone(), pts[..split].to_vec(), tuning);
        tree.validate_unbilled();

        let quiet = quiet_insert_bound(6, &tuning, b);
        for (i, p) in pts[split..].iter().enumerate() {
            let probe = IoProbe::start(&counter, "3sided insert");
            tree.insert(*p);
            let (delta, _) = probe.finish_timed();
            if delta.total() > quiet {
                tree.validate_unbilled();
            }
            if i % 7 == 0 {
                let so_far = &pts[..split + i + 1];
                let x1 = rng.gen_range(-5..range + 5);
                let x2 = x1 + rng.gen_range(0..range / 2 + 1);
                let y0 = rng.gen_range(-5..range + 5);
                oracle::assert_same_points(
                    tree.query(x1, x2, y0),
                    oracle::three_sided(so_far, x1, x2, y0),
                    &format!("3sided b={b} tuning={tuning:?} q=({x1},{x2},{y0})"),
                );
            }
        }
        tree.validate_unbilled();
    });
}

/// The merge pipeline and a from-scratch rebuild must produce identical
/// structures: floods driven through inserts agree — page-for-page counts
/// and stats — with a fresh `build` over the same final point set.
#[test]
fn flooded_tree_matches_fresh_build_answers() {
    check::trials("merge_pipeline::flood_vs_fresh", 16, 0xF10D, |rng| {
        let b = rng.gen_range(2usize..7);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let n = rng.gen_range(50..500usize);
        let range = 300i64;
        let ivs = workloads::uniform_intervals(n, rng.next_u64(), range, 80);
        let counter = IoCounter::new();
        let mut flooded = MetablockTree::new_tuned(geo, counter, Default::default(), tuning);
        for iv in &ivs {
            flooded.insert(Point::new(iv.lo, iv.hi, iv.id));
        }
        flooded.validate_unbilled();
        let fresh = MetablockTree::build_tuned(
            geo,
            IoCounter::new(),
            workloads::interval_points(&ivs),
            Default::default(),
            tuning,
        );
        for q in (-5..range + 5).step_by(11) {
            oracle::assert_same_points(
                flooded.query(q),
                fresh.query(q),
                &format!("flood-vs-fresh b={b} q={q}"),
            );
        }
    });
}
