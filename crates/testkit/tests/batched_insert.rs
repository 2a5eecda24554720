//! Differential suite for the batched write path.
//!
//! The batched update buffers (`ccix_core::Tuning`) defer level-I
//! reorganisations by several pages of pending inserts, so the properties
//! that need pinning are (a) **mid-batch visibility** — a query issued
//! while buffers are partially full must still agree with the oracle, for
//! every tuning, and (b) the **amortised insert budget** — batching must
//! keep the per-insert I/O under an explicit constant·bound envelope,
//! enforced with an `IoProbe` over windows of `10·B` inserts.

use ccix_core::{MetablockTree, Tuning};
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_interval::IndexBuilder;
use ccix_testkit::iocheck::{assert_read_only, IoProbe};
use ccix_testkit::{check, oracle, workloads, DetRng};

/// A tuning drawn from the corners of the knob space (paper constants,
/// shipped defaults, heavy batching, tight TS budget).
fn random_tuning(rng: &mut DetRng) -> Tuning {
    match rng.gen_range(0..4u32) {
        0 => Tuning::paper(),
        1 => Tuning::default(),
        2 => Tuning {
            update_batch_pages: rng.gen_range(1..9usize),
            td_batch_pages: rng.gen_range(1..5usize),
            tomb_batch_pages: rng.gen_range(1..5usize),
            ts_snapshot_pages: None,
            corner_alpha: rng.gen_range(2..5usize),
            pack_h_pages: rng.gen_range(0..9usize),
            resident_root: rng.gen_bool(0.5),
            ..Tuning::default()
        },
        _ => Tuning {
            update_batch_pages: 8,
            td_batch_pages: 4,
            tomb_batch_pages: rng.gen_range(1..9usize),
            ts_snapshot_pages: Some(rng.gen_range(1..9usize)),
            corner_alpha: 2,
            pack_h_pages: rng.gen_range(0..5usize),
            resident_root: rng.gen_bool(0.5),
            ..Tuning::default()
        },
    }
}

/// Mid-batch pending-buffer visibility: interleave inserts with stabbing
/// queries so most queries run while update buffers and TD staging areas
/// are partially full, and every answer must match the linear-scan oracle.
#[test]
fn mid_batch_queries_agree_with_oracle() {
    check::trials("batched_insert::mid_batch_visibility", 48, 0xBA7C, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let n = rng.gen_range(1..500usize);
        let range = rng.gen_range(20i64..600);
        let ivs = workloads::uniform_intervals(n, rng.next_u64(), range, range / 2 + 1);

        // A random prefix is bulk-built; the rest arrives incrementally.
        let split = rng.gen_range(0..ivs.len() + 1);
        let counter = IoCounter::new();
        let mut tree = MetablockTree::build_tuned(
            geo,
            counter.clone(),
            workloads::interval_points(&ivs[..split]),
            Default::default(),
            tuning,
        );
        for (i, iv) in ivs[split..].iter().enumerate() {
            tree.insert(Point::new(iv.lo, iv.hi, iv.id));
            // Query *between* inserts — deliberately not aligned to the
            // B-insert batch boundary, so pending pages must be visible.
            if i % 3 == 0 {
                let so_far = &ivs[..split + i + 1];
                let q = rng.gen_range(-5..range + 5);
                let probe = IoProbe::start(&counter, format!("mid-batch stabbing({q})"));
                let got: Vec<u64> = tree.query(q).iter().map(|p| p.id).collect();
                assert_read_only(probe.finish_query(got.len()), "mid-batch stabbing");
                oracle::assert_same_ids(
                    got,
                    oracle::stabbing_ids(so_far, q),
                    &format!("b={b} tuning={tuning:?} q={q}"),
                );
            }
        }
        tree.validate_unbilled();
    });
}

/// As above through the interval index, exercising
/// the intersection query's x-range path against pending buffers.
#[test]
fn mid_batch_intersections_agree_with_oracle() {
    check::trials(
        "batched_insert::mid_batch_intersections",
        32,
        0xBA7D,
        |rng| {
            let b = rng.gen_range(2usize..9);
            let geo = Geometry::new(b);
            let tuning = random_tuning(rng);
            let n = rng.gen_range(1..400usize);
            let range = rng.gen_range(20i64..500);
            let ivs = workloads::uniform_intervals(n, rng.next_u64(), range, range / 3 + 1);
            let mut idx = IndexBuilder::new(geo).tuning(tuning).open(IoCounter::new());
            for (i, iv) in ivs.iter().enumerate() {
                idx.insert(iv.lo, iv.hi, iv.id);
                if i % 5 == 0 {
                    let so_far = &ivs[..i + 1];
                    let a = rng.gen_range(-5..range + 5);
                    let w = rng.gen_range(0i64..60);
                    let probe =
                        IoProbe::start(idx.counter(), format!("intersecting({a},{})", a + w));
                    let got = idx.intersecting(a, a + w);
                    assert_read_only(probe.finish_query(got.len()), "mid-batch intersecting");
                    oracle::assert_same_ids(
                        got,
                        oracle::intersecting_ids(so_far, a, a + w),
                        &format!("b={b} tuning={tuning:?} q=[{a},{}]", a + w),
                    );
                }
            }
        },
    );
}

/// Amortised-cost envelope: across every window of `10·B` inserts, the
/// batched write path must stay within a constant multiple of the
/// Theorem 3.7 bound. The probe brackets whole windows so reorganisation
/// spikes are averaged exactly as the amortised claim states.
#[test]
fn amortised_insert_cost_within_bound() {
    for &b in &[8usize, 16, 32] {
        let geo = Geometry::new(b);
        let n = 6_000 * b / 8; // scale work with B, keep runtime modest
        let counter = IoCounter::new();
        let mut tree = MetablockTree::new(geo, counter.clone());
        let mut rng = DetRng::new(0xA3_0000 + b as u64);
        let window = 10 * b;
        let logb = geo.log_b(n) as f64;
        // Steady-state cost ≈ path pins + buffer page touches plus the
        // amortised level-I/TS terms: 6× the theorem bound + 12 per insert.
        // A window can additionally contain reorganisations whose cost is
        // amortised over far more inserts than the window holds: a level-II
        // push-down re-routes Θ(B²) points (Θ(B²·log_B n) I/Os, amortised
        // over the B² inserts that filled the metablock) and a branching
        // split statically rebuilds O(n/B) pages — so each window gets a
        // one-spike allowance for both.
        let per_insert_budget = 6.0 * (logb + logb * logb / b as f64) + 12.0;
        let push_down_spike = 4 * b * b * geo.log_b(n);

        let mut inserted = 0usize;
        while inserted < n {
            let spike_allowance = (14 * inserted.max(window)) / b + push_down_spike + 64;
            let window_budget =
                (per_insert_budget * window as f64).ceil() as u64 + spike_allowance as u64;
            let probe = IoProbe::start(&counter, format!("b={b} window at {inserted}"));
            for _ in 0..window {
                let lo = rng.gen_range(0..(4 * n) as i64);
                let len = rng.gen_range(0..1_000i64);
                tree.insert(Point::new(lo, lo + len, inserted as u64));
                inserted += 1;
            }
            probe.finish_within(window_budget);
        }
        tree.validate_unbilled();
    }
}
