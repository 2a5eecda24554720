//! Differential suite: `RakeClassIndex` vs `RangeTreeClassIndex` vs the
//! flat-scan oracle (and, on a fixed workload, both baselines too), across
//! all hierarchy shapes and object skews, under interleaved insertion —
//! and, for all four strategies, the static bulk load against incremental
//! growth and the oracle, before and along a mixed insert/delete flood.

use ccix_class::{
    ClassIndex, ClassOp, FullExtentBaseline, Hierarchy, IndexBuilder, Object, RakeClassIndex,
    RangeTreeClassIndex, SingleIndexBaseline, Strategy,
};
use ccix_extmem::{Geometry, IoCounter};
use ccix_testkit::{check, oracle, workloads, DetRng};

fn random_hierarchy(rng: &mut DetRng) -> Hierarchy {
    if rng.gen_bool(0.5) {
        let shape = *rng
            .choose(&workloads::HierarchyShape::ALL)
            .expect("nonempty");
        workloads::hierarchy(shape, rng.gen_range(1..40usize), rng.next_u64())
    } else {
        Hierarchy::from_parents(&workloads::random_forest(rng, 40))
    }
}

fn random_objects(rng: &mut DetRng, h: &Hierarchy, attr_range: i64) -> Vec<Object> {
    let n = rng.gen_range(1..250usize);
    if rng.gen_bool(0.5) {
        workloads::uniform_objects(h, n, rng.next_u64(), attr_range)
    } else {
        workloads::skewed_objects(h, n, rng.next_u64(), attr_range)
    }
}

#[test]
fn rake_rangetree_and_scan_agree() {
    check::trials("diff_class::rake_rangetree_scan", 50, 0xCA1, |rng| {
        let h = random_hierarchy(rng);
        let geo = Geometry::new(rng.gen_range(2usize..8));
        let attr_range = 120i64;
        let objects = random_objects(rng, &h, attr_range);
        let mut rake = RakeClassIndex::new(h.clone(), geo, IoCounter::new());
        let mut rtree = RangeTreeClassIndex::new(h.clone(), geo, IoCounter::new());
        let mut inserted: Vec<Object> = Vec::new();
        for o in &objects {
            rake.insert(*o);
            rtree.insert(*o);
            inserted.push(*o);
            // Query mid-stream every so often: agreement must hold at every
            // prefix, not only after the full load.
            if inserted.len().is_multiple_of(60) {
                let class = rng.gen_range(0..h.len());
                let a = rng.gen_range(0..attr_range);
                let want = oracle::class_range_ids(&h, &inserted, class, a, a + 20);
                oracle::assert_same_ids(rake.query(class, a, a + 20), want.clone(), "rake mid");
                oracle::assert_same_ids(rtree.query(class, a, a + 20), want, "rangetree mid");
            }
        }
        for _ in 0..10 {
            let class = rng.gen_range(0..h.len());
            let a = rng.gen_range(-5i64..attr_range);
            let w = rng.gen_range(0i64..attr_range / 2);
            let want = oracle::class_range_ids(&h, &inserted, class, a, a + w);
            oracle::assert_same_ids(
                rake.query(class, a, a + w),
                want.clone(),
                &format!("rake class={class} [{a},{}]", a + w),
            );
            oracle::assert_same_ids(
                rtree.query(class, a, a + w),
                want,
                &format!("rangetree class={class} [{a},{}]", a + w),
            );
        }
    });
}

#[test]
fn all_four_strategies_agree_on_example_hierarchy() {
    let (h, [person, professor, student, asst_prof]) = Hierarchy::example_people();
    let geo = Geometry::new(4);
    let objects = workloads::uniform_objects(&h, 300, 0xCA2, 100);
    let mut strategies: Vec<Box<dyn ClassIndex>> = vec![
        Box::new(SingleIndexBaseline::new(h.clone(), geo, IoCounter::new())),
        Box::new(FullExtentBaseline::new(h.clone(), geo, IoCounter::new())),
        Box::new(RangeTreeClassIndex::new(h.clone(), geo, IoCounter::new())),
        Box::new(RakeClassIndex::new(h.clone(), geo, IoCounter::new())),
    ];
    for s in strategies.iter_mut() {
        for o in &objects {
            s.insert(*o);
        }
    }
    for class in [person, professor, student, asst_prof] {
        for (a1, a2) in [(0i64, 99i64), (25, 75), (50, 50), (90, 120), (-10, -1)] {
            let want = oracle::class_range_ids(&h, &objects, class, a1, a2);
            for s in &strategies {
                oracle::assert_same_ids(
                    s.query(class, a1, a2),
                    want.clone(),
                    &format!("{} class={class} [{a1},{a2}]", s.name()),
                );
            }
        }
    }
}

#[test]
fn deep_path_hierarchy_stresses_full_extents() {
    // A pure chain is the worst case for full-extent queries: the root's
    // extent is everything, and each step down sheds exactly one class.
    check::trials("diff_class::deep_path", 20, 0xCA3, |rng| {
        let depth = rng.gen_range(2usize..30);
        let h = workloads::hierarchy(workloads::HierarchyShape::Path, depth, 0);
        let geo = Geometry::new(3);
        let objects = workloads::uniform_objects(&h, 150, rng.next_u64(), 60);
        let mut rake = RakeClassIndex::new(h.clone(), geo, IoCounter::new());
        let mut rtree = RangeTreeClassIndex::new(h.clone(), geo, IoCounter::new());
        for o in &objects {
            rake.insert(*o);
            rtree.insert(*o);
        }
        for class in 0..h.len() {
            let want = oracle::class_range_ids(&h, &objects, class, 0, 60);
            oracle::assert_same_ids(rake.query(class, 0, 60), want.clone(), "rake chain");
            oracle::assert_same_ids(rtree.query(class, 0, 60), want, "rangetree chain");
        }
    });
}

// ---------------------------------------------------------------------
// Static bulk load (`IndexBuilder::bulk`) vs incremental growth vs oracle.

const ATTR_RANGE: i64 = 120;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Single,
    Strategy::FullExtent,
    Strategy::RangeTree,
    Strategy::Rake,
];

/// Every hierarchy family: the four `HierarchyShape`s and a random forest.
fn every_hierarchy(rng: &mut DetRng) -> Vec<Hierarchy> {
    let mut all: Vec<Hierarchy> = workloads::HierarchyShape::ALL
        .iter()
        .map(|&shape| workloads::hierarchy(shape, rng.gen_range(1..40usize), rng.next_u64()))
        .collect();
    all.push(Hierarchy::from_parents(&workloads::random_forest(rng, 40)));
    all
}

/// Random single queries and one `query_batch` on both indexes against the
/// oracle over `live`.
fn assert_queries<I: ClassIndex + ?Sized>(
    rng: &mut DetRng,
    h: &Hierarchy,
    live: &[Object],
    bulk: &I,
    inc: &I,
    when: &str,
) {
    let queries: Vec<(usize, i64, i64)> = (0..8)
        .map(|_| {
            let a = rng.gen_range(-5i64..ATTR_RANGE);
            (
                rng.gen_range(0..h.len()),
                a,
                a + rng.gen_range(0i64..ATTR_RANGE / 2),
            )
        })
        .collect();
    let (bulk_batch, inc_batch) = (bulk.query_batch(&queries), inc.query_batch(&queries));
    for (i, &(class, a1, a2)) in queries.iter().enumerate() {
        let want = oracle::class_range_ids(h, live, class, a1, a2);
        let ctx = |what: &str| format!("{} {what} {when} class={class} [{a1},{a2}]", bulk.name());
        oracle::assert_same_ids(bulk.query(class, a1, a2), want.clone(), &ctx("bulk"));
        oracle::assert_same_ids(inc.query(class, a1, a2), want.clone(), &ctx("incremental"));
        oracle::assert_same_ids(bulk_batch[i].clone(), want.clone(), &ctx("bulk batch"));
        oracle::assert_same_ids(inc_batch[i].clone(), want, &ctx("incremental batch"));
    }
}

/// Apply one chunk of flood ops in one of three ways: single calls, one
/// `delete_batch` after the chunk's single inserts, or `apply_batch`es cut
/// wherever a delete targets an insert of the same batch (the batch
/// contract wants independent ops).
fn apply_chunk<I: ClassIndex + ?Sized>(idx: &mut I, ops: &[workloads::ObjectOp], mode: usize) {
    use workloads::ObjectOp;
    match mode % 3 {
        0 => {
            for op in ops {
                match *op {
                    ObjectOp::Insert(o) => idx.insert(o),
                    ObjectOp::Delete(o) => idx.delete(o),
                    ObjectOp::Query(..) => {}
                }
            }
        }
        1 => {
            let mut victims = Vec::new();
            for op in ops {
                match *op {
                    ObjectOp::Insert(o) => idx.insert(o),
                    ObjectOp::Delete(o) => victims.push(o),
                    ObjectOp::Query(..) => {}
                }
            }
            idx.delete_batch(&victims);
        }
        _ => {
            let mut batch: Vec<ClassOp> = Vec::new();
            for op in ops {
                match *op {
                    ObjectOp::Insert(o) => batch.push(ClassOp::Insert(o)),
                    ObjectOp::Delete(o) => {
                        if batch.contains(&ClassOp::Insert(o)) {
                            idx.apply_batch(&batch);
                            batch.clear();
                        }
                        batch.push(ClassOp::Delete(o));
                    }
                    ObjectOp::Query(..) => {}
                }
            }
            idx.apply_batch(&batch);
        }
    }
}

/// `bulk` holds `objects` from a static load, `inc` the same from inserts:
/// both must agree with the oracle now and at every prefix of a mixed
/// flood that also deletes from the loaded set. `check` sees both indexes
/// and the live set after the load and after every chunk.
fn load_then_flood<I: ClassIndex + ?Sized>(
    rng: &mut DetRng,
    h: &Hierarchy,
    objects: &[Object],
    bulk: &mut I,
    inc: &mut I,
    check: impl Fn(&I, &I, &[Object]),
) {
    assert_queries(rng, h, objects, bulk, inc, "after load");
    check(bulk, inc, objects);
    let mut flood = workloads::ObjectFlood::new(h, rng.next_u64(), ATTR_RANGE, 45, 0)
        .resume_from(objects.to_vec(), objects.len() as u64);
    for step in 0..6 {
        let ops = flood.next_ops(rng.gen_range(1..60usize));
        apply_chunk(bulk, &ops, step);
        apply_chunk(inc, &ops, step);
        assert_queries(
            rng,
            h,
            &flood.live,
            bulk,
            inc,
            &format!("after chunk {step}"),
        );
        check(bulk, inc, &flood.live);
    }
}

#[test]
fn bulk_built_matches_incremental_and_oracle_for_every_strategy() {
    check::trials("diff_class::bulk_every_strategy", 8, 0xCA4, |rng| {
        for h in every_hierarchy(rng) {
            let geo = Geometry::new(rng.gen_range(2usize..8));
            let objects = random_objects(rng, &h, ATTR_RANGE);
            for strategy in STRATEGIES {
                let builder = IndexBuilder::new(h.clone(), geo).strategy(strategy);
                let mut bulk = builder.bulk(IoCounter::new(), &objects);
                let mut inc = builder.open(IoCounter::new());
                for o in &objects {
                    inc.insert(*o);
                }
                load_then_flood(rng, &h, &objects, &mut *bulk, &mut *inc, |_, _, _| {});
            }
        }
    });
}

#[test]
fn bulk_built_rake_validates_and_keeps_theorem_4_7_space() {
    check::trials("diff_class::bulk_rake_structure", 12, 0xCA5, |rng| {
        for h in every_hierarchy(rng) {
            let geo = Geometry::new(rng.gen_range(2usize..8));
            let objects = random_objects(rng, &h, ATTR_RANGE);
            let tuning = ccix_core::Tuning::default();
            let mut bulk =
                RakeClassIndex::bulk_tuned(h.clone(), geo, IoCounter::new(), tuning, &objects);
            let mut inc = RakeClassIndex::new(h.clone(), geo, IoCounter::new());
            for o in &objects {
                inc.insert(*o);
            }
            assert_eq!(bulk.len(), objects.len());
            // Theorem 4.7's space, O((n/B)·log2 c), with the constant
            // stated: Σ copies(class) is the n·log2 c term exactly, and a
            // 3-sided metablock keeps each point in at most five
            // organisations (two blockings, PST, two TS snapshots). A
            // static load is *not* smaller than an insert-grown index —
            // it materialises every organisation at once (docs/tuning.md
            // § Set-up and recovery) — so both are held to the bound
            // rather than to each other.
            let copies: usize = objects.iter().map(|o| bulk.copies(o.class)).sum();
            let bound = 10 * (copies.div_ceil(geo.b) + bulk.heavy_paths().paths.len());
            for (how, idx) in [("static", &bulk), ("incremental", &inc)] {
                assert!(
                    idx.space_pages() <= bound,
                    "{how} load takes {} pages, Thm 4.7 bound {bound}",
                    idx.space_pages()
                );
            }
            // Every per-path structure passes its own validator and holds
            // one copy per placement, after the load and along the flood.
            load_then_flood(rng, &h, &objects, &mut bulk, &mut inc, |bulk, inc, live| {
                let copies: usize = live.iter().map(|o| bulk.copies(o.class)).sum();
                assert_eq!(bulk.validate_unbilled(), copies, "bulk-built copies");
                assert_eq!(inc.validate_unbilled(), copies, "incremental copies");
                assert_eq!(bulk.len(), live.len());
            });
        }
    });
}

#[test]
fn bulk_edge_inputs() {
    let h = workloads::hierarchy(workloads::HierarchyShape::Balanced, 15, 0);
    let geo = Geometry::new(4);
    let leaf = 14; // a singleton-leaf heavy path of the balanced tree
    let inputs: [(&str, Vec<Object>); 3] = [
        ("empty", Vec::new()),
        ("single", vec![Object::new(5, 7, 0)]),
        (
            "one leaf class",
            (0..200)
                .map(|i| Object::new(leaf, i % 50, i as u64))
                .collect(),
        ),
    ];
    for (what, objects) in inputs {
        for strategy in STRATEGIES {
            let builder = IndexBuilder::new(h.clone(), geo).strategy(strategy);
            let mut idx = builder.bulk(IoCounter::new(), &objects);
            for class in 0..h.len() {
                let want = oracle::class_range_ids(&h, &objects, class, 0, 60);
                oracle::assert_same_ids(
                    idx.query(class, 0, 60),
                    want,
                    &format!("{} {what} class={class}", idx.name()),
                );
            }
            if objects.is_empty() {
                // One empty root leaf per B+-tree and nothing else: a
                // loaded tree replaces no pre-allocated empty one.
                let singleton_paths = ccix_class::heavy::decompose(&h)
                    .paths
                    .iter()
                    .filter(|p| p.len() == 1)
                    .count();
                let trees = match strategy {
                    Strategy::Single => 1,
                    Strategy::FullExtent => h.len(),
                    Strategy::RangeTree => 2 * h.len() - 1,
                    Strategy::Rake => singleton_paths,
                };
                assert_eq!(idx.space_pages(), trees, "{} {what}", idx.name());
            }
            // A static load leaves an ordinary, updatable index.
            let extra = Object::new(leaf, 55, 1_000);
            idx.insert(extra);
            assert_eq!(idx.query(0, 55, 55), vec![1_000], "{} {what}", idx.name());
            idx.delete(extra);
            assert!(idx.query(0, 55, 55).is_empty(), "{} {what}", idx.name());
        }
    }
}

#[test]
#[should_panic(expected = "duplicate point ids")]
fn bulk_rejects_a_duplicate_id() {
    let h = workloads::hierarchy(workloads::HierarchyShape::Balanced, 7, 0);
    let objects = [Object::new(3, 10, 1), Object::new(4, 20, 1)];
    IndexBuilder::new(h, Geometry::new(4)).bulk(IoCounter::new(), &objects);
}
