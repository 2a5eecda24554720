//! The rake index's 3-sided path structures pinned page for page: a
//! seeded flood of single inserts and deletes, as `lib_class` sends them,
//! over a statically built index on a balanced hierarchy. The flood fires
//! level-I, TD folds, TS reorganisations, push-downs and leaf splits in
//! its path structures, and the bills, the summed reorganisation counts
//! and an FNV-1a digest of every structure's `stats()`, counts, and every
//! page of its point store and of each of its PST stores are pinned to
//! constants, so a change of how a reorganisation derives its orders that
//! moves one point, one node or one page id fails here.

use ccix_testkit::DetRng;

use super::*;

/// Fold `bytes` into an FNV-1a digest.
fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold page images (id, then encoded records) into `digest`.
fn fold_pages(digest: &mut u64, images: &[(u32, Vec<u8>)]) {
    fnv(digest, &(images.len() as u64).to_le_bytes());
    for (id, bytes) in images {
        fnv(digest, &id.to_le_bytes());
        fnv(digest, bytes);
    }
}

/// The counts of `t`, in the order `ReorgCounts` declares them.
fn fired(t: &ThreeSidedTree) -> [u64; 7] {
    let f = t.reorgs_fired();
    [
        f.level_i,
        f.td_folds,
        f.ts_reorgs,
        f.push_downs,
        f.leaf_splits,
        f.branching_splits,
        f.shrinks,
    ]
}

#[test]
fn path_structure_pages_are_pinned() {
    const CLASSES: usize = 31;
    const ATTR_RANGE: i64 = 100_000;
    let parents: Vec<Option<usize>> = (0..CLASSES).map(|i| (i > 0).then(|| (i - 1) / 2)).collect();
    let mut rng = DetRng::new(0xC1A5_5000);
    let object = |rng: &mut DetRng, id: u64| {
        Object::new(rng.gen_range(0..CLASSES), rng.gen_range(0..ATTR_RANGE), id)
    };
    let mut live: Vec<Object> = (0..3_000).map(|id| object(&mut rng, id)).collect();
    let counter = IoCounter::new();
    let mut idx = RakeClassIndex::bulk_tuned(
        Hierarchy::from_parents(&parents),
        Geometry::new(8),
        counter.clone(),
        Tuning::default(),
        &live,
    );
    for id in 3_000..9_000 {
        if rng.gen_range(0..3u32) == 0 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            idx.delete(victim);
        }
        let o = object(&mut rng, id);
        idx.insert(o);
        live.push(o);
    }
    let copies: usize = live.iter().map(|o| idx.copies(o.class)).sum();
    assert_eq!(idx.validate_unbilled(), copies);

    let (mut total, mut digest) = ([0u64; 7], 0xcbf2_9ce4_8422_2325u64);
    for s in &idx.structures {
        let PathStructure::ThreeSided(t) = s else {
            continue;
        };
        let st = t.stats();
        let counts = fired(t);
        for (sum, n) in total.iter_mut().zip(counts) {
            *sum += n;
        }
        let words = [
            st.metablocks,
            st.leaves,
            st.height,
            st.pages,
            st.points,
            st.pending_updates,
            st.pending_tombs,
            st.snapshot_pages,
            st.org_pages,
        ];
        for w in words.map(|w| w as u64).into_iter().chain(counts) {
            fnv(&mut digest, &w.to_le_bytes());
        }
        fold_pages(&mut digest, &t.store_page_images());
        for pst in t.psts() {
            fold_pages(&mut digest, &pst.page_images());
        }
    }
    assert!(
        total[..5].iter().all(|&n| n > 0),
        "the flood must fire level-I, TD folds, TS reorganisations, a push-down and a leaf split: {total:?}"
    );
    let got = ([counter.reads(), counter.writes()], total, digest);
    let want = (
        [119_040, 181_217],
        [355, 751, 290, 34, 25, 0, 8],
        14_585_348_299_424_225_122,
    );
    assert_eq!(got, want);
}
