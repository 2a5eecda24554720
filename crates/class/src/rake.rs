//! `rake-and-contract` (Fig. 23, Lemma 4.6) — the composite class index of
//! Theorem 4.7.
//!
//! Heavy paths are degenerate hierarchies: along a path `v1 … vk`, the full
//! extent of `vi` is everything indexed at positions `≥ i` (Lemma 4.3). The
//! procedure gives each heavy path one **3-sided metablock tree** whose
//! points are `(attribute, position)`; a singleton leaf path degenerates to
//! a one-dimensional structure and gets a plain **B+-tree** instead (the
//! first `for` loop of Fig. 23 / Lemma 4.2).
//!
//! Contracting a path copies its collection across the thin edge above it,
//! so an object of class `c` is indexed once in `c`'s own path structure
//! and once per thin edge on the way to the root — at most `log2 c + 1`
//! copies (Lemmas 4.5, 4.6). Queries touch exactly one structure:
//!
//! * query I/Os `O(log_B n + t/B + log2 B)`,
//! * insert I/Os `O(log2 c · (log_B n + (log_B n)²/B))` amortised,
//! * space `O((n/B) · log2 c)` (Theorem 4.7).

use ccix_bptree::{BPlusTree, Entry};
use ccix_core::{Op, ThreeSidedTree, Tuning};
use ccix_extmem::{Disk, Geometry, IoCounter, Point};

use crate::heavy::{decompose, HeavyPaths};
use crate::{ClassId, ClassIndex, ClassOp, Hierarchy, Object};

/// Per-heavy-path structure.
#[derive(Debug)]
enum PathStructure {
    /// Paths of length ≥ 2: 3-sided queries over (attr, position). Boxed:
    /// the tree's control state dwarfs the flat variant's.
    ThreeSided(Box<ThreeSidedTree>),
    /// Singleton leaf paths: a plain attribute B+-tree (Lemma 4.2's move).
    Flat(BPlusTree),
}

/// The Theorem 4.7 class index.
#[derive(Debug)]
pub struct RakeClassIndex {
    hierarchy: Hierarchy,
    paths: HeavyPaths,
    structures: Vec<PathStructure>,
    /// For each class: every (path, position) that holds its extent — its
    /// own path plus one per thin edge up to the root.
    placements: Vec<Vec<(usize, i64)>>,
    disk: Disk,
    counter: IoCounter,
    len: usize,
}

impl RakeClassIndex {
    /// Create an empty index over `hierarchy` with the measured default
    /// [`Tuning`].
    pub fn new(hierarchy: Hierarchy, geo: Geometry, counter: IoCounter) -> Self {
        Self::new_tuned(hierarchy, geo, counter, Tuning::default())
    }

    /// Create an empty index over `hierarchy` with explicit write-path
    /// tuning for the per-path 3-sided trees.
    pub fn new_tuned(
        hierarchy: Hierarchy,
        geo: Geometry,
        counter: IoCounter,
        tuning: Tuning,
    ) -> Self {
        Self::bulk_tuned(hierarchy, geo, counter, tuning, &[])
    }

    /// Build the index over `objects` **statically** (unique ids): every
    /// object is grouped by placement once, and each heavy-path structure
    /// is constructed bottom-up from its group — a 3-sided tree by
    /// [`ThreeSidedTree::build_tuned`] (Lemma 4.1 / Thm. 4.7), a singleton
    /// leaf path by [`BPlusTree::bulk_load`] — instead of pushing
    /// `copies(class)` amortised inserts per object through the dynamic
    /// side. The result takes inserts, deletes and batches afterwards
    /// exactly as an incrementally grown index does; an empty `objects` is
    /// [`RakeClassIndex::new_tuned`].
    ///
    /// # Panics
    /// Panics if ids repeat within a 3-sided path ("duplicate point ids").
    pub fn bulk_tuned(
        hierarchy: Hierarchy,
        geo: Geometry,
        counter: IoCounter,
        tuning: Tuning,
        objects: &[Object],
    ) -> Self {
        let paths = decompose(&hierarchy);

        // Placements (Lemma 4.6): walk thin edges toward the root.
        let placements: Vec<Vec<(usize, i64)>> = (0..hierarchy.len())
            .map(|c| {
                let mut list = vec![(paths.path_of[c], paths.pos_of[c] as i64)];
                let mut cur = c;
                loop {
                    let top = paths.paths[paths.path_of[cur]][0];
                    match hierarchy.parent(top) {
                        Some(p) => {
                            list.push((paths.path_of[p], paths.pos_of[p] as i64));
                            cur = p;
                        }
                        None => break,
                    }
                }
                list
            })
            .collect();

        let mut groups: Vec<Vec<Point>> = vec![Vec::new(); paths.paths.len()];
        for o in objects {
            for &(path, y) in &placements[o.class] {
                groups[path].push(Point::new(o.attr, y, o.id));
            }
        }

        let mut disk = Disk::new(crate::page_size(geo), counter.clone());
        let structures: Vec<PathStructure> = paths
            .paths
            .iter()
            .zip(groups)
            .map(|(p, group)| {
                let is_singleton_leaf = p.len() == 1 && hierarchy.children(p[0]).is_empty();
                if is_singleton_leaf {
                    let mut entries: Vec<Entry> =
                        group.iter().map(|pt| Entry::new(pt.x, pt.id)).collect();
                    entries.sort_unstable();
                    PathStructure::Flat(BPlusTree::bulk_load(&mut disk, &entries))
                } else {
                    PathStructure::ThreeSided(Box::new(ThreeSidedTree::build_tuned(
                        geo,
                        counter.clone(),
                        group,
                        tuning,
                    )))
                }
            })
            .collect();

        Self {
            hierarchy,
            paths,
            structures,
            placements,
            disk,
            counter,
            len: objects.len(),
        }
    }

    /// The hierarchy this index is built over.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of objects inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Replication factor of a class: how many structures hold its extent.
    pub fn copies(&self, class: ClassId) -> usize {
        self.placements[class].len()
    }

    /// Lemma 4.6's placements of a class: every `(heavy path, position)`
    /// an object of `class` is stored at — its own path first, then one per
    /// thin edge up to the root.
    pub fn placements(&self, class: ClassId) -> &[(usize, i64)] {
        &self.placements[class]
    }

    /// The heavy-path decomposition used.
    pub fn heavy_paths(&self) -> &HeavyPaths {
        &self.paths
    }

    /// The shared I/O counter (covers every path structure).
    pub fn counter(&self) -> &IoCounter {
        &self.counter
    }

    /// Run every path structure's own validator, unbilled, check that the
    /// shared device holds the flat trees' pages and no orphan, and return
    /// the number of live copies stored (`Σ copies(class)` over the live
    /// objects). Test/debug only.
    pub fn validate_unbilled(&self) -> usize {
        let (mut copies, mut flat_pages) = (0, 0);
        for s in &self.structures {
            match s {
                PathStructure::ThreeSided(t) => {
                    t.validate_unbilled();
                    copies += t.len();
                }
                PathStructure::Flat(t) => {
                    flat_pages += t.validate_unbilled(&self.disk);
                    copies += t.len() as usize;
                }
            }
        }
        assert_eq!(flat_pages, self.disk.pages_in_use(), "orphan B+-tree pages");
        copies
    }
}

impl ClassIndex for RakeClassIndex {
    fn insert(&mut self, o: Object) {
        // One copy per placement. Placements walk strictly upward across
        // thin edges, so each placement lands on a distinct path structure;
        // the object id is therefore unique within every structure.
        for &(path, y) in &self.placements[o.class] {
            match &mut self.structures[path] {
                PathStructure::ThreeSided(t) => t.insert(Point::new(o.attr, y, o.id)),
                PathStructure::Flat(t) => t.insert(&mut self.disk, o.attr, o.id),
            }
        }
        self.len += 1;
    }

    fn delete(&mut self, o: Object) {
        // One tombstone per placement — the exact mirror of `insert`: the
        // 3-sided path structures route a tombstone next to the live copy
        // and cancel at the next reorganisation; the flat B+-trees remove
        // eagerly.
        for &(path, y) in &self.placements[o.class] {
            match &mut self.structures[path] {
                PathStructure::ThreeSided(t) => t.delete(Point::new(o.attr, y, o.id)),
                PathStructure::Flat(t) => {
                    let removed = t.delete(&mut self.disk, o.attr, o.id);
                    debug_assert!(removed, "deleted object {o:?} missing from flat path");
                }
            }
        }
        self.len -= 1;
    }

    /// Batched delete flood: objects are grouped by the heavy-path
    /// structure each placement lands on, and every 3-sided tree routes
    /// its group's tombstones as one batched operation
    /// ([`ThreeSidedTree::delete_batch`]) — the shared descent prefix is
    /// billed once per residency, mirroring `query_batch`.
    fn delete_batch(&mut self, objects: &[Object]) {
        let mut groups: Vec<Vec<Point>> = vec![Vec::new(); self.structures.len()];
        for o in objects {
            for &(path, y) in &self.placements[o.class] {
                groups[path].push(Point::new(o.attr, y, o.id));
            }
        }
        for (path, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            match &mut self.structures[path] {
                PathStructure::ThreeSided(t) => t.delete_batch(&group),
                PathStructure::Flat(t) => {
                    for p in group {
                        let removed = t.delete(&mut self.disk, p.x, p.id);
                        debug_assert!(removed, "deleted object missing from flat path");
                    }
                }
            }
        }
        self.len -= objects.len();
    }

    /// Batched mixed flood: ops are grouped by the heavy-path structure
    /// each placement lands on, and every 3-sided tree applies its group
    /// as one batched operation over a shared pinned read context
    /// ([`ThreeSidedTree::apply_batch`]); flat B+-tree paths apply their
    /// ops one at a time, in input order.
    fn apply_batch(&mut self, ops: &[ClassOp]) {
        let mut groups: Vec<Vec<Op>> = vec![Vec::new(); self.structures.len()];
        for op in ops {
            let (o, ins) = match *op {
                ClassOp::Insert(o) => (o, true),
                ClassOp::Delete(o) => (o, false),
            };
            for &(path, y) in &self.placements[o.class] {
                let p = Point::new(o.attr, y, o.id);
                groups[path].push(if ins { Op::Insert(p) } else { Op::Delete(p) });
            }
        }
        for (path, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            match &mut self.structures[path] {
                PathStructure::ThreeSided(t) => t.apply_batch(&group),
                PathStructure::Flat(t) => {
                    for op in group {
                        match op {
                            Op::Insert(p) => t.insert(&mut self.disk, p.x, p.id),
                            Op::Delete(p) => {
                                let removed = t.delete(&mut self.disk, p.x, p.id);
                                debug_assert!(removed, "deleted object missing from flat path");
                            }
                        }
                    }
                }
            }
        }
        for op in ops {
            match op {
                ClassOp::Insert(_) => self.len += 1,
                ClassOp::Delete(_) => self.len -= 1,
            }
        }
    }

    fn query(&self, class: ClassId, a1: i64, a2: i64) -> Vec<u64> {
        let path = self.paths.path_of[class];
        let pos = self.paths.pos_of[class] as i64;
        match &self.structures[path] {
            PathStructure::ThreeSided(t) => {
                let mut ids = Vec::new();
                t.query_with(a1, a2, pos, |p| p.id, &mut ids);
                ids
            }
            PathStructure::Flat(t) => t.range(&self.disk, a1, a2),
        }
    }

    /// Batched flood: queries are grouped by the heavy-path structure that
    /// answers them, and each 3-sided tree runs its group as one pinned
    /// batch — the shared descent (control blocks, children-PST nodes, data
    /// pages) is billed once per residency instead of once per query.
    fn query_batch(&self, queries: &[(ClassId, i64, i64)]) -> Vec<Vec<u64>> {
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
        // Group query indices by path structure.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.structures.len()];
        for (i, &(class, _, _)) in queries.iter().enumerate() {
            groups[self.paths.path_of[class]].push(i);
        }
        for (path, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            match &self.structures[path] {
                PathStructure::ThreeSided(t) => {
                    let batch: Vec<(i64, i64, i64)> = group
                        .iter()
                        .map(|&i| {
                            let (class, a1, a2) = queries[i];
                            (a1, a2, self.paths.pos_of[class] as i64)
                        })
                        .collect();
                    let mut answers = Vec::new();
                    t.query_batch_with(&batch, |p| p.id, &mut answers);
                    for (&i, ids) in group.iter().zip(answers) {
                        outs[i] = ids;
                    }
                }
                PathStructure::Flat(t) => {
                    for &i in group {
                        let (_, a1, a2) = queries[i];
                        outs[i] = t.range(&self.disk, a1, a2);
                    }
                }
            }
        }
        outs
    }

    fn space_pages(&self) -> usize {
        let mut pages = self.disk.pages_in_use();
        for s in &self.structures {
            if let PathStructure::ThreeSided(t) = s {
                pages += t.space_pages();
            }
        }
        pages
    }

    fn name(&self) -> &'static str {
        "rake-and-contract"
    }
}

#[cfg(test)]
mod pins;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_people_queries() {
        let (h, [person, professor, student, asst_prof]) = Hierarchy::example_people();
        let mut idx = RakeClassIndex::new(h, Geometry::new(4), IoCounter::new());
        idx.insert(Object::new(person, 30, 1));
        idx.insert(Object::new(professor, 90, 2));
        idx.insert(Object::new(student, 10, 3));
        idx.insert(Object::new(asst_prof, 55, 4));
        idx.insert(Object::new(professor, 120, 5));

        let mut profs = idx.query(professor, 0, 200);
        profs.sort_unstable();
        assert_eq!(profs, vec![2, 4, 5]);
        assert_eq!(idx.query(asst_prof, 0, 200), vec![4]);
        assert_eq!(idx.query(student, 0, 200), vec![3]);
        let mut all = idx.query(person, 0, 200);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
        assert_eq!(idx.query(professor, 85, 95), vec![2]);
    }

    #[test]
    fn replication_bounded_by_thin_edges() {
        let parents: Vec<Option<usize>> = std::iter::once(None)
            .chain((1..127).map(|i| Some((i - 1) / 2)))
            .collect();
        let h = Hierarchy::from_parents(&parents);
        let idx = RakeClassIndex::new(h, Geometry::new(4), IoCounter::new());
        let bound = ccix_extmem::Geometry::log2(127) + 1;
        for c in 0..127 {
            assert!(
                idx.copies(c) <= bound,
                "class {c}: {} copies > {bound}",
                idx.copies(c)
            );
        }
    }
}
