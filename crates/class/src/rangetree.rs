//! The range-tree class index of Theorem 2.6 (`index-classes`, Fig. 6).
//!
//! `label-class` turns class membership into an integer in `[0, c)`; a
//! balanced binary tree over that interval (the classic range-tree primary
//! dimension) assigns each binary node the collection of objects whose
//! labels fall in its segment, and each collection is indexed by a B+-tree
//! on the attribute. A class query covers its label range with `O(log2 c)`
//! canonical nodes; an insert updates the `O(log2 c)` trees on one
//! root-to-leaf path. Space is `O((n/B)·log2 c)` since each object lives at
//! one node per level.

use ccix_bptree::{BPlusTree, Entry};
use ccix_extmem::{Disk, Geometry, IoCounter};

use crate::{page_size, ClassId, ClassIndex, Hierarchy, Object};

/// A node of the balanced segment tree over label space.
#[derive(Debug)]
struct SegNode {
    /// Covered label interval `[lo, hi)`.
    lo: i64,
    hi: i64,
    left: Option<usize>,
    right: Option<usize>,
    tree: BPlusTree,
}

/// Theorem 2.6: query `O(log2 c · log_B n + t/B)`, insert
/// `O(log2 c · log_B n)`, space `O((n/B) log2 c)` — "an ideal choice for
/// implementation" per §2.2.
#[derive(Debug)]
pub struct RangeTreeClassIndex {
    hierarchy: Hierarchy,
    disk: Disk,
    nodes: Vec<SegNode>,
    root: Option<usize>,
}

impl RangeTreeClassIndex {
    /// Create an empty index over `hierarchy`.
    pub fn new(hierarchy: Hierarchy, geo: Geometry, counter: IoCounter) -> Self {
        Self::bulk(hierarchy, geo, counter, &[])
    }

    /// Build the index over `objects` statically: the objects are sorted by
    /// attribute once, every segment node's collection is the (still
    /// sorted) sub-run of its label range, and each collection is one
    /// [`BPlusTree::bulk_load`].
    pub fn bulk(
        hierarchy: Hierarchy,
        geo: Geometry,
        counter: IoCounter,
        objects: &[Object],
    ) -> Self {
        let mut disk = Disk::new(page_size(geo), counter);
        let mut run: Vec<(i64, Entry)> = objects
            .iter()
            .map(|o| (hierarchy.label(o.class), Entry::new(o.attr, o.id)))
            .collect();
        run.sort_unstable_by_key(|&(_, e)| e);
        let mut nodes = Vec::new();
        let c = hierarchy.len() as i64;
        let root = (c > 0).then(|| Self::build_segment(&mut nodes, &mut disk, 0, c, run));
        Self {
            hierarchy,
            disk,
            nodes,
            root,
        }
    }

    /// Build the segment node over labels `[lo, hi)` holding `run` (sorted
    /// by attribute, every label inside the range) and its subtree.
    fn build_segment(
        nodes: &mut Vec<SegNode>,
        disk: &mut Disk,
        lo: i64,
        hi: i64,
        run: Vec<(i64, Entry)>,
    ) -> usize {
        debug_assert!(lo < hi);
        let entries: Vec<Entry> = run.iter().map(|&(_, e)| e).collect();
        let tree = BPlusTree::bulk_load(disk, &entries);
        let (left, right) = if hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            // A stable split keeps both halves sorted by attribute.
            let (l, r): (Vec<_>, Vec<_>) = run.into_iter().partition(|&(label, _)| label < mid);
            (
                Some(Self::build_segment(nodes, disk, lo, mid, l)),
                Some(Self::build_segment(nodes, disk, mid, hi, r)),
            )
        } else {
            (None, None)
        };
        nodes.push(SegNode {
            lo,
            hi,
            left,
            right,
            tree,
        });
        nodes.len() - 1
    }

    /// The canonical cover of `[lo, hi)`: `O(log2 c)` node indices.
    fn canonical(&self, node: usize, lo: i64, hi: i64, out: &mut Vec<usize>) {
        let n = &self.nodes[node];
        if hi <= n.lo || n.hi <= lo {
            return;
        }
        if lo <= n.lo && n.hi <= hi {
            out.push(node);
            return;
        }
        if let Some(l) = n.left {
            self.canonical(l, lo, hi, out);
        }
        if let Some(r) = n.right {
            self.canonical(r, lo, hi, out);
        }
    }

    /// The hierarchy this index is built over.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

impl ClassIndex for RangeTreeClassIndex {
    fn insert(&mut self, o: Object) {
        let label = self.hierarchy.label(o.class);
        // Update every collection on the root-to-leaf path for `label`.
        let mut cur = self.root;
        while let Some(i) = cur {
            // Indexing a collection = inserting into its B+-tree. The node
            // list is borrowed around the disk, so split the borrow.
            let node = &mut self.nodes[i];
            node.tree.insert(&mut self.disk, o.attr, o.id);
            cur = if node.hi - node.lo == 1 {
                None
            } else {
                let mid = node.lo + (node.hi - node.lo) / 2;
                if label < mid {
                    node.left
                } else {
                    node.right
                }
            };
        }
    }

    fn delete(&mut self, o: Object) {
        let label = self.hierarchy.label(o.class);
        // Remove from every collection on the root-to-leaf path for
        // `label` — the exact mirror of `insert`.
        let mut cur = self.root;
        while let Some(i) = cur {
            let node = &mut self.nodes[i];
            let removed = node.tree.delete(&mut self.disk, o.attr, o.id);
            debug_assert!(removed, "deleted object {o:?} missing at segment node");
            cur = if node.hi - node.lo == 1 {
                None
            } else {
                let mid = node.lo + (node.hi - node.lo) / 2;
                if label < mid {
                    node.left
                } else {
                    node.right
                }
            };
        }
    }

    fn query(&self, class: ClassId, a1: i64, a2: i64) -> Vec<u64> {
        let (lo, hi) = self.hierarchy.label_range(class);
        let mut cover = Vec::new();
        if let Some(root) = self.root {
            self.canonical(root, lo, hi, &mut cover);
        }
        let mut out = Vec::new();
        for i in cover {
            out.extend(self.nodes[i].tree.range(&self.disk, a1, a2));
        }
        out
    }

    fn space_pages(&self) -> usize {
        self.disk.pages_in_use()
    }

    fn name(&self) -> &'static str {
        "range-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_cover_is_logarithmic() {
        let parents: Vec<Option<usize>> = std::iter::once(None)
            .chain((1..64).map(|i| Some((i - 1) / 2)))
            .collect();
        let h = Hierarchy::from_parents(&parents);
        let idx = RangeTreeClassIndex::new(h, Geometry::new(8), IoCounter::new());
        for class in 0..64 {
            let (lo, hi) = idx.hierarchy().label_range(class);
            let mut cover = Vec::new();
            idx.canonical(idx.root.unwrap(), lo, hi, &mut cover);
            assert!(
                cover.len() <= 2 * 7,
                "class {class}: cover of {} nodes",
                cover.len()
            );
        }
    }

    #[test]
    fn example_queries() {
        let (h, [person, professor, student, asst_prof]) = Hierarchy::example_people();
        let mut idx = RangeTreeClassIndex::new(h, Geometry::new(8), IoCounter::new());
        idx.insert(Object::new(person, 30, 1));
        idx.insert(Object::new(professor, 90, 2));
        idx.insert(Object::new(student, 10, 3));
        idx.insert(Object::new(asst_prof, 55, 4));
        let mut profs = idx.query(professor, 0, 200);
        profs.sort_unstable();
        assert_eq!(profs, vec![2, 4]);
        assert_eq!(idx.query(asst_prof, 0, 200), vec![4]);
        let mut all = idx.query(person, 0, 60);
        all.sort_unstable();
        assert_eq!(all, vec![1, 3, 4]);
    }
}
