//! The two straw-man strategies of §2.2.

use ccix_bptree::{BPlusTree, Entry};
use ccix_extmem::{Disk, Geometry, IoCounter};

use crate::{page_size, ClassId, ClassIndex, Hierarchy, Object};

/// "Create a single B+-tree for all objects and answer a query by … filtering
/// out the objects in the class of interest. This solution cannot compact a
/// t-sized output into t/B pages" (§2.2).
///
/// The class label rides in the entry's aux word, so filtering costs no
/// extra I/O — but the scan still touches every object in the attribute
/// range, whatever its class.
#[derive(Debug)]
pub struct SingleIndexBaseline {
    hierarchy: Hierarchy,
    disk: Disk,
    tree: BPlusTree,
}

impl SingleIndexBaseline {
    /// Create an empty index over `hierarchy`.
    pub fn new(hierarchy: Hierarchy, geo: Geometry, counter: IoCounter) -> Self {
        Self::bulk(hierarchy, geo, counter, &[])
    }

    /// Build the index over `objects` statically: one sort, one
    /// [`BPlusTree::bulk_load`].
    pub fn bulk(
        hierarchy: Hierarchy,
        geo: Geometry,
        counter: IoCounter,
        objects: &[Object],
    ) -> Self {
        let mut disk = Disk::new(page_size(geo), counter);
        let mut entries: Vec<Entry> = objects
            .iter()
            .map(|o| Entry::with_aux(o.attr, o.id, hierarchy.label(o.class) as u64))
            .collect();
        entries.sort_unstable();
        let tree = BPlusTree::bulk_load(&mut disk, &entries);
        Self {
            hierarchy,
            disk,
            tree,
        }
    }
}

impl ClassIndex for SingleIndexBaseline {
    fn insert(&mut self, o: Object) {
        let label = self.hierarchy.label(o.class) as u64;
        self.tree
            .insert_entry(&mut self.disk, Entry::with_aux(o.attr, o.id, label));
    }

    fn delete(&mut self, o: Object) {
        let removed = self.tree.delete(&mut self.disk, o.attr, o.id);
        debug_assert!(removed, "deleted object {o:?} is not stored");
    }

    fn query(&self, class: ClassId, a1: i64, a2: i64) -> Vec<u64> {
        let (lo, hi) = self.hierarchy.label_range(class);
        self.tree
            .range_entries(&self.disk, a1, a2)
            .into_iter()
            .filter(|e| (e.aux as i64) >= lo && (e.aux as i64) < hi)
            .map(|e| e.value)
            .collect()
    }

    fn space_pages(&self) -> usize {
        self.disk.pages_in_use()
    }

    fn name(&self) -> &'static str {
        "single-index"
    }
}

/// "Keep a B+-tree per class (index the full extent of each class)" —
/// optimal queries, but every object is replicated along its ancestor path:
/// `O(k)` copies and `O(k·log_B n)` insert I/Os for depth `k` (Lemma 4.2:
/// optimal when `k` is constant).
#[derive(Debug)]
pub struct FullExtentBaseline {
    hierarchy: Hierarchy,
    disk: Disk,
    trees: Vec<BPlusTree>,
}

impl FullExtentBaseline {
    /// Create empty per-class indexes over `hierarchy`.
    pub fn new(hierarchy: Hierarchy, geo: Geometry, counter: IoCounter) -> Self {
        Self::bulk(hierarchy, geo, counter, &[])
    }

    /// Build the per-class indexes over `objects` statically: every object
    /// is replicated into its ancestors' full extents once, and each class
    /// sorts its extent and [`BPlusTree::bulk_load`]s it.
    pub fn bulk(
        hierarchy: Hierarchy,
        geo: Geometry,
        counter: IoCounter,
        objects: &[Object],
    ) -> Self {
        let mut disk = Disk::new(page_size(geo), counter);
        let mut extents: Vec<Vec<Entry>> = vec![Vec::new(); hierarchy.len()];
        for o in objects {
            let mut cur = Some(o.class);
            while let Some(c) = cur {
                extents[c].push(Entry::new(o.attr, o.id));
                cur = hierarchy.parent(c);
            }
        }
        let trees = extents
            .into_iter()
            .map(|mut entries| {
                entries.sort_unstable();
                BPlusTree::bulk_load(&mut disk, &entries)
            })
            .collect();
        Self {
            hierarchy,
            disk,
            trees,
        }
    }
}

impl ClassIndex for FullExtentBaseline {
    fn insert(&mut self, o: Object) {
        // Into the class's own tree and every ancestor's (full extents).
        let mut cur = Some(o.class);
        while let Some(c) = cur {
            self.trees[c].insert(&mut self.disk, o.attr, o.id);
            cur = self.hierarchy.parent(c);
        }
    }

    fn delete(&mut self, o: Object) {
        // Out of every replica along the ancestor path.
        let mut cur = Some(o.class);
        while let Some(c) = cur {
            let removed = self.trees[c].delete(&mut self.disk, o.attr, o.id);
            debug_assert!(removed, "deleted object {o:?} is not stored in class {c}");
            cur = self.hierarchy.parent(c);
        }
    }

    fn query(&self, class: ClassId, a1: i64, a2: i64) -> Vec<u64> {
        self.trees[class].range(&self.disk, a1, a2)
    }

    fn space_pages(&self) -> usize {
        self.disk.pages_in_use()
    }

    fn name(&self) -> &'static str {
        "full-extent-per-class"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_objects() -> (Hierarchy, [ClassId; 4], Vec<Object>) {
        let (h, ids) = Hierarchy::example_people();
        let [person, professor, student, asst_prof] = ids;
        let objects = vec![
            Object::new(person, 30, 1),
            Object::new(professor, 90, 2),
            Object::new(student, 10, 3),
            Object::new(asst_prof, 55, 4),
            Object::new(professor, 120, 5),
        ];
        (h, ids, objects)
    }

    #[test]
    fn single_index_filters_by_class() {
        let (h, [person, professor, _, _], objects) = people_objects();
        let mut idx = SingleIndexBaseline::new(h, Geometry::new(8), IoCounter::new());
        for o in &objects {
            idx.insert(*o);
        }
        let mut all = idx.query(person, 0, 200);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
        let mut profs = idx.query(professor, 0, 200);
        profs.sort_unstable();
        assert_eq!(profs, vec![2, 4, 5], "professor full extent incl. asst");
        assert_eq!(idx.query(professor, 50, 60), vec![4]);
    }

    #[test]
    fn full_extent_replicates_upward() {
        let (h, [person, professor, student, asst_prof], objects) = people_objects();
        let mut idx = FullExtentBaseline::new(h, Geometry::new(8), IoCounter::new());
        for o in &objects {
            idx.insert(*o);
        }
        let mut profs = idx.query(professor, 0, 200);
        profs.sort_unstable();
        assert_eq!(profs, vec![2, 4, 5]);
        assert_eq!(idx.query(student, 0, 200), vec![3]);
        assert_eq!(idx.query(asst_prof, 0, 200), vec![4]);
        let mut all = idx.query(person, 0, 200);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
    }
}
