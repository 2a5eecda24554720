//! B+-tree operations: bulk load, point/range queries, insert, delete.

use ccix_extmem::{Disk, PageId};

use crate::layout::{read_node, write_node, Entry, Layout, Node};

/// An external B+-tree over `(i64, u64)` entries.
///
/// The tree owns pages on a shared [`Disk`] (several trees may coexist on one
/// device, as in the range-tree class index, which keeps `O(c)` trees). All
/// costs are in page I/Os on the disk's counter:
///
/// * [`BPlusTree::range`] — `O(log_B n + t/B)`,
/// * [`BPlusTree::insert`] / [`BPlusTree::delete`] — `O(log_B n)`,
/// * space — `O(n/B)` pages.
#[derive(Clone, Debug)]
pub struct BPlusTree {
    root: PageId,
    height: usize, // 1 = the root is a leaf
    len: u64,
    layout: Layout,
}

impl BPlusTree {
    /// Create an empty tree, allocating its root leaf on `disk`.
    pub fn new(disk: &mut Disk) -> Self {
        let layout = Layout::for_page_size(disk.page_size());
        let root = disk.alloc();
        write_node(
            disk,
            root,
            &Node::Leaf {
                entries: Vec::new(),
                next: None,
            },
        );
        Self {
            root,
            height: 1,
            len: 0,
            layout,
        }
    }

    /// Build a tree from entries already sorted by `(key, value)`, with
    /// leaves packed full.
    ///
    /// Leaves are packed and chained; internal levels are built bottom-up.
    /// Costs `O(n/B)` I/Os — one write per emitted page.
    ///
    /// # Panics
    /// Panics if `entries` is not sorted by `(key, value)`.
    pub fn bulk_load(disk: &mut Disk, entries: &[Entry]) -> Self {
        let layout = Layout::for_page_size(disk.page_size());
        assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "bulk_load requires sorted entries"
        );
        if entries.is_empty() {
            return Self::new(disk);
        }

        // Leaf level: pre-allocate ids so each leaf can point to its
        // successor, then write each page once. Chunks are packed full and
        // balanced at the tail.
        let chunks = balanced_chunks(entries, layout.leaf_cap, layout.leaf_cap / 2);
        let ids: Vec<PageId> = chunks.iter().map(|_| disk.alloc()).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            let next = ids.get(i + 1).copied();
            write_node(
                disk,
                ids[i],
                &Node::Leaf {
                    entries: chunk.to_vec(),
                    next,
                },
            );
        }
        // `firsts[i]` is the lexicographically smallest entry under node i,
        // used as the separator when grouping nodes one level up.
        let mut level = ids;
        let mut firsts: Vec<Entry> = chunks.iter().map(|c| c[0]).collect();
        let mut height = 1;

        while level.len() > 1 {
            let mut next_level = Vec::new();
            let mut next_firsts = Vec::new();
            let min_children = (layout.fanout - 1) / 2 + 1;
            let id_groups = balanced_chunks(&level, layout.fanout, min_children);
            let first_groups = balanced_chunks(&firsts, layout.fanout, min_children);
            for (ids, fs) in id_groups.iter().zip(&first_groups) {
                let (children, fs) = (ids.to_vec(), fs.to_vec());
                let id = disk.alloc();
                write_node(
                    disk,
                    id,
                    &Node::Internal {
                        seps: fs[1..].to_vec(),
                        children,
                    },
                );
                next_firsts.push(fs[0]);
                next_level.push(id);
            }
            level = next_level;
            firsts = next_firsts;
            height += 1;
        }

        Self {
            root: level[0],
            height,
            len: entries.len() as u64,
            layout,
        }
    }

    /// Number of entries stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Root page id (for space accounting / debugging).
    pub fn root(&self) -> PageId {
        self.root
    }

    fn child_index(seps: &[Entry], e: Entry) -> usize {
        seps.partition_point(|s| *s <= e)
    }

    /// Stream every entry in key order by walking the leaf chain
    /// (`O(log_B n + n/B)` I/Os — a sequential scan).
    pub fn scan(&self, disk: &Disk) -> Vec<Entry> {
        self.range_entries(disk, i64::MIN, i64::MAX)
    }

    /// The smallest entry, if any. `O(log_B n)` I/Os.
    pub fn first(&self, disk: &Disk) -> Option<Entry> {
        let mut id = self.root;
        loop {
            match read_node(disk, id) {
                Node::Internal { children, .. } => id = children[0],
                Node::Leaf { entries, .. } => return entries.first().copied(),
            }
        }
    }

    /// The largest entry, if any. `O(log_B n)` I/Os.
    pub fn last(&self, disk: &Disk) -> Option<Entry> {
        let mut id = self.root;
        loop {
            match read_node(disk, id) {
                Node::Internal { children, .. } => {
                    id = *children.last().expect("internal node has children")
                }
                Node::Leaf { entries, .. } => return entries.last().copied(),
            }
        }
    }

    /// All values whose key lies in `[lo, hi]` (inclusive), in key order.
    /// `O(log_B n + t/B)` I/Os.
    pub fn range(&self, disk: &Disk, lo: i64, hi: i64) -> Vec<u64> {
        self.range_entries(disk, lo, hi)
            .into_iter()
            .map(|e| e.value)
            .collect()
    }

    /// All entries whose key lies in `[lo, hi]` (inclusive), in order.
    pub fn range_entries(&self, disk: &Disk, lo: i64, hi: i64) -> Vec<Entry> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let probe = Entry::new(lo, u64::MIN);
        // Descend to the leaf that would contain the first qualifying entry.
        let mut id = self.root;
        loop {
            match read_node(disk, id) {
                Node::Internal { seps, children } => {
                    id = children[Self::child_index(&seps, probe)];
                }
                Node::Leaf { entries, next } => {
                    let mut cur_entries = entries;
                    let mut cur_next = next;
                    loop {
                        for e in &cur_entries {
                            if e.key > hi {
                                return out;
                            }
                            if e.key >= lo {
                                out.push(*e);
                            }
                        }
                        match cur_next {
                            Some(nid) => match read_node(disk, nid) {
                                Node::Leaf { entries, next } => {
                                    cur_entries = entries;
                                    cur_next = next;
                                }
                                Node::Internal { .. } => {
                                    unreachable!("leaf chain points at internal node")
                                }
                            },
                            None => return out,
                        }
                    }
                }
            }
        }
    }

    /// First value stored under `key`, if any. `O(log_B n)` I/Os.
    pub fn get(&self, disk: &Disk, key: i64) -> Option<u64> {
        let probe = Entry::new(key, u64::MIN);
        let mut id = self.root;
        loop {
            match read_node(disk, id) {
                Node::Internal { seps, children } => {
                    id = children[Self::child_index(&seps, probe)];
                }
                Node::Leaf { entries, next } => {
                    if let Some(e) = entries.iter().find(|e| e.key >= key) {
                        return (e.key == key).then_some(e.value);
                    }
                    // All entries < key; the answer, if it exists, is the
                    // first entry of the next leaf.
                    match next {
                        Some(nid) => match read_node(disk, nid) {
                            Node::Leaf { entries, .. } => {
                                return entries.first().filter(|e| e.key == key).map(|e| e.value);
                            }
                            Node::Internal { .. } => {
                                unreachable!("leaf chain points at internal node")
                            }
                        },
                        None => return None,
                    }
                }
            }
        }
    }

    /// Whether the exact `(key, value)` pair is present. `O(log_B n)` I/Os.
    pub fn contains(&self, disk: &Disk, key: i64, value: u64) -> bool {
        let e = Entry::new(key, value);
        let mut id = self.root;
        loop {
            match read_node(disk, id) {
                Node::Internal { seps, children } => {
                    id = children[Self::child_index(&seps, e)];
                }
                Node::Leaf { entries, .. } => return entries.binary_search(&e).is_ok(),
            }
        }
    }

    /// Insert `(key, value)`. Duplicate `(key, value)` pairs are ignored
    /// (set semantics). `O(log_B n)` I/Os.
    pub fn insert(&mut self, disk: &mut Disk, key: i64, value: u64) {
        self.insert_entry(disk, Entry::new(key, value));
    }

    /// Insert a full entry (including its auxiliary payload). Duplicate
    /// `(key, value)` pairs are ignored. `O(log_B n)` I/Os.
    pub fn insert_entry(&mut self, disk: &mut Disk, e: Entry) {
        match self.insert_rec(disk, self.root, e) {
            InsertResult::NoSplit { inserted } => {
                if inserted {
                    self.len += 1;
                }
            }
            InsertResult::Split { sep, right } => {
                let new_root = disk.alloc();
                write_node(
                    disk,
                    new_root,
                    &Node::Internal {
                        seps: vec![sep],
                        children: vec![self.root, right],
                    },
                );
                self.root = new_root;
                self.height += 1;
                self.len += 1;
            }
        }
    }

    fn insert_rec(&mut self, disk: &mut Disk, id: PageId, e: Entry) -> InsertResult {
        match read_node(disk, id) {
            Node::Leaf { mut entries, next } => {
                match entries.binary_search(&e) {
                    Ok(_) => return InsertResult::NoSplit { inserted: false },
                    Err(pos) => entries.insert(pos, e),
                }
                if entries.len() <= self.layout.leaf_cap {
                    write_node(disk, id, &Node::Leaf { entries, next });
                    return InsertResult::NoSplit { inserted: true };
                }
                // Split: right half moves to a fresh page spliced into the
                // leaf chain.
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0];
                let right = disk.alloc();
                write_node(
                    disk,
                    right,
                    &Node::Leaf {
                        entries: right_entries,
                        next,
                    },
                );
                write_node(
                    disk,
                    id,
                    &Node::Leaf {
                        entries,
                        next: Some(right),
                    },
                );
                InsertResult::Split { sep, right }
            }
            Node::Internal {
                mut seps,
                mut children,
            } => {
                let idx = Self::child_index(&seps, e);
                match self.insert_rec(disk, children[idx], e) {
                    InsertResult::NoSplit { inserted } => InsertResult::NoSplit { inserted },
                    InsertResult::Split { sep, right } => {
                        seps.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if children.len() <= self.layout.fanout {
                            write_node(disk, id, &Node::Internal { seps, children });
                            return InsertResult::NoSplit { inserted: true };
                        }
                        // Split the internal node; the middle separator moves
                        // up rather than being duplicated.
                        let mid = seps.len() / 2;
                        let up = seps[mid];
                        let right_seps = seps.split_off(mid + 1);
                        seps.pop();
                        let right_children = children.split_off(mid + 1);
                        let right_id = disk.alloc();
                        write_node(
                            disk,
                            right_id,
                            &Node::Internal {
                                seps: right_seps,
                                children: right_children,
                            },
                        );
                        write_node(disk, id, &Node::Internal { seps, children });
                        InsertResult::Split {
                            sep: up,
                            right: right_id,
                        }
                    }
                }
            }
        }
    }

    /// Remove the exact `(key, value)` pair. Returns whether it was present.
    /// `O(log_B n)` I/Os, with standard borrow/merge rebalancing.
    pub fn delete(&mut self, disk: &mut Disk, key: i64, value: u64) -> bool {
        let e = Entry::new(key, value);
        let root_node = read_node(disk, self.root);
        let removed = self.delete_rec(disk, self.root, root_node, e);
        if removed {
            self.len -= 1;
            // Collapse a one-child internal root.
            loop {
                match read_node(disk, self.root) {
                    Node::Internal { seps, children } if seps.is_empty() => {
                        disk.free_page(self.root);
                        self.root = children[0];
                        self.height -= 1;
                    }
                    _ => break,
                }
            }
        }
        removed
    }

    fn min_leaf(&self) -> usize {
        self.layout.leaf_cap / 2
    }

    fn min_seps(&self) -> usize {
        (self.layout.fanout - 1) / 2
    }

    /// Delete `e` from the subtree rooted at `id` (already decoded as
    /// `node`). The caller (the parent) repairs any underflow.
    fn delete_rec(&mut self, disk: &mut Disk, id: PageId, node: Node, e: Entry) -> bool {
        match node {
            Node::Leaf { mut entries, next } => match entries.binary_search(&e) {
                Ok(pos) => {
                    entries.remove(pos);
                    write_node(disk, id, &Node::Leaf { entries, next });
                    true
                }
                Err(_) => false,
            },
            Node::Internal {
                mut seps,
                mut children,
            } => {
                let idx = Self::child_index(&seps, e);
                let child = children[idx];
                let child_node = read_node(disk, child);
                let removed = self.delete_rec(disk, child, child_node, e);
                if !removed {
                    return false;
                }
                // Check whether the child underflowed and repair via borrow
                // or merge with an adjacent sibling.
                let child_node = read_node(disk, child);
                let under = match &child_node {
                    Node::Leaf { entries, .. } => entries.len() < self.min_leaf(),
                    Node::Internal { seps, .. } => seps.len() < self.min_seps(),
                };
                if under {
                    self.rebalance_child(disk, &mut seps, &mut children, idx, child_node);
                    write_node(disk, id, &Node::Internal { seps, children });
                }
                true
            }
        }
    }

    /// Repair an underflowing `children[idx]` (decoded as `child_node`) by
    /// borrowing from or merging with an adjacent sibling. Mutates the
    /// parent's `seps`/`children`; the caller writes the parent back.
    fn rebalance_child(
        &mut self,
        disk: &mut Disk,
        seps: &mut Vec<Entry>,
        children: &mut Vec<PageId>,
        idx: usize,
        child_node: Node,
    ) {
        // Prefer the left sibling, matching the usual textbook presentation.
        let (left_idx, right_idx) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        let left_id = children[left_idx];
        let right_id = children[right_idx];
        let (left, right) = if idx > 0 {
            (read_node(disk, left_id), child_node)
        } else {
            (child_node, read_node(disk, right_id))
        };
        let sep_pos = left_idx; // separator between left and right

        match (left, right) {
            (
                Node::Leaf {
                    entries: mut le,
                    next: lnext,
                },
                Node::Leaf {
                    entries: mut re,
                    next: rnext,
                },
            ) => {
                if le.len() + re.len() <= self.layout.leaf_cap {
                    // Merge right into left; unlink right from the chain.
                    le.extend(re);
                    write_node(
                        disk,
                        left_id,
                        &Node::Leaf {
                            entries: le,
                            next: rnext,
                        },
                    );
                    disk.free_page(right_id);
                    seps.remove(sep_pos);
                    children.remove(right_idx);
                } else if le.len() < re.len() {
                    // Borrow the smallest entry of right.
                    le.push(re.remove(0));
                    seps[sep_pos] = re[0];
                    write_node(
                        disk,
                        left_id,
                        &Node::Leaf {
                            entries: le,
                            next: lnext,
                        },
                    );
                    write_node(
                        disk,
                        right_id,
                        &Node::Leaf {
                            entries: re,
                            next: rnext,
                        },
                    );
                } else {
                    // Borrow the largest entry of left.
                    let moved = le.pop().expect("left leaf cannot be empty here");
                    re.insert(0, moved);
                    seps[sep_pos] = moved;
                    write_node(
                        disk,
                        left_id,
                        &Node::Leaf {
                            entries: le,
                            next: lnext,
                        },
                    );
                    write_node(
                        disk,
                        right_id,
                        &Node::Leaf {
                            entries: re,
                            next: rnext,
                        },
                    );
                }
            }
            (
                Node::Internal {
                    seps: mut ls,
                    children: mut lc,
                },
                Node::Internal {
                    seps: mut rs,
                    children: mut rc,
                },
            ) => {
                if lc.len() + rc.len() <= self.layout.fanout {
                    // Merge: the parent separator comes down between them.
                    ls.push(seps[sep_pos]);
                    ls.extend(rs);
                    lc.extend(rc);
                    write_node(
                        disk,
                        left_id,
                        &Node::Internal {
                            seps: ls,
                            children: lc,
                        },
                    );
                    disk.free_page(right_id);
                    seps.remove(sep_pos);
                    children.remove(right_idx);
                } else if lc.len() < rc.len() {
                    // Rotate left: parent separator comes down to left, the
                    // right node's first separator goes up.
                    ls.push(seps[sep_pos]);
                    lc.push(rc.remove(0));
                    seps[sep_pos] = rs.remove(0);
                    write_node(
                        disk,
                        left_id,
                        &Node::Internal {
                            seps: ls,
                            children: lc,
                        },
                    );
                    write_node(
                        disk,
                        right_id,
                        &Node::Internal {
                            seps: rs,
                            children: rc,
                        },
                    );
                } else {
                    // Rotate right.
                    rs.insert(0, seps[sep_pos]);
                    rc.insert(0, lc.pop().expect("left internal cannot be empty here"));
                    seps[sep_pos] = ls.pop().expect("left internal has a separator to donate");
                    write_node(
                        disk,
                        left_id,
                        &Node::Internal {
                            seps: ls,
                            children: lc,
                        },
                    );
                    write_node(
                        disk,
                        right_id,
                        &Node::Internal {
                            seps: rs,
                            children: rc,
                        },
                    );
                }
            }
            _ => unreachable!("siblings at the same depth have the same kind"),
        }
    }

    /// Walk the whole tree without charging I/Os and assert every structural
    /// invariant. Returns the number of live pages. Test/debug only.
    pub fn validate_unbilled(&self, disk: &Disk) -> usize {
        fn decode_unbilled(disk: &Disk, id: PageId) -> Node {
            crate::layout::decode(disk.read_unbilled(id))
        }

        struct Walk<'a> {
            disk: &'a Disk,
            layout: Layout,
            pages: usize,
            entries: u64,
            leaf_depth: Option<usize>,
        }

        impl Walk<'_> {
            fn go(
                &mut self,
                id: PageId,
                depth: usize,
                lo: Option<Entry>,
                hi: Option<Entry>,
                is_root: bool,
            ) {
                self.pages += 1;
                match decode_unbilled(self.disk, id) {
                    Node::Leaf { entries, .. } => {
                        match self.leaf_depth {
                            None => self.leaf_depth = Some(depth),
                            Some(d) => assert_eq!(d, depth, "leaves at unequal depths"),
                        }
                        assert!(entries.windows(2).all(|w| w[0] < w[1]), "unsorted leaf");
                        if !is_root {
                            assert!(
                                entries.len() >= self.layout.leaf_cap / 2,
                                "leaf underflow: {}",
                                entries.len()
                            );
                        }
                        for e in &entries {
                            if let Some(lo) = lo {
                                assert!(*e >= lo, "entry below separator");
                            }
                            if let Some(hi) = hi {
                                assert!(*e < hi, "entry at/above separator");
                            }
                        }
                        self.entries += entries.len() as u64;
                    }
                    Node::Internal { seps, children } => {
                        assert_eq!(children.len(), seps.len() + 1);
                        assert!(seps.windows(2).all(|w| w[0] < w[1]), "unsorted separators");
                        if !is_root {
                            assert!(
                                seps.len() >= (self.layout.fanout - 1) / 2,
                                "internal underflow"
                            );
                        } else {
                            assert!(!seps.is_empty(), "internal root must have ≥ 2 children");
                        }
                        for (i, &child) in children.iter().enumerate() {
                            let clo = if i == 0 { lo } else { Some(seps[i - 1]) };
                            let chi = if i == seps.len() { hi } else { Some(seps[i]) };
                            self.go(child, depth + 1, clo, chi, false);
                        }
                    }
                }
            }
        }

        let mut w = Walk {
            disk,
            layout: self.layout,
            pages: 0,
            entries: 0,
            leaf_depth: None,
        };
        w.go(self.root, 1, None, None, true);
        assert_eq!(w.entries, self.len, "stored entry count mismatch");
        if let Some(d) = w.leaf_depth {
            assert_eq!(d, self.height, "height mismatch");
        }
        w.pages
    }
}

enum InsertResult {
    NoSplit { inserted: bool },
    Split { sep: Entry, right: PageId },
}

/// Split `items` into chunks of at most `cap`, at least `min` (except when
/// there is a single chunk), preserving order. Only the final two chunks are
/// ever rebalanced; all earlier chunks are full.
fn balanced_chunks<T>(items: &[T], cap: usize, min: usize) -> Vec<&[T]> {
    debug_assert!(min <= cap / 2 + 1, "min {min} unreachable for cap {cap}");
    let mut out: Vec<&[T]> = Vec::with_capacity(items.len().div_ceil(cap));
    let mut rest = items;
    while rest.len() > cap {
        // If what would remain after a full chunk is a too-small tail, split
        // the final `cap + tail` items evenly instead.
        let after = rest.len() - cap;
        if after < min && rest.len() <= 2 * cap {
            let half = rest.len().div_ceil(2);
            let (a, b) = rest.split_at(half);
            out.push(a);
            out.push(b);
            return out;
        }
        let (chunk, tail) = rest.split_at(cap);
        out.push(chunk);
        rest = tail;
    }
    if !rest.is_empty() || out.is_empty() {
        out.push(rest);
    }
    out
}

#[cfg(test)]
mod chunk_tests {
    use super::balanced_chunks;

    #[test]
    fn exact_multiples_stay_full() {
        let v: Vec<u8> = (0..12).collect();
        let c = balanced_chunks(&v, 4, 2);
        assert_eq!(c.iter().map(|s| s.len()).collect::<Vec<_>>(), vec![4, 4, 4]);
    }

    #[test]
    fn small_tail_is_balanced() {
        let v: Vec<u8> = (0..9).collect();
        let c = balanced_chunks(&v, 8, 4);
        assert_eq!(c.iter().map(|s| s.len()).collect::<Vec<_>>(), vec![5, 4]);
    }

    #[test]
    fn single_small_input_is_one_chunk() {
        let v: Vec<u8> = vec![1];
        let c = balanced_chunks(&v, 8, 4);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], &[1]);
    }

    #[test]
    fn all_chunks_respect_min_and_cap() {
        for n in 1..200usize {
            let v: Vec<usize> = (0..n).collect();
            for cap in [4usize, 5, 8, 63] {
                let min = cap / 2;
                let chunks = balanced_chunks(&v, cap, min);
                let total: usize = chunks.iter().map(|c| c.len()).sum();
                assert_eq!(total, n);
                for (i, c) in chunks.iter().enumerate() {
                    assert!(c.len() <= cap, "n={n} cap={cap} chunk {i} too big");
                    if chunks.len() > 1 {
                        assert!(c.len() >= min, "n={n} cap={cap} chunk {i} too small");
                    }
                }
            }
        }
    }
}
