//! Copy-on-write sharing between epochs, one vocabulary for the page store
//! and both metablock trees: a fork clones handles, never contents, and
//! whichever side writes first copies only what it writes — [`Run`]s of
//! page ids and keys, [`Slots`] of control blocks, and the [`PageTable`]
//! of page handles under [`crate::TypedStore`] (and, never forked,
//! [`crate::Disk`]).
//!
//! A page table maps [`PageId`]s to page handles and recycles freed ids.
//! Publishing an epoch forks it, and a flat `Vec` of handles makes that
//! fork — and the teardown of the retired epoch — cost one reference-count
//! update per *page*. Here the slots live in fixed-size chunks behind
//! [`Arc`]: a fork clones one handle per chunk and shares the free list,
//! and the first mutation of a chunk that is still shared with a fork
//! copies that chunk's [`CHUNK`] handles (never a page buffer). A chunk
//! replaced that way lives until the last fork that can see it drops —
//! reference counts are the reclamation, as for pages.

use std::ops::Deref;
use std::sync::Arc;

use crate::store::PageId;

/// A shared run: an immutable slice behind [`Arc`]. Cloning a run — or a
/// control block holding runs — bumps a handle; growing one replaces it
/// with a copy one element longer: one allocation, made by the writer that
/// grows it, while every epoch still holding the old run keeps it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run<T>(Arc<[T]>);

impl<T> Default for Run<T> {
    fn default() -> Self {
        Self(Arc::default())
    }
}

impl<T> Deref for Run<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> FromIterator<T> for Run<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Self(items.into_iter().collect())
    }
}

impl<T: Copy> Run<T> {
    /// `items` as a run; the empty run is [`Run::default`].
    pub fn from_slice(items: &[T]) -> Self {
        if items.is_empty() {
            Self::default()
        } else {
            Self(items.into())
        }
    }

    /// Append `x`, replacing the run with a copy one element longer.
    pub fn push(&mut self, x: T) {
        self.0 = self.0.iter().copied().chain([x]).collect();
    }

    /// The first `n` elements, sharing `self` when it is no longer.
    pub fn prefix(&self, n: usize) -> Self {
        if self.len() <= n {
            self.clone()
        } else {
            Self::from_slice(&self[..n])
        }
    }

    /// The elements for in-place mutation, copied first while shared.
    pub fn make_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.0)
    }

    /// Whether `a` and `b` are handles on one allocation.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

/// Control blocks by slot index, each behind [`Arc`]: a clone shares every
/// block, and [`Slots::make_mut`] / [`Slots::take`] copy a block a clone
/// still shares. Slots are never reused, so [`Slots::is_live`] stays a
/// reliable liveness test for an index held across a restructuring.
///
/// # Panics
/// Every accessor but [`Slots::is_live`] panics on a freed slot.
#[derive(Clone, Debug)]
pub struct Slots<M> {
    slots: Vec<Option<Arc<M>>>,
    dead: usize,
}

impl<M> Default for Slots<M> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            dead: 0,
        }
    }
}

impl<M: Clone> Slots<M> {
    /// The block in slot `i`.
    pub fn get(&self, i: usize) -> &M {
        self.slots[i].as_deref().expect("read of a freed slot")
    }

    /// The block in slot `i`, for in-place mutation.
    pub fn make_mut(&mut self, i: usize) -> &mut M {
        Arc::make_mut(self.slots[i].as_mut().expect("write to a freed slot"))
    }

    /// Move the block out of slot `i` until [`Slots::put`] returns it.
    pub fn take(&mut self, i: usize) -> M {
        Arc::unwrap_or_clone(self.slots[i].take().expect("take of a freed slot"))
    }

    /// Store `m` in slot `i`.
    pub fn put(&mut self, i: usize, m: M) {
        self.slots[i] = Some(Arc::new(m));
    }

    /// Store `m` in a fresh slot and return its index.
    pub fn push(&mut self, m: M) -> usize {
        self.slots.push(Some(Arc::new(m)));
        self.slots.len() - 1
    }

    /// Free slot `i` for good, returning its (possibly still shared) block.
    pub fn free(&mut self, i: usize) -> Arc<M> {
        self.dead += 1;
        self.slots[i].take().expect("double free of a slot")
    }

    /// Whether slot `i` holds a block.
    pub fn is_live(&self, i: usize) -> bool {
        self.slots[i].is_some()
    }

    /// Number of live blocks.
    pub fn live(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// Every live block, by ascending slot.
    pub fn iter(&self) -> impl Iterator<Item = &M> {
        self.slots.iter().flatten().map(|m| &**m)
    }

    /// Slots of `self` that do not hold the very handle `other` holds (a
    /// slot freed on both sides counts as shared).
    pub fn diverged(&self, other: &Self) -> Vec<usize> {
        let shared = |i: usize| match (&self.slots[i], other.slots.get(i)) {
            (Some(a), Some(Some(b))) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_some_and(Option::is_none),
        };
        (0..self.slots.len()).filter(|&i| !shared(i)).collect()
    }
}

/// Slots per chunk. Measured at 4–64 on the 2-core reference box (n =
/// 200 000, B = 32, two shards, 64-op commits; `docs/tuning.md` § Epoch
/// publication): the fork falls with the chunk size (126 → 25 µs), the
/// retired epoch's drop is cheapest at 16 (fewer chunk handles to release
/// than at 4, fewer page handles to re-release per replaced chunk than at
/// 64), and from 8 up the whole commit moves by less than the box's noise.
pub(crate) const CHUNK: usize = 16;

type Chunk<P> = [Option<P>; CHUNK];

/// A table of page handles `P` with `O(slots / CHUNK)` [`Clone`],
/// copy-on-write chunks and a free list of recyclable ids.
#[derive(Debug)]
pub(crate) struct PageTable<P> {
    chunks: Vec<Arc<Chunk<P>>>,
    /// Ids handed out so far (live or freed); slots of the last chunk at or
    /// beyond `slots` are `None` and were never allocated.
    slots: usize,
    /// Freed ids, reused last-in first-out. Shared with forks until the
    /// first insert/remove after one copies it.
    free: Arc<Vec<PageId>>,
}

impl<P> Clone for PageTable<P> {
    /// Share every chunk and the free list with the clone: one handle bump
    /// per chunk, no slot visited.
    fn clone(&self) -> Self {
        Self {
            chunks: self.chunks.clone(),
            slots: self.slots,
            free: Arc::clone(&self.free),
        }
    }
}

impl<P: Clone> PageTable<P> {
    pub(crate) fn new() -> Self {
        Self::from_parts(Vec::new(), Vec::new())
    }

    /// Rebuild a table from its slot contents (index = page id) and its
    /// free list in pop order — the persisted form of a store.
    pub(crate) fn from_parts(slots: Vec<Option<P>>, free: Vec<PageId>) -> Self {
        let mut table = Self {
            chunks: Vec::with_capacity(slots.len().div_ceil(CHUNK)),
            slots: 0,
            free: Arc::new(free),
        };
        for slot in slots {
            table.push(slot);
        }
        table
    }

    /// Number of ids ever handed out (live or freed).
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Number of live pages.
    pub(crate) fn in_use(&self) -> usize {
        self.slots - self.free.len()
    }

    /// The free list, in pop order.
    pub(crate) fn free_list(&self) -> &[PageId] {
        &self.free
    }

    /// The handle of page `id`; `None` when the page was freed **or** never
    /// allocated (callers tell the two apart with [`PageTable::slots`], off
    /// the hot path).
    #[inline]
    pub(crate) fn get(&self, id: PageId) -> Option<&P> {
        let i = id.index();
        self.chunks.get(i / CHUNK)?[i % CHUNK].as_ref()
    }

    /// As [`PageTable::get`], for replacing or mutating the handle; copies
    /// the slot's chunk first if a fork still shares it.
    pub(crate) fn get_mut(&mut self, id: PageId) -> Option<&mut P> {
        // Checked through the shared view first, so a miss copies nothing.
        self.get(id)?;
        let i = id.index();
        Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK].as_mut()
    }

    /// Store `page` under a recycled id if one is free, a fresh one
    /// otherwise.
    pub(crate) fn insert(&mut self, page: P) -> PageId {
        if self.free.is_empty() {
            return self.push(Some(page));
        }
        let id = Arc::make_mut(&mut self.free)
            .pop()
            .expect("free list is nonempty");
        let i = id.index();
        Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK] = Some(page);
        id
    }

    /// Free page `id` and hand its handle back; `None` (and nothing
    /// changed) when it was not live.
    pub(crate) fn remove(&mut self, id: PageId) -> Option<P> {
        self.get(id)?;
        let i = id.index();
        let page = Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK].take();
        Arc::make_mut(&mut self.free).push(id);
        page
    }

    /// `(id, handle)` of every live page, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageId, &P)> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (PageId(i as u32), p)))
    }

    fn push(&mut self, slot: Option<P>) -> PageId {
        let id = PageId(u32::try_from(self.slots).expect("page id overflow"));
        if self.slots.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        let last = self.chunks.last_mut().expect("chunk just ensured");
        Arc::make_mut(last)[self.slots % CHUNK] = slot;
        self.slots += 1;
        id
    }
}

#[cfg(test)]
impl<P> PageTable<P> {
    /// Chunks of `self` that are not (or no longer) shared with `other`.
    pub(crate) fn diverged_chunks(&self, other: &Self) -> usize {
        let common = self.chunks.len().min(other.chunks.len());
        let split = self.chunks[..common]
            .iter()
            .zip(&other.chunks)
            .filter(|(x, y)| !Arc::ptr_eq(x, y))
            .count();
        split + (self.chunks.len() - common)
    }

    /// Whether the free list is still the one `other` holds.
    pub(crate) fn shares_free_list_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.free, &other.free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> PageTable<Arc<usize>> {
        let mut t = PageTable::new();
        for i in 0..n {
            assert_eq!(t.insert(Arc::new(i)), PageId(i as u32));
        }
        t
    }

    #[test]
    fn never_allocated_slots_read_as_absent() {
        let mut t = table(3);
        assert_eq!((t.slots(), t.in_use()), (3, 3));
        assert!(t.get(PageId(2)).is_some());
        assert!(t.get(PageId(3)).is_none(), "same chunk, beyond the slots");
        assert!(t.get(PageId(1000)).is_none());
        assert!(t.get_mut(PageId(3)).is_none());
        assert!(t.remove(PageId(3)).is_none());
        assert!(t.get_mut(PageId(2)).is_some());
    }

    #[test]
    fn freed_ids_are_recycled_last_in_first_out() {
        let mut t = table(5);
        assert_eq!(t.remove(PageId(1)).as_deref(), Some(&1));
        assert_eq!(t.remove(PageId(3)).as_deref(), Some(&3));
        assert!(t.remove(PageId(3)).is_none(), "double free changes nothing");
        assert_eq!(t.free_list(), &[PageId(1), PageId(3)]);
        assert_eq!((t.slots(), t.in_use()), (5, 3));
        assert_eq!(t.insert(Arc::new(30)), PageId(3));
        assert_eq!(t.insert(Arc::new(10)), PageId(1));
        assert_eq!(t.insert(Arc::new(50)), PageId(5));
        let live: Vec<(u32, usize)> = t.iter().map(|(id, p)| (id.0, **p)).collect();
        assert_eq!(live, [(0, 0), (1, 10), (2, 2), (3, 30), (4, 4), (5, 50)]);

        let rebuilt = PageTable::from_parts(
            vec![Some(Arc::new(7)), None, Some(Arc::new(9))],
            vec![PageId(1)],
        );
        assert_eq!((rebuilt.slots(), rebuilt.in_use()), (3, 2));
        assert!(rebuilt.get(PageId(1)).is_none());
    }

    #[test]
    fn a_fork_shares_every_chunk_and_k_writes_copy_at_most_k() {
        let mut t = table(10 * CHUNK + 3);
        let fork = t.clone();
        assert_eq!(t.diverged_chunks(&fork), 0);
        assert!(t.shares_free_list_with(&fork));

        // Three writes, two of them into the same chunk; a miss copies
        // nothing.
        for i in [0, 1, 5 * CHUNK] {
            *t.get_mut(PageId(i as u32)).expect("live") = Arc::new(usize::MAX);
        }
        assert!(t.get_mut(PageId(u32::MAX)).is_none());
        assert_eq!(t.diverged_chunks(&fork), 2, "one copy per touched chunk");
        assert!(t.shares_free_list_with(&fork), "no id was freed or reused");
        // Growth into the open last chunk copies it; a fresh chunk is new.
        for i in 0..CHUNK {
            t.insert(Arc::new(i));
        }
        assert_eq!(t.diverged_chunks(&fork), 4);

        // The fork still reads its own frozen slots, handle for handle.
        assert_eq!(fork.slots(), 10 * CHUNK + 3);
        for (id, page) in fork.iter() {
            assert_eq!(**page, id.index());
        }
        assert_eq!(fork.iter().count(), fork.slots());
        // The copies moved handles only: untouched slots of a copied chunk
        // still point at the very page the fork holds.
        assert!(Arc::ptr_eq(
            t.get(PageId(2)).expect("live"),
            fork.get(PageId(2)).expect("live")
        ));
    }

    #[test]
    fn a_fork_of_a_mutated_fork_keeps_its_own_contents() {
        let far = PageId(2 * CHUNK as u32);
        let mut a = table(4 * CHUNK);
        let mut b = a.clone();
        *b.get_mut(PageId(1)).expect("live") = Arc::new(111);
        let c = b.clone();
        b.remove(PageId(1));
        *a.get_mut(far).expect("live") = Arc::new(222);

        assert_eq!(**a.get(PageId(1)).expect("live"), 1);
        assert!(b.get(PageId(1)).is_none());
        assert_eq!(**c.get(PageId(1)).expect("live"), 111);
        assert_eq!(**c.get(far).expect("live"), far.index());
        assert_eq!(**a.get(far).expect("live"), 222);
        assert_eq!(b.diverged_chunks(&c), 1);
        assert_eq!(a.diverged_chunks(&c), 2);
        // Only `b` freed anything, and only `b` sees the id come back.
        assert!(a.shares_free_list_with(&c));
        assert!(!b.shares_free_list_with(&c));
        assert_eq!(b.insert(Arc::new(5)), PageId(1));
        let full = 4 * CHUNK;
        assert_eq!((a.in_use(), b.in_use(), c.in_use()), (full, full, full));
    }

    #[test]
    fn a_grown_run_is_a_new_allocation_and_a_short_prefix_is_the_run() {
        let mut run: Run<u32> = (0..4).collect();
        let frozen = run.clone();
        assert!(
            Run::ptr_eq(&run.prefix(4), &run),
            "no longer: the run itself"
        );
        assert_eq!(&run.prefix(2)[..], &[0, 1]);
        assert_eq!(Run::<u32>::from_slice(&[]), Run::default());
        run.push(4);
        run.make_mut()[0] = 9;
        assert_eq!(&run[..], &[9, 1, 2, 3, 4]);
        assert_eq!(&frozen[..], &[0, 1, 2, 3], "the old handle keeps its run");
        let grown = run.clone();
        run.make_mut()[1] = 7;
        assert_eq!((grown[1], run[1]), (1, 7), "a shared run is copied first");
    }

    #[test]
    fn a_slot_fork_copies_exactly_the_blocks_each_side_writes() {
        let mut a: Slots<Vec<u32>> = Slots::default();
        (0..6).for_each(|i| assert_eq!(a.push(vec![i]), i as usize));
        let mut b = a.clone();
        assert!(a.diverged(&b).is_empty(), "a clone shares every block");
        a.make_mut(1).push(10);
        let taken = a.take(2);
        a.put(2, taken);
        assert_eq!(*a.free(3), [3], "a freed block is handed back");
        b.make_mut(4).push(40);
        assert_eq!(a.push(vec![6]), 6, "freed slots are never reused");
        assert_eq!(a.diverged(&b), [1, 2, 3, 4, 6]);
        assert_eq!((a.get(1), b.get(1)), (&vec![1, 10], &vec![1]));
        assert_eq!((a.get(4), b.get(4)), (&vec![4], &vec![4, 40]));
        assert!(!a.is_live(3) && b.is_live(3) && (a.live(), b.live()) == (6, 6));
        let firsts: Vec<u32> = a.iter().map(|m| m[0]).collect();
        assert_eq!(firsts, [0, 1, 2, 4, 5, 6]);
        b.free(3);
        assert!(!a.diverged(&b).contains(&3), "freed on both sides");
    }
}
