//! Typed paged storage.
//!
//! [`TypedStore<T>`] models a disk whose pages each hold up to `B` records of
//! type `T`. This is the storage used by the metablock trees, priority search
//! trees and interval structures: the paper measures everything in units of
//! "records per block", so a typed page with enforced capacity is the exact
//! cost model, without the noise of byte-level encodings. (The B+-tree crate
//! uses the byte-level [`crate::Disk`] instead, to demonstrate a conventional
//! serialised node layout on the same accounting substrate.)

use crate::backend::{BackendSpec, FileConfig, FileMirror};
use crate::cow::PageTable;
use crate::ser::FixedBytes;
use crate::stats::IoCounter;
use std::path::Path;
use std::sync::Arc;

/// Identifier of a page within one [`TypedStore`] or [`crate::Disk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A paged store of records of type `T` with page capacity `B`.
///
/// Reads and writes are charged one I/O per page through the shared
/// [`IoCounter`]. Allocation writes the initial contents (one I/O), matching
/// the convention that building a structure pays for every page it emits.
///
/// Pages are held behind [`Arc`] in a chunked copy-on-write page table, so
/// a store can be [`TypedStore::fork`]ed into a snapshot in one handle bump
/// per *chunk* of 16 page slots: the fork shares every chunk and every page
/// buffer with the original, and a later mutation on either side copies
/// only the touched chunk's handles and ([`TypedStore::append`]) the touched
/// page. This is the storage half of the epoch-snapshot mechanism the
/// serving layer uses; I/O accounting is unchanged because sharing is
/// invisible to the charge points.
#[derive(Debug)]
pub struct TypedStore<T> {
    pages: PageTable<Arc<Vec<T>>>,
    /// Recycled page buffers: freed pages park their (cleared) `Vec`
    /// allocations here and `alloc_run` reuses them, so the free→realloc
    /// churn of the amortised reorganisations stops hitting the allocator.
    /// Purely a wall-clock matter — I/O charges are identical.
    spare: Vec<Vec<T>>,
    capacity: usize,
    counter: IoCounter,
    /// The physical half of a file-backed store ([`BackendSpec::File`]):
    /// every mutation is written through to a real file, every charged
    /// read runs the cache-or-`pread` path. `None` (the default) is the
    /// pure in-memory model — the source of truth for all exact-I/O gates,
    /// whose behaviour is bit-identical whether or not a mirror is
    /// attached.
    file: Option<FileMirror<T>>,
}

/// Cap on recycled page buffers kept per store (beyond this, freed buffers
/// are dropped as before).
const SPARE_CAP: usize = 1024;

impl<T: Clone> TypedStore<T> {
    /// Create a store whose pages hold up to `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, counter: IoCounter) -> Self {
        assert!(capacity > 0, "page capacity must be positive");
        Self {
            pages: PageTable::new(),
            spare: Vec::new(),
            capacity,
            counter,
            file: None,
        }
    }

    /// Page capacity `B` in records.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The I/O counter charged by this store.
    pub fn counter(&self) -> &IoCounter {
        &self.counter
    }

    /// Resolve a live page slot or panic naming the operation **and the
    /// page id**, distinguishing a freed page from one never allocated.
    /// An attributable panic here is the poisoning that turns a
    /// use-after-free in a reorganisation into an immediate, debuggable
    /// failure instead of a silently skewed I/O count.
    #[track_caller]
    fn live(&self, id: PageId, what: &str) -> &Arc<Vec<T>> {
        match self.pages.get(id) {
            Some(page) => page,
            None => Self::dead(self.pages.slots(), id, what),
        }
    }

    /// As [`TypedStore::live`], mutably (the slot's chunk becomes private
    /// to this store).
    #[track_caller]
    fn live_mut(&mut self, id: PageId, what: &str) -> &mut Arc<Vec<T>> {
        let slots = self.pages.slots();
        match self.pages.get_mut(id) {
            Some(page) => page,
            None => Self::dead(slots, id, what),
        }
    }

    /// The panic of an access to a page that is not live, in a store that
    /// has handed out `slots` ids.
    #[track_caller]
    fn dead(slots: usize, id: PageId, what: &str) -> ! {
        if id.index() < slots {
            panic!("{what} freed page {id:?}")
        }
        panic!("{what} unallocated page {id:?}")
    }

    /// Allocate a page initialised with `records` (≤ capacity). Costs one
    /// write I/O.
    pub fn alloc(&mut self, records: Vec<T>) -> PageId {
        assert!(
            records.len() <= self.capacity,
            "page overflow: {} records into capacity {}",
            records.len(),
            self.capacity
        );
        self.counter.add_writes(1);
        let id = self.pages.insert(Arc::new(records));
        if let Some(m) = &self.file {
            m.write_page(id, self.live(id, "alloc of"));
        }
        id
    }

    /// Allocate a run of pages holding `records` in order, `capacity` per
    /// page. Returns the page ids in run order, collected straight into the
    /// caller's run type (a `Vec`, or a shared [`crate::Run`] built in one
    /// allocation). Costs one write per page.
    pub fn alloc_run<R: FromIterator<PageId>>(&mut self, records: &[T]) -> R {
        records
            .chunks(self.capacity)
            .map(|chunk| {
                let mut page = self.spare_page();
                page.extend_from_slice(chunk);
                self.alloc(page)
            })
            .collect()
    }

    /// [`TypedStore::alloc_run`] over `records` taken in the order of
    /// `ranks` (indices into `records`), filling each page straight from
    /// them instead of gathering the whole run first.
    pub fn alloc_run_gathered<R: FromIterator<PageId>>(
        &mut self,
        records: &[T],
        ranks: &[u32],
    ) -> R {
        ranks
            .chunks(self.capacity)
            .map(|chunk| {
                let mut page = self.spare_page();
                page.extend(chunk.iter().map(|&r| records[r as usize].clone()));
                self.alloc(page)
            })
            .collect()
    }

    /// An empty page buffer: a recycled one, or a fresh one of capacity.
    fn spare_page(&mut self) -> Vec<T> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.capacity))
    }

    /// Read a page. Costs one read I/O.
    ///
    /// # Panics
    /// Panics if the page was never allocated or has been freed.
    pub fn read(&self, id: PageId) -> &[T] {
        self.counter.add_reads(1);
        let page = self.live(id, "read of");
        if let Some(m) = &self.file {
            m.read_page(id, page);
        }
        page
    }

    /// Read every record of a page run, in run order. Costs one read I/O
    /// per page.
    pub fn read_run(&self, ids: &[PageId]) -> Vec<T> {
        let mut out = Vec::with_capacity(ids.len() * self.capacity);
        for &id in ids {
            out.extend_from_slice(self.read(id));
        }
        out
    }

    /// Fork a copy-on-write snapshot of this store, charging future I/O on
    /// the fork to `counter`.
    ///
    /// The fork shares the whole page table with the original — one handle
    /// bump per chunk of 16 page slots plus one for the free list, no page
    /// touched and no data copied. The first mutation of a chunk on either
    /// side copies that chunk's 16 handles, an in-place mutation of a page
    /// copies that page, and the first alloc/free copies the free list;
    /// what a side replaces stays alive until the last fork that can see it
    /// drops. Forking itself is uncharged — it models publishing an epoch
    /// of an already-materialised structure, not a transfer — and the fresh
    /// counter keeps snapshot readers from polluting the writer's
    /// accounting (or its active shunt).
    ///
    /// Forks are always **model-backed**, even when the parent is file-
    /// backed: an epoch is an in-memory publication, and the writer is
    /// free to overwrite a copy-on-write-shared slot on disk after the
    /// fork — the snapshot must never see that.
    pub fn fork(&self, counter: IoCounter) -> Self {
        Self {
            pages: self.pages.clone(),
            spare: Vec::new(),
            capacity: self.capacity,
            counter,
            file: None,
        }
    }

    /// Append one record to a live page in place: the read-modify-write of
    /// a buffer append — one read plus one write I/O, exactly what the
    /// separate `read`/`write` pair charges — without cloning the page
    /// buffer through the caller. A page a fork still shares is copied
    /// once, into a buffer of the full page capacity (a parked one when
    /// there is), so the appends that follow never regrow it.
    ///
    /// # Panics
    /// Panics if the page is freed or already at capacity.
    pub fn append(&mut self, id: PageId, record: T) {
        self.counter.add_reads(1);
        self.counter.add_writes(1);
        let (capacity, slots) = (self.capacity, self.pages.slots());
        let Some(page) = self.pages.get_mut(id) else {
            Self::dead(slots, id, "append to")
        };
        assert!(
            page.len() < capacity,
            "page overflow: append to a full page of capacity {capacity}"
        );
        match Arc::get_mut(page) {
            Some(owned) => owned.push(record),
            None => {
                let mut copy = self.spare.pop().unwrap_or_default();
                copy.reserve_exact(capacity);
                copy.extend_from_slice(page);
                copy.push(record);
                *page = Arc::new(copy);
            }
        }
        if let Some(m) = &self.file {
            m.write_page(id, self.live(id, "append to"));
        }
    }

    /// Overwrite a page with `records`. Costs one write I/O.
    ///
    /// While no snapshot shares the page its buffer is refilled in place,
    /// so a rebuild that rewrites most of a structure's pages allocates
    /// nothing per page; a shared page gets a new buffer and the snapshot
    /// keeps its own.
    ///
    /// # Panics
    /// Panics if `records` holds more than the page capacity: before the
    /// page changes when the iterator's size hint shows it (a `Vec`, a
    /// slice iterator and their chains all do), otherwise once the page
    /// holds exactly its capacity — never more.
    pub fn write(&mut self, id: PageId, records: impl IntoIterator<Item = T>) {
        let capacity = self.capacity;
        let mut records = records.into_iter();
        let (len, _) = records.size_hint();
        assert!(
            len <= capacity,
            "page overflow: {len} records into capacity {capacity}"
        );
        let page = self.live_mut(id, "write to");
        let fill = records.by_ref().take(capacity);
        match Arc::get_mut(page) {
            Some(buf) => {
                buf.clear();
                buf.extend(fill);
            }
            None => *page = Arc::new(fill.collect()),
        }
        assert!(
            records.next().is_none(),
            "page overflow: more than {capacity} records into capacity {capacity}"
        );
        self.counter.add_writes(1);
        if let Some(m) = &self.file {
            m.write_page(id, self.live(id, "write to"));
        }
    }

    /// Release a page back to the free list. Free of charge (deallocation
    /// needs no transfer). The page's buffer is recycled for `alloc_run`.
    pub fn free(&mut self, id: PageId) {
        let Some(page) = self.pages.remove(id) else {
            if id.index() < self.pages.slots() {
                panic!("double free of page {id:?}")
            }
            panic!("free of unallocated page {id:?}")
        };
        // Recycling only works when no snapshot still shares the buffer;
        // otherwise the Arc keeps the page alive for its readers and we
        // simply drop our reference (epoch-based reclamation: the last
        // snapshot to release the page frees it).
        if self.spare.len() < SPARE_CAP {
            if let Ok(mut page) = Arc::try_unwrap(page) {
                page.clear();
                self.spare.push(page);
            }
        }
        if let Some(m) = &self.file {
            m.free_page(id);
        }
    }

    /// Release every page in `ids`.
    ///
    /// In debug builds a duplicate id within one run panics up front,
    /// naming the page — catching the bug at its source instead of as a
    /// double free partway through the run.
    pub fn free_run(&mut self, ids: &[PageId]) {
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::with_capacity(ids.len());
            for &id in ids {
                assert!(seen.insert(id), "duplicate page {id:?} in free_run");
            }
        }
        for &id in ids {
            self.free(id);
        }
    }

    /// Number of live (allocated, unfreed) pages — the structure's space in
    /// disk blocks.
    pub fn pages_in_use(&self) -> usize {
        self.pages.in_use()
    }

    /// Number of records on page `id` without charging an I/O.
    ///
    /// Only for assertions and space accounting in tests; never used on a
    /// measured query path.
    pub fn len_unbilled(&self, id: PageId) -> usize {
        self.live(id, "len of").len()
    }

    /// Read a page without charging an I/O.
    ///
    /// Only for validation code in tests (oracle comparisons, invariant
    /// checks); never used on a measured query path.
    pub fn read_unbilled(&self, id: PageId) -> &[T] {
        self.read_unbilled_internal(id)
    }

    /// Uncharged access for the pinning layer, which bills through
    /// [`crate::PathPin`] instead.
    pub(crate) fn read_unbilled_internal(&self, id: PageId) -> &[T] {
        self.live(id, "read of")
    }

    /// The file mirror, for the pinning layer's miss path.
    pub(crate) fn file_mirror(&self) -> Option<&FileMirror<T>> {
        self.file.as_ref()
    }

    /// Whether this store mirrors its pages onto a real file.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// `(cold, warm)` charged-read counts of the file backend: cold reads
    /// hit the file with a real `pread`, warm ones were served by the
    /// in-process page cache. `None` on the model backend.
    pub fn file_stats(&self) -> Option<(u64, u64)> {
        self.file.as_ref().map(FileMirror::stats)
    }

    /// Empty the file backend's page cache so the next charged reads are
    /// all cold (cold-cache measurement). No-op on the model backend.
    pub fn clear_file_cache(&self) {
        if let Some(m) = &self.file {
            m.clear_cache();
        }
    }

    /// Path of the backing page file, if file-backed.
    pub fn file_path(&self) -> Option<&Path> {
        self.file.as_ref().map(FileMirror::path)
    }

    /// Raw on-disk bytes of a live page's record area, read straight from
    /// the backing file with the cache bypassed and nothing charged.
    /// `None` on the model backend. Only for differential tests comparing
    /// disk images against the model encoding.
    pub fn file_page_bytes(&self, id: PageId) -> Option<Vec<u8>> {
        let len = self.live(id, "file image of").len();
        self.file.as_ref().map(|m| m.slot_bytes_raw(id, len))
    }

    /// Ids of every live page, ascending. Uncharged; for tests and space
    /// walks (persist, differential image comparison).
    pub fn live_page_ids(&self) -> Vec<PageId> {
        self.pages.iter().map(|(id, _)| id).collect()
    }
}

impl<T: Clone + FixedBytes> TypedStore<T> {
    /// Create a store on the given backend: [`BackendSpec::Model`] is
    /// exactly [`TypedStore::new`]; [`BackendSpec::File`] additionally
    /// opens a fresh page file (a unique name under the config's
    /// directory) that every mutation is written through to.
    pub fn new_on(spec: &BackendSpec, capacity: usize, counter: IoCounter) -> Self {
        let mut store = Self::new(capacity, counter);
        if let BackendSpec::File(cfg) = spec {
            store.file = Some(FileMirror::create(cfg, capacity));
        }
        store
    }

    /// Make a file-backed store durable: fsync the page file and publish
    /// the sidecar meta (free list + per-page record counts) atomically,
    /// so [`TypedStore::open_from_file`] can rebuild the store from the
    /// file pair alone. No-op on the model backend.
    pub fn persist(&self) {
        let Some(m) = &self.file else { return };
        let live: Vec<(u32, u32)> = self
            .pages
            .iter()
            .map(|(id, p)| (id.0, p.len() as u32))
            .collect();
        m.persist(
            self.capacity,
            self.pages.slots(),
            &live,
            self.pages.free_list(),
        );
    }

    /// `(page id, encoded bytes)` images of every live **model** page, in
    /// ascending id order, encoded via [`FixedBytes`] exactly as the file
    /// backend writes them. Uncharged; pairs with
    /// [`TypedStore::file_page_bytes`] in the differential backend suite.
    pub fn page_images(&self) -> Vec<(u32, Vec<u8>)> {
        self.live_page_ids()
            .into_iter()
            .map(|id| {
                let mut buf = Vec::new();
                crate::ser::encode_records(self.read_unbilled(id), &mut buf);
                (id.0, buf)
            })
            .collect()
    }

    /// As [`TypedStore::page_images`], reading each page back from the
    /// **file** backend (cache bypassed, nothing charged). `None` on the
    /// model backend.
    pub fn file_page_images(&self) -> Option<Vec<(u32, Vec<u8>)>> {
        self.live_page_ids()
            .into_iter()
            .map(|id| self.file_page_bytes(id).map(|b| (id.0, b)))
            .collect()
    }

    /// Reopen a store persisted by [`TypedStore::persist`]: every live
    /// page is read back from the file and decoded, and the free list is
    /// restored, so on-disk slots keep being recycled exactly where the
    /// persisted store would have recycled them.
    ///
    /// # Panics
    /// Panics if the file pair is missing, torn or inconsistent —
    /// recovery *policy* (checkpoints, WAL replay) lives in
    /// `ccix-durable`, this is the mechanism underneath it.
    pub fn open_from_file(cfg: &FileConfig, path: &Path, counter: IoCounter) -> Self {
        let (mirror, image) = FileMirror::load(cfg, path);
        let slots = image.pages.into_iter().map(|p| p.map(Arc::new)).collect();
        Self {
            pages: PageTable::from_parts(slots, image.free),
            spare: Vec::new(),
            capacity: image.capacity,
            counter,
            file: Some(mirror),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(cap: usize) -> TypedStore<u32> {
        TypedStore::new(cap, IoCounter::new())
    }

    #[test]
    fn alloc_read_roundtrip() {
        let mut s = store(4);
        let id = s.alloc(vec![1, 2, 3]);
        assert_eq!(s.read(id), &[1, 2, 3]);
        assert_eq!(s.counter().reads(), 1);
        assert_eq!(s.counter().writes(), 1);
    }

    #[test]
    fn alloc_run_chunks_by_capacity() {
        let mut s = store(3);
        let ids: Vec<PageId> = s.alloc_run(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(ids.len(), 3);
        assert_eq!(s.read(ids[0]), &[1, 2, 3]);
        assert_eq!(s.read(ids[1]), &[4, 5, 6]);
        assert_eq!(s.read(ids[2]), &[7]);
        assert_eq!(s.counter().writes(), 3);
    }

    #[test]
    fn append_charges_a_read_modify_write() {
        let mut s = store(3);
        let id = s.alloc(vec![1]);
        let before = s.counter().snapshot();
        s.append(id, 2);
        let d = s.counter().since(before);
        assert_eq!((d.reads, d.writes), (1, 1));
        assert_eq!(s.read_unbilled(id), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn append_to_full_page_panics() {
        let mut s = store(2);
        let id = s.alloc(vec![1, 2]);
        s.append(id, 3);
    }

    #[test]
    fn free_and_reuse() {
        let mut s = store(2);
        let a = s.alloc(vec![1]);
        s.free(a);
        assert_eq!(s.pages_in_use(), 0);
        let b = s.alloc(vec![2]);
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(s.pages_in_use(), 1);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn overflow_panics() {
        let mut s = store(2);
        s.alloc(vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "double free of page PageId(0)")]
    fn double_free_panics_with_page_id() {
        let mut s = store(2);
        let a = s.alloc(vec![1]);
        s.free(a);
        s.free(a);
    }

    #[test]
    #[should_panic(expected = "read of freed page PageId(1)")]
    fn read_after_free_panics_with_page_id() {
        let mut s = store(2);
        let _keep = s.alloc(vec![0]);
        let a = s.alloc(vec![1]);
        s.free(a);
        s.read(a);
    }

    #[test]
    #[should_panic(expected = "read of unallocated page PageId(7)")]
    fn read_of_unallocated_page_names_it() {
        let s = store(2);
        s.read(PageId(7));
    }

    #[test]
    #[should_panic(expected = "append to freed page PageId(0)")]
    fn append_after_free_panics_with_page_id() {
        let mut s = store(2);
        let a = s.alloc(vec![1]);
        s.free(a);
        s.append(a, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate page PageId(0) in free_run")]
    fn free_run_rejects_duplicates_in_debug() {
        let mut s = store(2);
        let a = s.alloc(vec![1]);
        s.free_run(&[a, a]);
    }

    #[test]
    fn fork_is_uncharged_and_copy_on_write() {
        let mut s = store(4);
        let a = s.alloc(vec![1, 2]);
        let snap_counter = IoCounter::new();
        let f = s.fork(snap_counter.clone());
        assert_eq!(s.counter().total(), 1, "fork charges nothing");
        assert_eq!(snap_counter.total(), 0);

        // Mutating the original never shows through the fork.
        s.append(a, 3);
        s.write(a, vec![9]);
        assert_eq!(f.read(a), &[1, 2], "fork sees the frozen page");
        assert_eq!(s.read_unbilled(a), &[9]);
        // Fork reads bill the fork's counter, not the original's.
        assert_eq!(snap_counter.reads(), 1);

        // Freeing a shared page on the original leaves the fork intact.
        s.free(a);
        assert_eq!(f.read_unbilled(a), &[1, 2]);
    }

    #[test]
    fn write_fills_an_unshared_page_in_place_and_copies_a_shared_one() {
        let mut s = store(4);
        let a = s.alloc(vec![1, 2, 3]);
        let buf = s.read_unbilled(a).as_ptr();
        s.write(a, [4, 5]);
        assert_eq!(s.read_unbilled(a), &[4, 5]);
        assert!(std::ptr::eq(s.read_unbilled(a).as_ptr(), buf), "in place");
        assert_eq!(s.counter().writes(), 2, "one write each");

        let f = s.fork(IoCounter::new());
        s.write(a, [6]);
        assert_eq!(s.read_unbilled(a), &[6]);
        assert_eq!(f.read_unbilled(a), &[4, 5], "the fork keeps its page");
    }

    #[test]
    fn a_write_past_capacity_panics_and_never_overfills_the_page() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut s = store(2);
        let a = s.alloc(vec![1]);
        // An exact size hint: the page is left as it was.
        let r = catch_unwind(AssertUnwindSafe(|| s.write(a, vec![7, 8, 9])));
        assert!(r.is_err(), "three records into capacity 2");
        assert_eq!(s.read_unbilled(a), &[1]);
        // No size hint: the page fills to capacity, not past it.
        let mut next = 10;
        let unhinted = std::iter::from_fn(|| {
            next += 1;
            Some(next)
        });
        let r = catch_unwind(AssertUnwindSafe(|| s.write(a, unhinted)));
        assert!(r.is_err(), "an endless iterator into capacity 2");
        assert_eq!(s.len_unbilled(a), 2);
        assert_eq!(s.counter().writes(), 1, "only the alloc was billed");
    }

    #[test]
    fn writes_after_a_fork_copy_only_the_chunks_they_touch() {
        let mut s = store(2);
        let ids: Vec<PageId> = (0..400).map(|i| s.alloc(vec![i])).collect();
        let f = s.fork(IoCounter::new());
        assert_eq!(s.pages.diverged_chunks(&f.pages), 0, "a fork shares all");
        assert!(s.pages.shares_free_list_with(&f.pages));

        // k = 5 mutations of every kind, each in a chunk of its own.
        s.append(ids[3], 1000);
        s.write(ids[40], vec![7]);
        s.free(ids[80]);
        let reused = s.alloc(vec![8]);
        assert_eq!(reused, ids[80], "the freed slot comes back");
        s.append(ids[399], 1001);
        assert!(s.pages.diverged_chunks(&f.pages) <= 5);
        assert!(s.pages.diverged_chunks(&f.pages) >= 4);
        // An untouched page of a copied chunk is still the fork's buffer.
        assert!(std::ptr::eq(
            s.read_unbilled(ids[4]),
            f.read_unbilled(ids[4])
        ));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(f.read_unbilled(id), &[i as u32], "fork page {i}");
        }
    }

    #[test]
    fn a_fork_of_a_mutated_fork_reads_its_own_frozen_contents() {
        let mut a = store(4);
        let p = a.alloc(vec![1]);
        let q = a.alloc(vec![2]);
        let mut b = a.fork(IoCounter::new());
        b.append(p, 10);
        b.free(q);
        let c = b.fork(IoCounter::new());
        // All three diverge again after the second fork.
        a.append(p, 20);
        let q2 = b.alloc(vec![3]);
        assert_eq!(q2, q, "b recycles the slot it freed");
        b.write(p, vec![30]);

        assert_eq!(a.read_unbilled(p), &[1, 20]);
        assert_eq!(a.read_unbilled(q), &[2]);
        assert_eq!(b.read_unbilled(p), &[30]);
        assert_eq!(b.read_unbilled(q), &[3]);
        assert_eq!(c.read_unbilled(p), &[1, 10]);
        assert_eq!(
            (a.pages_in_use(), b.pages_in_use(), c.pages_in_use()),
            (2, 2, 1)
        );
        let c_sees_q_freed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.read_unbilled(q);
        }));
        assert!(c_sees_q_freed.is_err(), "c forked after the free");
    }

    #[test]
    fn unbilled_access_is_free() {
        let mut s = store(2);
        let a = s.alloc(vec![9]);
        let w = s.counter().writes();
        let r = s.counter().reads();
        assert_eq!(s.read_unbilled(a), &[9]);
        assert_eq!(s.len_unbilled(a), 1);
        assert_eq!(s.counter().reads(), r);
        assert_eq!(s.counter().writes(), w);
    }
}
