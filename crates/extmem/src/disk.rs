//! Raw byte-addressed page storage.
//!
//! [`Disk`] models a conventional block device: fixed-size byte pages,
//! allocated and freed by id, each access costing one I/O. The B+-tree crate
//! serialises its nodes onto this device exactly like a storage engine would,
//! so its fanout is genuinely determined by the byte size of keys and page
//! headers rather than by fiat.

use std::sync::Arc;

use crate::backend::{BackendSpec, FileMirror};
use crate::cow::PageTable;
use crate::stats::IoCounter;
use crate::store::PageId;

/// A page-sized byte buffer, shared between a device and its forks until
/// one of them overwrites the page.
pub type PageBuf = Arc<[u8]>;

/// A simulated block device with fixed page size and exact I/O accounting.
///
/// Pages sit in the same chunked copy-on-write table as
/// [`crate::TypedStore`]'s, so [`Disk::fork`] shares every page with the
/// fork and a write replaces one handle.
#[derive(Debug)]
pub struct Disk {
    page_size: usize,
    pages: PageTable<PageBuf>,
    counter: IoCounter,
    /// Physical mirror when opened on [`BackendSpec::File`]; `None` is
    /// the pure in-memory model (see [`crate::TypedStore`] — same
    /// contract: the model tables stay authoritative, the mirror adds the
    /// real write-through and the cache-or-`pread` read path).
    file: Option<FileMirror<u8>>,
}

impl Disk {
    /// Create a device with pages of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    pub fn new(page_size: usize, counter: IoCounter) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            pages: PageTable::new(),
            counter,
            file: None,
        }
    }

    /// Create a device on the given backend: [`BackendSpec::Model`] is
    /// exactly [`Disk::new`], [`BackendSpec::File`] opens a fresh page
    /// file every page access is mirrored onto.
    pub fn new_on(spec: &BackendSpec, page_size: usize, counter: IoCounter) -> Self {
        let mut disk = Self::new(page_size, counter);
        if let BackendSpec::File(cfg) = spec {
            disk.file = Some(FileMirror::create(cfg, page_size));
        }
        disk
    }

    /// Whether this device mirrors its pages onto a real file.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// `(cold, warm)` charged-read counts of the file backend; `None` on
    /// the model backend.
    pub fn file_stats(&self) -> Option<(u64, u64)> {
        self.file.as_ref().map(FileMirror::stats)
    }

    /// Empty the file backend's page cache (cold-cache measurement).
    pub fn clear_file_cache(&self) {
        if let Some(m) = &self.file {
            m.clear_cache();
        }
    }

    /// Raw on-disk bytes of a live page, cache bypassed, nothing charged.
    /// `None` on the model backend; for differential tests only.
    pub fn file_page_bytes(&self, id: PageId) -> Option<Vec<u8>> {
        self.live(id, "file image of");
        self.file
            .as_ref()
            .map(|m| m.slot_bytes_raw(id, self.page_size))
    }

    /// Ids of every live page, ascending. Uncharged; for tests.
    pub fn live_page_ids(&self) -> Vec<PageId> {
        self.pages.iter().map(|(id, _)| id).collect()
    }

    /// Resolve a live page or panic naming the operation and the page.
    #[track_caller]
    fn live(&self, id: PageId, what: &str) -> &[u8] {
        match self.pages.get(id) {
            Some(page) => page,
            None => panic!("{what} freed page {id:?}"),
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The I/O counter charged by this device.
    pub fn counter(&self) -> &IoCounter {
        &self.counter
    }

    /// Allocate a zeroed page without touching the counter (allocation is a
    /// metadata operation; the caller pays when it writes contents).
    pub fn alloc(&mut self) -> PageId {
        let id = self.pages.insert(vec![0u8; self.page_size].into());
        if let Some(m) = &self.file {
            m.write_page(id, self.live(id, "alloc of"));
        }
        id
    }

    /// Read a page into a fresh buffer. Costs one read I/O.
    pub fn read(&self, id: PageId) -> &[u8] {
        self.counter.add_reads(1);
        let page = self.live(id, "read of");
        if let Some(m) = &self.file {
            m.read_page(id, page);
        }
        page
    }

    /// Write a full page. Costs one write I/O.
    ///
    /// # Panics
    /// Panics if `buf` is not exactly one page long.
    pub fn write(&mut self, id: PageId, buf: &[u8]) {
        assert_eq!(buf.len(), self.page_size, "partial page write");
        let Some(page) = self.pages.get_mut(id) else {
            panic!("write to freed page {id:?}")
        };
        self.counter.add_writes(1);
        if let Some(m) = &self.file {
            m.write_page(id, buf);
        }
        *page = buf.into();
    }

    /// Fork a copy-on-write snapshot of this device, charging future I/O on
    /// the fork to `counter`.
    ///
    /// Exactly [`crate::TypedStore::fork`]'s contract: uncharged (it models
    /// publishing an epoch, not a transfer), one handle bump per chunk of
    /// 16 page slots, no page copied — a later [`Disk::write`] on either
    /// side replaces that side's handle only — and always model-backed (an
    /// epoch is an in-memory publication).
    pub fn fork(&self, counter: IoCounter) -> Self {
        Self {
            page_size: self.page_size,
            pages: self.pages.clone(),
            counter,
            file: None,
        }
    }

    /// Read a page without charging an I/O.
    ///
    /// Only for validation code in tests (oracle comparisons, invariant
    /// checks); never used on a measured query path.
    pub fn read_unbilled(&self, id: PageId) -> &[u8] {
        self.live(id, "read of")
    }

    /// Release a page.
    pub fn free_page(&mut self, id: PageId) {
        let freed = self.pages.remove(id);
        assert!(freed.is_some(), "double free of page {id:?}");
        if let Some(m) = &self.file {
            m.free_page(id);
        }
    }

    /// Number of live pages — the structure's space in disk blocks.
    pub fn pages_in_use(&self) -> usize {
        self.pages.in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut d = Disk::new(64, IoCounter::new());
        let id = d.alloc();
        let mut buf = vec![0u8; 64];
        buf[0] = 0xAB;
        buf[63] = 0xCD;
        d.write(id, &buf);
        assert_eq!(d.read(id)[0], 0xAB);
        assert_eq!(d.read(id)[63], 0xCD);
        assert_eq!(d.counter().reads(), 2);
        assert_eq!(d.counter().writes(), 1);
    }

    #[test]
    #[should_panic(expected = "partial page write")]
    fn partial_write_panics() {
        let mut d = Disk::new(64, IoCounter::new());
        let id = d.alloc();
        d.write(id, &[0u8; 10]);
    }

    #[test]
    fn fork_is_uncharged_and_copy_on_write() {
        let mut d = Disk::new(8, IoCounter::new());
        let a = d.alloc();
        d.write(a, &[1; 8]);
        let snap_counter = IoCounter::new();
        let f = d.fork(snap_counter.clone());
        assert_eq!(d.counter().total(), 1, "fork charges nothing");
        assert_eq!(snap_counter.total(), 0);
        assert!(
            std::ptr::eq(d.read_unbilled(a), f.read_unbilled(a)),
            "the fork shares the page buffer, it does not copy it"
        );

        // Mutating the original never shows through the fork.
        d.write(a, &[9; 8]);
        assert_eq!(f.read(a), &[1; 8], "fork sees the frozen page");
        assert_eq!(d.read_unbilled(a), &[9; 8]);
        // Fork reads bill the fork's counter, not the original's.
        assert_eq!(snap_counter.reads(), 1);
        assert_eq!(d.counter().reads(), 0);

        // Freeing and reallocating a shared slot on the original leaves the
        // fork intact, and the fork allocates from its own free list.
        d.free_page(a);
        assert_eq!(f.read_unbilled(a), &[1; 8]);
        assert_eq!(d.alloc(), a, "freed slot is reused");
        assert_eq!(f.pages_in_use(), 1);
        let mut f = f;
        assert_ne!(f.alloc(), a, "the fork never saw the free");
        assert_eq!(f.read_unbilled(a), &[1; 8]);
    }

    #[test]
    fn free_reuses_slot() {
        let mut d = Disk::new(16, IoCounter::new());
        let a = d.alloc();
        d.free_page(a);
        assert_eq!(d.pages_in_use(), 0);
        let b = d.alloc();
        assert_eq!(a, b);
    }
}
