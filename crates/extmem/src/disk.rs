//! Raw byte-addressed page storage.
//!
//! [`Disk`] models a conventional block device: fixed-size byte pages,
//! allocated and freed by id, each access costing one I/O. The B+-tree crate
//! serialises its nodes onto this device exactly like a storage engine would,
//! so its fanout is genuinely determined by the byte size of keys and page
//! headers rather than by fiat.

use std::sync::Arc;

use crate::cow::PageTable;
use crate::stats::IoCounter;
use crate::store::PageId;

/// A page-sized byte buffer.
pub type PageBuf = Arc<[u8]>;

/// A simulated block device with fixed page size and exact I/O accounting.
///
/// Pages sit in the same chunked page table as [`crate::TypedStore`]'s; a
/// write replaces one handle.
#[derive(Debug)]
pub struct Disk {
    page_size: usize,
    pages: PageTable<PageBuf>,
    counter: IoCounter,
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
        }
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
        self.pages.insert(vec![0u8; self.page_size].into())
    }

    /// Read a page into a fresh buffer. Costs one read I/O.
    pub fn read(&self, id: PageId) -> &[u8] {
        self.counter.add_reads(1);
        self.live(id, "read of")
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
        *page = buf.into();
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
    fn free_reuses_slot() {
        let mut d = Disk::new(16, IoCounter::new());
        let a = d.alloc();
        d.free_page(a);
        assert_eq!(d.pages_in_use(), 0);
        let b = d.alloc();
        assert_eq!(a, b);
    }
}
