//! # `ccix-extmem` — the external-memory substrate
//!
//! Every data structure in this workspace is analysed in the standard
//! external-memory (I/O) model used by the paper *Indexing for Data Models
//! with Constraints and Classes* (Kanellakis, Ramaswamy, Vengroff, Vitter;
//! PODS'93 / JCSS'96):
//!
//! * secondary storage is an array of **pages** (disk blocks) holding `B`
//!   units of data each;
//! * transferring one page between disk and main memory costs **one I/O**;
//! * main memory can hold `O(B^2)` units of working data;
//! * the cost of an operation is the number of page transfers it performs.
//!
//! This crate provides that model as a small, deterministic simulator:
//!
//! * [`IoStats`] / [`IoCounter`] — shared read/write counters with
//!   checkpointing, so a test or benchmark can measure the exact number of
//!   I/Os performed by a query;
//! * [`TypedStore`] — a paged store whose pages hold up to `B` records of a
//!   concrete type; every page access is charged;
//! * [`Disk`] — a raw byte-addressed page store (used by the B+-tree, which
//!   serialises its nodes to bytes like a real storage engine);
//! * [`Run`] / [`Slots`] — the copy-on-write runs and control-block slots
//!   that let a structure fork an epoch in `O(dirty)`;
//! * [`BufferPool`] — an LRU cache in front of a [`Disk`] for experiments
//!   that need to show the effect of caching (the paper's bounds assume no
//!   cross-operation caching, so measured paths default to the raw stores).
//!
//! The simulator is intentionally strict: page capacities are enforced, page
//! frees are tracked, and double-frees or out-of-bounds accesses panic, so
//! structural bugs surface in tests rather than skewing I/O counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cow;
mod disk;
pub mod fs;
mod geometry;
pub mod merge;
mod pin;
mod point;
mod pool;
pub mod ser;
mod stats;
mod store;

pub use backend::{BackendSpec, FileConfig, DEFAULT_CACHE_PAGES, SLOT_ALIGN};
pub use cow::{Run, Slots};
pub use disk::{Disk, PageBuf};
pub use geometry::{near_equal_ranges, Geometry};
pub use merge::{merge_y_desc_capped, MergeCursor, RankScratch, SortedIds, SortedRun, YRanks};
pub use pin::PathPin;
pub use point::{sort_by_x, sort_by_y_desc, Point};
pub use pool::BufferPool;
pub use ser::FixedBytes;
pub use stats::{IoCounter, IoSnapshot, IoStats};
pub use store::{PageId, TypedStore};
