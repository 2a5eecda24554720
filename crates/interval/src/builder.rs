//! The one way to construct an [`IntervalIndex`].
//!
//! Configure once, then [`IndexBuilder::open`] an empty index or
//! [`IndexBuilder::bulk`]-load one.

use std::path::PathBuf;

use ccix_core::par::cores;
use ccix_core::Tuning;
use ccix_extmem::{BackendSpec, Geometry, IoCounter, SortedRun};

use crate::index::{Interval, IntervalIndex, IntervalOp, IntervalOptions};
use crate::sharded::{RepeatedId, ShardedBuilder};

/// Configures and constructs [`IntervalIndex`] instances.
///
/// The builder is cheap to `Clone` and its construction methods take
/// `&self`, so one configured builder can stamp out any number of indexes
/// (the differential test suites open a fresh index per trial from a single
/// builder). It stopped being `Copy` when it grew a [`BackendSpec`]: a
/// file-backed spec carries a directory path and a shared file-name
/// sequence, so stamped-out indexes land in the same directory without
/// colliding.
///
/// ```
/// use ccix_extmem::{Geometry, IoCounter};
/// use ccix_interval::{IndexBuilder, Interval};
///
/// let builder = IndexBuilder::new(Geometry::new(16));
/// let idx = builder.bulk(
///     IoCounter::new(),
///     &[Interval::new(1, 5, 7), Interval::new(4, 9, 8)],
/// );
/// let mut hit = idx.stabbing(2);
/// hit.sort_unstable();
/// assert_eq!(hit, vec![7]);
/// ```
#[derive(Clone, Debug)]
pub struct IndexBuilder {
    geo: Geometry,
    options: IntervalOptions,
    backend: BackendSpec,
}

impl IndexBuilder {
    /// Start from `geo` with the default options ([`IntervalOptions`]:
    /// the measured default tuning).
    pub fn new(geo: Geometry) -> Self {
        Self {
            geo,
            options: IntervalOptions::default(),
            backend: BackendSpec::Model,
        }
    }

    /// Replace the whole option set at once.
    pub fn options(mut self, options: IntervalOptions) -> Self {
        self.options = options;
        self
    }

    /// Write-path/space tuning for the stabbing structure.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.options.tuning = tuning;
        self
    }

    /// Page backend every store of the index lives on (see
    /// [`BackendSpec`]): the pure in-memory model (default), or a real
    /// page file per store under a [`BackendSpec::File`] directory.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = spec;
        self
    }

    /// Shorthand for [`IndexBuilder::backend`] with a fresh
    /// [`BackendSpec::file`] over `dir`: every store of every index this
    /// builder stamps out becomes a real page file under `dir` (the
    /// directory is created on first use; file names never collide because
    /// the spec carries a shared sequence).
    pub fn file_backed(self, dir: impl Into<PathBuf>) -> Self {
        self.backend(BackendSpec::file(dir))
    }

    /// The configured geometry.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Open an empty index charging I/O to `counter`.
    pub fn open(&self, counter: IoCounter) -> IntervalIndex {
        IntervalIndex::open_impl(&self.backend, self.geo, counter, self.options)
    }

    /// Bulk-build an index over `intervals` (ids must be unique), charging
    /// the build's I/O to `counter`.
    pub fn bulk(&self, counter: IoCounter, intervals: &[Interval]) -> IntervalIndex {
        IntervalIndex::bulk_impl(&self.backend, self.geo, counter, intervals, self.options)
    }

    /// Bulk-build the content `base` holds once `ops` are folded into it,
    /// charging the build's I/O to `counter`: the single-shard case of
    /// [`ShardedBuilder::bulk_folded`], whose fold rules it shares.
    ///
    /// # Errors
    /// [`RepeatedId`] when the folded content holds an id twice.
    pub fn bulk_folded<'a>(
        &self,
        counter: IoCounter,
        base: &[Interval],
        ops: impl Iterator<Item = &'a IntervalOp> + Clone,
    ) -> Result<IntervalIndex, RepeatedId> {
        let single = ShardedBuilder::new(self.clone()).fold(base, ops, vec![counter], cores())?;
        Ok(single.into_shards().pop().expect("a directory has a shard"))
    }

    /// Build over the x-sorted `run` of interval points, whose ids the
    /// caller has found unique, planning over at most `budget` threads.
    pub(crate) fn build_run(
        &self,
        counter: IoCounter,
        run: SortedRun,
        budget: usize,
    ) -> IntervalIndex {
        IntervalIndex::from_run(&self.backend, self.geo, counter, run, self.options, budget)
    }
}
