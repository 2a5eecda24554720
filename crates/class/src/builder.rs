//! One construction surface for every class-indexing strategy.
//!
//! The four strategies each expose a direct constructor, but callers that
//! pick a strategy at runtime (benches, the differential suites, the
//! examples) previously matched on an ad-hoc enum at every call site.
//! [`IndexBuilder`] centralises that dispatch behind the same
//! configure-then-`open`/`bulk` shape as `ccix_interval::IndexBuilder`.

use ccix_core::Tuning;
use ccix_extmem::{Geometry, IoCounter};

use crate::{
    ClassIndex, FullExtentBaseline, Hierarchy, Object, RakeClassIndex, RangeTreeClassIndex,
    SingleIndexBaseline,
};

/// Which class-indexing strategy to construct (see the crate-level table
/// for the cost trade-offs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// [`SingleIndexBaseline`]: one attribute index, post-filtered.
    Single,
    /// [`FullExtentBaseline`] (Lemma 4.2): one index per class.
    FullExtent,
    /// [`RangeTreeClassIndex`] (Theorem 2.6).
    RangeTree,
    /// [`RakeClassIndex`] (Theorem 4.7) — the paper's composite index.
    #[default]
    Rake,
}

/// Configures and constructs [`ClassIndex`] implementations.
///
/// ```
/// use ccix_class::{Hierarchy, IndexBuilder, Object, Strategy};
/// use ccix_extmem::{Geometry, IoCounter};
///
/// let (people, [_, employee, _, _]) = Hierarchy::example_people();
/// let idx = IndexBuilder::new(people, Geometry::new(16))
///     .strategy(Strategy::Rake)
///     .bulk(IoCounter::new(), &[Object::new(employee, 30_000, 1)]);
/// assert_eq!(idx.query(employee, 0, 50_000), vec![1]);
/// ```
#[derive(Clone, Debug)]
pub struct IndexBuilder {
    hierarchy: Hierarchy,
    geo: Geometry,
    strategy: Strategy,
    tuning: Tuning,
}

impl IndexBuilder {
    /// Start from a frozen `hierarchy` and block geometry, defaulting to
    /// the paper's composite strategy ([`Strategy::Rake`]) with the
    /// measured default [`Tuning`].
    pub fn new(hierarchy: Hierarchy, geo: Geometry) -> Self {
        Self {
            hierarchy,
            geo,
            strategy: Strategy::default(),
            tuning: Tuning::default(),
        }
    }

    /// Pick the strategy to construct.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Write-path tuning for the rake index's per-path 3-sided trees
    /// (ignored by the strategies that only keep B+-trees).
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Open an empty index of the configured strategy, charging I/O to
    /// `counter`.
    pub fn open(&self, counter: IoCounter) -> Box<dyn ClassIndex> {
        self.bulk(counter, &[])
    }

    /// Build an index of the configured strategy over `objects` (unique
    /// ids) **statically**, charging the build's I/O to `counter`: every
    /// backing structure is constructed bottom-up from its sorted share of
    /// the objects ([`ccix_core::ThreeSidedTree::build_tuned`] per heavy
    /// path, [`ccix_bptree::BPlusTree::bulk_load`] per B+-tree) rather than
    /// grown by inserts. The result is updatable like any other index.
    pub fn bulk(&self, counter: IoCounter, objects: &[Object]) -> Box<dyn ClassIndex> {
        let (h, geo) = (self.hierarchy.clone(), self.geo);
        match self.strategy {
            Strategy::Single => Box::new(SingleIndexBaseline::bulk(h, geo, counter, objects)),
            Strategy::FullExtent => Box::new(FullExtentBaseline::bulk(h, geo, counter, objects)),
            Strategy::RangeTree => Box::new(RangeTreeClassIndex::bulk(h, geo, counter, objects)),
            Strategy::Rake => Box::new(RakeClassIndex::bulk_tuned(
                h,
                geo,
                counter,
                self.tuning,
                objects,
            )),
        }
    }
}
