//! # `ccix-class` — indexing class hierarchies (§2.2, §4)
//!
//! Objects live in exactly one class of a **static forest** of `c` classes;
//! the *full extent* of a class is its extent plus those of all descendants.
//! Class indexing (Example 2.4) asks for one-dimensional range queries by an
//! attribute **over the full extent of any class**, under object insertion.
//!
//! This crate implements every strategy the paper discusses, behind the
//! common [`ClassIndex`] trait:
//!
//! | strategy | query I/Os | insert I/Os | space (pages) |
//! |---|---|---|---|
//! | [`SingleIndexBaseline`] | `O(log_B n + t_all/B)`¹ | `O(log_B n)` | `O(n/B)` |
//! | [`FullExtentBaseline`] (Lemma 4.2) | `O(log_B n + t/B)` | `O(k·log_B n)`² | `O(k·n/B)`² |
//! | [`RangeTreeClassIndex`] (Theorem 2.6) | `O(log2 c·log_B n + t/B)` | `O(log2 c·log_B n)` | `O((n/B)·log2 c)` |
//! | [`RakeClassIndex`] (Theorem 4.7) | `O(log_B n + t/B + log2 B)` | `O(log2 c·(log_B n + (log_B n)²/B))` | `O((n/B)·log2 c)` |
//!
//! ¹ `t_all` counts *every* object in the attribute range regardless of
//! class — the baseline cannot compact its output (§2.2). ² `k` is the
//! hierarchy depth.
//!
//! The machinery: [`Hierarchy`] realises `label-class` (Fig. 4 /
//! Proposition 2.5) with exact preorder integer ranges; [`heavy`] implements
//! `label-edges` (Fig. 22 / Lemma 4.5, the Sleator–Tarjan thick/thin
//! decomposition); [`RakeClassIndex`] is `rake-and-contract` (Fig. 23 /
//! Lemma 4.6) over the 3-sided metablock trees of `ccix-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod builder;
pub mod heavy;
mod hierarchy;
mod rake;
mod rangetree;

pub use baselines::{FullExtentBaseline, SingleIndexBaseline};
pub use builder::{IndexBuilder, Strategy};
pub use hierarchy::{ClassId, Hierarchy};
pub use rake::RakeClassIndex;
pub use rangetree::RangeTreeClassIndex;

/// Page size of the shared B+-tree device every strategy keeps: `B`
/// 24-byte entries plus the node header.
fn page_size(geo: ccix_extmem::Geometry) -> usize {
    (24 * geo.b + 7).max(103)
}

/// An object to be indexed: a class, an attribute value, and a unique id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Object {
    /// The class the object belongs to (its extent).
    pub class: ClassId,
    /// The indexed attribute (e.g. income in Example 2.4).
    pub attr: i64,
    /// Unique object id.
    pub id: u64,
}

impl Object {
    /// Construct an object.
    pub fn new(class: ClassId, attr: i64, id: u64) -> Self {
        Self { class, attr, id }
    }
}

/// One operation of a mixed batch (see [`ClassIndex::apply_batch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassOp {
    /// Insert the object.
    Insert(Object),
    /// Delete a previously inserted object.
    Delete(Object),
}

/// A class-indexing strategy: answer attribute-range queries over full
/// extents, under object insertion and deletion.
pub trait ClassIndex {
    /// Insert an object.
    fn insert(&mut self, object: Object);

    /// Delete a previously inserted object — exactly the `(class, attr,
    /// id)` triple it was inserted with. Every strategy removes the object
    /// from each structure its insertion replicated it into (ancestor
    /// trees, range-tree path, heavy-path placements), at the strategy's
    /// insert budget; the rake index's 3-sided trees use the tombstone
    /// machinery of [`ccix_core::ThreeSidedTree::delete`]. Deleting an
    /// object that is not stored is a contract violation.
    fn delete(&mut self, object: Object);

    /// Delete a flood of objects, one structure-level batch per backing
    /// structure where the strategy supports it (the rake index groups by
    /// heavy-path structure and uses the trees' batched tombstone routing);
    /// the default implementation deletes one at a time.
    fn delete_batch(&mut self, objects: &[Object]) {
        for o in objects {
            self.delete(*o);
        }
    }

    /// Apply a mixed batch of inserts and deletes, one structure-level
    /// batch per backing structure where the strategy supports it (the
    /// rake index groups ops by heavy-path structure and uses the trees'
    /// batched mixed routing, [`ccix_core::ThreeSidedTree::apply_batch`]);
    /// the default implementation applies them one at a time.
    ///
    /// Ops must be independent: deleting an object the same batch inserts
    /// is a contract violation.
    fn apply_batch(&mut self, ops: &[ClassOp]) {
        for op in ops {
            match *op {
                ClassOp::Insert(o) => self.insert(o),
                ClassOp::Delete(o) => self.delete(o),
            }
        }
    }

    /// Ids of all objects in the **full extent** of `class` whose attribute
    /// lies in `[a1, a2]`.
    fn query(&self, class: ClassId, a1: i64, a2: i64) -> Vec<u64>;

    /// Answer a flood of full-extent range queries, one result per input
    /// query, in input order.
    ///
    /// The default implementation answers them one at a time; strategies
    /// whose backing structures support batched descent (the rake index's
    /// 3-sided metablock trees) override it to share each structure's
    /// descent across the queries that land on it.
    fn query_batch(&self, queries: &[(ClassId, i64, i64)]) -> Vec<Vec<u64>> {
        queries
            .iter()
            .map(|&(c, a1, a2)| self.query(c, a1, a2))
            .collect()
    }

    /// As [`ClassIndex::query_batch`], reusing `outs` for the result
    /// buffers — the canonical `_into` shape of the batch surface (see
    /// `docs/architecture.md` § Batched operations). The default routes
    /// through [`ClassIndex::query_batch`] so every strategy's batched
    /// descent override is reused.
    fn query_batch_into(&self, queries: &[(ClassId, i64, i64)], outs: &mut Vec<Vec<u64>>) {
        outs.clear();
        outs.extend(self.query_batch(queries));
    }

    /// Disk blocks occupied.
    fn space_pages(&self) -> usize;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}
