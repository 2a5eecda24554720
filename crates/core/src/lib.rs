//! # `ccix-core` — metablock trees
//!
//! The paper's core contribution (§3, §4): I/O-optimal external structures
//! for the two query shapes its reductions produce.
//!
//! * [`MetablockTree`] answers **diagonal-corner queries** — report every
//!   point with `x ≤ q ≤ y` — in `O(log_B n + t/B)` I/Os with `O(n/B)` pages
//!   (Theorem 3.2, optimal by Proposition 3.3), and supports insertions at
//!   `O(log_B n + (log_B n)²/B)` amortised I/Os (Theorem 3.7). It is the
//!   engine behind external dynamic interval management (Proposition 2.2).
//!
//! * [`ThreeSidedTree`] answers **3-sided queries** — report every point
//!   with `x1 ≤ x ≤ x2 ∧ y ≥ y0` — in `O(log_B n + t/B + log2 B)` I/Os
//!   (Lemmas 4.3/4.4), the engine behind the improved class index
//!   (Theorem 4.7).
//!
//! Both trees also support **deletion** — the paper's §5 open problem —
//! within the insert budget: a delete routes a tombstone to the metablock
//! holding the live copy (the routing invariant makes that metablock
//! unique), queries filter pending tombstones wherever they scan update
//! buffers, reorganisations annihilate insert/delete pairs in their
//! merges, and an occupancy-triggered shrink keeps space `O(live/B)`
//! under delete floods. See `docs/architecture.md` for the invariants and
//! `docs/tuning.md` for the knobs ([`Tuning::tomb_batch_pages`],
//! [`Tuning::shrink_deletes_pct`]) and measured costs.
//!
//! ## Anatomy (Figs. 8–12)
//!
//! A metablock tree is a `B`-ary tree of *metablocks* of `B²` points each.
//! The root holds the `B²` points with the largest `y`; the remainder is
//! split by `x` into `B` slabs, one recursive tree per slab. Each metablock
//! stores its points twice — in *vertically* (x-sorted) and *horizontally*
//! (y-sorted) oriented blockings — plus, when its region meets the diagonal,
//! a [`CornerStructure`] (Lemma 3.1); each non-first child also carries a
//! `TS` set: the top `B²` points of its left siblings, which lets a query
//! decide in `O(t/B)` I/Os whether sibling subtrees are worth visiting
//! (Fig. 17). Insertions buffer in per-metablock update blocks and per-parent
//! `TD` corner structures, amortised by level-I/level-II reorganisations and
//! branching-factor splits (§3.2, Fig. 19).
//!
//! The 3-sided tree is the same anatomy with PSTs in place of corner
//! structures, two sibling snapshots per child and a children PST per
//! interior metablock (§4, Fig. 20). So both trees are one generic
//! `Tree<S>`: the control blocks, the write path, every reorganisation,
//! the background shrink job, the static build, the validator,
//! [`TreeStats`] and the search are written once, and a sealed `Shape`
//! (`Diag` or `ThreeSided`) supplies the per-metablock structure, its plan
//! and the sibling snapshots. A diagonal-corner query at `q` is the 3-sided
//! query `(−∞, q, q)`, so one search skeleton answers both; only how an
//! organisation is queried, the straddling node's answer and the routing
//! among a node's children stay per shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod corner;
mod diag;
mod op;
pub mod par;
mod threesided;
mod tree;
mod tuning;

pub use corner::CornerStructure;
pub use diag::{DiagOptions, MetablockTree};
pub use op::Op;
pub use threesided::ThreeSidedTree;
pub use tree::{ReorgCounts, Shape, Tree, TreeStats};
pub use tuning::Tuning;
