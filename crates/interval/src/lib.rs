//! # `ccix-interval` — external dynamic interval management
//!
//! Indexing constraints for convex CQLs reduces to dynamic interval
//! management (§2.1): maintain a set of intervals `[lo, hi]` under
//! insertion so that *interval intersection* queries — report every stored
//! interval intersecting a query interval — are I/O-efficient.
//!
//! Proposition 2.2 and Fig. 3 split an intersection query `[x1, x2]` into:
//!
//! * **types 1 and 2** — intervals whose left endpoint lies in `(x1, x2]`:
//!   a one-dimensional range query on left endpoints (the paper keeps a
//!   B+-tree for it; this crate answers it from the metablock tree's
//!   x-ordered slabs, see [`IntervalIndex::left_range`]);
//! * **types 3 and 4** — intervals containing `x1` (a *stabbing* query):
//!   mapping `[lo, hi]` to the point `(lo, hi)` above the diagonal turns
//!   the stabbing query into a diagonal-corner query at `x1`, answered by
//!   the metablock tree of §3.
//!
//! No interval is reported twice (the two endpoint classes are disjoint).
//! Costs: query `O(log_B n + t/B)`, insert amortised
//! `O(log_B n + (log_B n)²/B)`, space `O(n/B)` — the paper's Theorem 3.7
//! carried through the reduction.
//!
//! ```
//! use ccix_extmem::{Geometry, IoCounter};
//! use ccix_interval::IndexBuilder;
//!
//! let mut idx = IndexBuilder::new(Geometry::new(8)).open(IoCounter::new());
//! idx.insert(1, 4, 10);
//! idx.insert(3, 9, 11);
//! idx.insert(6, 7, 12);
//! let mut stabbed = idx.stabbing(4);
//! stabbed.sort_unstable();
//! assert_eq!(stabbed, vec![10, 11]);
//! let mut hits = idx.intersecting(5, 6);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![11, 12]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod index;
mod naive;
mod sharded;

pub use builder::IndexBuilder;
pub use index::{Interval, IntervalIndex, IntervalOp, IntervalOptions};
pub use naive::NaiveIntervalStore;
pub use sharded::{
    split_points_from_sample, RepeatedId, ShardedBuilder, ShardedIntervalIndex, FAN_OUT_MIN_OPS,
};
