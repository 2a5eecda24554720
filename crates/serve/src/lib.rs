//! Epoch-snapshot serving over the interval index.
//!
//! The core structures ([`ccix_interval::IntervalIndex`] and friends) are
//! single-writer by construction: every mutation takes `&mut self` and the
//! I/O accounting is exact per structure. This crate layers a concurrent
//! serving discipline on top **without touching that model**:
//!
//! 1. **Epochs.** The writer thread owns the live index. After applying a
//!    group of write submissions it *publishes* an [`Epoch`]: an immutable
//!    [`ccix_interval::IntervalIndex::fork_snapshot`] wrapped in an `Arc`
//!    and swapped into a shared slot. Forking copies handles only — one
//!    per 16 page slots and one per control block — because the page
//!    tables and control blocks are structurally shared between the live
//!    index and all published epochs; the next commit copies what it
//!    dirties.
//! 2. **Snapshots.** Readers grab [`Snapshot`]s (`Arc` clones of the
//!    newest epoch) and query them lock-free; answers are exact for the
//!    epoch's state, including mid-reorganisation states (the fork carries
//!    the reorg job's delta buffers). Each epoch has its own fresh
//!    [`ccix_extmem::IoCounter`], so reader traffic never perturbs the
//!    writer's accounting — the single-threaded I/O tables stay
//!    bit-identical with this crate in the picture.
//! 3. **Reclamation.** A page, page-table chunk or control block replaced
//!    by a later commit lives exactly as long as the last epoch that can
//!    see it: dropping the last `Arc` to an epoch frees what it alone still
//!    holds. Reference counts *are* the epoch-based reclamation; there is
//!    no deferred-free list to tend. The writer lets go of a retired epoch
//!    only after resolving the commit's tickets and never under the
//!    publish lock.
//! 4. **Group commit.** Writes enter a bounded queue ([`Engine::submit`])
//!    and are drained in groups; each submission is applied as its own
//!    sorted [`ccix_interval::IntervalIndex::apply_batch`] flood (the
//!    batch-independence contract holds *within* a submission), deferred
//!    reorganisation debt is pumped a bounded amount, and one epoch is
//!    published per group. [`CommitTicket::wait`] resolves at publication
//!    — the commit-visibility point.
//! 5. **Front end.** [`Server`] exposes the engine over TCP with a
//!    length-prefixed binary protocol ([`net`] module docs) using only
//!    `std`: one acceptor plus a fixed worker pool. [`Client`] is the
//!    matching blocking client.
//! 6. **Durability.** With [`EngineConfig::durability`] set, every
//!    submission is appended to a write-ahead log *before* it is applied,
//!    and its [`CommitTicket`] resolves only after the covering fsync:
//!    a resolved ticket survives any crash. [`Engine::recover`] folds the
//!    WAL suffix into the newest checkpoint's contents and bulk-loads the
//!    result once (see `ccix_durable`). Durability off (the default)
//!    leaves the engine byte-identical to earlier versions.
//!
//! ```
//! use ccix_extmem::{Geometry, IoCounter};
//! use ccix_interval::{IndexBuilder, Interval, IntervalOp};
//! use ccix_serve::{Engine, EngineConfig};
//!
//! let idx = IndexBuilder::new(Geometry::new(16))
//!     .bulk(IoCounter::new(), &[Interval::new(1, 5, 7)]);
//! let engine = Engine::start(idx, EngineConfig::default());
//!
//! // Readers hold a consistent view while the writer commits.
//! let snap = engine.snapshot();
//! engine.submit(vec![IntervalOp::Insert(Interval::new(2, 6, 8))]).wait();
//! assert_eq!(snap.query(3), vec![7]); // old epoch: frozen
//! assert_eq!(engine.snapshot().query(3).len(), 2); // new epoch: visible
//! engine.shutdown();
//! ```

pub mod engine;
pub mod net;

pub use ccix_durable::{DurabilityConfig, FsyncPolicy, Meta, RecoveryReport};
pub use engine::{CommitInfo, CommitTicket, Engine, EngineConfig, Epoch, Snapshot};
pub use net::{Client, ConnectOpts, Server, ServerHandle};
