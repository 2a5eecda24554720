//! I/O accounting.
//!
//! All stores in this crate (and all structures built on them) share an
//! [`IoCounter`]: a cheap, cloneable handle to a pair of monotone counters.
//! Measurements are taken with [`IoCounter::snapshot`] before an operation
//! and [`IoSnapshot::delta`] (or [`IoCounter::since`]) after it.
//!
//! Counters are thread-safe so snapshot readers (see the `ccix-serve`
//! crate) can charge I/O from many threads at once. Charges land on
//! per-thread cache-padded stripes and the read side sums them, so the
//! single-threaded totals the perf gates diff are bit-identical to the
//! pre-striping implementation while concurrent readers never contend on
//! one cache line.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Number of counter stripes. A power of two so stripe assignment is a
/// mask; 16 is comfortably above the reader-thread counts the throughput
/// experiment drives (up to 8) without bloating `IoStats`.
const STRIPES: usize = 16;

/// Round-robin source of stripe ids; each thread claims one on first use.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Relaxed) & (STRIPES - 1);
}

#[inline]
fn stripe_id() -> usize {
    STRIPE.with(|s| *s)
}

/// One cache-line-padded slice of the counters. Padding keeps two reader
/// threads on adjacent stripes from false-sharing a line.
#[repr(align(64))]
#[derive(Debug)]
struct Stripe {
    reads: AtomicU64,
    writes: AtomicU64,
    shunt_reads: AtomicU64,
    shunt_writes: AtomicU64,
}

impl Default for Stripe {
    fn default() -> Self {
        Self {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            shunt_reads: AtomicU64::new(0),
            shunt_writes: AtomicU64::new(0),
        }
    }
}

/// Monotone counters of page transfers.
///
/// `reads` counts disk-to-memory transfers, `writes` memory-to-disk.
/// In the paper's cost model both directions cost one I/O.
///
/// All updates and reads use relaxed atomics: the counters are a cost
/// meter, not a synchronisation primitive. Totals read while other
/// threads are still charging are a momentary view; totals read after
/// the charging threads have been joined are exact.
#[derive(Debug)]
pub struct IoStats {
    stripes: [Stripe; STRIPES],
    shunt: AtomicBool,
}

impl Default for IoStats {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe::default()),
            shunt: AtomicBool::new(false),
        }
    }
}

impl IoStats {
    /// Record `n` page reads.
    #[inline]
    pub fn add_reads(&self, n: u64) {
        let s = &self.stripes[stripe_id()];
        if self.shunt.load(Relaxed) {
            s.shunt_reads.fetch_add(n, Relaxed);
        } else {
            s.reads.fetch_add(n, Relaxed);
        }
    }

    /// Record `n` page writes.
    #[inline]
    pub fn add_writes(&self, n: u64) {
        let s = &self.stripes[stripe_id()];
        if self.shunt.load(Relaxed) {
            s.shunt_writes.fetch_add(n, Relaxed);
        } else {
            s.writes.fetch_add(n, Relaxed);
        }
    }

    /// Total page reads so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.stripes.iter().map(|s| s.reads.load(Relaxed)).sum()
    }

    /// Total page writes so far.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.stripes.iter().map(|s| s.writes.load(Relaxed)).sum()
    }

    /// Total page transfers (reads + writes).
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }
}

/// A cloneable handle to shared [`IoStats`].
///
/// Every store constructed from the same counter contributes to the same
/// totals, which is how multi-structure indexes (e.g. the interval manager's
/// B+-tree plus metablock tree) report a single cost per operation.
///
/// The handle is `Send + Sync`; concurrent snapshot readers each charge
/// their own epoch's counter (see `TypedStore::fork`), so the live
/// writer's accounting — including its shunt — is never polluted by
/// reader traffic.
#[derive(Clone, Default)]
pub struct IoCounter(Arc<IoStats>);

impl IoCounter {
    /// Create a fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` page reads.
    #[inline]
    pub fn add_reads(&self, n: u64) {
        self.0.add_reads(n);
    }

    /// Record `n` page writes.
    #[inline]
    pub fn add_writes(&self, n: u64) {
        self.0.add_writes(n);
    }

    /// Total page reads so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.0.reads()
    }

    /// Total page writes so far.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.0.writes()
    }

    /// Total page transfers so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.0.total()
    }

    /// Whether `self` and `other` are handles on one set of totals.
    pub fn same_as(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads(),
            writes: self.writes(),
        }
    }

    /// Transfers performed since `snap` was taken.
    pub fn since(&self, snap: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads() - snap.reads,
            writes: self.writes() - snap.writes,
        }
    }

    /// Start **shunting**: until [`IoCounter::end_shunt`], every charge on
    /// this counter (through *any* clone — all stores sharing it) is
    /// diverted to a side meter instead of the monotone totals.
    ///
    /// This is how an incremental reorganisation
    /// (`Tuning::reorg_pages_per_op`) turns a stop-the-world rebuild into a
    /// debt: the rebuild executes with its charges shunted, and the caller
    /// bleeds the returned amounts back into the real counters a bounded
    /// number per subsequent operation. Totals are conserved exactly; only
    /// *when* each transfer is billed changes.
    ///
    /// Shunting is a single-writer affair: the mutating thread that owns
    /// the structure begins and ends the shunt around its own synchronous
    /// rebuild. Snapshot readers are unaffected because epochs fork onto
    /// fresh counters.
    ///
    /// # Panics
    /// Panics if a shunt is already active (reorganisations are synchronous
    /// and never nest their own shunts — the caller checks
    /// [`IoCounter::shunt_active`] first).
    pub fn begin_shunt(&self) {
        let was = self.0.shunt.swap(true, Relaxed);
        assert!(!was, "nested I/O shunt");
    }

    /// Stop shunting and return the `(reads, writes)` diverted since
    /// [`IoCounter::begin_shunt`]. The side meter is cleared.
    pub fn end_shunt(&self) -> (u64, u64) {
        let was = self.0.shunt.swap(false, Relaxed);
        assert!(was, "end_shunt without begin_shunt");
        let mut r = 0;
        let mut w = 0;
        for s in &self.0.stripes {
            r += s.shunt_reads.swap(0, Relaxed);
            w += s.shunt_writes.swap(0, Relaxed);
        }
        (r, w)
    }

    /// True while charges are being diverted to the side meter.
    pub fn shunt_active(&self) -> bool {
        self.0.shunt.load(Relaxed)
    }
}

impl fmt::Debug for IoCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoCounter")
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .finish()
    }
}

/// A point-in-time view of the counters; also used as a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Page reads at snapshot time (or in the delta).
    pub reads: u64,
    /// Page writes at snapshot time (or in the delta).
    pub writes: u64,
}

impl IoSnapshot {
    /// Reads + writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Difference between a later snapshot and this one.
    pub fn delta(&self, later: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: later.reads - self.reads,
            writes: later.writes - self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = IoCounter::new();
        c.add_reads(3);
        c.add_writes(2);
        assert_eq!(c.reads(), 3);
        assert_eq!(c.writes(), 2);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn snapshot_delta() {
        let c = IoCounter::new();
        c.add_reads(10);
        let s = c.snapshot();
        c.add_reads(5);
        c.add_writes(1);
        let d = c.since(s);
        assert_eq!(d.reads, 5);
        assert_eq!(d.writes, 1);
        assert_eq!(d.total(), 6);
    }

    #[test]
    fn clones_share_state() {
        let c = IoCounter::new();
        let c2 = c.clone();
        c2.add_writes(7);
        assert_eq!(c.writes(), 7);
    }

    #[test]
    fn shunt_diverts_and_conserves() {
        let c = IoCounter::new();
        let c2 = c.clone();
        c.add_reads(2);
        c.begin_shunt();
        assert!(c2.shunt_active(), "shunt state is shared across clones");
        c.add_reads(5);
        c2.add_writes(3); // charges through a clone are shunted too
        assert_eq!(c.reads(), 2, "shunted charges bypass the totals");
        assert_eq!(c.writes(), 0);
        let (r, w) = c.end_shunt();
        assert_eq!((r, w), (5, 3));
        assert!(!c.shunt_active());
        c.add_reads(r);
        c.add_writes(w);
        assert_eq!((c.reads(), c.writes()), (7, 3), "bled debt restores totals");
        // The side meter was cleared.
        c.begin_shunt();
        assert_eq!(c.end_shunt(), (0, 0));
    }

    #[test]
    fn cross_thread_charges_sum_exactly() {
        let c = IoCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.add_reads(1);
                        h.add_writes(2);
                    }
                });
            }
        });
        assert_eq!(c.reads(), 4000);
        assert_eq!(c.writes(), 8000);
    }
}
