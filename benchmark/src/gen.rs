//! The load generator. `--seed` reaches nothing but this module: the
//! program under test only ever sees the generated inputs.
//!
//! Every stream is stationary — a write batch deletes as many live records
//! as it inserts — so equal-length slices of one run are comparable.

use ccix_class::{ClassId, Hierarchy, Object};
use ccix_interval::{Interval, IntervalOp};
use ccix_testkit::workloads::{self, HierarchyShape};
use ccix_testkit::DetRng;

/// Longest interval of the E9/EC family; with `range = 4n` a stabbing point
/// meets ≈ 250 intervals.
const MAX_LEN: i64 = 2000;

/// Seeds of the independent sub-streams (reads never perturb writes, so the
/// write stream of request `k` is the same whether or not a reader runs).
const READ_STREAM: u64 = 0x5eed_0001;
const WRITE_STREAM: u64 = 0x5eed_0002;

/// One request of a single-call stream.
#[derive(Clone, Copy, Debug)]
pub enum Call<R, Q> {
    Read(Q),
    Insert(R),
    Delete(R),
}

/// Generator for the interval workloads (`wire_*`, `file_mixed`).
#[derive(Clone)]
pub struct IntervalGen {
    reads: DetRng,
    writes: DetRng,
    /// Records the system should hold once every issued write is applied.
    pub live: Vec<Interval>,
    next_id: u64,
    range: i64,
}

impl IntervalGen {
    /// `uniform_intervals(n, seed, 4n, 2000)` as the initial content.
    pub fn new(seed: u64, n: usize) -> Self {
        let range = 4 * n as i64;
        Self {
            reads: DetRng::new(seed ^ READ_STREAM),
            writes: DetRng::new(seed ^ WRITE_STREAM),
            live: workloads::uniform_intervals(n, seed, range, MAX_LEN),
            next_id: n as u64,
            range,
        }
    }

    /// Ids below this have been issued (ids are dense and never reused).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    pub fn stab_point(&mut self) -> i64 {
        self.reads.gen_range(0..self.range)
    }

    pub fn stab_points(&mut self, k: usize) -> Vec<i64> {
        (0..k).map(|_| self.stab_point()).collect()
    }

    fn fresh(&mut self) -> Interval {
        let lo = self.writes.gen_range(0..self.range);
        let iv = Interval::new(lo, lo + self.writes.gen_range(0..MAX_LEN), self.next_id);
        self.next_id += 1;
        iv
    }

    fn take_live(&mut self) -> Interval {
        let k = self.writes.gen_range(0..self.live.len());
        self.live.swap_remove(k)
    }

    /// `half` deletes of live records plus `half` inserts of fresh ones, as
    /// one independent batch (it never deletes what it inserts).
    pub fn write_batch(&mut self, half: usize) -> Vec<IntervalOp> {
        let mut ops = Vec::with_capacity(2 * half);
        for _ in 0..half {
            ops.push(IntervalOp::Delete(self.take_live()));
        }
        for _ in 0..half {
            let iv = self.fresh();
            self.live.push(iv);
            ops.push(IntervalOp::Insert(iv));
        }
        ops
    }

    /// Next single call: 50 % stab, 25 % insert, 25 % delete.
    pub fn call(&mut self) -> Call<Interval, i64> {
        match self.writes.gen_range(0..4u32) {
            0 | 1 => Call::Read(self.stab_point()),
            2 => {
                let iv = self.fresh();
                self.live.push(iv);
                Call::Insert(iv)
            }
            _ => Call::Delete(self.take_live()),
        }
    }
}

/// Generator for `lib_class`.
#[derive(Clone)]
pub struct ClassGen {
    rng: DetRng,
    pub hierarchy: Hierarchy,
    pub live: Vec<Object>,
    next_id: u64,
    attr_range: i64,
    /// Query width; `attr_range / 50` keeps `t ≈ 27` at `n = 50 000`.
    pub width: i64,
}

impl ClassGen {
    pub const CLASSES: usize = 255;
    pub const ATTR_RANGE: i64 = 1_000_000;

    pub fn new(seed: u64, n: usize) -> Self {
        let hierarchy = workloads::hierarchy(HierarchyShape::Balanced, Self::CLASSES, seed);
        let live = workloads::uniform_objects(&hierarchy, n, seed, Self::ATTR_RANGE);
        Self {
            rng: DetRng::new(seed ^ WRITE_STREAM),
            hierarchy,
            live,
            next_id: n as u64,
            attr_range: Self::ATTR_RANGE,
            width: Self::ATTR_RANGE / 50,
        }
    }

    /// Next single call: 50 % range query, 25 % insert, 25 % delete.
    pub fn call(&mut self) -> Call<Object, (ClassId, i64, i64)> {
        match self.rng.gen_range(0..4u32) {
            0 | 1 => {
                let class = self.rng.gen_range(0..self.hierarchy.len());
                let a = self.rng.gen_range(0..self.attr_range);
                Call::Read((class, a, a + self.width))
            }
            2 => {
                let o = Object::new(
                    self.rng.gen_range(0..self.hierarchy.len()),
                    self.rng.gen_range(0..self.attr_range),
                    self.next_id,
                );
                self.next_id += 1;
                self.live.push(o);
                Call::Insert(o)
            }
            _ => {
                let k = self.rng.gen_range(0..self.live.len());
                Call::Delete(self.live.swap_remove(k))
            }
        }
    }
}

/// FNV-1a over the first requests of every stream a seed produces; the
/// determinism test and the environment line both report it.
pub fn stream_hash(seed: u64) -> u64 {
    let mut h = crate::env::Fnv::new();
    let mut eat = |words: [u64; 4]| words.into_iter().for_each(|w| h.eat(w));
    let mut g = IntervalGen::new(seed, 1000);
    for _ in 0..64 {
        for op in g.write_batch(32) {
            match op {
                IntervalOp::Insert(iv) => eat([0, iv.lo as u64, iv.hi as u64, iv.id]),
                IntervalOp::Delete(iv) => eat([1, iv.lo as u64, iv.hi as u64, iv.id]),
            }
        }
        for q in g.stab_points(64) {
            eat([2, q as u64, 0, 0]);
        }
    }
    for _ in 0..1000 {
        match g.call() {
            Call::Read(q) => eat([2, q as u64, 0, 0]),
            Call::Insert(iv) => eat([0, iv.lo as u64, iv.hi as u64, iv.id]),
            Call::Delete(iv) => eat([1, iv.lo as u64, iv.hi as u64, iv.id]),
        }
    }
    let mut c = ClassGen::new(seed, 1000);
    for _ in 0..1000 {
        match c.call() {
            Call::Read((class, a1, a2)) => eat([2, class as u64, a1 as u64, a2 as u64]),
            Call::Insert(o) => eat([0, o.class as u64, o.attr as u64, o.id]),
            Call::Delete(o) => eat([1, o.class as u64, o.attr as u64, o.id]),
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(stream_hash(7), stream_hash(7));
        assert_ne!(stream_hash(7), stream_hash(8));
    }

    #[test]
    fn streams_are_stationary_and_never_delete_the_absent() {
        let mut g = IntervalGen::new(3, 500);
        let mut ids: std::collections::BTreeSet<u64> = g.live.iter().map(|iv| iv.id).collect();
        for _ in 0..50 {
            for op in g.write_batch(32) {
                match op {
                    IntervalOp::Insert(iv) => assert!(ids.insert(iv.id), "id reused"),
                    IntervalOp::Delete(iv) => assert!(ids.remove(&iv.id), "absent delete"),
                }
            }
            assert_eq!(g.live.len(), 500);
        }
    }
}
