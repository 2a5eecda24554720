//! The external static priority search tree of Lemma 4.1 (\[17\]).
//!
//! "The data structure is essentially a priority search tree where each node
//! contains B points." Every node occupies exactly one disk page holding its
//! control record plus up to `B − 1` points — the `B − 1` largest-`y` points
//! of its subtree, with the remainder split at the median `x` between two
//! children. Hence:
//!
//! * space `O(n/B)` pages,
//! * 3-sided query `O(log2 n + t/B)` I/Os,
//! * bulk build `O((n/B) log_B n)` I/Os (one write per page emitted).
//!
//! Construction is split into a **pure planning phase** ([`PstPlan`]) that
//! computes every node's contents from the x-sorted input and its y-order
//! ([`YRanks`], which the hosts' metablocks keep — given whole, or as the
//! orders of x-disjoint parts) without touching a store — so hosts can run
//! it on worker threads during their parallel build phases — and a
//! sequential **materialisation** that
//! allocates one page per planned node on the calling thread. The tree
//! retains its plan as an in-memory layout mirror, which is what lets
//! [`ExternalPst::rebuild_from_sorted`] reuse the node layout across the
//! amortised reorganisations of §3.2/§4: a node whose planned population is
//! unchanged keeps its page untouched, so rebuild-heavy insert floods stop
//! re-materialising identical nodes.

use std::sync::Arc;

use ccix_extmem::{
    FixedBytes, Geometry, IoCounter, PageId, PathPin, Point, SortedRun, TypedStore, YRanks,
};

/// One record on a PST page: the leading control record or a data point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PstRec {
    /// First record of each page: split key and child pointers.
    Meta {
        /// x-split: points with `xkey ≤ split` are in the left subtree.
        split: (i64, u64),
        /// Left child page.
        left: Option<PageId>,
        /// Right child page.
        right: Option<PageId>,
    },
    /// A data point; stored sorted by `y` descending after the meta record.
    Pt(Point),
}

/// Fixed-width encoding so PST pages can live on the file backend: a tag
/// byte, then the wider variant's fields (`Meta`: 16-byte split + two
/// 5-byte optional page ids = 27 bytes total; `Pt`: 24-byte point + 2 zero
/// padding bytes). Decode validates the tag, the option flags and the
/// padding, so garbage never decodes silently.
impl FixedBytes for PstRec {
    const SIZE: usize = 27;

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            PstRec::Meta { split, left, right } => {
                out.push(0);
                out.extend_from_slice(&split.0.to_le_bytes());
                out.extend_from_slice(&split.1.to_le_bytes());
                for child in [left, right] {
                    match child {
                        Some(PageId(p)) => {
                            out.push(1);
                            out.extend_from_slice(&p.to_le_bytes());
                        }
                        None => out.extend_from_slice(&[0u8; 5]),
                    }
                }
            }
            PstRec::Pt(p) => {
                out.push(1);
                p.encode_into(out);
                out.extend_from_slice(&[0u8; 2]);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SIZE {
            return None;
        }
        let decode_child = |b: &[u8]| -> Option<Option<PageId>> {
            let id = u32::from_le_bytes(b[1..5].try_into().ok()?);
            match b[0] {
                0 if id == 0 => Some(None),
                1 => Some(Some(PageId(id))),
                _ => None,
            }
        };
        match bytes[0] {
            0 => {
                let lo = i64::from_le_bytes(bytes[1..9].try_into().ok()?);
                let hi = u64::from_le_bytes(bytes[9..17].try_into().ok()?);
                Some(PstRec::Meta {
                    split: (lo, hi),
                    left: decode_child(&bytes[17..22])?,
                    right: decode_child(&bytes[22..27])?,
                })
            }
            1 => {
                if bytes[25..27] != [0, 0] {
                    return None;
                }
                Some(PstRec::Pt(Point::decode(&bytes[1..25])?))
            }
            _ => None,
        }
    }
}

/// One planned PST node: the page contents decided, no page allocated yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlanNode {
    /// x-split between the children.
    split: (i64, u64),
    /// The node's points, `pts[start..end]` of its plan: the `B − 1`
    /// largest of its subtree, y-descending.
    top: (u32, u32),
    /// Child node indices into the plan.
    left: Option<u32>,
    right: Option<u32>,
}

/// A CPU-only construction plan for an [`ExternalPst`]: every node's
/// population, split key and shape, computed from x-sorted input and its
/// y-order with no store access and no I/O. Planning is a pure function,
/// so hosts parallelise it freely (the metablock trees plan the PSTs of
/// independent slabs on scoped worker threads); materialisation
/// ([`ExternalPst::from_plan`]) then allocates pages sequentially on the
/// calling thread, keeping the I/O accounting single-threaded.
///
/// The plan is two flat arenas: the nodes in pre-order (the root first)
/// and every node's top points, node after node.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PstPlan {
    nodes: Vec<PlanNode>,
    pts: Vec<Point>,
    height: usize,
}

impl PstPlan {
    /// Plan a tree over an x-sorted run and its y-order, given as `parts`:
    /// the y-orders of x-disjoint runs laid end to end in x order (each
    /// over its own run, ranks from 0), whose concatenation is `run`. A
    /// single part is the y-order of the whole run.
    ///
    /// Every subtree is planned over two slices of the run's x-ranks: its
    /// y-slice (y-descending) and its x-slice (ascending). A node's top is
    /// the head of its y-slice; the rest of its x-slice splits at the
    /// median, and one stable partition of the rest of its y-slice by that
    /// median gives each child its y-slice. Each level is a few linear
    /// passes over `u32` ranks, with no selection and no sort. While a
    /// subtree still spans several parts it holds one y-slice per part:
    /// its top is selected over the parts' heads, and only the part the
    /// median falls in is partitioned — the parts are never merged.
    pub fn plan<'a>(
        geo: Geometry,
        run: &SortedRun,
        parts: impl IntoIterator<Item = &'a YRanks>,
    ) -> Self {
        assert!(geo.b >= 2, "external PST needs B ≥ 2");
        let n = run.len();
        let cap = ExternalPst::node_cap(geo);
        // Every part's ranks, offset to the whole run. A second nonempty
        // part makes the plan start over segments, one per nonempty part
        // (a single one allocates none).
        let mut ys = Vec::with_capacity(n);
        let (mut first, mut segs) = (None, Vec::new());
        for part in parts {
            let base = ys.len();
            ys.extend(part.as_slice().iter().map(|&r| base as u32 + r));
            if ys.len() > base {
                let seg = Seg::new(base, ys.len());
                match first {
                    None => first = Some(seg),
                    Some(first) if segs.is_empty() => segs.extend([first, seg]),
                    Some(_) => segs.push(seg),
                }
            }
        }
        assert_eq!(ys.len(), n, "y-order of another run");
        let mut planner = RankPlanner {
            run,
            cap,
            ys,
            xs: (0..n as u32).collect(),
            taken: vec![false; n],
            spill: vec![0; n / 2 + 1],
            segs,
            plan: PstPlan {
                // A node over m > B − 1 points leaves two children about
                // (m − B + 1) / 2 each, so nodes hold B / 2 points on average.
                nodes: Vec::with_capacity(2 * n.div_ceil(cap)),
                pts: Vec::with_capacity(n),
                height: 0,
            },
        };
        let parts = planner.segs.len();
        let (_, height) = if parts > 1 {
            planner.region(0, parts)
        } else {
            planner.node(0, n)
        };
        planner.plan.height = height;
        planner.plan
    }

    /// Node `i`'s top.
    fn top(&self, i: usize) -> &[Point] {
        let (start, end) = self.nodes[i].top;
        &self.pts[start as usize..end as usize]
    }

    /// The root node, if any.
    fn root(&self) -> Option<usize> {
        (!self.nodes.is_empty()).then_some(0)
    }

    /// Push a node over the top `top`, its split and children to be set.
    fn push_node(&mut self, top: impl IntoIterator<Item = Point>) -> usize {
        let start = self.pts.len();
        self.pts.extend(top);
        self.push_top(start)
    }

    /// Give node `id` its split and its children, each with its height;
    /// returns the node with its own.
    fn link(
        &mut self,
        id: usize,
        split: (i64, u64),
        (left, lh): (Option<u32>, usize),
        (right, rh): (Option<u32>, usize),
    ) -> (Option<u32>, usize) {
        let node = &mut self.nodes[id];
        node.split = split;
        (node.left, node.right) = (left, right);
        (Some(id as u32), 1 + lh.max(rh))
    }

    /// Push a node over the points from `start` on, its split and
    /// children to be set.
    fn push_top(&mut self, start: usize) -> usize {
        self.nodes.push(PlanNode {
            split: (i64::MIN, 0),
            top: (start as u32, self.pts.len() as u32),
            left: None,
            right: None,
        });
        self.nodes.len() - 1
    }
}

/// A subtree's share of one part while the subtree spans several: its
/// y-slice `ys[a..b]`, and an x-slice `xs[x..b]` holding the same ranks
/// ascending among ranks already taken (compacted away on demand).
#[derive(Clone, Copy, Debug)]
struct Seg {
    x: usize,
    a: usize,
    b: usize,
}

impl Seg {
    /// A whole part, or an exact piece of one: `ys[a..b]` and `xs[a..b]`.
    fn new(a: usize, b: usize) -> Self {
        Self { x: a, a, b }
    }

    fn len(&self) -> usize {
        self.b - self.a
    }
}

/// The working state of [`PstPlan::plan`].
struct RankPlanner<'a> {
    run: &'a [Point],
    cap: usize,
    /// y-slices: `ys[a..b]` holds the x-ranks of the subtree being
    /// planned, y-descending.
    ys: Vec<u32>,
    /// x-slices: `xs[a..b]` holds the same ranks, ascending.
    xs: Vec<u32>,
    /// Ranks already placed in a node's top.
    taken: Vec<bool>,
    /// The right side of a partition while the left side compacts (at
    /// most half a slice, plus the slot a store past the end lands in).
    spill: Vec<u32>,
    /// A stack of segments: a subtree spanning several parts is planned
    /// over a range of it, and pushes its children's ranges above it.
    segs: Vec<Seg>,
    plan: PstPlan,
}

impl RankPlanner<'_> {
    /// Plan the subtree over the slices `[a, b)`; returns its root node and
    /// height.
    fn node(&mut self, a: usize, b: usize) -> (Option<u32>, usize) {
        if a == b {
            return (None, 0);
        }
        let rest = a + self.cap.min(b - a);
        for &r in &self.ys[a..rest] {
            self.taken[r as usize] = true;
        }
        let run = self.run;
        let id = self
            .plan
            .push_node(self.ys[a..rest].iter().map(|&r| run[r as usize]));
        if rest == b {
            return (Some(id as u32), 1);
        }
        self.compact(a, rest, b);
        let mid = rest + (b - rest - 1) / 2;
        let median = self.xs[mid];
        let w = self.partition(rest, b, median);
        debug_assert_eq!(w, mid + 1);
        let left = self.node(rest, w);
        let right = self.node(w, b);
        self.plan.link(id, run[median as usize].xkey(), left, right)
    }

    /// Plan the subtree over the segments `segs[lo..hi]`: a single one is
    /// a slice pair for [`RankPlanner::node`], several a subtree that
    /// spans parts. Returns its root node and height.
    fn region(&mut self, lo: usize, hi: usize) -> (Option<u32>, usize) {
        match hi - lo {
            0 => (None, 0),
            1 => {
                let Seg { x, a, b } = self.segs[lo];
                self.compact(x, a, b);
                self.node(a, b)
            }
            _ => self.node_over_parts(lo, hi),
        }
    }

    /// [`RankPlanner::node`] for a subtree whose segments `segs[lo..hi]`
    /// lie in two or more parts: the top is the `B − 1` largest heads, and
    /// only the segment holding the median is partitioned.
    fn node_over_parts(&mut self, lo: usize, hi: usize) -> (Option<u32>, usize) {
        let run = self.run;
        let start = self.plan.pts.len();
        for _ in 0..self.cap {
            // The segment whose head is the largest left.
            let mut best: Option<(usize, (i64, u64))> = None;
            for (i, seg) in self.segs[lo..hi].iter().enumerate() {
                if seg.a < seg.b {
                    let key = run[self.ys[seg.a] as usize].ykey();
                    if best.is_none_or(|(_, k)| key > k) {
                        best = Some((lo + i, key));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let r = self.ys[self.segs[i].a];
            self.segs[i].a += 1;
            self.taken[r as usize] = true;
            self.plan.pts.push(run[r as usize]);
        }
        let id = self.plan.push_top(start);
        let left_over: usize = self.segs[lo..hi].iter().map(Seg::len).sum();
        if left_over == 0 {
            return (Some(id as u32), 1);
        }
        // The median is the `(left_over − 1) / 2`-th rank left, in the one
        // segment it falls in.
        let mut before = (left_over - 1) / 2;
        let mut s = lo;
        while before >= self.segs[s].len() {
            before -= self.segs[s].len();
            s += 1;
        }
        let Seg { x, a, b } = self.segs[s];
        self.compact(x, a, b);
        let median = self.xs[a + before];
        let w = self.partition(a, b, median);
        debug_assert_eq!(w, a + before + 1);

        // Each child spans the segments on its side of the median's,
        // pushed above this subtree's on the stack.
        let top = self.segs.len();
        self.push_live(lo..s);
        self.segs.push(Seg::new(a, w));
        let left = self.region(top, self.segs.len());
        self.segs.truncate(top);
        if w < b {
            self.segs.push(Seg::new(w, b));
        }
        self.push_live(s + 1..hi);
        let right = self.region(top, self.segs.len());
        self.segs.truncate(top);
        self.plan.link(id, run[median as usize].xkey(), left, right)
    }

    /// Push a copy of each segment of `segs[range]` that has ranks left.
    fn push_live(&mut self, range: std::ops::Range<usize>) {
        for i in range {
            let seg = self.segs[i];
            if seg.len() > 0 {
                self.segs.push(seg);
            }
        }
    }

    /// Drop the taken ranks from the x-slice `xs[x..b]`, compacting toward
    /// its end so that the rest lines up with the y-slice `ys[a..b]`. The
    /// pass stores unconditionally and advances by the test: its outcome
    /// is a coin flip a branch would mispredict.
    fn compact(&mut self, x: usize, a: usize, b: usize) {
        let (xs, taken) = (&mut self.xs[x..b], &self.taken);
        let mut w = xs.len();
        for i in (0..xs.len()).rev() {
            let r = xs[i];
            xs[w - 1] = r; // w > i: never a rank still to be read
            w -= usize::from(!taken[r as usize]);
        }
        debug_assert_eq!(x + w, a);
    }

    /// Partition the y-slice `ys[a..b]` stably around `median`: ranks up
    /// to it go left, the others right, each side in its y-order. Returns
    /// where the right side starts. Stores unconditionally, like
    /// [`RankPlanner::compact`].
    fn partition(&mut self, a: usize, b: usize, median: u32) -> usize {
        let (ys, spill) = (&mut self.ys[a..b], &mut self.spill);
        let (mut l, mut r) = (0, 0);
        for i in 0..ys.len() {
            let rank = ys[i];
            let left = rank <= median;
            ys[l] = rank; // l ≤ i
            spill[r] = rank;
            l += usize::from(left);
            r += usize::from(!left);
        }
        ys[l..].copy_from_slice(&spill[..r]);
        a + l
    }
}

#[cfg(test)]
impl PstPlan {
    /// The recursive planner the rank planner replaced, kept as its
    /// reference: every node re-derives its top from the x-sorted points
    /// below it by a selection, a filter and a sort, and hands its children
    /// the split halves.
    fn plan_reference(geo: Geometry, run: SortedRun) -> Self {
        assert!(geo.b >= 2, "external PST needs B ≥ 2");
        let mut plan = Self::default();
        let (_, height) = plan.plan_rec(geo, &mut run.into_inner());
        plan.height = height;
        plan
    }

    /// Plan over an x-sorted vector; returns (root node, height).
    fn plan_rec(&mut self, geo: Geometry, points: &mut Vec<Point>) -> (Option<u32>, usize) {
        if points.is_empty() {
            return (None, 0);
        }
        let k = ExternalPst::node_cap(geo).min(points.len());
        let mut ys: Vec<(i64, u64)> = points.iter().map(Point::ykey).collect();
        let threshold = if k == ys.len() {
            *ys.iter().min().expect("nonempty")
        } else {
            ys.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
            ys[k - 1]
        };
        let mut top: Vec<Point> = Vec::with_capacity(k);
        points.retain(|p| {
            if p.ykey() >= threshold {
                top.push(*p);
                false
            } else {
                true
            }
        });
        debug_assert_eq!(top.len(), k);
        ccix_extmem::sort_by_y_desc(&mut top);
        let id = self.push_node(top);
        if points.is_empty() {
            return (Some(id as u32), 1);
        }
        let mid = (points.len() - 1) / 2;
        let split = points[mid].xkey();
        let mut right_part = points.split_off(mid + 1);
        let (left, lh) = self.plan_rec(geo, points);
        let (right, rh) = self.plan_rec(geo, &mut right_part);
        let node = &mut self.nodes[id];
        node.split = split;
        (node.left, node.right) = (left, right);
        (Some(id as u32), 1 + lh.max(rh))
    }
}

/// A materialised plan: the layout mirror the tree retains so the next
/// rebuild can tell which node populations changed without re-reading them.
#[derive(Debug, Default)]
struct Layout {
    plan: PstPlan,
    /// Each node's page, parallel to the plan's nodes.
    pages: Vec<PageId>,
}

/// External static priority search tree (Lemma 4.1).
///
/// Answers `x1 ≤ x ≤ x2 ∧ y ≥ y0` in `O(log2 n + t/B)` I/Os on the shared
/// counter. Static at query time; contents change through whole-structure
/// rebuilds ([`ExternalPst::rebuild_from_sorted`]), which the §3–4
/// structures drive from their amortised reorganisations and which reuse
/// the layout of nodes whose population is unchanged.
#[derive(Debug)]
pub struct ExternalPst {
    store: TypedStore<PstRec>,
    root: Option<PageId>,
    layout: Layout,
}

impl ExternalPst {
    /// Points stored per node page (`B − 1`; one record is the meta).
    fn node_cap(geo: Geometry) -> usize {
        geo.b - 1
    }

    /// Build from `points` (any order; ids must be unique).
    pub fn build(geo: Geometry, counter: IoCounter, points: Vec<Point>) -> Self {
        {
            let mut ids: Vec<u64> = points.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate point ids");
        }
        let run = SortedRun::from_unsorted(points);
        Self::build_from_sorted(geo, counter, &run, &YRanks::argsort(&run))
    }

    /// Build from an already x-sorted run and its y-order, skipping the
    /// sorts and the duplicate-id scan. The run's ids must be unique: its
    /// strict `(x, id)` order does not imply that (one id may sit at two
    /// `x`), so it is the caller's precondition, debug-checked where the
    /// y-order is built.
    pub fn build_from_sorted(
        geo: Geometry,
        counter: IoCounter,
        run: &SortedRun,
        by_y: &YRanks,
    ) -> Self {
        Self::from_plan(geo, counter, PstPlan::plan(geo, run, [by_y]))
    }

    /// Materialise a plan: one page allocated (one write I/O) per node, on
    /// the calling thread.
    pub fn from_plan(geo: Geometry, counter: IoCounter, plan: PstPlan) -> Self {
        assert!(geo.b >= 2, "external PST needs B ≥ 2");
        let mut pst = Self {
            store: TypedStore::new(geo.b, counter),
            root: None,
            layout: Layout::default(),
        };
        pst.lay_out(&Layout::default(), plan);
        pst
    }

    /// The page records of a node: meta first, then the points y-descending.
    fn node_recs(
        split: (i64, u64),
        top: &[Point],
        left: Option<PageId>,
        right: Option<PageId>,
    ) -> impl Iterator<Item = PstRec> + '_ {
        let meta = PstRec::Meta { split, left, right };
        std::iter::once(meta).chain(top.iter().copied().map(PstRec::Pt))
    }

    /// Rebuild over a new x-sorted point set and its y-order, **reusing the
    /// node layout** wherever a node's population is unchanged: a node
    /// whose split key, point set and child shape all match the previous
    /// layout keeps its page untouched (its on-disk content is already
    /// exact, so no transfer is charged — the retained layout mirror plays
    /// the role of the page-version metadata any real storage engine
    /// keeps); a changed node is overwritten in place (one write); growth
    /// allocates and shrinkage frees. Rebuild-heavy insert floods thus stop
    /// re-materialising the nodes their deltas never touched, and page
    /// slots are recycled through the store's free list instead of a fresh
    /// store.
    pub fn rebuild_from_sorted(&mut self, geo: Geometry, run: &SortedRun, by_y: &YRanks) {
        let old = std::mem::take(&mut self.layout);
        self.lay_out(&old, PstPlan::plan(geo, run, [by_y]));
    }

    /// [`ExternalPst::rebuild_from_sorted`] on a PST other handles may
    /// share (an epoch, or the tree a fork was taken from), charging
    /// `counter`: see [`ExternalPst::rebuild_planned`].
    pub fn rebuild_shared(
        pst: &mut Arc<Self>,
        counter: &IoCounter,
        geo: Geometry,
        run: &SortedRun,
        by_y: &YRanks,
    ) {
        Self::rebuild_planned(pst, counter, PstPlan::plan(geo, run, [by_y]));
    }

    /// Lay `plan` out over a PST other handles may share, charging
    /// `counter`, reusing the node layout as
    /// [`ExternalPst::rebuild_from_sorted`] does: in place while `pst` is
    /// the only handle and already charges `counter`, otherwise into a
    /// fresh handle over a fork of the node store onto `counter`. The fork
    /// recycles the same page ids and the rebuild bills the same transfers
    /// as in place, walking the shared layout mirror without copying it;
    /// the shared PST stays intact for its other holders.
    pub fn rebuild_planned(pst: &mut Arc<Self>, counter: &IoCounter, plan: PstPlan) {
        match Arc::get_mut(pst).filter(|p| p.counter().same_as(counter)) {
            Some(owned) => {
                let old = std::mem::take(&mut owned.layout);
                owned.lay_out(&old, plan);
            }
            None => {
                let mut fresh = Self {
                    store: pst.store.fork(counter.clone()),
                    root: None,
                    layout: Layout::default(),
                };
                fresh.lay_out(&pst.layout, plan);
                *pst = Arc::new(fresh);
            }
        }
    }

    /// Materialise `plan` on top of the `old` layout, page for page (see
    /// [`ExternalPst::rebuild_from_sorted`]), and keep it as the layout.
    fn lay_out(&mut self, old: &Layout, plan: PstPlan) {
        let mut pages = vec![PageId(0); plan.nodes.len()];
        let (o, n) = (old.plan.root(), plan.root());
        self.root = Self::place(&mut self.store, old, o, &plan, n, &mut pages);
        self.layout = Layout { plan, pages };
    }

    /// Materialise planned subtree `n` over old layout subtree `o`: both
    /// present reuse page for page, a side present in only one allocates
    /// or frees. Records each planned node's page in `pages`; returns the
    /// subtree root's.
    fn place(
        store: &mut TypedStore<PstRec>,
        old: &Layout,
        o: Option<usize>,
        new: &PstPlan,
        n: Option<usize>,
        pages: &mut [PageId],
    ) -> Option<PageId> {
        match (o, n) {
            (Some(o), Some(n)) => Some(Self::reuse_rec(store, old, o, new, n, pages)),
            (Some(o), None) => {
                Self::free_rec(store, old, o);
                None
            }
            (None, Some(n)) => Some(Self::alloc_rec(store, new, n, pages)),
            (None, None) => None,
        }
    }

    /// Allocate pages for planned subtree `i`, post-order (children first,
    /// so the node's meta record can carry their page ids).
    fn alloc_rec(
        store: &mut TypedStore<PstRec>,
        plan: &PstPlan,
        i: usize,
        pages: &mut [PageId],
    ) -> PageId {
        let node = plan.nodes[i];
        let left = node
            .left
            .map(|c| Self::alloc_rec(store, plan, c as usize, pages));
        let right = node
            .right
            .map(|c| Self::alloc_rec(store, plan, c as usize, pages));
        let recs = Self::node_recs(node.split, plan.top(i), left, right);
        pages[i] = store.alloc(recs.collect());
        pages[i]
    }

    /// Free the pages of old layout subtree `i`.
    fn free_rec(store: &mut TypedStore<PstRec>, old: &Layout, i: usize) {
        store.free(old.pages[i]);
        let node = old.plan.nodes[i];
        for child in [node.left, node.right].into_iter().flatten() {
            Self::free_rec(store, old, child as usize);
        }
    }

    /// Materialise planned subtree `n` on top of old layout subtree `o`,
    /// page-for-page: unchanged nodes are kept without a transfer, changed
    /// nodes are overwritten in place (their page id — and therefore their
    /// parent's meta record — survives, and an unshared page keeps its
    /// buffer), shape differences alloc/free. The
    /// old layout is only read, so it may be one another handle shares.
    fn reuse_rec(
        store: &mut TypedStore<PstRec>,
        old: &Layout,
        o: usize,
        new: &PstPlan,
        n: usize,
        pages: &mut [PageId],
    ) -> PageId {
        let (was, is) = (old.plan.nodes[o], new.nodes[n]);
        let index = |c: Option<u32>| c.map(|c| c as usize);
        let left = Self::place(store, old, index(was.left), new, index(is.left), pages);
        let right = Self::place(store, old, index(was.right), new, index(is.right), pages);
        // The node's page content is a pure function of (split, top, child
        // pages); children reused in place keep their ids, so equality of
        // the in-memory mirrors means the on-disk page is already exact.
        let page_of = |c: Option<u32>| c.map(|c| old.pages[c as usize]);
        let unchanged = was.split == is.split
            && old.plan.top(o) == new.top(n)
            && left == page_of(was.left)
            && right == page_of(was.right);
        pages[n] = old.pages[o];
        if !unchanged {
            store.write(pages[n], Self::node_recs(is.split, new.top(n), left, right));
        }
        pages[n]
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.layout.plan.pts.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height in nodes (0 when empty).
    pub fn height(&self) -> usize {
        self.layout.plan.height
    }

    /// Disk blocks occupied.
    pub fn space_pages(&self) -> usize {
        self.store.pages_in_use()
    }

    /// The I/O counter shared by this structure.
    pub fn counter(&self) -> &IoCounter {
        self.store.counter()
    }

    /// `(page id, encoded bytes)` images of every node page, in ascending
    /// id order (see [`TypedStore::page_images`]). Uncharged; for the page
    /// pins of the trees that host PSTs.
    pub fn page_images(&self) -> Vec<(u32, Vec<u8>)> {
        self.store.page_images()
    }

    /// Report every point with `x1 ≤ x ≤ x2` and `y ≥ y0`.
    pub fn query(&self, x1: i64, x2: i64, y0: i64) -> Vec<Point> {
        let mut out = Vec::new();
        self.query_into(x1, x2, y0, &mut out);
        out
    }

    /// As [`ExternalPst::query`], appending into `out`.
    pub fn query_into(&self, x1: i64, x2: i64, y0: i64, out: &mut Vec<Point>) {
        if x1 > x2 {
            return;
        }
        if let Some(root) = self.root {
            self.visit(root, x1, x2, y0, out);
        }
    }

    /// Diagonal-corner query `x ≤ q ≤ y` (a special case of 3-sided); used
    /// by experiment E12 to compare against the metablock tree.
    pub fn diagonal_into(&self, q: i64, out: &mut Vec<Point>) {
        self.query_into(i64::MIN, q, q, out);
    }

    /// As [`ExternalPst::query_into`] within a pinned operation: node pages
    /// are billed through `pin` under key-space `space`, so a batch of
    /// queries sharing the pin pays for each visited node once per
    /// residency instead of once per query.
    pub fn query_pinned(
        &self,
        pin: &mut PathPin,
        space: u32,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        if x1 > x2 {
            return;
        }
        if let Some(root) = self.root {
            self.visit_pinned(pin, space, root, x1, x2, y0, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_pinned(
        &self,
        pin: &mut PathPin,
        space: u32,
        page: PageId,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let recs = self.store.read_pinned(pin, space, page);
        let PstRec::Meta { split, left, right } = recs[0] else {
            unreachable!("first record of a PST page is always the meta");
        };
        let mut all_above = true;
        for rec in &recs[1..] {
            let PstRec::Pt(p) = rec else {
                unreachable!("data records follow the meta record")
            };
            if p.y < y0 {
                all_above = false;
                break;
            }
            if p.x >= x1 && p.x <= x2 {
                out.push(*p);
            }
        }
        if !all_above {
            return;
        }
        if let Some(l) = left {
            if (x1, u64::MIN) <= split {
                self.visit_pinned(pin, space, l, x1, x2, y0, out);
            }
        }
        if let Some(r) = right {
            if (x2, u64::MAX) > split {
                self.visit_pinned(pin, space, r, x1, x2, y0, out);
            }
        }
    }

    /// Every stored point, without charging I/Os; a host rebuilding the
    /// tree bills the read of its [`ExternalPst::space_pages`] pages itself.
    pub fn collect_points_unbilled(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack: Vec<PageId> = self.root.into_iter().collect();
        while let Some(page) = stack.pop() {
            let recs = self.store.read_unbilled(page);
            let PstRec::Meta { left, right, .. } = recs[0] else {
                unreachable!("first record of a PST page is always the meta");
            };
            for rec in &recs[1..] {
                let PstRec::Pt(p) = rec else {
                    unreachable!("data records follow the meta record")
                };
                out.push(*p);
            }
            stack.extend(left);
            stack.extend(right);
        }
        out
    }

    fn visit(&self, page: PageId, x1: i64, x2: i64, y0: i64, out: &mut Vec<Point>) {
        let recs = self.store.read(page); // one I/O per visited node
        let PstRec::Meta { split, left, right } = recs[0] else {
            unreachable!("first record of a PST page is always the meta");
        };
        // Points are y-descending: stop at the first below y0. If any stored
        // point is below y0, the subtree below is exhausted (heap property).
        let mut all_above = true;
        for rec in &recs[1..] {
            let PstRec::Pt(p) = rec else {
                unreachable!("data records follow the meta record")
            };
            if p.y < y0 {
                all_above = false;
                break;
            }
            if p.x >= x1 && p.x <= x2 {
                out.push(*p);
            }
        }
        if !all_above {
            return;
        }
        if let Some(l) = left {
            if (x1, u64::MIN) <= split {
                self.visit(l, x1, x2, y0, out);
            }
        }
        if let Some(r) = right {
            if (x2, u64::MAX) > split {
                self.visit(r, x1, x2, y0, out);
            }
        }
    }
}

#[cfg(test)]
mod pins;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn build(b: usize, pts: &[Point]) -> ExternalPst {
        ExternalPst::build(Geometry::new(b), IoCounter::new(), pts.to_vec())
    }

    /// `pts` as a run and its y-order.
    fn ordered(pts: Vec<Point>) -> (SortedRun, YRanks) {
        let run = SortedRun::from_unsorted(pts);
        let by_y = YRanks::argsort(&run);
        (run, by_y)
    }

    fn rebuild(pst: &mut ExternalPst, geo: Geometry, pts: Vec<Point>) {
        let (run, by_y) = ordered(pts);
        pst.rebuild_from_sorted(geo, &run, &by_y);
    }

    fn random_points(n: usize, seed: u64, range: i64) -> Vec<Point> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| {
                Point::new(
                    (next() % range as u64) as i64,
                    (next() % range as u64) as i64,
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn empty_build() {
        let pst = build(4, &[]);
        assert!(pst.is_empty());
        assert_eq!(pst.height(), 0);
        assert!(pst.query(i64::MIN, i64::MAX, i64::MIN).is_empty());
    }

    #[test]
    fn inverted_range_is_empty() {
        let pst = build(4, &[Point::new(0, 0, 1)]);
        assert!(pst.query(5, 3, 0).is_empty());
    }

    #[test]
    fn queries_match_oracle_on_random_sets() {
        for &(n, b) in &[(1usize, 2usize), (7, 2), (100, 4), (1000, 8), (3000, 16)] {
            let pts = random_points(n, 0xC0FFEE + n as u64, 500);
            let pst = build(b, &pts);
            for &(x1, x2, y0) in &[
                (0i64, 499i64, 0i64),
                (100, 300, 250),
                (250, 250, 0),
                (0, 499, 499),
                (400, 499, 400),
            ] {
                let got = pst.query(x1, x2, y0);
                let want = oracle::three_sided(&pts, x1, x2, y0);
                oracle::assert_same_points(got, want, &format!("n={n} b={b} q=({x1},{x2},{y0})"));
            }
        }
    }

    #[test]
    fn space_is_linear_in_n_over_b() {
        let geo = Geometry::new(16);
        let pts = random_points(5000, 7, 10_000);
        let pst = ExternalPst::build(geo, IoCounter::new(), pts);
        let pages = pst.space_pages();
        // Each page holds B−1 = 15 points; allow the tree's slack.
        assert!(pages >= 5000 / 16);
        assert!(pages <= 3 * (5000 / 15) + 3, "pages = {pages}");
    }

    /// Lemma 4.1: query cost `O(log2 n + t/B)`.
    #[test]
    fn query_io_bound() {
        let b = 16;
        let geo = Geometry::new(b);
        let n = 20_000;
        let pts = random_points(n, 99, 100_000);
        let counter = IoCounter::new();
        let pst = ExternalPst::build(geo, counter.clone(), pts.clone());
        for &(x1, x2, y0) in &[
            (0i64, 99_999i64, 0i64),
            (0, 99_999, 95_000),
            (20_000, 30_000, 50_000),
            (50_000, 50_100, 0),
        ] {
            let before = counter.snapshot();
            let got = pst.query(x1, x2, y0);
            let cost = counter.since(before);
            let t = got.len();
            let bound = 4 * (Geometry::log2(n) + geo.out_blocks(t)) + 4;
            assert!(
                cost.reads <= bound as u64,
                "q=({x1},{x2},{y0}): {} reads > bound {bound} (t={t})",
                cost.reads
            );
            assert_eq!(cost.writes, 0);
        }
    }

    #[test]
    fn all_duplicate_coordinates() {
        let pts: Vec<Point> = (0..200).map(|i| Point::new(5, 5, i)).collect();
        let pst = build(4, &pts);
        assert_eq!(pst.query(5, 5, 5).len(), 200);
        assert!(pst.query(5, 5, 6).is_empty());
        assert!(pst.query(6, 7, 0).is_empty());
    }

    #[test]
    fn rebuild_matches_fresh_build_and_reuses_unchanged_layout() {
        let geo = Geometry::new(8);
        let counter = IoCounter::new();
        let base = random_points(800, 0x5EED, 2_000);
        let mut pst = ExternalPst::build(geo, counter.clone(), base.clone());
        let pages_before = pst.space_pages();

        // Identical population: the whole layout is reused, zero transfers.
        let before = counter.snapshot();
        rebuild(&mut pst, geo, base.clone());
        assert_eq!(
            counter.since(before).total(),
            0,
            "identical rebuild is free"
        );
        assert_eq!(pst.space_pages(), pages_before);

        // A small delta: far fewer writes than a full re-materialisation,
        // and the result answers exactly like a fresh build.
        let mut grown = base.clone();
        grown.extend((0..40).map(|i| Point::new(1_000 + i, 3_000 + i, 10_000 + i as u64)));
        let before = counter.snapshot();
        rebuild(&mut pst, geo, grown.clone());
        let delta = counter.since(before);
        assert!(
            delta.writes < pst.space_pages() as u64,
            "rebuild rewrote every node ({} writes, {} pages)",
            delta.writes,
            pst.space_pages()
        );
        let fresh = ExternalPst::build(geo, IoCounter::new(), grown.clone());
        assert_eq!(pst.len(), fresh.len());
        assert_eq!(pst.height(), fresh.height());
        assert_eq!(pst.space_pages(), fresh.space_pages());
        for &(x1, x2, y0) in &[
            (0i64, 2_000i64, 0i64),
            (100, 900, 1_500),
            (1_000, 1_040, 3_000),
            (0, 2_000, 1_999),
        ] {
            oracle::assert_same_points(
                pst.query(x1, x2, y0),
                fresh.query(x1, x2, y0),
                &format!("rebuild vs fresh q=({x1},{x2},{y0})"),
            );
            oracle::assert_same_points(
                pst.query(x1, x2, y0),
                oracle::three_sided(&grown, x1, x2, y0),
                &format!("rebuild vs oracle q=({x1},{x2},{y0})"),
            );
        }

        // Shrinking far enough frees pages back to the store.
        rebuild(&mut pst, geo, base[..50].to_vec());
        assert!(pst.space_pages() < pages_before);
        oracle::assert_same_points(
            pst.query(i64::MIN, i64::MAX, i64::MIN),
            base[..50].to_vec(),
            "shrunk rebuild",
        );
    }

    /// A rebuild of a PST an epoch still holds lands on the very page ids
    /// and bills the very transfers of an unshared one, and leaves the
    /// epoch's tree answering as before.
    #[test]
    fn a_shared_rebuild_bills_and_lays_out_like_an_owned_one() {
        let geo = Geometry::new(8);
        let base = random_points(800, 0x5EED, 2_000);
        let mut grown = base[100..].to_vec();
        grown.extend((0..40).map(|i| Point::new(1_000 + i, 3_000 + i, 10_000 + i as u64)));
        let (c_owned, c_shared) = (IoCounter::new(), IoCounter::new());
        let mut owned = Arc::new(ExternalPst::build(geo, c_owned.clone(), base.clone()));
        let mut shared = Arc::new(ExternalPst::build(geo, c_shared.clone(), base.clone()));
        let epoch = Arc::clone(&shared);
        let (before_owned, before_shared) = (c_owned.snapshot(), c_shared.snapshot());
        let owned_ptr = Arc::as_ptr(&owned);
        let rebuild = |pst: &mut Arc<ExternalPst>, counter: &IoCounter| {
            let (run, by_y) = ordered(grown.clone());
            ExternalPst::rebuild_shared(pst, counter, geo, &run, &by_y)
        };
        rebuild(&mut owned, &c_owned);
        rebuild(&mut shared, &c_shared);
        assert_eq!(
            Arc::as_ptr(&owned),
            owned_ptr,
            "an only handle rebuilds in place"
        );
        assert!(
            !Arc::ptr_eq(&shared, &epoch),
            "a shared one gets a new handle"
        );
        assert_eq!(c_owned.since(before_owned), c_shared.since(before_shared));
        assert_eq!(owned.store.live_page_ids(), shared.store.live_page_ids());
        assert_eq!((owned.root, owned.height()), (shared.root, shared.height()));
        for &(x1, x2, y0) in &[
            (0i64, 2_000i64, 0i64),
            (100, 900, 1_500),
            (1_000, 1_040, 2_990),
        ] {
            let q = format!("q=({x1},{x2},{y0})");
            let want = oracle::three_sided(&grown, x1, x2, y0);
            oracle::assert_same_points(shared.query(x1, x2, y0), want, &q);
            let frozen = oracle::three_sided(&base, x1, x2, y0);
            oracle::assert_same_points(epoch.query(x1, x2, y0), frozen, &q);
        }
    }

    #[test]
    fn build_from_sorted_matches_build() {
        let geo = Geometry::new(4);
        let pts = random_points(300, 0xABCD, 700);
        let a = ExternalPst::build(geo, IoCounter::new(), pts.clone());
        let (run, by_y) = ordered(pts.clone());
        let b = ExternalPst::build_from_sorted(geo, IoCounter::new(), &run, &by_y);
        assert_eq!(a.space_pages(), b.space_pages());
        assert_eq!(a.height(), b.height());
        for q in [(0i64, 700i64, 0i64), (10, 20, 300), (350, 350, 0)] {
            oracle::assert_same_points(
                a.query(q.0, q.1, q.2),
                b.query(q.0, q.1, q.2),
                &format!("{q:?}"),
            );
        }
    }

    /// The rank planner equals the recursive reference node for node —
    /// split, top and shape — over random sizes, node sizes and inputs
    /// from uniform to all-equal.
    #[test]
    fn rank_planner_equals_the_reference_node_for_node() {
        ccix_testkit::check::trials("pst rank planner", 200, 0x9157_91A4, |rng| {
            let b = rng.gen_range(2..40usize);
            let n = rng.gen_range(0..3_000usize);
            let (xs, ys) = (rng.gen_range(1..2_000i64), rng.gen_range(1..2_000i64));
            let pts: Vec<Point> = (0..n as u64)
                .map(|id| Point::new(rng.gen_range(0..xs), rng.gen_range(0..ys), id))
                .collect();
            let geo = Geometry::new(b);
            let (run, by_y) = ordered(pts);
            let plan = PstPlan::plan(geo, &run, [&by_y]);
            assert_eq!(plan, PstPlan::plan_reference(geo, run), "b={b} n={n}");
        });
    }

    /// Planning over x-disjoint parts equals the reference node for node,
    /// over 1 to 2B parts — empty ones and single points among them — at
    /// the node sizes and input families of the PST pin.
    #[test]
    fn planning_over_parts_equals_the_reference_node_for_node() {
        ccix_testkit::check::trials("pst planner over parts", 300, 0x9157_0A27, |rng| {
            let b = [2usize, 3, 8, 32][rng.gen_range(0..4usize)];
            let family = pins::FAMILIES[rng.gen_range(0..pins::FAMILIES.len())];
            let k = rng.gen_range(1..2 * b + 1);
            let n = [rng.gen_range(0..2 * k), rng.gen_range(0..4_000)][rng.gen_range(0..2usize)];
            let pts: Vec<Point> = (0..n as u64)
                .map(|id| pins::point(family, rng, id))
                .collect();
            let run = SortedRun::from_unsorted(pts);
            // k − 1 cuts anywhere, repeats allowed: parts may be empty.
            let mut cuts: Vec<usize> = (1..k).map(|_| rng.gen_range(0..n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let parts: Vec<YRanks> = (cuts.windows(2))
                .map(|w| YRanks::argsort(&SortedRun::from_sorted(run[w[0]..w[1]].to_vec())))
                .collect();
            let geo = Geometry::new(b);
            let plan = PstPlan::plan(geo, &run, &parts);
            let what = format!("b={b} {family} n={n} parts={k}");
            assert_eq!(plan, PstPlan::plan_reference(geo, run), "{what}");
        });
    }

    #[test]
    fn diagonal_equals_three_sided_special_case() {
        let pts: Vec<Point> = (0..500)
            .map(|i| Point::new(i, i + (i % 37), i as u64))
            .collect();
        let pst = build(8, &pts);
        for q in [0i64, 100, 250, 499, 600] {
            let mut got = Vec::new();
            pst.diagonal_into(q, &mut got);
            let want = oracle::diagonal_corner(&pts, q);
            oracle::assert_same_points(got, want, &format!("diag q={q}"));
        }
    }
}

/// Property tests for the [`PstRec`] encoding: it is the one record type
/// whose pages reach the file backend but whose type is private to this
/// crate, so the testkit's serialization suite cannot cover it.
#[cfg(test)]
mod ser_tests {
    use super::*;

    fn roundtrip(rec: PstRec) {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(buf.len(), PstRec::SIZE);
        assert_eq!(PstRec::decode(&buf), Some(rec));
        for cut in 0..PstRec::SIZE {
            assert!(
                PstRec::decode(&buf[..cut]).is_none(),
                "decoded a {cut}-byte truncation"
            );
        }
        let mut long = buf.clone();
        long.push(0x5A);
        assert!(PstRec::decode(&long).is_none(), "decoded with a tail");
    }

    #[test]
    fn meta_and_point_records_roundtrip() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..256 {
            let split = (next() as i64, next());
            let child = |v: u64| (!v.is_multiple_of(3)).then_some(PageId((v >> 8) as u32));
            roundtrip(PstRec::Meta {
                split,
                left: child(next()),
                right: child(next()),
            });
            roundtrip(PstRec::Pt(Point::new(next() as i64, next() as i64, next())));
        }
    }

    #[test]
    fn garbage_bytes_never_decode_silently() {
        // Bad tag byte.
        let mut buf = vec![2u8; PstRec::SIZE];
        assert!(PstRec::decode(&buf).is_none());
        // Meta with a bad child flag.
        buf = Vec::new();
        PstRec::Meta {
            split: (7, 7),
            left: None,
            right: None,
        }
        .encode_into(&mut buf);
        buf[17] = 9; // child flag must be 0 or 1
        assert!(PstRec::decode(&buf).is_none());
        // "None" child with a nonzero page id is torn, not a value.
        buf[17] = 0;
        buf[18] = 1;
        assert!(PstRec::decode(&buf).is_none());
        // Point record with nonzero padding.
        buf = Vec::new();
        PstRec::Pt(Point::new(1, 2, 3)).encode_into(&mut buf);
        buf[26] = 1;
        assert!(PstRec::decode(&buf).is_none());
    }
}
