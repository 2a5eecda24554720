//! The single-threaded call loop the two in-process workloads share: one
//! public call per request, each timed on its own, in slices of a fixed
//! number of calls.
//!
//! Counts come from a fixed prefix of the stream (warm-up plus `exact`
//! slices), so for a seed they repeat exactly however fast the box is; the
//! run then goes on, slice by slice, until the measured time is up.

use std::time::Instant;

use crate::gen::Call;
use crate::spec::{self, Report};
use crate::stats::{overhead_pct, Samples, Slices};
use crate::trace::{Tracer, ROOT};

/// One library under a generated stream of single calls.
pub trait Library {
    type Record: Copy;
    type Query: Copy;
    /// Span names of read, insert and delete.
    const CALLS: [&'static str; 3];

    fn next(&mut self) -> Call<Self::Record, Self::Query>;
    fn read(&mut self, q: Self::Query) -> Vec<u64>;
    fn insert(&mut self, r: Self::Record);
    fn delete(&mut self, r: Self::Record);
    /// Seconds to bulk-load the live records into a fresh structure: what a
    /// caller does after a restart.
    fn rebuild(&mut self) -> f64;
    /// The oracle's answer over the generator's live set.
    fn expected(&self, q: Self::Query) -> Vec<u64>;
    /// Page transfers billed so far.
    fn io_total(&self) -> u64;
    fn space_pages(&self) -> usize;
    fn live_records(&self) -> usize;
}

pub struct Plan {
    /// Calls per slice: enough that every slice holds its share of the
    /// amortised reorganisations.
    pub slice: usize,
    /// Slices run and discarded before anything is recorded.
    pub warm: usize,
    /// Slices, after warm-up, that the exact counts cover.
    pub exact: usize,
    /// Measured seconds (time inside slices); `None` stops after the exact
    /// slices.
    pub seconds: Option<f64>,
    /// Rebuilds timed between slices, evenly spread over the measured
    /// seconds, so a slow spell of the box cannot cover them all.
    pub rebuilds: usize,
    /// Record spans in odd slices (a traced run).
    pub traced: bool,
}

impl Plan {
    pub fn new(quick: bool, seconds: Option<f64>, rebuilds: usize, traced: bool) -> Self {
        Self {
            slice: if quick { 1_000 } else { 50_000 },
            warm: 1,
            exact: 4,
            seconds,
            rebuilds,
            traced,
        }
    }
}

/// One read in this many is compared with the oracle, timer stopped.
const ORACLE_EVERY: u64 = 1_000;

/// Index of a call's kind in [`Library::CALLS`] and [`Driven::calls`].
const READ: usize = 0;
const INSERT: usize = 1;
const DELETE: usize = 2;

pub struct Driven {
    /// Per-slice summaries of reads, inserts and deletes.
    pub calls: [Slices; 3],
    /// Inserts and deletes together: the write side of the end-to-end table.
    pub writes: Slices,
    /// Billed transfers per call over the exact slices.
    pub io_per_read: f64,
    pub io_per_write: f64,
    /// `space_pages()` per 1 000 live records when the exact slices end.
    pub pages_per_krecord: f64,
    /// Mean µs per call over the exact slices (the backend ladder).
    pub exact_us_per_op: f64,
    /// Read p50 with spans on vs off, as a percentage (traced runs).
    pub trace_overhead_pct: f64,
    /// Seconds of every rebuild.
    pub rebuild_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn drive<L: Library>(lib: &mut L, plan: &Plan, tracer: &mut Tracer) -> Driven {
    let mut calls: [Slices; 3] = Default::default();
    let mut writes = Slices::default();
    let (mut read_plain, mut read_traced) = (Samples::default(), Samples::default());
    let (mut attempted, mut failed, mut reads_seen) = (0u64, 0u64, 0u64);
    // [reads, writes] over the exact slices.
    let (mut exact_io, mut exact_calls, mut exact_ns) = ([0u64; 2], [0u64; 2], 0u64);
    let mut pages_per_krecord = 0.0;
    let mut rebuild_s = Vec::new();
    let seconds = plan.seconds.unwrap_or(0.0);

    for _ in 0..plan.warm * plan.slice {
        match lib.next() {
            Call::Read(q) => drop(lib.read(q)),
            Call::Insert(r) => lib.insert(r),
            Call::Delete(r) => lib.delete(r),
        }
    }

    let (mut slices, mut measured) = (0, 0.0);
    while slices < plan.exact || measured < seconds {
        let slice_started = Instant::now();
        let spans = plan.traced && slices % 2 == 1;
        let in_exact = slices < plan.exact;
        let mut lat: [Samples; 3] = Default::default();
        let mut write_lat = Samples::default();
        let mut io = lib.io_total();
        for _ in 0..plan.slice {
            let call = lib.next();
            let t = Instant::now();
            let (kind, answer) = match call {
                Call::Read(q) => (READ, Some(lib.read(q))),
                Call::Insert(r) => {
                    lib.insert(r);
                    (INSERT, None)
                }
                Call::Delete(r) => {
                    lib.delete(r);
                    (DELETE, None)
                }
            };
            let done = Instant::now();
            let ns = (done - t).as_nanos() as u64;
            lat[kind].push(ns);
            if kind != READ {
                write_lat.push(ns);
            }
            if spans {
                tracer.span(L::CALLS[kind], ROOT, t, done);
            }
            if plan.traced && kind == READ {
                if spans {
                    &mut read_traced
                } else {
                    &mut read_plain
                }
                .push(ns);
            }
            let io_now = lib.io_total();
            if in_exact {
                let side = kind.min(1);
                exact_io[side] += io_now - io;
                exact_calls[side] += 1;
                exact_ns += ns;
            }
            io = io_now;
            attempted += 1;
            if let (Some(mut got), Call::Read(q)) = (answer, call) {
                reads_seen += 1;
                if reads_seen.is_multiple_of(ORACLE_EVERY) {
                    let mut want = lib.expected(q);
                    got.sort_unstable();
                    want.sort_unstable();
                    failed += u64::from(got != want);
                }
            }
        }
        for (summary, lat) in calls.iter_mut().zip(&mut lat) {
            summary.close(lat, 1);
        }
        writes.close(&mut write_lat, 1);
        slices += 1;
        measured += slice_started.elapsed().as_secs_f64();
        while rebuild_s.len() < plan.rebuilds
            && measured * plan.rebuilds as f64 >= seconds * (rebuild_s.len() + 1) as f64
        {
            rebuild_s.push(lib.rebuild());
        }
        if slices == plan.exact {
            pages_per_krecord = 1000.0 * lib.space_pages() as f64 / lib.live_records() as f64;
        }
    }

    Driven {
        calls,
        writes,
        io_per_read: exact_io[0] as f64 / exact_calls[0] as f64,
        io_per_write: exact_io[1] as f64 / exact_calls[1] as f64,
        pages_per_krecord,
        exact_us_per_op: exact_ns as f64 / 1e3 / (exact_calls[0] + exact_calls[1]) as f64,
        trace_overhead_pct: overhead_pct(&mut read_plain, &mut read_traced),
        rebuild_s,
        attempted,
        failed,
    }
}

impl Driven {
    /// The timings and counts of the end-to-end table, and their sample
    /// counts.
    pub fn report_end_to_end(&self, report: &mut Report) {
        report.set_timings(spec::READ, self.reads());
        report.set_timings(spec::WRITE, &self.writes);
        report.set("io_per_read", self.io_per_read);
        report.set("io_per_write", self.io_per_write);
        report.set("pages_per_krecord", self.pages_per_krecord);
    }

    /// Slice and sample counts, for the environment line.
    pub fn note_counts(&self, report: &mut Report, plan: &Plan) {
        report.note("slice_calls", plan.slice);
        report.note("slices", self.writes.len());
        report.note("exact_slices", plan.exact);
        report.note("read_calls", self.reads().requests);
        report.note("write_calls", self.writes.requests);
        report.note("read_series", self.reads().series());
        report.note("write_series", self.writes.series());
    }

    pub fn reads(&self) -> &Slices {
        &self.calls[READ]
    }

    pub fn inserts(&self) -> &Slices {
        &self.calls[INSERT]
    }

    pub fn deletes(&self) -> &Slices {
        &self.calls[DELETE]
    }
}
