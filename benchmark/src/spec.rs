//! What the benchmark reports: workloads, metrics, units and bounds.
//!
//! This table is the single source of `BENCHMARK.json` (a test compares the
//! checked-in file with [`benchmark_json`]) and of the result line every
//! run prints, so the two cannot drift apart.

use std::collections::BTreeMap;

use crate::stats::Slices;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wire_read",
        "TCP, closed-loop stab_batch(64) beside a 50 apply/s trickle: net, serve snapshots, routing and the query path do the work",
    ),
    (
        "wire_write",
        "TCP, closed-loop durable apply(64) beside 50 stab_batch/s: WAL, fsync, checkpoints, group commit and the write path do the work",
    ),
    (
        "file_mixed",
        "in process, file backend with 64 cached pages of ~5100: pread, pwrite, encode/decode and the LRU do the work, cold reads dominate",
    ),
    (
        "lib_class",
        "in process, rake class index over 255 classes: class, three-sided trees, PST and B+-tree, which no serving workload touches",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: true,
        bound,
    }
}

/// What a client or library caller sees. Every workload reports every one
/// (README.md says what each means on the paced side of a wire workload).
pub const END_TO_END: [EndToEnd; 10] = [
    lower("setup_s", "s", 0.25),
    lower("recover_s", "s", 0.25),
    higher("read_ops_per_s", "1/s", 0.25),
    lower("read_p50_us", "us", 0.25),
    higher("write_ops_per_s", "1/s", 0.25),
    lower("write_p50_us", "us", 0.25),
    lower("io_per_read", "io/request", 0.05),
    lower("io_per_write", "io/request", 0.05),
    lower("pages_per_krecord", "pages", 0.10),
    lower("rss_peak_mb", "MB", 0.25),
];

/// Per-layer metrics: `(name, unit, higher_is_better)`. A traced run prints
/// all of them; a layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, bool); 70] = [
    ("net.stab_batch_self_us", "us", false),
    ("net.apply_self_us", "us", false),
    ("net.ping_rtt_p50_us", "us", false),
    ("net.stab_single_rtt_p50_us", "us", false),
    ("net.resp_bytes_per_stab", "bytes", false),
    ("serve.snapshot_ns", "ns", false),
    ("serve.stab_batch_self_us", "us", false),
    ("serve.commit_self_us", "us", false),
    ("serve.commit_volatile_p50_us", "us", false),
    ("serve.commit_durable_p50_us", "us", false),
    ("serve.io_per_stab", "count", false),
    ("serve.reorg_debt_end", "count", false),
    ("durable.commit_self_us", "us", false),
    ("durable.append_us", "us", false),
    ("durable.sync_us", "us", false),
    ("durable.wal_bytes_per_op", "count", false),
    ("durable.checkpoint_s", "s", false),
    ("durable.open_s", "s", false),
    ("durable.rebuild_s", "s", false),
    ("durable.stored_bytes_per_record", "bytes", false),
    ("interval.sharded_self_us", "us", false),
    ("interval.stab_self_us", "us", false),
    ("interval.apply_self_us", "us", false),
    ("interval.io_per_stab", "count", false),
    ("interval.io_per_apply_op", "count", false),
    ("core.diag.query_batch_us", "us", false),
    ("core.diag.self_us", "us", false),
    ("core.diag.insert_us", "us", false),
    ("core.diag.delete_us", "us", false),
    ("core.diag.worst_op_ms", "ms", false),
    ("core.diag.io_per_query", "count", false),
    ("core.diag.io_per_insert", "count", false),
    ("core.diag.io_per_delete", "count", false),
    ("core.threesided.query_us", "us", false),
    ("core.threesided.insert_us", "us", false),
    ("core.threesided.delete_us", "us", false),
    ("core.threesided.io_per_query", "count", false),
    ("core.threesided.io_per_insert", "count", false),
    ("pst.query_us", "us", false),
    ("pst.io_per_query", "count", false),
    ("pst.build_s", "s", false),
    ("bptree.range_us", "us", false),
    ("bptree.insert_us", "us", false),
    ("bptree.io_per_range", "count", false),
    ("class.query_us", "us", false),
    ("class.insert_us", "us", false),
    ("class.delete_us", "us", false),
    ("class.io_per_query", "count", false),
    ("class.io_per_write", "count", false),
    ("class.build_s", "s", false),
    ("constraint.range_search_us", "us", false),
    ("constraint.io_per_search", "count", false),
    ("extmem.read_page_ns", "ns", false),
    ("extmem.write_page_ns", "ns", false),
    ("extmem.cow_write_page_ns", "ns", false),
    ("extmem.fork_us", "us", false),
    ("extmem.file_cold_read_us", "us", false),
    ("extmem.file_warm_read_ns", "ns", false),
    ("extmem.file_write_us", "us", false),
    ("extmem.file_cold_reads_per_op", "count", false),
    ("extmem.file_warm_hit_ratio", "ratio", true),
    ("extmem.file_bytes_per_record", "bytes", false),
    ("extmem.backend_self_us_per_op", "us", false),
    ("client.read_p99_us", "us", false),
    ("client.write_p99_us", "us", false),
    ("client.read_under_flood_p50_us", "us", false),
    ("client.write_trickle_p99_us", "us", false),
    ("client.rss_peak_mb", "MB", false),
    ("gen.late_p99_us", "us", false),
    ("trace.overhead_pct", "%", false),
];

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, hib)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*hib)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Names of a side's timing metrics, for [`Report::set_timings`]: rate and
/// median are end-to-end metrics; the tail is a per-layer diagnostic
/// (README.md: a p99 that sits on a cliff of the latency distribution does
/// not repeat within any bound the contract allows).
pub const READ: [&str; 3] = ["read_ops_per_s", "read_p50_us", "client.read_p99_us"];
pub const WRITE: [&str; 3] = ["write_ops_per_s", "write_p50_us", "client.write_p99_us"];

/// One run's result.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Everything measured, by name: the gated metrics of this mode plus
    /// ungated extras, which are printed but kept out of the result line.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Environment, sizes and sample counts.
    pub env: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            env: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.env.push((key, value.to_string()));
    }

    /// The three timing figures of one side (`READ` or `WRITE`).
    pub fn set_timings(&mut self, names: [&'static str; 3], slices: &Slices) {
        self.set(names[0], slices.ops_per_s());
        self.set(names[1], slices.p50_us());
        self.set(names[2], slices.p99_us());
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `(name, unit, value)` of every metric the result line must carry.
    fn gated(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            // A layer this workload never enters did no work: 0.
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    (name, unit, self.metrics.get(name).copied().unwrap_or(0.0))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = *self
                        .metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} did not measure {}", self.workload, m.name));
                    (m.name, m.unit, v)
                })
                .collect()
        }
    }

    /// Print every metric by name with its unit, the environment, and the
    /// result object as the last line. Returns whether the run was correct.
    pub fn print(&self) -> bool {
        let gated = self.gated();
        let finite = self.metrics.values().all(|v| v.is_finite());
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        println!(
            "# {} ({})",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for (name, unit, v) in &gated {
            println!("{name:<34} {v:>16.4} {unit}");
        }
        let unit_of = |name: &str| {
            PER_LAYER
                .iter()
                .map(|&(n, u, _)| (n, u))
                .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u)
        };
        for (name, v) in &self.metrics {
            if !gated.iter().any(|(n, _, _)| n == name) {
                println!(
                    "{name:<34} {v:>16.4} {} (not gated in this mode)",
                    unit_of(name)
                );
            }
        }
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        println!("env {{{}}}", env.join(", "));
        let metrics: Vec<String> = gated
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// `name → value` of a result line (the format [`Report::print`] writes).
pub fn parse_result_line(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            out.insert(name, v);
        }
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
        }
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate name");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(ok(u, "_/%.-", 16), "{u}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_lines_round_trip() {
        let mut r = Report::new("lib_class", false);
        for m in &END_TO_END {
            r.set(m.name, 1.5);
        }
        r.set("read_p50_us", 12.25);
        let line = format!(
            "{{\"metrics\": {{\"read_p50_us\": {{\"value\": {}, \"unit\": \"us\"}}, \"x\": {{\"value\": 3, \"unit\": \"s\"}}}}}}",
            r.metrics["read_p50_us"]
        );
        let parsed = parse_result_line(&line);
        assert_eq!(parsed["read_p50_us"], 12.25);
        assert_eq!(parsed["x"], 3.0);
    }
}
