//! CI perf gate: diff experiment tables against their committed baselines
//! and fail on any I/O, space or wall-clock-budget regression.
//!
//! The workspace's I/O counts are bit-reproducible (seeded workloads, exact
//! counters), so the I/O comparison is *exact*, not a flaky timing gate: a
//! rise of more than 5% in any gated column on any keyed row is a real
//! algorithmic regression. Nine experiments are gated, each table with its
//! own absolute budgets; a comparison gates whichever tables its baseline
//! file contains:
//!
//! * **E9** (`exp_interval --json`, baseline `BENCH_baseline.json`) — the
//!   n=500k row must satisfy the read/write-path budgets: stabbing ≤ 12
//!   I/Os (PR 3's pinned/packed read path), insert ≤ 15 I/Os amortised,
//!   index pages ≤ 4× the heap-file scan.
//! * **EQB** (`exp_query_batch --json`, baseline
//!   `BENCH_query_baseline.json`) — the batched engine's budgets at n=500k,
//!   B=32: uniform single-query ≤ 12 I/Os, adversarial-correlated flood
//!   ≤ 6 I/Os amortised at batch = 64; plus a generous wall-clock *smoke*
//!   ceiling on the corner-structure build (EQB-build — absolute only,
//!   timings are not diffed).
//! * **EB** (`exp_build --json`, baseline `BENCH_build_baseline.json`) —
//!   the merge-based rebuild pipeline's wall-clock table (static build +
//!   rebuild-heavy insert flood, planning over the machine's cores). Build
//!   I/O is gated exactly like any count (parallel planning must not
//!   change it);
//!   the wall-clock cells get variance-tolerant absolute ceilings only,
//!   sized ~10× the measured dev-box numbers (see docs/tuning.md for how
//!   they were chosen).
//! * **ED** (`exp_delete --json`, baseline `BENCH_delete_baseline.json`) —
//!   the tombstone delete path: serial and batched delete floods, a mixed
//!   insert/delete/query flood, and a drain to 10% occupancy. Absolute
//!   budgets: delete-flood amortised ≤ 15 I/Os (the E9 *insert* budget —
//!   deletes ride the insert machinery), batched ≤ 10, post-flood stabbing
//!   ≤ 12 (tombstone-aware live counts skip fully-dead pages), drained
//!   pages ≤ 7000 (the occupancy shrink), plus a drain wall-clock smoke
//!   ceiling.
//! * **EL** (`exp_latency --json`, baseline `BENCH_latency_baseline.json`)
//!   — per-op latency percentiles under incremental reorganisation
//!   (`Tuning::reorg_pages_per_op`). The I/O percentiles are exact per-op
//!   meters, diffed like any count; the absolute budget pins the no-spike
//!   claim: with budget k = 8 the worst single op stays ≤ 40 I/Os at
//!   n=500k (the k = 0 row keeps the O(n/B) stop-the-world spike for
//!   contrast). Wall clock is a smoke ceiling only.
//! * **EC** (`exp_throughput --json`, baseline
//!   `BENCH_throughput_baseline.json`) — snapshot-serving throughput under
//!   a concurrent writer flood. Wall-clock only, so nothing is diffed
//!   relatively; the absolute bounds pin reader scaling (scaling loss
//!   ≤ 2.0 at 8 readers, i.e. ≥ 4× single-reader qps on an 8-core runner)
//!   and the p99 commit-visibility latency ceiling.
//! * **ER** (`exp_recovery --json`, baseline
//!   `BENCH_recovery_baseline.json`) — the durability subsystem. Wall-clock
//!   only. Absolute bounds: group-commit durable acks (`fsync-group`) cost
//!   ≤ 2× the volatile engine's p99 submit→ack latency (the volatile p99
//!   is floored at 1 ms so the ratio is meaningful on fast disks), and
//!   recovering a 100k-op WAL with no usable checkpoint takes ≤ 2 s.
//! * **ES** (`exp_shard --json`, baseline `BENCH_shard_baseline.json`) —
//!   the x-range sharded fan-out. Aggregate flood/query I/O is exact and
//!   thread-invariant (each shard charges its own striped counter; the
//!   fan-out only moves work between threads), so both columns are diffed
//!   like any count. Absolute bounds: wall-clock smoke ceilings on the
//!   1-shard uniform row.
//! * **EF** (`exp_file --json`, baseline `BENCH_file_baseline.json`) —
//!   the file backend vs the in-memory model. Wall-clock only: the
//!   exact-I/O equivalence of the two backends is a hard assertion of the
//!   `backends` differential suite, so this gate just keeps the mirror's
//!   build/flood/stab overhead under absolute smoke ceilings (~10× the
//!   measured dev-box numbers) on the file rows.
//!
//! With no arguments the gate runs all nine experiments in this process
//! and diffs each against its committed `BENCH_*.json` (the CI step);
//! with two it diffs two `--json` files, e.g. a regenerated baseline:
//!
//! ```text
//! cargo run --release -p ccix-bench --bin perf_gate
//! cargo run --release -p ccix-bench --bin exp_build -- --json > newb.json
//! cargo run --release -p ccix-bench --bin perf_gate -- BENCH_build_baseline.json newb.json
//! ```
//!
//! Std-only (the workspace has no registry access): the JSON reader below
//! understands exactly the subset `report::tables_to_json` emits — arrays,
//! objects, strings and numbers — and the tables carry all cells as strings.

use std::process::ExitCode;

use ccix_bench::experiments;
use ccix_bench::report::{tables_to_json, Table};

/// Relative headroom before a rise counts as a regression.
const TOLERANCE_PCT: f64 = 5.0;
/// Space budget: index pages ≤ this multiple of scan pages, at n=500000
/// (E9 only).
const SPACE_FACTOR: f64 = 4.0;

/// Row selector for an absolute budget: every (column, value) pair must
/// match.
type Selector = &'static [(&'static str, &'static str)];

/// One gated experiment table.
struct Spec {
    /// Matched against the table's title.
    title_prefix: &'static str,
    /// Columns whose values form a row's identity.
    key_cols: &'static [&'static str],
    /// Columns gated relative to the baseline (lower is better).
    gated: &'static [&'static str],
    /// Absolute budgets: rows matching the selector must keep
    /// `column ≤ bound`.
    absolute: &'static [(Selector, &'static str, f64)],
    /// E9's special rule: index pages ≤ SPACE_FACTOR × scan pages.
    space_rule: bool,
}

const SPECS: &[Spec] = &[
    Spec {
        title_prefix: "E9",
        key_cols: &["B", "n"],
        gated: &["index q I/O", "index ins I/O", "index pages"],
        absolute: &[
            (&[("n", "500000")], "index ins I/O", 15.0),
            (&[("n", "500000")], "index q I/O", 12.0),
        ],
        space_rule: true,
    },
    Spec {
        title_prefix: "EQB —",
        key_cols: &["B", "n", "workload"],
        gated: &["single q I/O", "amortised q I/O"],
        absolute: &[
            (
                &[("n", "500000"), ("workload", "uniform")],
                "single q I/O",
                12.0,
            ),
            (
                &[("n", "500000"), ("workload", "correlated-2k")],
                "amortised q I/O",
                6.0,
            ),
        ],
        space_rule: false,
    },
    Spec {
        // Wall-clock smoke: absolute ceilings only (timings are noisy, so
        // no relative diff), sized ~10× above the measured build times.
        title_prefix: "EQB-build",
        key_cols: &["B"],
        gated: &[],
        absolute: &[
            (&[("B", "256")], "build ms", 2_000.0),
            (&[("B", "1024")], "build ms", 15_000.0),
        ],
        space_rule: false,
    },
    Spec {
        // The tombstone delete path. All I/O columns are exact and
        // bit-reproducible. Absolute budgets pin the PR's acceptance
        // criteria: deletes amortise within the E9 *insert* budget (15),
        // batched deletes beat serial routing, queries with pending
        // tombstones stay bounded, and the occupancy shrink returns a 10%-
        // drained index to ~4× the live heap-file scan (50k live / B=32 →
        // 1563 scan pages; measured 6038). The drain wall clock gets a
        // ~10× smoke ceiling like EB.
        title_prefix: "ED —",
        key_cols: &["B", "n", "phase"],
        gated: &["amortised I/O", "q I/O", "pages"],
        absolute: &[
            (
                &[("n", "500000"), ("phase", "delete-flood")],
                "amortised I/O",
                15.0,
            ),
            (
                &[("n", "500000"), ("phase", "delete-batch64")],
                "amortised I/O",
                10.0,
            ),
            (&[("n", "500000"), ("phase", "delete-flood")], "q I/O", 12.0),
            (
                &[("n", "500000"), ("phase", "drain-to-10pct")],
                "pages",
                7_000.0,
            ),
            (
                &[("n", "500000"), ("phase", "drain-to-10pct")],
                "ms",
                15_000.0,
            ),
        ],
        space_rule: false,
    },
    Spec {
        // Per-op latency under incremental reorganisation. The I/O
        // percentile columns are exact (per-op metering of a seeded flood),
        // so the relative diff is an exact gate; the absolute budget pins
        // the tentpole claim — with a finite budget (k=8) no single op may
        // exceed the descent-plus-bleed envelope (measured max 17, budget
        // 40), where the k=0 row's max carries the O(n/B) shrink spike
        // (measured 44863). Wall clock gets a ~10× smoke ceiling only.
        title_prefix: "EL —",
        key_cols: &["B", "n", "k"],
        gated: &["p50 I/O", "p99 I/O", "max I/O"],
        absolute: &[
            (&[("n", "500000"), ("k", "8")], "max I/O", 40.0),
            (&[("n", "500000"), ("k", "8")], "ms", 15_000.0),
        ],
        space_rule: false,
    },
    Spec {
        // The rebuild pipeline. Build I/O is exact and bit-reproducible —
        // any rise is a real regression. Wall-clock cells are absolute
        // smoke ceilings only, ~10× the measured dev numbers
        // (docs/tuning.md records them).
        title_prefix: "EB —",
        key_cols: &["tree", "n"],
        gated: &["build I/O"],
        absolute: &[
            (&[("tree", "diag"), ("n", "500000")], "build ms", 2_000.0),
            (&[("tree", "diag"), ("n", "500000")], "flood ms", 1_000.0),
            (&[("tree", "diag"), ("n", "2100000")], "build ms", 12_000.0),
            (&[("tree", "3sided"), ("n", "500000")], "flood ms", 2_500.0),
        ],
        space_rule: false,
    },
    Spec {
        // Snapshot-serving throughput. Pure wall clock, so nothing is
        // diffed relatively; the absolute bounds carry the acceptance
        // criteria. "scaling loss" = min(readers, cores)/speedup: ≤ 2.0 at
        // 8 readers means ≥ 4× single-reader qps on an 8-core runner and
        // stays trivially satisfied on boxes with no parallelism to lose.
        // The p99 commit-visibility ceiling is sized ~10× the measured
        // dev-box number, like the other wall-clock smoke bounds.
        title_prefix: "EC —",
        key_cols: &["B", "n", "readers"],
        gated: &[],
        absolute: &[
            (&[("readers", "8")], "scaling loss", 2.0),
            (&[("readers", "8")], "p99 vis ms", 250.0),
        ],
        space_rule: false,
    },
    Spec {
        // Durable-commit overhead. Pure wall clock, nothing diffed
        // relatively. "overhead p99" is durable p99 / max(volatile p99,
        // 1 ms) — the acceptance bound says group commit costs at most 2×
        // the volatile path at that floor. fsync-1 (a real fsync per
        // commit) is reported for the table but not gated: its cost is
        // the disk's, not the code's.
        title_prefix: "ER —",
        key_cols: &["mode"],
        gated: &[],
        absolute: &[(&[("mode", "fsync-group")], "overhead p99", 2.0)],
        space_rule: false,
    },
    Spec {
        // The file backend. Pure wall clock — the *exact-I/O* equivalence
        // of the two backends is enforced by the backends differential
        // suite, so nothing here is diffed relatively; the absolute smoke
        // ceilings (~10× measured dev-box numbers) catch a mirror that
        // starts syncing per write or thrashing its page cache.
        title_prefix: "EF —",
        key_cols: &["backend", "B", "n"],
        gated: &[],
        absolute: &[
            (&[("backend", "file")], "build ms", 2_000.0),
            (&[("backend", "file")], "flood ms", 4_000.0),
            (&[("backend", "file")], "stab1 ms", 2_500.0),
            (&[("backend", "file")], "stab2 ms", 2_500.0),
        ],
        space_rule: false,
    },
    Spec {
        // Recovery wall clock: replaying a 100k-op WAL must stay under
        // the 2 s smoke ceiling (measured far lower; the ceiling is the
        // usual ~10× guard against runner noise).
        title_prefix: "ER-recover",
        key_cols: &["wal ops"],
        gated: &[],
        absolute: &[(&[("wal ops", "100000")], "recover ms", 2_000.0)],
        space_rule: false,
    },
    Spec {
        // The x-range sharded fan-out. Aggregate flood/query I/O is exact
        // and thread-invariant, so any rise is a real routing regression.
        // Wall-clock cells get the usual ~10× smoke ceilings on the 1-shard
        // uniform row only.
        title_prefix: "ES —",
        key_cols: &["workload", "shards"],
        gated: &["flood I/O", "query I/O"],
        absolute: &[
            (
                &[("workload", "uniform"), ("shards", "1")],
                "flood ms",
                2_000.0,
            ),
            (
                &[("workload", "uniform"), ("shards", "1")],
                "query ms",
                10_000.0,
            ),
            (
                &[("workload", "uniform"), ("shards", "1")],
                "build ms",
                5_000.0,
            ),
        ],
        space_rule: false,
    },
];

// ---- minimal JSON value ---------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    String(String),
    Number(f64),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
    Bool(bool),
    Null,
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::String(s) => s,
            _ => "",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.bytes.get(self.pos) {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&c) = self.bytes.get(self.pos) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("nonempty rest");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

// ---- table extraction -----------------------------------------------------

/// One experiment table: headers plus rows keyed by the (B, n) columns.
struct GateTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl GateTable {
    fn column(&self, name: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == name)
    }

    fn cell(&self, row: &[String], name: &str) -> Result<f64, String> {
        let idx = self
            .column(name)
            .ok_or_else(|| format!("column {name:?} missing"))?;
        let raw = row.get(idx).map(String::as_str).unwrap_or("");
        raw.trim_end_matches('x')
            .parse::<f64>()
            .map_err(|_| format!("column {name:?} holds non-numeric cell {raw:?}"))
    }

    /// A row's identity under `key_cols`, e.g. "(B=32, n=500000)".
    fn key_of(&self, row: &[String], key_cols: &[&str]) -> String {
        let parts: Vec<String> = key_cols
            .iter()
            .map(|&k| {
                let v = self
                    .column(k)
                    .and_then(|i| row.get(i))
                    .map(String::as_str)
                    .unwrap_or("");
                format!("{k}={v}")
            })
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// Load every table from a `tables_to_json` file, with titles.
fn load_tables(path: &str) -> Result<Vec<(String, GateTable)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_tables(&text)
}

/// Every table of a `tables_to_json` text, with titles.
fn parse_tables(text: &str) -> Result<Vec<(String, GateTable)>, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    let mut out = Vec::new();
    for table in root.as_array() {
        let title = table
            .get("title")
            .map(|v| v.as_str().to_string())
            .unwrap_or_default();
        let headers: Vec<String> = table
            .get("headers")
            .map(|h| {
                h.as_array()
                    .iter()
                    .map(|c| c.as_str().to_string())
                    .collect()
            })
            .unwrap_or_default();
        let rows: Vec<Vec<String>> = table
            .get("rows")
            .map(|r| {
                r.as_array()
                    .iter()
                    .map(|row| {
                        row.as_array()
                            .iter()
                            .map(|c| c.as_str().to_string())
                            .collect()
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.push((title, GateTable { headers, rows }));
    }
    Ok(out)
}

fn find<'t>(tables: &'t [(String, GateTable)], prefix: &str) -> Option<&'t GateTable> {
    tables
        .iter()
        .find(|(title, _)| title.starts_with(prefix))
        .map(|(_, t)| t)
}

/// Gate one spec's table: relative diff on every keyed baseline row, then
/// the absolute budgets on the candidate.
fn gate_spec(
    spec: &Spec,
    baseline: &GateTable,
    candidate: &GateTable,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    for base_row in &baseline.rows {
        let key = baseline.key_of(base_row, spec.key_cols);
        let Some(cand_row) = candidate
            .rows
            .iter()
            .find(|r| candidate.key_of(r, spec.key_cols) == key)
        else {
            failures.push(format!("[{}] row {key} disappeared", spec.title_prefix));
            continue;
        };
        for &col in spec.gated {
            let base = baseline.cell(base_row, col)?;
            let cand = candidate.cell(cand_row, col)?;
            let limit = base * (1.0 + TOLERANCE_PCT / 100.0);
            if cand > limit {
                failures.push(format!(
                    "[{}] {key} {col}: {cand} > {base} +{TOLERANCE_PCT}% (limit {limit:.2})",
                    spec.title_prefix
                ));
            }
        }
    }
    for &(selector, col, bound) in spec.absolute {
        let mut matched = 0usize;
        for row in candidate.rows.iter().filter(|r| {
            selector.iter().all(|&(k, v)| {
                candidate
                    .column(k)
                    .and_then(|i| r.get(i))
                    .is_some_and(|cell| cell == v)
            })
        }) {
            matched += 1;
            let v = candidate.cell(row, col)?;
            if v > bound {
                failures.push(format!(
                    "[{}] {} {col}: {v} > absolute budget {bound}",
                    spec.title_prefix,
                    candidate.key_of(row, spec.key_cols)
                ));
            }
        }
        if matched == 0 {
            // A budget that stops matching any row is a gate that silently
            // stopped gating — treat it as a configuration error.
            return Err(format!(
                "no candidate row matches the absolute budget {selector:?} on {col:?} ({})",
                spec.title_prefix
            ));
        }
    }
    if spec.space_rule {
        let Some(big) = candidate.rows.iter().find(|r| {
            candidate
                .column("n")
                .and_then(|i| r.get(i))
                .is_some_and(|c| c == "500000")
        }) else {
            return Err("candidate has no n=500000 row".into());
        };
        let pages = candidate.cell(big, "index pages")?;
        let scan = candidate.cell(big, "scan pages")?;
        if pages > SPACE_FACTOR * scan {
            failures.push(format!(
                "n=500000 index pages: {pages} > {SPACE_FACTOR}× scan pages ({scan})"
            ));
        }
    }
    Ok(())
}

fn run(baseline_path: &str, candidate_path: &str) -> Result<Vec<String>, String> {
    let baseline = load_tables(baseline_path)?;
    let candidate = load_tables(candidate_path)?;
    gate(&baseline, baseline_path, &candidate, candidate_path)
}

/// Gate every spec'd table of `baseline` against `candidate`; the names
/// label errors.
fn gate(
    baseline: &[(String, GateTable)],
    baseline_path: &str,
    candidate: &[(String, GateTable)],
    candidate_path: &str,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut gated = 0usize;
    for spec in SPECS {
        let Some(base) = find(baseline, spec.title_prefix) else {
            continue; // this baseline file doesn't carry the table
        };
        let Some(cand) = find(candidate, spec.title_prefix) else {
            return Err(format!(
                "{candidate_path}: table {:?} present in baseline but missing",
                spec.title_prefix
            ));
        };
        if base.headers.is_empty() || base.rows.is_empty() {
            return Err(format!(
                "{baseline_path}: {:?} table is empty",
                spec.title_prefix
            ));
        }
        gate_spec(spec, base, cand, &mut failures)?;
        gated += 1;
    }
    if gated == 0 {
        return Err(format!("{baseline_path}: no gated table found"));
    }
    Ok(failures)
}

/// An experiment: runs its workloads and returns its tables.
type Experiment = fn() -> Vec<Table>;

/// The gated experiments, each with its committed baseline at the
/// workspace root.
const GATED: &[(&str, Experiment)] = &[
    ("BENCH_baseline.json", experiments::e9_interval),
    ("BENCH_query_baseline.json", experiments::eqb_query_batch),
    ("BENCH_build_baseline.json", experiments::eb_build),
    ("BENCH_delete_baseline.json", experiments::ed_delete),
    ("BENCH_latency_baseline.json", experiments::el_latency),
    ("BENCH_throughput_baseline.json", experiments::ec_throughput),
    ("BENCH_recovery_baseline.json", experiments::er_recovery),
    ("BENCH_shard_baseline.json", experiments::es_shard),
    ("BENCH_file_baseline.json", experiments::ef_file),
];

/// Print one comparison's verdict; true when it passed.
fn report(verdict: Result<Vec<String>, String>, baseline: &str) -> bool {
    match verdict {
        Err(e) => {
            eprintln!("perf_gate: {e}");
            false
        }
        Ok(failures) if failures.is_empty() => {
            println!("perf_gate: OK — no I/O or space regression vs {baseline}");
            true
        }
        Ok(failures) => {
            eprintln!("perf_gate: {} regression(s) vs {baseline}:", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            false
        }
    }
}

/// Run every gated experiment and diff it against its baseline; true when
/// all pass.
fn run_all() -> bool {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut passed = 0;
    for &(file, experiment) in GATED {
        let path = format!("{root}/{file}");
        let json = tables_to_json(&experiment());
        let verdict = load_tables(&path).and_then(|baseline| {
            let candidate = parse_tables(&json)?;
            gate(&baseline, &path, &candidate, "the fresh run")
        });
        passed += usize::from(report(verdict, file));
    }
    println!("perf_gate: {passed} of {} baselines pass", GATED.len());
    passed == GATED.len()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let passed = match args.as_slice() {
        [] => run_all(),
        [baseline, candidate] => report(run(baseline, candidate), baseline),
        _ => {
            eprintln!("usage: perf_gate [<baseline.json> <candidate.json>]");
            return ExitCode::from(2);
        }
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_json() {
        let text = r#"[{"title": "E9 — test", "claim": "c", "headers": ["B", "n", "index q I/O", "index ins I/O", "index pages", "scan pages"], "rows": [["32", "500000", "15.8", "11.0", "61170", "15625"]]}]"#;
        let mut p = Parser::new(text);
        let v = p.value().expect("parses");
        let t = v.as_array()[0].get("title").unwrap().as_str().to_string();
        assert!(t.starts_with("E9"));
    }

    #[test]
    fn regression_detected_and_tolerance_respected() {
        let dir = std::env::temp_dir().join("ccix_perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, q: &str, ins: &str, pages: &str| {
            let path = dir.join(name);
            let body = format!(
                r#"[{{"title": "E9 — t", "claim": "c", "headers": ["B", "n", "index q I/O", "index ins I/O", "index pages", "scan pages"], "rows": [["32", "500000", {q:?}, {ins:?}, {pages:?}, "15625"]]}}]"#
            );
            std::fs::write(&path, body).unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = mk("base.json", "11.4", "11.0", "61170");
        let same = mk("same.json", "11.4", "11.0", "61170");
        let within = mk("within.json", "11.4", "11.3", "62000");
        let worse = mk("worse.json", "11.4", "12.0", "61170");
        let over_budget = mk("over.json", "11.4", "11.0", "64000");
        let over_absolute = mk("over_abs.json", "12.1", "11.0", "61170");
        assert!(run(&base, &same).unwrap().is_empty());
        assert!(run(&base, &within).unwrap().is_empty(), "5% headroom");
        assert_eq!(run(&base, &worse).unwrap().len(), 1, "relative gate");
        assert_eq!(
            run(&base, &over_budget).unwrap().len(),
            1,
            "absolute 4x gate"
        );
        assert_eq!(
            run(&base, &over_absolute).unwrap().len(),
            2,
            "absolute q budget (12) plus the relative rise both fire"
        );
    }

    #[test]
    fn eb_table_is_gated() {
        let dir = std::env::temp_dir().join("ccix_perf_gate_eb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, io: &str, build: &str, flood: &str| {
            let path = dir.join(name);
            let body = format!(
                concat!(
                    r#"[{{"title": "EB — rebuild", "claim": "c", "headers": ["tree", "B", "n", "build ms", "build I/O", "flood", "flood ms"], "#,
                    r#""rows": [["diag", "32", "500000", {bu:?}, {io:?}, "50000", {fl:?}], "#,
                    r#"["diag", "32", "2100000", "900", "256150", "60000", "70"], "#,
                    r#"["3sided", "32", "500000", "200", "81425", "50000", "180"]]}}]"#
                ),
                bu = build,
                io = io,
                fl = flood
            );
            std::fs::write(&path, body).unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = mk("base.json", "62135", "160", "60");
        let ok = mk("ok.json", "62135", "500", "300");
        let io_regressed = mk("io.json", "70000", "160", "60");
        let slow_build = mk("slowb.json", "62135", "2500", "60");
        let slow_flood = mk("slowf.json", "62135", "160", "1100");
        assert!(run(&base, &ok).unwrap().is_empty(), "timings not diffed");
        assert_eq!(
            run(&base, &io_regressed).unwrap().len(),
            1,
            "exact I/O gate"
        );
        assert_eq!(run(&base, &slow_build).unwrap().len(), 1, "build ceiling");
        assert_eq!(run(&base, &slow_flood).unwrap().len(), 1, "flood ceiling");
    }

    #[test]
    fn eqb_tables_are_gated() {
        let dir = std::env::temp_dir().join("ccix_perf_gate_eqb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, single: &str, amort: &str, ms: &str| {
            let path = dir.join(name);
            let body = format!(
                concat!(
                    r#"[{{"title": "EQB — floods", "claim": "c", "headers": ["B", "n", "workload", "batch", "single q I/O", "amortised q I/O"], "#,
                    r#""rows": [["32", "500000", "uniform", "64", {s:?}, "10.5"], ["32", "500000", "correlated-2k", "64", "11.4", {a:?}]]}}, "#,
                    r#"{{"title": "EQB-build — wall clock", "claim": "c", "headers": ["B", "|S|", "build ms"], "rows": [["256", "131072", "32"], ["1024", "2097152", {m:?}]]}}]"#
                ),
                s = single,
                a = amort,
                m = ms
            );
            std::fs::write(&path, body).unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = mk("base.json", "11.4", "0.9", "1400");
        let ok = mk("ok.json", "11.5", "0.9", "9000");
        let slow_query = mk("slow.json", "12.5", "0.9", "1400");
        let slow_batch = mk("slowb.json", "11.4", "6.5", "1400");
        let slow_build = mk("slowc.json", "11.4", "0.9", "16000");
        assert!(run(&base, &ok).unwrap().is_empty(), "within tolerance");
        assert_eq!(
            run(&base, &slow_query).unwrap().len(),
            2,
            "relative + absolute single-query budget"
        );
        assert!(!run(&base, &slow_batch).unwrap().is_empty(), "batch budget");
        assert_eq!(
            run(&base, &slow_build).unwrap().len(),
            1,
            "wall-clock smoke ceiling"
        );
    }
}
