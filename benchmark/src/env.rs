//! The run's environment and the few file-system helpers the workloads
//! share. Everything the benchmark writes lives under one scratch
//! directory inside `benchmark/out/`, removed when the run ends.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::spec::Report;
use crate::trace::Tracer;

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke sizes: n = 5 000 and sub-second phases, every check still on.
    pub quick: bool,
    /// `benchmark/out`.
    pub out: PathBuf,
}

impl Ctx {
    /// Measured seconds: a traced run halves the window to leave room for
    /// its ladder.
    pub fn window(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// End a traced run: record its peak memory and write its spans to
    /// `out/<workload>.trace.jsonl`.
    pub fn finish_traced(&self, report: &mut Report, tracer: &Tracer) {
        report.set("client.rss_peak_mb", rss_peak_mb());
        let path = self.out.join(format!("{}.trace.jsonl", report.workload));
        tracer.write_jsonl(&path).expect("write trace");
        report.note("trace_file", path.display());
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Record cores, toolchain, revision, profile and seed (ROADMAP aim 1c).
pub fn describe(report: &mut Report, ctx: &Ctx) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    report.note("nproc", nproc);
    report.note("rustc", first_line("rustc", &["-V"]));
    report.note(
        "git_rev",
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release lto=thin debug=true"
    };
    report.note("profile", profile);
    report.note("seed", ctx.seed);
    report.note(
        "stream_hash",
        format!("{:016x}", crate::gen::stream_hash(ctx.seed)),
    );
    report.note("seconds", ctx.seconds);
    report.note("quick", ctx.quick);
}

/// Run `build` `times` times, dropping each result before the next build
/// (so no run holds two indexes at once); the last result and every timing.
pub fn repeated<T>(times: usize, mut build: impl FnMut(usize) -> (T, f64)) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for round in 0..times {
        drop(last.take());
        let (built, s) = build(round);
        secs.push(s);
        last = Some(built);
    }
    (last.expect("at least one build"), secs)
}

/// FNV-1a, a word at a time: the stream hash and the rungs' id digests.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copy the files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// This run's scratch directory; removed (with everything under it) on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(ctx: &Ctx, workload: &str) -> Self {
        let dir = ctx
            .out
            .join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        Self(dir)
    }

    /// A path under the scratch directory (not created).
    pub fn sub(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
