//! Keeps the harness from rotting: every workload runs end to end in
//! `--quick` mode with all checks on, the checked-in `BENCHMARK.json` is the
//! one the binary generates, and the release profile is the shipped one.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["wire_read", "wire_write", "file_mixed", "lib_class"];

fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ccix-benchmark"))
        .args(args)
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The value printed for `metric` in a result line.
fn value(result: &str, metric: &str) -> String {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &result[result.find(&key).unwrap_or_else(|| panic!("no {metric}")) + key.len()..];
    rest[..rest.find(',').expect("unit follows")].to_string()
}

#[test]
fn every_workload_runs_quick_in_both_modes_and_checks_its_answers() {
    // One after the other: the wire workloads want both cores.
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = bench(&[
                "--workload",
                workload,
                "--quick",
                "--seconds",
                "2",
                "--trace",
                trace,
            ]);
            let result = out.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": ")
                    && result.contains("\"failed\": 0,"),
                "{workload} --trace {trace}: {result}"
            );
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for workload in ["file_mixed", "lib_class"] {
        let run = || {
            bench(&[
                "--workload",
                workload,
                "--quick",
                "--seconds",
                "0",
                "--seed",
                "7",
            ])
        };
        let (a, b) = (run(), run());
        let (a, b) = (a.lines().last().unwrap(), b.lines().last().unwrap());
        for metric in ["io_per_read", "io_per_write", "pages_per_krecord"] {
            assert_eq!(value(a, metric), value(b, metric), "{workload} {metric}");
        }
    }
}

#[test]
fn benchmark_json_is_generated_from_the_metric_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let checked_in = std::fs::read_to_string(root).expect("BENCHMARK.json at the repo root");
    assert_eq!(checked_in, bench(&["--print-benchmark-json"]));
}

/// `[profile.release]` of a manifest, as sorted `key = value` lines.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_is_the_shipped_one() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = release_profile(&here.join("Cargo.toml"));
    assert!(
        !ours.is_empty(),
        "benchmark/Cargo.toml has no [profile.release]"
    );
    assert_eq!(ours, release_profile(&here.join("../Cargo.toml")));
}
