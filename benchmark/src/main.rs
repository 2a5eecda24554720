//! End-to-end and per-layer benchmark of the ccix workspace. See README.md.
//!
//! With `--workload` this process runs that one workload and prints its
//! result object as the last line. Without it, it runs every workload in a
//! child process of its own, so no workload inherits another's heap,
//! threads or page cache.

mod env;
mod file_mixed;
mod gen;
mod inproc;
mod lib_class;
mod micro;
mod spec;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use env::Ctx;
use spec::{END_TO_END, RUN_SECONDS, WORKLOADS};

const USAGE: &str =
    "usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--quick]
       run.sh --agree        run the untraced set twice (3 runs a workload each, medians);
                             fail if any end-to-end metric differs by more than its bound
       run.sh --check-exact  run file_mixed and lib_class twice; fail unless every
                             exact count is identical
       run.sh --print-benchmark-json
workloads: wire_read wire_write file_mixed lib_class (default: all, untraced then traced)";

#[derive(Clone, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    agree: bool,
    check_exact: bool,
    print_json: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let t = value()?;
                args.seed = Some(t.parse().map_err(|_| format!("not a seed: {t}"))?);
            }
            "--seconds" => {
                let t = value()?;
                args.seconds = Some(t.parse().map_err(|_| format!("not a number: {t}"))?);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.trace = Some(true),
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--agree" => args.agree = true,
            "--check-exact" => args.check_exact = true,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.agree {
        agree(&args)
    } else if args.check_exact {
        check_exact(&args)
    } else if let Some(workload) = &args.workload {
        run_one(workload, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in this process.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed.unwrap_or(1),
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 2.0 } else { RUN_SECONDS as f64 }),
        traced: args.trace.unwrap_or(false),
        quick: args.quick,
        out: args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let report = match workload {
        "wire_read" => wire::run(wire::Kind::Read, &ctx),
        "wire_write" => wire::run(wire::Kind::Write, &ctx),
        "file_mixed" => file_mixed::run(&ctx),
        "lib_class" => lib_class::run(&ctx),
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(report.print())
}

/// Run `workload` in a child process, echo its output, and return the
/// metrics of its result line (`None` if it failed).
fn child(
    workload: &str,
    traced: bool,
    args: &Args,
    seconds: Option<f64>,
) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let Some(seed) = args.seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    if let Some(seconds) = seconds.or(args.seconds) {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd.output().expect("spawn workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    output
        .status
        .success()
        .then(|| spec::parse_result_line(stdout.lines().last().unwrap_or("")))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let modes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for &traced in modes {
            ok &= child(workload, traced, args, None).is_some();
        }
    }
    Ok(ok)
}

/// Runs per set in `--agree`; a set's figure is their median, as the
/// driver's is (a single run on the shared box can be a burst's victim).
const AGREE_RUNS: u64 = 3;

/// Noise self-check: two untraced sets of the same code (each the median of
/// `AGREE_RUNS` runs, seeds `seed..seed + AGREE_RUNS`) must agree within the
/// benchmark's own bounds.
fn agree(args: &Args) -> Result<bool, String> {
    let base = args.seed.unwrap_or(1);
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = BTreeMap::new();
        for (workload, _) in WORKLOADS {
            let mut runs = Vec::new();
            for k in 0..AGREE_RUNS {
                let args = Args {
                    seed: Some(base + k),
                    ..args.clone()
                };
                runs.push(child(workload, false, &args, None).ok_or(format!("{workload} failed"))?);
            }
            for m in &END_TO_END {
                let mut values: Vec<f64> = runs.iter().map(|r| r[m.name]).collect();
                set.insert((workload, m.name), stats::median(&mut values));
            }
        }
        sets.push(set);
    }
    let mut ok = true;
    println!("# agreement of two sets, each the median of {AGREE_RUNS} runs (relative difference vs bound)");
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (sets[0][&(workload, m.name)], sets[1][&(workload, m.name)]);
            let diff = (a - b).abs() / a.abs();
            let verdict = if diff <= m.bound { "ok" } else { "DIFFERS" };
            ok &= diff <= m.bound;
            println!(
                "{workload:<11} {:<18} {a:>14.4} {b:>14.4} {:>7.2}% vs {:>4.0}% {verdict}",
                m.name,
                100.0 * diff,
                100.0 * m.bound
            );
        }
    }
    Ok(ok)
}

/// The counts of the fixed-prefix in-process workloads must repeat exactly.
fn check_exact(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for workload in ["file_mixed", "lib_class"] {
        // `--seconds 0` stops after the exact slices.
        let run = || child(workload, false, args, Some(0.0)).ok_or(format!("{workload} failed"));
        let (a, b) = (run()?, run()?);
        for name in ["io_per_read", "io_per_write", "pages_per_krecord"] {
            let same = a[name].to_bits() == b[name].to_bits();
            ok &= same;
            println!(
                "{workload:<11} {name:<18} {} {} {}",
                a[name],
                b[name],
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}
