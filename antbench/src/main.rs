//! `antbench`: the layered end-to-end benchmark of the ant pointer analysis.
//!
//! ```text
//! cargo run --release -- [--workload NAME] [--seed N] [--seconds S]
//!                        [--trace [0|1]] [--smoke] [--pin]
//! ```
//!
//! A `BENCHMARK.json` runner appends `--workload W --seed N --seconds S
//! --trace 0|1` to the listed command, so `--seconds` and the valued form
//! of `--trace` are that interface; by hand, `--trace` alone will do and the
//! timed duration defaults to the size preset's (20 s, 0.2 s with `--smoke`).
//!
//! Four workloads (see `workloads.rs` and README.md) run text in, answer
//! out, on one thread. An untraced run prints the end-to-end metrics, a
//! traced run (`--trace`) the per-layer ones; both print one JSON line per
//! metric and end with one result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Every answer is
//! checked against the Basic reference (`check.rs`). Without `--workload`
//! each workload runs in a child process of its own, so that peak RSS is
//! per workload.

mod check;
mod report;
mod workloads;

use ant_common::obs::{parse_object, JsonObject};
use report::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Timed duration; the size preset's when not given.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    pin: bool,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
        pin: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w} (one of {:?})",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            // `--trace` alone, or followed by 0 or 1.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--smoke" => args.smoke = true,
            "--pin" => args.pin = true,
            "--reference" => args.reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The repository revision, read from `.git` beside this crate when there
/// is one (a benchmark checkout need not be a git repository).
fn revision() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(r)
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn preamble(args: &Args, sizes: &workloads::Sizes) {
    let mut p = JsonObject::new();
    p.str_field("preamble", "antbench");
    p.str_field("workload", args.workload.as_deref().unwrap_or("all"));
    p.uint_field("seed", args.seed);
    p.float_field("seconds", args.seconds.unwrap_or(sizes.seconds));
    p.bool_field("trace", args.trace);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    p.uint_field("nproc", nproc as u64);
    p.uint_field("threads", 1);
    p.str_field("revision", &revision());
    p.str_field("sizes", &sizes.describe());
    println!("{}", p.finish());
}

/// Runs every workload in a child process and sums the children's tally
/// lines; their listed metrics go into the result as `workload/metric`.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let listed = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    for w in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.trace {
            cmd.arg("--trace");
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("{w}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        // The child's own result line comes last; its tally line carries
        // the same counts in a flat object.
        let Some((_, rest)) = lines.split_last().filter(|_| out.status.success()) else {
            return Err(format!("{w} exited with {}", out.status));
        };
        let mut tallied = false;
        for line in rest {
            println!("{line}");
            let Ok(obj) = parse_object(line) else {
                continue;
            };
            let text = |k: &str| obj.get(k).and_then(|v| v.as_str());
            let num = |k: &str| obj.get(k).and_then(|v| v.as_f64());
            if let (Some(name), Some(value), Some(unit)) =
                (text("metric"), num("value"), text("unit"))
            {
                if listed.iter().any(|(n, _)| *n == name) {
                    metrics.push((format!("{w}/{name}"), value, unit.to_owned()));
                }
            } else if let Some(n) = obj.get("attempted").and_then(|v| v.as_u64()) {
                tallied = true;
                attempted += n;
                failed += obj.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
                correct &= obj.get("correct").and_then(|v| v.as_bool()) == Some(true);
            }
        }
        if !tallied {
            return Err(format!("{w} printed no tally"));
        }
    }
    let fields = metrics
        .iter()
        .map(|(name, value, unit)| (name.as_str(), *value, unit.as_str()));
    println!(
        "{}",
        report::result_line(correct, attempted, failed, fields)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("antbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke {
        &workloads::SMOKE
    } else {
        &workloads::FULL
    };
    if args.pin {
        return match check::pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("antbench: pin failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.reference {
        let Some(w) = &args.workload else {
            eprintln!("antbench: --reference needs --workload");
            return ExitCode::from(2);
        };
        check::print_references(&workloads::checked_inputs(w, sizes, args.seed));
        return ExitCode::SUCCESS;
    }
    preamble(&args, sizes);
    let Some(w) = &args.workload else {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("antbench: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let seconds = args.seconds.unwrap_or(sizes.seconds);
    let report = workloads::run(w, sizes, args.seed, seconds, args.trace, args.smoke);
    report.print(w, if args.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}
