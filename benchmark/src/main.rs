//! Runs one benchmark workload, or all of them in turn, and prints every
//! metric by name and unit. The last line of standard output is the
//! result as one JSON object.
//!
//! ```text
//! benchmark --workload <serve-hot|serve-churn|offline-train|whatif|all>
//!           --seed <n> [--seconds <s>] [--trace <0|1>] [--out <spans.tsv>] [--smoke]
//! ```
//!
//! The exit code is 0 when every output check passed, 1 when one failed
//! (after printing all metrics), and 2 for a bad command line.

use dnnperf_benchmark::report::Report;
use dnnperf_benchmark::{run, Opts, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: benchmark --workload <serve-hot|serve-churn|offline-train|whatif|all> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--out <spans.tsv>] [--smoke]";

struct Args {
    /// `None` means every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.peekable();
    while let Some(flag) = it.next() {
        let value = |v: Option<String>| v.ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value(it.next())?),
            "--seed" => {
                let v = value(it.next())?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(it.next())?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value(it.next())?)),
            "--smoke" => parsed.smoke = true,
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                let explicit = it.peek().and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                });
                if explicit.is_some() {
                    it.next();
                }
                parsed.trace = explicit.unwrap_or(true);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(name) => {
            parsed.workload =
                Some(Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?);
        }
    }
    Ok(parsed)
}

fn print(report: &Report) {
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "attempted {}, failed {}, correct {}",
        report.attempted,
        report.failed,
        report.correct()
    );
    println!("{}", report.to_json());
}

/// Runs each workload in a child process of its own, so each one's peak
/// memory is its own, and prints a combined result.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut all = Report::default();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .expect("run a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let parsed = stdout.lines().last().map(Report::from_json);
        match parsed {
            Some(Ok(r)) if out.status.success() => {
                all.absorb_counts(&r);
                for m in r.metrics {
                    all.set(&format!("{}.{}", w.name(), m.name), m.value, &m.unit);
                }
            }
            _ => {
                ok = false;
                all.fail(1, format!("{} did not finish cleanly", w.name()));
            }
        }
    }
    println!("== all workloads ==");
    print(&all);
    if ok && all.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out: args.out,
    };
    let report = run(&opts);
    print(&report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
