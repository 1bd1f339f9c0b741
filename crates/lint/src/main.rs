//! `dnnperf-lint` CLI.
//!
//! ```text
//! cargo run -p dnnperf-lint -- [--root DIR] [--policy FILE] [--baseline FILE]
//!                              [--format human|json] [--list-passes]
//!                              [--explain PASS]
//! ```
//!
//! Exit codes: `0` clean, `1` findings (new or expired-baseline) or
//! baseline/policy entries naming files absent from the workspace, `2`
//! usage / I/O / policy errors.

use std::path::PathBuf;
use std::process::ExitCode;

use dnnperf_lint::{baseline, diag, lint_workspace, passes};

struct Args {
    root: PathBuf,
    policy: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: bool,
    list_passes: bool,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "usage: dnnperf-lint [--root DIR] [--policy FILE] [--baseline FILE]\n\
     \u{20}                  [--format human|json] [--list-passes] [--explain PASS]\n\
     \n\
     Runs the workspace's static-analysis passes. Policy defaults to\n\
     <root>/lint.toml, baseline to <root>/lint-baseline.txt.\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        policy: None,
        baseline: None,
        json: false,
        list_passes: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(need(&mut it, "--root")?),
            "--policy" => args.policy = Some(PathBuf::from(need(&mut it, "--policy")?)),
            "--baseline" => args.baseline = Some(PathBuf::from(need(&mut it, "--baseline")?)),
            "--format" => match need(&mut it, "--format")?.as_str() {
                "json" => args.json = true,
                "human" => args.json = false,
                other => return Err(format!("unknown format `{other}` (want human|json)")),
            },
            "--list-passes" => args.list_passes = true,
            "--explain" => args.explain = Some(need(&mut it, "--explain")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn need(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("dnnperf-lint: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_passes {
        for p in passes::registry() {
            println!("{:<20} {}", p.name, p.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &args.explain {
        return match passes::registry().into_iter().find(|p| p.name == name) {
            Some(p) => {
                println!("{}\n\n{}", p.name, p.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("dnnperf-lint: no pass named `{name}`; try --list-passes");
                ExitCode::from(2)
            }
        };
    }

    let policy = args.policy.unwrap_or_else(|| args.root.join("lint.toml"));
    let bl_path = args
        .baseline
        .unwrap_or_else(|| args.root.join("lint-baseline.txt"));
    let today = baseline::today_iso();

    let outcome = match lint_workspace(&args.root, &policy, Some(&bl_path), &today) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dnnperf-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // JSON mode keeps stdout machine-pure (just the findings array, for
    // CI artifacts); everything advisory goes to stderr in both modes.
    if args.json {
        print!("{}", diag::render_json(&outcome.applied.unsuppressed));
    } else {
        for f in &outcome.applied.unsuppressed {
            print!("{}", f.render_human());
        }
    }
    for msg in &outcome.applied.expired {
        eprintln!("{msg}");
    }
    for msg in outcome.applied.dangling.iter().chain(&outcome.stale_policy) {
        eprintln!("error: {msg}");
    }
    for e in &outcome.applied.unused {
        eprintln!(
            "warning: unused baseline entry (line {}): {} {} {}",
            e.line, e.pass, e.file, e.snippet_key
        );
    }
    eprintln!(
        "dnnperf-lint: {} files + {} manifests scanned, {} findings \
         ({} suppressed by baseline, {} new, {} expired, {} dangling baseline entries, \
         {} stale policy entries)",
        outcome.files_scanned,
        outcome.manifests_scanned,
        outcome.total_findings,
        outcome.applied.suppressed_count,
        outcome.applied.unsuppressed.len(),
        outcome.applied.expired.len(),
        outcome.applied.dangling.len(),
        outcome.stale_policy.len(),
    );

    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
