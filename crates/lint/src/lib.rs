//! `dnnperf-lint`: in-tree static analysis for the dnnperf workspace.
//!
//! A std-only tool (its own hermeticity pass scans its manifest) with a
//! lightweight Rust lexer, a brace-matched block/function extractor, and
//! nine passes:
//!
//! | pass | proves |
//! |------|--------|
//! | `oracle-isolation` | predictor crates never touch the hidden timing model |
//! | `determinism` | no wall-clock reads / unordered maps in result-producing code |
//! | `panic-policy` | resilience-critical crates deny unwrap/expect; hot paths don't panic |
//! | `hermeticity` | every dependency is a workspace crate (offline build) |
//! | `unsafe-audit` | every `unsafe` has an adjacent `// SAFETY:` note |
//! | `lock-order` | declared lock classes form an acyclic global acquisition order |
//! | `blocking-under-lock` | no blocking primitive runs while a lock guard is held |
//! | `condvar-discipline` | waits sit in predicate loops; mutations under a paired mutex notify |
//! | `poison-policy` | every lock acquisition goes through the shared `*_unpoisoned` helpers |
//!
//! The last four are intra-procedural: they track guard lifetimes inside
//! function bodies and propagate may-acquire / may-block facts over a
//! conservative workspace call graph (see `passes::concurrency`).
//!
//! Policy lives in `lint.toml` at the workspace root; grandfathered
//! findings live in `lint-baseline.txt` with mandatory notes and optional
//! expiry dates. See `DESIGN.md` §"Oracle isolation as a checked
//! invariant" and §"Concurrency invariants as checked properties" for the
//! threat models.

#![warn(missing_docs)]

pub mod ast;
pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod policy;
pub mod workspace;

use std::fs;
use std::path::Path;

use baseline::{Applied, Baseline};
use policy::Policy;
use workspace::Context;

/// Outcome of one lint run.
pub struct Outcome {
    /// Findings after baseline application (unsuppressed → CI failure).
    pub applied: Applied,
    /// Total raw findings before suppression.
    pub total_findings: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of manifests scanned.
    pub manifests_scanned: usize,
    /// Policy path entries that match no scanned file, rendered as
    /// messages — these fail CI like dangling baseline entries: a policy
    /// naming a moved or deleted file silently stops checking it.
    pub stale_policy: Vec<String>,
}

impl Outcome {
    /// Whether the run is clean (nothing unsuppressed, nothing expired,
    /// no baseline or policy entry pointing at a file that no longer
    /// exists).
    pub fn is_clean(&self) -> bool {
        self.applied.unsuppressed.is_empty()
            && self.applied.expired.is_empty()
            && self.applied.dangling.is_empty()
            && self.stale_policy.is_empty()
    }
}

/// Runs all passes over the workspace at `root` with the given policy
/// and (optional) baseline files, using `today` for expiry checks.
pub fn lint_workspace(
    root: &Path,
    policy_path: &Path,
    baseline_path: Option<&Path>,
    today: &str,
) -> Result<Outcome, String> {
    let policy_src = fs::read_to_string(policy_path)
        .map_err(|e| format!("cannot read policy {}: {e}", policy_path.display()))?;
    let policy = Policy::parse(&policy_src)?;
    let bl = match baseline_path {
        Some(p) if p.exists() => {
            let src = fs::read_to_string(p)
                .map_err(|e| format!("cannot read baseline {}: {e}", p.display()))?;
            Baseline::parse(&src)?
        }
        _ => Baseline::default(),
    };
    let ctx = Context::load(root, policy).map_err(|e| format!("workspace walk failed: {e}"))?;
    Ok(lint_context(&ctx, &bl, today))
}

/// Runs all passes over an already-loaded context (test entry point).
pub fn lint_context(ctx: &Context, bl: &Baseline, today: &str) -> Outcome {
    let findings = passes::run_all(ctx);
    let total = findings.len();
    let mut applied = bl.apply(findings, today);
    applied.dangling = bl.dangling_entries(|rel| ctx.files.iter().any(|f| f.rel_path == rel));
    let stale_policy = ctx
        .policy
        .path_entries()
        .into_iter()
        .filter(|(_, prefix)| !ctx.files.iter().any(|f| f.rel_path.starts_with(prefix)))
        .map(|(key, prefix)| {
            format!("lint.toml [{key}] entry `{prefix}` matches no file in the scanned workspace")
        })
        .collect();
    Outcome {
        applied,
        total_findings: total,
        files_scanned: ctx.files.len(),
        manifests_scanned: ctx.manifests.len(),
        stale_policy,
    }
}
