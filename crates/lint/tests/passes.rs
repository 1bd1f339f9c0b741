//! Fixture-based conformance tests for every lint pass, plus a
//! self-test that the live workspace is finding-free modulo the
//! checked-in baseline.
//!
//! Each pass gets one deliberately-bad fixture (with its exact span
//! asserted) and one clean twin. Fixtures live under `tests/fixtures/`
//! — a directory the live walk excludes (see `lint.toml`) and cargo
//! never compiles — and are lexed at *synthetic* workspace paths so the
//! path-scoped passes fire exactly as they would on real crates.

use std::path::Path;

use dnnperf_lint::baseline::{today_iso, Baseline};
use dnnperf_lint::passes;
use dnnperf_lint::policy::Policy;
use dnnperf_lint::workspace::{Context, Manifest, SourceFile};
use dnnperf_lint::{lint_workspace, Outcome};

/// The repo's actual policy: fixtures are checked against the same
/// rules the live run uses, so policy drift breaks these tests loudly.
fn real_policy() -> Policy {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
    let src = std::fs::read_to_string(root).expect("workspace lint.toml");
    Policy::parse(&src).expect("workspace lint.toml parses")
}

fn ctx_with(files: Vec<(&str, &str)>) -> Context {
    let files = files
        .into_iter()
        .map(|(path, src)| SourceFile::from_source(path, src))
        .collect();
    Context::from_parts(real_policy(), files, vec![])
}

fn run_pass(name: &str, ctx: &Context) -> Vec<dnnperf_lint::diag::Finding> {
    let pass = passes::registry()
        .into_iter()
        .find(|p| p.name == name)
        .expect("pass registered");
    (pass.run)(ctx)
}

// ---------------------------------------------------------------- oracle

#[test]
fn oracle_bad_fixture_is_flagged_with_exact_span() {
    // The ISSUE's acceptance criterion: a deliberate
    // `use dnnperf_gpu::timing::*` planted in a crates/core fixture must
    // be flagged with a file:line span.
    let src = include_str!("fixtures/oracle_bad.rs");
    let ctx = ctx_with(vec![("crates/core/src/peek.rs", src)]);
    let f = run_pass("oracle-isolation", &ctx);
    assert!(
        f.iter().any(|x| x.file == "crates/core/src/peek.rs"
            && (x.line, x.col) == (4, 5)
            && x.snippet.contains("dnnperf_gpu::timing::*")),
        "expected the glob import flagged at crates/core/src/peek.rs:4:5, got {f:#?}"
    );
}

#[test]
fn oracle_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/oracle_clean.rs");
    let ctx = ctx_with(vec![("crates/core/src/ok.rs", src)]);
    let f = run_pass("oracle-isolation", &ctx);
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

// ----------------------------------------------------------- determinism

#[test]
fn determinism_bad_fixture_flags_all_three_violations() {
    let src = include_str!("fixtures/determinism_bad.rs");
    let ctx = ctx_with(vec![("crates/core/src/agg.rs", src)]);
    let f = run_pass("determinism", &ctx);
    // Instant::now read, with exact span (line 8, the `Instant` token).
    assert!(
        f.iter()
            .any(|x| x.message.contains("Instant::now") && x.line == 8),
        "missing Instant::now finding: {f:#?}"
    );
    assert!(f.iter().any(|x| x.message.contains("BTreeMap")));
    assert!(f
        .iter()
        .any(|x| x.message.contains("total_cmp") && x.line == 9));
}

#[test]
fn determinism_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/determinism_clean.rs");
    let ctx = ctx_with(vec![("crates/core/src/agg.rs", src)]);
    let f = run_pass("determinism", &ctx);
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

// ---------------------------------------------------------- panic-policy

#[test]
fn panic_bad_fixture_flags_macro_and_indexing() {
    let src = include_str!("fixtures/panic_bad.rs");
    let ctx = ctx_with(vec![("crates/scheduler/src/pool.rs", src)]);
    let f: Vec<_> = run_pass("panic-policy", &ctx)
        .into_iter()
        .filter(|x| x.file == "crates/scheduler/src/pool.rs")
        .collect();
    assert!(
        f.iter()
            .any(|x| x.message.contains("`panic!`") && (x.line, x.col) == (5, 9)),
        "missing panic! finding at 5:9: {f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.message.contains("indexing") && x.line == 7),
        "missing indexing finding: {f:#?}"
    );
}

#[test]
fn panic_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/panic_clean.rs");
    let ctx = ctx_with(vec![("crates/scheduler/src/pool.rs", src)]);
    let f: Vec<_> = run_pass("panic-policy", &ctx)
        .into_iter()
        .filter(|x| x.file == "crates/scheduler/src/pool.rs")
        .collect();
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

#[test]
fn deny_attr_check_is_structural_not_textual() {
    // A lib.rs whose only mention of the attribute is inside a comment
    // must be flagged; the real attribute satisfies it.
    let commented =
        "// #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\npub fn f() {}\n";
    let ctx = ctx_with(vec![("crates/core/src/lib.rs", commented)]);
    let f = run_pass("panic-policy", &ctx);
    assert!(
        f.iter()
            .any(|x| x.file == "crates/core/src/lib.rs" && x.message.contains("deny")),
        "comment-only attribute passed the structural check: {f:#?}"
    );

    let real =
        "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\npub fn f() {}\n";
    let ctx = ctx_with(vec![("crates/core/src/lib.rs", real)]);
    let f = run_pass("panic-policy", &ctx);
    assert!(!f.iter().any(|x| x.file == "crates/core/src/lib.rs"));
}

// ----------------------------------------------------------- hermeticity

#[test]
fn hermeticity_flags_registry_dep_with_line() {
    let bad = Manifest {
        rel_path: "crates/core/Cargo.toml".to_string(),
        src: "[package]\nname = \"dnnperf-core\"\n\n[dependencies]\nserde = \"1.0\"\n".to_string(),
    };
    let gpu = Manifest {
        rel_path: "crates/gpu/Cargo.toml".to_string(),
        src: "[package]\nname = \"dnnperf-gpu\"\n".to_string(),
    };
    let ctx = Context::from_parts(real_policy(), vec![], vec![gpu, bad]);
    let f = run_pass("hermeticity", &ctx);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(
        (f[0].file.as_str(), f[0].line),
        ("crates/core/Cargo.toml", 5)
    );
    assert!(f[0].message.contains("serde"));
}

#[test]
fn hermeticity_accepts_workspace_path_deps_and_std_imports() {
    let ok = Manifest {
        rel_path: "crates/core/Cargo.toml".to_string(),
        src: "[package]\nname = \"dnnperf-core\"\n[dependencies]\n\
              dnnperf-gpu = { workspace = true }\n"
            .to_string(),
    };
    let gpu = Manifest {
        rel_path: "crates/gpu/Cargo.toml".to_string(),
        src: "[package]\nname = \"dnnperf-gpu\"\n".to_string(),
    };
    let file = SourceFile::from_source(
        "crates/core/src/x.rs",
        "mod helper;\nuse std::fmt;\nuse dnnperf_gpu::GpuSpec;\nuse helper::thing;\n",
    );
    let ctx = Context::from_parts(real_policy(), vec![file], vec![gpu, ok]);
    let f = run_pass("hermeticity", &ctx);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn hermeticity_flags_foreign_use_root() {
    let gpu = Manifest {
        rel_path: "crates/gpu/Cargo.toml".to_string(),
        src: "[package]\nname = \"dnnperf-gpu\"\n".to_string(),
    };
    let file = SourceFile::from_source("crates/core/src/x.rs", "use rayon::prelude::*;\n");
    let ctx = Context::from_parts(real_policy(), vec![file], vec![gpu]);
    let f = run_pass("hermeticity", &ctx);
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].line, f[0].col), (1, 5));
    assert!(f[0].message.contains("rayon"));
}

// ---------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_bad_fixture_is_flagged_with_span() {
    let src = include_str!("fixtures/unsafe_bad.rs");
    let ctx = ctx_with(vec![("crates/simkit/src/raw.rs", src)]);
    let f = run_pass("unsafe-audit", &ctx);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!((f[0].line, f[0].col), (4, 5));
    assert!(f[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/unsafe_clean.rs");
    let ctx = ctx_with(vec![("crates/simkit/src/raw.rs", src)]);
    assert!(run_pass("unsafe-audit", &ctx).is_empty());
}

// ------------------------------------------------------------ lock-order

#[test]
fn lock_order_bad_fixture_reports_cycle_with_both_witness_paths() {
    // The ISSUE's acceptance criterion: a seeded ABBA inversion must be
    // detected and the diagnostic must name BOTH acquisition paths.
    let src = include_str!("fixtures/lock_order_bad.rs");
    let ctx = ctx_with(vec![("crates/serve/src/server.rs", src)]);
    let f = run_pass("lock-order", &ctx);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!((f[0].line, f[0].col), (7, 19), "{f:#?}");
    let msg = &f[0].message;
    assert!(
        msg.contains("server-pending -> worker-registry -> server-pending"),
        "cycle ring missing: {msg}"
    );
    assert!(
        msg.contains("server-pending held at crates/serve/src/server.rs:6"),
        "first witness path missing: {msg}"
    );
    assert!(
        msg.contains("worker-registry held at crates/serve/src/server.rs:12"),
        "second witness path missing: {msg}"
    );
}

#[test]
fn lock_order_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/lock_order_clean.rs");
    let ctx = ctx_with(vec![("crates/serve/src/server.rs", src)]);
    let f = run_pass("lock-order", &ctx);
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

// --------------------------------------------------- blocking-under-lock

#[test]
fn blocking_bad_fixture_flags_join_under_registry_guard() {
    let src = include_str!("fixtures/blocking_bad.rs");
    let ctx = ctx_with(vec![("crates/serve/src/tcp.rs", src)]);
    let f = run_pass("blocking-under-lock", &ctx);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!((f[0].line, f[0].col), (8, 19), "{f:#?}");
    assert!(
        f[0].message.contains("`accept-registry`"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("join"), "{}", f[0].message);
}

#[test]
fn blocking_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/blocking_clean.rs");
    let ctx = ctx_with(vec![("crates/serve/src/tcp.rs", src)]);
    let f = run_pass("blocking-under-lock", &ctx);
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

// --------------------------------------------------- condvar-discipline

#[test]
fn condvar_bad_fixture_flags_bare_wait_and_silent_mutation() {
    let src = include_str!("fixtures/condvar_bad.rs");
    let ctx = ctx_with(vec![("crates/core/src/plan_cache.rs", src)]);
    let f = run_pass("condvar-discipline", &ctx);
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(
        f.iter()
            .any(|x| (x.line, x.col) == (8, 10) && x.message.contains("outside a predicate loop")),
        "missing bare-wait finding at 8:10: {f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| (x.line, x.col) == (14, 14) && x.message.contains("without a later notify")),
        "missing silent-mutation finding at 14:14: {f:#?}"
    );
}

#[test]
fn condvar_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/condvar_clean.rs");
    let ctx = ctx_with(vec![("crates/core/src/plan_cache.rs", src)]);
    let f = run_pass("condvar-discipline", &ctx);
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

// -------------------------------------------------------- poison-policy

#[test]
fn poison_bad_fixture_ranks_all_three_mishandlings() {
    let src = include_str!("fixtures/poison_bad.rs");
    let ctx = ctx_with(vec![("crates/core/src/plan.rs", src)]);
    let f = run_pass("poison-policy", &ctx);
    assert_eq!(f.len(), 3, "{f:#?}");
    assert_eq!((f[0].line, f[0].col), (6, 17), "{f:#?}");
    assert!(f[0].message.contains("panic"), "{}", f[0].message);
    assert!(f[0].message.contains("lock_unpoisoned"), "{}", f[0].message);
    assert_eq!(f[1].line, 10);
    assert!(f[1].message.contains("hand-rolled"), "{}", f[1].message);
    assert_eq!(f[2].line, 15);
    assert!(f[2].message.contains("ad hoc"), "{}", f[2].message);
}

#[test]
fn poison_clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/poison_clean.rs");
    let ctx = ctx_with(vec![("crates/core/src/plan.rs", src)]);
    let f = run_pass("poison-policy", &ctx);
    assert!(f.is_empty(), "clean twin flagged: {f:#?}");
}

/// The four concurrency passes must hold on the live serving stack with
/// NO baseline help at all — the ISSUE's zero-un-annotated-entries
/// criterion, stricter than the baseline-modulo self-test below.
#[test]
fn live_workspace_concurrency_passes_are_clean_without_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ctx = Context::load(&root, real_policy()).expect("workspace walk");
    for pass in [
        "lock-order",
        "blocking-under-lock",
        "condvar-discipline",
        "poison-policy",
    ] {
        let f = run_pass(pass, &ctx);
        assert!(
            f.is_empty(),
            "[{pass}] live findings (these may not be baselined):\n{}",
            f.iter().map(|x| x.render_human()).collect::<String>()
        );
    }
}

// ------------------------------------------------------------- baseline

#[test]
fn baseline_suppresses_then_expires() {
    let src = include_str!("fixtures/panic_bad.rs");
    let ctx = ctx_with(vec![("crates/scheduler/src/pool.rs", src)]);
    let findings: Vec<_> = run_pass("panic-policy", &ctx)
        .into_iter()
        .filter(|x| x.file == "crates/scheduler/src/pool.rs")
        .collect();
    assert!(!findings.is_empty());
    let mut bl_src = String::from("# test baseline\n");
    for f in &findings {
        bl_src.push_str(&format!(
            "{} {} {} -- fixture entry [expires=2099-01-01]\n",
            f.pass,
            f.file,
            f.snippet_key()
        ));
    }
    let bl = Baseline::parse(&bl_src).unwrap();
    let live = bl.apply(findings.clone(), "2026-08-06");
    assert!(live.unsuppressed.is_empty());
    assert_eq!(live.suppressed_count, findings.len());
    let expired = bl.apply(findings, "2099-06-01");
    assert!(expired.unsuppressed.is_empty());
    assert!(!expired.expired.is_empty());
}

// --------------------------------------------------- workspace self-test

/// The live workspace, under the live policy and baseline, must be
/// finding-free. This is the test-suite twin of the ci.sh gate: if a
/// change introduces a new unbaselined finding, `cargo test` fails even
/// before CI runs the binary.
#[test]
fn live_workspace_is_clean_modulo_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome: Outcome = lint_workspace(
        &root,
        &root.join("lint.toml"),
        Some(&root.join("lint-baseline.txt")),
        &today_iso(),
    )
    .expect("lint run succeeds");
    assert!(
        outcome.applied.unsuppressed.is_empty(),
        "new findings:\n{}",
        outcome
            .applied
            .unsuppressed
            .iter()
            .map(|f| f.render_human())
            .collect::<String>()
    );
    assert!(
        outcome.applied.expired.is_empty(),
        "expired baseline entries:\n{}",
        outcome.applied.expired.join("\n")
    );
    // Sanity: the walk actually saw the workspace.
    assert!(outcome.files_scanned > 50);
    assert!(outcome.manifests_scanned >= 10);
    // Baseline hygiene: every entry names a file the walk actually saw.
    assert!(
        outcome.applied.dangling.is_empty(),
        "dangling baseline entries:\n{}",
        outcome.applied.dangling.join("\n")
    );
    // Policy hygiene: every path entry in lint.toml covers a real file.
    assert!(
        outcome.stale_policy.is_empty(),
        "stale policy entries:\n{}",
        outcome.stale_policy.join("\n")
    );
}

#[test]
fn baseline_entry_for_missing_file_fails_the_run() {
    let ctx = ctx_with(vec![("crates/core/src/plan.rs", "pub fn f() {}\n")]);
    let bl =
        Baseline::parse("panic-policy crates/core/src/deleted.rs unwrap() -- file long gone\n")
            .expect("baseline parses");
    let outcome = dnnperf_lint::lint_context(&ctx, &bl, &today_iso());
    assert!(!outcome.is_clean(), "dangling entry must fail the run");
    assert_eq!(
        outcome.applied.dangling.len(),
        1,
        "{:?}",
        outcome.applied.dangling
    );
    assert!(
        outcome.applied.dangling[0].contains("crates/core/src/deleted.rs"),
        "{}",
        outcome.applied.dangling[0]
    );
}

#[test]
fn policy_entry_for_missing_file_fails_the_run() {
    let policy = Policy::parse(include_str!("fixtures/policy_stale.toml")).expect("fixture parses");
    let files = [
        "crates/core/src/plan_cache.rs",
        "crates/scheduler/src/sync.rs",
    ]
    .into_iter()
    .map(|path| SourceFile::from_source(path, "pub fn f() {}\n"))
    .collect();
    let ctx = Context::from_parts(policy, files, vec![]);
    let outcome = dnnperf_lint::lint_context(&ctx, &Baseline::default(), &today_iso());
    assert!(
        !outcome.is_clean(),
        "a stale policy entry must fail the run"
    );
    assert_eq!(outcome.stale_policy.len(), 2, "{:#?}", outcome.stale_policy);
    assert!(
        outcome.stale_policy[0].contains("[panic.hot_paths]")
            && outcome.stale_policy[0].contains("`crates/serve/src/cache.rs`"),
        "{}",
        outcome.stale_policy[0]
    );
    assert!(
        outcome.stale_policy[1].contains("[concurrency.lock_classes]"),
        "{}",
        outcome.stale_policy[1]
    );
}
