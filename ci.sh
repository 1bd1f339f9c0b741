#!/usr/bin/env bash
# Offline CI for the dnnperf workspace.
#
# The workspace is hermetic: it builds, tests and lints with no crates.io
# dependencies and no network access (CARGO_NET_OFFLINE pins that down —
# any accidental external dependency fails resolution immediately instead
# of silently fetching).

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> tier-1: build (release)"
cargo build --release --offline --workspace

echo "==> tier-1: test"
cargo test -q --offline --workspace

echo "==> determinism conformance (forced multi-threading)"
# The conformance suite must pass with test-level parallelism forced >1, so
# the engine's work-stealing paths are exercised under contention (not just
# the defaults).
cargo test -q --offline -p dnnperf --test determinism -- --test-threads 4

echo "==> fault-injection conformance (forced multi-threading)"
# The resilience contract — fault-injected collection byte-identical to
# fault-free, panic isolation, quarantine — must hold under test-level
# parallelism, not just the serial default.
cargo test -q --offline -p dnnperf --test fault_injection -- --test-threads 4

echo "==> serving conformance (forced multi-threading)"
# The shared plan cache and the TCP front door promise per-request
# determinism under contention: many threads hammering one cache (hits,
# misses, evictions, mid-flight invalidation) and many concurrent TCP
# clients must observe bit-identical predictions, no deadlocks and no
# duplicate compiles. Force test-level parallelism so the suites contend.
cargo test -q --offline -p dnnperf-serve --test concurrency -- --test-threads 4
cargo test -q --offline -p dnnperf-serve --test server -- --test-threads 4

echo "==> serving robustness conformance (forced multi-threading)"
# The failure-model contract: deadlines shed/sweep with typed answers,
# panicking workers never hang a waiter or shrink the pool, transport
# faults (torn frames, corruption, slowloris, mid-request disconnects)
# fail loudly or recover transparently, and shutdown under load leaves
# every request terminal with zero leaked worker threads.
cargo test -q --offline -p dnnperf-serve --test robustness -- --test-threads 4

echo "==> fleet simulation conformance (forced multi-threading)"
# The fleet what-if engine's contract: request conservation for every
# placement × batching × arrival × seed combination, byte-identical
# report replay (including across training thread counts), p99
# monotonicity in offered load, policy-independence of service demand,
# and bit-identity of fleet-path predictions (degradation notes, IGKW
# fallback) with the model stack. Forced test-level parallelism makes
# the shared-oracle fixtures contend.
cargo test -q --offline -p dnnperf --test fleet -- --test-threads 4

echo "==> experiment binaries still build"
cargo build --offline -p dnnperf-bench --bins

echo "==> repository benchmark self-tests"
# The benchmark in benchmark/ is a package of its own (outside the
# workspace) that binds to the library crates' public API — the serve
# crate's cache, server and frame functions among them. The workspace
# steps above never build it, so an API change that breaks it would
# otherwise surface only when the benchmark runs.
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> perf regression gate (smoke profile vs committed BENCH_5.json)"
# Re-measures the serving/training hot paths with reduced iteration counts
# and gates on machine-relative figures: warm-predict ns/kernel and
# cold-walk ns/layer may not regress more than 2x vs the committed
# baseline, and the warm sweep (one plan-cache lookup per request) must
# stay at least 5x faster than the uncompiled legacy path. The sweep's
# pair, layer and kernel-term counts must match the baseline exactly: a
# per-kernel or per-layer figure compares only over the same work. Like
# every gate below, the bin checks the baseline's schema and gated keys
# before it measures anything. A network
# carries its fingerprint from construction, so a warm request builds its
# key without walking layers: the baseline's ns/kernel times the lookup
# itself, not a hash. The cold walk is the uncached legacy sweep per
# layer: one allocation-free kernel-map lookup plus the layer's
# regressions, the cost every plan compile and IGKW answer pays. The
# cold sweep's checksum (the bits of every strict and graceful answer,
# nearest-signature misses included) must match the baseline exactly.
# Release build: the baseline was captured in release, and the tier-1 step
# above has already built it.
cargo run --release --offline -q -p dnnperf-bench --bin perf -- --smoke --check BENCH_5.json

echo "==> train-scaling gate (smoke profile vs committed BENCH_9.json)"
# Sweeps KW training over worker counts {1,2,4,8} on an enlarged grid.
# Determinism is a hard abort inside the bin: the serialized model must be
# byte-identical at every thread count before anything is timed. The
# grid's row and kernel-group counts must match the baseline exactly. The
# perf gate is machine-aware: boxes with >= 4 cores must show >= 2x
# speedup at 8 threads; smaller boxes gate serial ns/row at most 2x the
# baseline instead.
cargo run --release --offline -q -p dnnperf-bench --bin perf -- --train-scaling --smoke --check BENCH_9.json

echo "==> serving load gate (smoke profile vs committed BENCH_6.json)"
# End-to-end server smoke + regression gate in one step: boots the
# prediction server on an ephemeral port, drives at least 100 concurrent
# TCP clients over the full zoo, shuts down cleanly, and gates on zero
# client-observed errors, p99 latency at most 6x the committed baseline,
# and throughput at least baseline/6 (machine-relative).
cargo run --release --offline -q -p dnnperf-bench --bin loadgen -- --smoke --check BENCH_6.json

echo "==> chaos soak gate (deterministic fault injection vs committed BENCH_8.json)"
# Fixed-seed chaos soak over the serving layer: hundreds of clients
# through a faulty transport (torn/corrupt/stall/disconnect) and a
# panic-injected worker pool. The bin itself aborts unless every request
# gets exactly one terminal response and both scenarios replay
# byte-identically across two same-seed runs; --check then compares the
# counters against the committed baseline (counts exactly, the
# prediction checksum to 1e-6 relative).
cargo run --release --offline -q -p dnnperf-bench --bin chaos -- --smoke --check BENCH_8.json

echo "==> fleet sweep reproducibility gate (vs committed BENCH_7.json)"
# The capacity-planning sweep is fully deterministic (no wall clock, no
# ambient randomness): every point is simulated twice and must replay
# byte-identically and conserve every request (the bin aborts
# otherwise), and the figures must match the committed baseline —
# request counts exactly, float figures within 1e-6 relative plus 1e-6
# absolute.
cargo run --release --offline -q -p dnnperf-bench --bin fleet -- --smoke --check BENCH_7.json

echo "==> the gates can fail (doctored BENCH_7.json and BENCH_8.json)"
# A gate that cannot fail proves nothing. Copies of the fleet and chaos
# baselines with one count raised by 1 must make the exact-count gates
# exit 1 (not 0, and not a panic) and name the doctored key. Each bin
# runs in about a second.
mkdir -p target
expect_gate_fail() { # bin, baseline, key
    local doctored="target/doctored-$2" status=0
    awk -v key="\"$3\":" '$1 == key { $2 = $2 + 1 "," } 1' "$2" > "$doctored"
    cargo run --release --offline -q -p dnnperf-bench --bin "$1" -- --smoke --check "$doctored" \
        > "$doctored.log" 2>&1 || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "^GATE FAIL: $3 = " "$doctored.log"; then
        echo "$1 --check did not reject $doctored (exit $status)" >&2
        exit 1
    fi
}
expect_gate_fail fleet BENCH_7.json r250_rr_none_offered
expect_gate_fail chaos BENCH_8.json transport_ok

echo "==> rustfmt"
cargo fmt --all -- --check

echo "==> rustdoc (warnings are errors)"
# Deleting or renaming an item must not leave a dangling intra-doc link
# behind in another crate's docs; rustdoc reports those as warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> clippy: no unwrap/expect in resilience-critical crates"
# The collection engine and the scheduler pool promise panic isolation; a
# stray unwrap in their non-test code would turn a recoverable fault into
# a crashed worker. The deny lives as a crate attribute (so plain clippy
# enforces it); dnnperf-lint's panic-policy pass verifies the attribute
# structurally. This step re-lints the lib targets explicitly.
# (Tests may unwrap freely: cfg_attr(not(test)).)
cargo clippy --offline -p dnnperf-sched -p dnnperf-data -p dnnperf-core -p dnnperf-linreg --lib -- -D warnings

echo "==> dnnperf-lint (oracle isolation, determinism, panic policy, hermeticity, unsafe audit,"
echo "    lock-order, blocking-under-lock, condvar-discipline, poison-policy)"
# In-tree static analysis: proves the predictor/oracle boundary, the
# workspace hygiene invariants, and — since the concurrency analyzer —
# the serving stack's locking discipline (acyclic lock-class acquisition
# order, no blocking call under a live guard, condvar waits in predicate
# loops with notifies after mutations, and poison handling only through
# the shared *_unpoisoned helpers). Policy: lint.toml; grandfathered
# findings: lint-baseline.txt (with notes + expiries; entries naming
# deleted files fail the run). The JSON artifact keeps stdout
# machine-pure — the human summary goes to stderr — and is kept under
# target/ for CI consumers. The whole nine-pass run must stay interactive
# (<10s) so the lint gate never becomes the slow step people skip.
mkdir -p target
lint_start_ns=$(date +%s%N)
cargo run --offline -q -p dnnperf-lint -- --root . --format json > target/lint-report.json
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "    lint report: target/lint-report.json (${lint_elapsed_ms} ms)"
if [ "${lint_elapsed_ms}" -gt 10000 ]; then
    echo "dnnperf-lint took ${lint_elapsed_ms} ms — over the 10s interactivity budget" >&2
    exit 1
fi

echo "CI passed."
