#!/usr/bin/env bash
# Tier-1 gate plus hygiene, in fail-fast order (cheapest first).
#
# Usage: ./ci.sh
#
# Everything runs offline: external deps are vendored under vendor/
# (see vendor/README.md), so no registry access is needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> test-target registration guard (every tests/*.rs must be a [[test]] target)"
# The workspace-level tests/ directory belongs to rapids-flow via explicit
# [[test]] path entries; a new test file that is not registered would be
# silently skipped by cargo test, so its absence fails the gate.
for t in tests/*.rs; do
    name=$(basename "$t" .rs)
    if ! grep -q "name = \"$name\"" crates/flow/Cargo.toml; then
        echo "error: $t is not registered as a [[test]] target in crates/flow/Cargo.toml" >&2
        exit 1
    fi
done

echo "==> orphan-pin guard (every top-level file under ci/ must be named by ci.sh or a test)"
# A pin or job list that no step reads is dead weight that still looks like
# a contract; list every such file and fail.
orphans=()
for f in ci/*; do
    [ -f "$f" ] || continue
    name=$(basename "$f")
    if ! grep -qF "$name" ci.sh && ! grep -rqF --include='*.rs' "$name" tests crates/*/tests; then
        orphans+=("$f")
    fi
done
if [ ${#orphans[@]} -gt 0 ]; then
    echo "error: named by neither ci.sh nor a test: ${orphans[*]}" >&2
    exit 1
fi

echo "==> cargo clippy (all targets, warnings are errors)"
# No allowlist flags here: the few intentional lint exceptions are local
# #[allow]s with justifying comments at the exact sites (argument-heavy
# scorer in rapids-sizing, index-loop tests in rapids-circuits).
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> examples smoke (every [[example]] of rapids-flow runs and exits 0)"
# The examples are the documented entry points into the flow; each must
# exit 0.  symmetry_explore also asserts exhaustive equivalence for the
# Fig. 2 swaps and the Fig. 3 cross-supergate swap (Theorem 2).  Together
# they run in well under a second in release.
cargo build --release --examples
examples=$(sed -n '/^\[\[example\]\]$/{n;s/^name = "\(.*\)"$/\1/p}' crates/flow/Cargo.toml)
if [ -z "$examples" ]; then
    echo "error: no [[example]] found in crates/flow/Cargo.toml" >&2
    exit 1
fi
for ex in $examples; do
    timeout 60 "./target/release/examples/$ex" > /dev/null
done

echo "==> perfbench unit tests (the benchmark harness builds against the crates' public API)"
# perfbench/ is a package of its own outside the workspace, so no other
# step compiles it: this catches a crate change that breaks the benchmark
# build, including the forwards kept only for it.  --locked fails a crate
# change that would rewrite perfbench/Cargo.lock instead of letting the
# build edit it: only a change to the benchmark itself may touch that file.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml -q

echo "==> cargo test -q"
cargo test -q

echo "==> cargo doc (no deps, warnings are errors)"
# Keeps ARCHITECTURE/benchmarking links and the public rustdoc honest:
# broken intra-doc links or malformed examples fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> STA kernel smoke (full analysis vs reference, bit-identity + speed gate)"
# Times the full analysis (Sta::analyze: one star per net, swept over the
# level-major schedule) against the reference analyzer (two stars per net)
# on the largest suite designs, asserting bit-identical reports and that
# the full analysis is not slower than 1.5x the reference (a generous
# margin: the point is catching a full sweep that silently lost its
# one-star parasitics, not benchmarking).  See docs/benchmarking.md, "The
# sta_kernel micro-benchmark".
timeout 120 ./target/release/sta_kernel --smoke > /dev/null

echo "==> SAT solver + CEC micro-smoke (pigeonhole UNSAT, planted SAT, miter refutation)"
# The hand-rolled CDCL solver on a known-UNSAT pigeonhole instance and a
# planted-satisfiable 3-SAT instance (model re-checked), then a corrupted
# DeMorgan miter whose counterexample must replay on the simulator.  A few
# milliseconds in release; the budget guards against a propagation/learning
# regression blowing up the conflict count.  See docs/equivalence.md.
timeout 60 ./target/release/cec_smoke > /dev/null

echo "==> timing-regression smoke (mid-size suite under a wall-clock budget)"
# Deterministic QoR (delay/area/decision counts) of three mid-size rows must
# exactly match the committed expectations; the timeout guards against a
# performance regression re-inflating the optimizer loops (the rows complete
# in a few seconds on the incremental engine; 120 s is the hard budget).
timeout 120 ./target/release/table1 --threads 2 c1908 alu4 x3 \
    --check ci/expected_qor_smoke.json > /dev/null

echo "==> inverting-swap (ES) smoke"
# Same rows with --es: inverting swaps must keep applying (c1908 and x3
# report non-zero es_swaps in the committed expectations) and keep the QoR
# deterministic; see docs/benchmarking.md for the field meanings.
timeout 120 ./target/release/table1 --threads 2 --es c1908 alu4 x3 \
    --check ci/expected_qor_smoke_es.json > /dev/null

echo "==> legalization QoR smoke (ES + row-legal placements)"
# Same rows with --es --legalize: the Abacus legalizer + timing refinement
# run in the prepare stage and accepted ES inverters are nudged into free
# row slots, so hpwl_um/max_displacement_um/es_swaps are pinned alongside
# the delay/area fields.  The default-off expectations above stay
# bit-identical (modulo the three appended fields), so both modes are
# guarded.  See docs/legalization.md.
timeout 120 ./target/release/table1 --threads 2 --es --legalize c1908 alu4 x3 \
    --check ci/expected_qor_smoke_legal.json > /dev/null

echo "==> full-suite QoR pins (all 19 rows, default and --es --legalize)"
# The smokes above cover three designs with 26-36 output ports; these pin
# every Table 1 row, including c499, c1355 and s38417 with 256 ports each,
# so a change to port bookkeeping or cell lookup that moves any row's
# delay, area or decision counts fails here.  A few seconds in release.
timeout 300 ./target/release/table1 --threads 2 \
    --check ci/expected_qor_full.json > /dev/null
timeout 300 ./target/release/table1 --threads 2 --es --legalize \
    --check ci/expected_qor_full_es_legal.json > /dev/null

echo "==> serve smoke (batch service over suite designs + a .blif fixture)"
# Three fast suite designs plus the committed fixture, scheduled across two
# workers: the canonically sorted JSONL must match the pinned expectation
# byte for byte (reports are worker-count invariant; see docs/serving.md).
timeout 120 ./target/release/rapids-serve --fast --workers 2 --sort \
    alu2 c432 c499 --blif-dir ci/fixtures 2> /dev/null \
    | diff - ci/expected_serve_smoke.jsonl

echo "==> serve smoke at --threads 2 (same pinned bytes)"
# The same batch with each job's three optimizers on separate threads:
# every optimizer scores and applies candidates in one in-order loop, so
# no report byte may depend on `threads` (see PipelineConfig::threads).
timeout 120 ./target/release/rapids-serve --fast --workers 2 --threads 2 --sort \
    alu2 c432 c499 --blif-dir ci/fixtures 2> /dev/null \
    | diff - ci/expected_serve_smoke.jsonl

echo "==> fault-injection smoke (panic + transient I/O + deadline, pinned output)"
# A three-job batch under a deterministic fault plan: one job panics, one
# survives a transient read fault through the retry, and one is hung by an
# injected 120 s delay but cut at its 2 s deadline.  The sorted JSONL must
# match the pinned expectation byte for byte — failures included; panic
# spew goes to stderr, which is discarded.  See docs/robustness.md.
timeout 120 ./target/release/rapids-serve --jobs ci/fault_smoke.jobs.jsonl \
    --workers 2 --sort \
    --fault-plan 'job-run@c432=panic,blif-read@tiny_mux#0=io,job-run@c499=delay:120000' \
    2> /dev/null | diff - ci/expected_fault_smoke.jsonl

echo "==> verify smoke (SAT equivalence jobs through rapids-serve, pinned output)"
# Four verify jobs: a known-equivalent pair (tiny_mux vs its DeMorgan
# rewrite), a known-mutated pair (single AND→OR corruption, refuted with a
# simulator-confirmed counterexample), a self-pair, and a resubmission of
# the first pair served from the verdict cache.  The sorted JSONL must
# match the pinned expectation byte for byte.  See docs/equivalence.md.
timeout 120 ./target/release/rapids-serve --jobs ci/verify_smoke.jobs.jsonl \
    --workers 2 --sort 2> /dev/null | diff - ci/expected_verify_smoke.jsonl

echo "==> full-suite proof (SAT proof of all 19 Table 1 designs after gsg+GS --es)"
# The ignored acceptance sweep of tests/integration_cec.rs: every design
# must come back proven without the solver (every output pair closes in
# the structural front end, which maps each swapped supergate to the
# original's node), and every sweep must refute fewer times than its DAG
# has nodes.  About 3 s in release, nearly all of it optimization; the
# timeout guards against a proof falling back to a long solve.
timeout 300 cargo test --release --offline -p rapids-flow --test integration_cec -q -- --ignored

echo "==> result-store smoke (crash-safe disk cache: second run is compute-free, torn tail recovers)"
# Two identical runs against a fresh --store directory: the second must be
# answered entirely from disk (zero optimizer runs, every job a disk hit)
# with byte-identical output.  The stderr stats line is part of the
# contract; see docs/robustness.md.
rm -rf target/ci_store
timeout 120 ./target/release/rapids-serve --fast --sort alu2 c432 \
    --store target/ci_store > target/ci_store_first.jsonl 2> /dev/null
timeout 120 ./target/release/rapids-serve --fast --sort alu2 c432 \
    --store target/ci_store > target/ci_store_second.jsonl 2> target/ci_store_second.stderr
diff target/ci_store_first.jsonl target/ci_store_second.jsonl
grep -q 'store: optimizer_runs=0 disk_hits=2 recovered_records=2 dropped_corrupt_records=0' \
    target/ci_store_second.stderr
# A crash mid-append: cut the last record short.  The third run must drop
# exactly that record, recompute its design, and print the first run's bytes.
truncate -s -10 target/ci_store/store.jsonl
timeout 120 ./target/release/rapids-serve --fast --sort alu2 c432 \
    --store target/ci_store > target/ci_store_third.jsonl 2> target/ci_store_third.stderr
diff target/ci_store_first.jsonl target/ci_store_third.jsonl
grep -q 'store: optimizer_runs=1 disk_hits=1 recovered_records=1 dropped_corrupt_records=1' \
    target/ci_store_third.stderr

echo "==> observability smoke (trace validity + metrics pin, byte-identical output)"
# The serve smoke rerun with the tracer and metrics dump armed: stdout must
# stay byte-identical to the same pinned expectation (observability never
# perturbs reports), the Chrome trace must parse and contain the expected
# span hierarchy, and the deterministic `counters` section of the metrics
# snapshot must match the committed pin exactly (histograms carry wall-clock
# and are excluded).  See docs/observability.md.
timeout 120 ./target/release/rapids-serve --fast --workers 2 --sort \
    alu2 c432 c499 --blif-dir ci/fixtures \
    --trace-out target/ci_trace.json --metrics-out target/ci_metrics.json \
    2> /dev/null | diff - ci/expected_serve_smoke.jsonl
./target/release/trace_check target/ci_trace.json \
    serve.job serve.resolve serve.run stage.sta sta.full sta.update optimizer.pass > /dev/null
sed -n '/^  "counters": {$/,/^  },$/p' target/ci_metrics.json \
    | diff - ci/expected_metrics_smoke.json

echo "==> telemetry smoke (manual-tick series + detectors, pinned journal)"
# The fault smoke rerun with the telemetry plane armed in manual mode: one
# tick per job at the post-job quiescent point, a CUSUM on the deadline-cut
# counter (fires on the injected 120 s hang being cut), and a 0.25
# timeout-burn SLO.  stdout must stay byte-identical to the same pinned
# expectation (telemetry never perturbs reports), and the tick journal —
# stripped of the wall-clock `latency` section and the line checksums —
# must match its pin byte for byte.  One worker pins the tick order; the
# journal is removed first because a replayed journal appends.  See
# docs/observability.md.
rm -f target/ci_telemetry.jsonl
timeout 120 ./target/release/rapids-serve --jobs ci/fault_smoke.jobs.jsonl \
    --workers 1 --sort \
    --fault-plan 'job-run@c432=panic,blif-read@tiny_mux#0=io,job-run@c499=delay:120000' \
    --telemetry-s 0 --telemetry-out target/ci_telemetry.jsonl \
    --cusum serve.deadline_cuts:0.5:0:0 --slo-timeout-frac 0.25 \
    2> /dev/null | diff - ci/expected_fault_smoke.jsonl
sed -E 's/,"latency":\{[^}]*\}//; s/,"ck":"[0-9a-f]{16}"//' target/ci_telemetry.jsonl \
    | diff - ci/expected_telemetry_smoke.jsonl

echo "==> OK"
