#!/usr/bin/env sh
# CI entry point: the offline-build guarantee, the paper's reproduction
# bands, the full test suite, a one-iteration smoke pass of the bench
# harness, and the run-cache soundness check (warm campaign = cold
# campaign, only faster).
#
# The workspace has zero external dependencies, so every step runs with
# --offline and must succeed with no registry or network access. The
# guard below catches an external crate in any Cargo.toml by name
# before the build would fail on it.
set -eu

cd "$(dirname "$0")/.."

# Environment-read guard: library crates must take their configuration
# through the typed cedar_obs::RunOptions surface, not ambient std::env
# reads. Only four sanctioned readers exist — RunOptions::from_env
# (crates/obs/src/options.rs), ServeOptions::from_env
# (crates/serve/src/options.rs), CheckOptions::from_env
# (CEDAR_CHECK_REPLAY, crates/check/src/options.rs) and the
# golden-snapshot re-recorder (UPDATE_GOLDEN, crates/report/src/golden.rs).
# Any other hit fails CI.
echo "==> env-read guard (std::env::var outside sanctioned modules)"
leaks=$(grep -rn "std::env::var" crates/*/src \
    | grep -v "^crates/obs/src/options\.rs:" \
    | grep -v "^crates/serve/src/options\.rs:" \
    | grep -v "^crates/check/src/options\.rs:" \
    | grep -v "^crates/report/src/golden\.rs:" \
    || true)
if [ -n "$leaks" ]; then
    echo "error: unsanctioned std::env::var in library code:" >&2
    echo "$leaks" >&2
    echo "route the knob through cedar_obs::RunOptions instead" >&2
    exit 1
fi

# Zero-dependency guard: every [dependencies]/[dev-dependencies] entry
# in every Cargo.toml must be a workspace member — either a
# `*.workspace = true` reference in a crate manifest or a `path = ...`
# entry in the root [workspace.dependencies] table. An external crate
# would already fail `cargo build --offline`, but only after resolution;
# this names the offending line directly.
echo "==> zero-dependency guard (workspace-only Cargo.toml entries)"
bad=$(awk '
    /^\[/ { indeps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/) }
    indeps && !/^\[/ && !/^[ \t]*(#|$)/ {
        if ($0 !~ /workspace[ \t]*=[ \t]*true/ && $0 !~ /path[ \t]*=/)
            printf "%s: %s\n", FILENAME, $0
    }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$bad" ]; then
    echo "error: non-workspace dependency in a Cargo.toml:" >&2
    echo "$bad" >&2
    echo "the workspace is zero-dependency; vendor the code or drop it" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# The paper as a hard gate: the full-scale campaign's reproduction
# bands (tests/paper_bands.rs). They are #[ignore]d in the default
# debug run because the campaign takes minutes there; in release the
# whole suite takes a few seconds.
echo "==> paper bands (full-scale campaign, release, --ignored)"
cargo test --release --offline --test paper_bands -- --ignored

echo "==> cargo test -q --offline (workspace, debug)"
cargo test -q --offline --workspace

echo "==> per-suite integration-test budgets (hard, results/TEST_budgets.json)"
./scripts/test_times.sh

echo "==> bench harness smoke pass (BENCH_SMOKE=1: 1 iteration, no warmup)"
BENCH_SMOKE=1 cargo bench --offline -p cedar-bench

echo "==> reduced-scale campaign + run manifest (CEDAR_SHRINK=16, CEDAR_OBS=full)"
CEDAR_SHRINK=16 CEDAR_OBS=full cargo run --release --offline -p cedar-bench --bin all > /dev/null
for f in results/RUN_manifest.json results/RUN_telemetry.jsonl; do
    test -s "$f" || {
        echo "error: campaign did not write $f" >&2
        exit 1
    }
done
echo "    wrote results/RUN_manifest.json + results/RUN_telemetry.jsonl"

# Cache soundness: the same shrunk campaign twice against one cache
# root. The cold pass populates the store, the warm pass must (a) hit on
# every lookup, (b) produce a RUN_manifest.json byte-identical to the
# cold one once the volatile fields (*_ns wall-clocks, utilization, git
# provenance, and the cache-traffic object itself) are masked, and
# (c) be measurably faster than simulating. The built binary is invoked
# directly so the timing compares campaigns, not cargo overhead.
echo "==> run-cache soundness (cold vs warm campaign, CEDAR_SHRINK=4)"
scratch=$(mktemp -d "${TMPDIR:-/tmp}/cedar-cache-ci.XXXXXX")
trap 'rm -rf "$scratch"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
mask_manifest() {
    sed -e 's/"git":"[^"]*"/"git":"MASKED"/' \
        -e 's/"git":null/"git":"MASKED"/' \
        -e 's/"\([a-z_]*_ns\)":[0-9][0-9]*/"\1":0/g' \
        -e 's/"utilization":[0-9.eE+-]*/"utilization":0/' \
        -e 's/"cache":{[^}]*}/"cache":{}/' \
        "$1"
}
cold_start=$(date +%s%N)
CEDAR_SHRINK=4 CEDAR_CACHE=rw BENCH_JSON_DIR="$scratch" \
    ./target/release/all > /dev/null
cold_end=$(date +%s%N)
mask_manifest "$scratch/RUN_manifest.json" > "$scratch/cold.masked.json"
warm_start=$(date +%s%N)
CEDAR_SHRINK=4 CEDAR_CACHE=rw BENCH_JSON_DIR="$scratch" \
    ./target/release/all > /dev/null
warm_end=$(date +%s%N)
mask_manifest "$scratch/RUN_manifest.json" > "$scratch/warm.masked.json"

runs=$(sed -n 's/.*"runs":\([0-9]*\).*/\1/p' "$scratch/RUN_manifest.json")
if ! grep -q "\"cache\":{\"mode\":\"rw\",\"hits\":$runs,\"misses\":0,\"writes\":0,\"bypasses\":0" \
    "$scratch/RUN_manifest.json"; then
    echo "error: warm campaign was not a 100% cache hit (runs=$runs):" >&2
    sed -n 's/.*\("cache":{[^}]*}\).*/\1/p' "$scratch/RUN_manifest.json" >&2
    exit 1
fi
if ! cmp -s "$scratch/cold.masked.json" "$scratch/warm.masked.json"; then
    echo "error: cold and warm manifests differ after masking:" >&2
    diff "$scratch/cold.masked.json" "$scratch/warm.masked.json" >&2 || true
    exit 1
fi
cold_s=$(awk "BEGIN{printf \"%.2f\", ($cold_end - $cold_start) / 1e9}")
warm_s=$(awk "BEGIN{printf \"%.2f\", ($warm_end - $warm_start) / 1e9}")
speedup=$(awk "BEGIN{printf \"%.1f\", ($cold_end - $cold_start) / ($warm_end - $warm_start)}")
echo "    $runs/$runs warm hits, manifests identical after masking"
echo "    cold ${cold_s}s -> warm ${warm_s}s (${speedup}x speedup)"
mkdir -p results
printf '{\n  "runs": %s,\n  "warm_hits": %s,\n  "cold_s": %s,\n  "warm_s": %s,\n  "speedup": %s\n}\n' \
    "$runs" "$runs" "$cold_s" "$warm_s" "$speedup" > results/CACHE_check.json
echo "    wrote results/CACHE_check.json"
min_speedup="${CACHE_MIN_SPEEDUP:-2}"
slow=$(awk "BEGIN{print ($speedup < $min_speedup) ? 1 : 0}")
if [ "$slow" = 1 ]; then
    echo "error: warm campaign only ${speedup}x faster (floor ${min_speedup}x)" >&2
    echo "raise the floor via CACHE_MIN_SPEEDUP only with a reason" >&2
    exit 1
fi

# Campaign-service smoke: a real server on an ephemeral port, a seeded
# open-loop burst fired three times with the same seed. Gates: every
# response is 2xx or an explicit 503 shed (loadgen exits nonzero
# otherwise), the repeated burst replays ≥90% of its runs from the
# cache (its key space is identical, so anything lower means the
# content addressing broke), the keep-alive warm burst serves ≥90% of
# its runs from the in-memory hot tier with warm p99 inside the
# committed budget (results/SERVE_budget.json), and the server drains
# cleanly on SIGTERM.
echo "==> campaign-service smoke (ephemeral port, seeded load, warm cache)"
CEDAR_SERVE_ADDR=127.0.0.1:0 CEDAR_SERVE_QUEUE=64 \
    ./target/release/serve > "$scratch/serve.out" 2> "$scratch/serve.err" &
serve_pid=$!
serve_addr=""
tries=0
while [ -z "$serve_addr" ] && [ "$tries" -lt 100 ]; do
    serve_addr=$(sed -n 's/^cedar-serve listening on //p' "$scratch/serve.out")
    [ -n "$serve_addr" ] || { tries=$((tries + 1)); sleep 0.1; }
done
if [ -z "$serve_addr" ]; then
    echo "error: serve did not report a listen address" >&2
    cat "$scratch/serve.err" >&2
    exit 1
fi
CEDAR_SERVE_ADDR="$serve_addr" ./target/release/loadgen \
    --requests 30 --rate 15 --seed 7 --shrink 32 \
    --out "$scratch/SERVE_cold.json" > /dev/null
CEDAR_SERVE_ADDR="$serve_addr" ./target/release/loadgen \
    --requests 30 --rate 15 --seed 7 --shrink 32 \
    --out "$scratch/SERVE_warm.json" > /dev/null
counter() { sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1"; }
warm_hits=$(( $(counter "$scratch/SERVE_warm.json" cache_hits_total) \
    - $(counter "$scratch/SERVE_cold.json" cache_hits_total) ))
warm_misses=$(( $(counter "$scratch/SERVE_warm.json" cache_misses_total) \
    - $(counter "$scratch/SERVE_cold.json" cache_misses_total) ))
low=$(awk "BEGIN{t=$warm_hits+$warm_misses; print (t == 0 || $warm_hits/t < 0.9) ? 1 : 0}")
if [ "$low" = 1 ]; then
    echo "error: warm burst hit rate below 90% ($warm_hits hits, $warm_misses misses)" >&2
    exit 1
fi
echo "    $warm_hits/$((warm_hits + warm_misses)) warm hits (connection-per-request)"

# Keep-alive warm burst: the same seeded mix once more, over two
# persistent connections (one per default worker) — the path a real
# client sees. This is the latency report the repo commits.
CEDAR_SERVE_ADDR="$serve_addr" ./target/release/loadgen \
    --requests 30 --rate 15 --seed 7 --shrink 32 --keepalive 2 \
    --out results/SERVE_load.json > /dev/null
test -s results/SERVE_load.json || {
    echo "error: loadgen did not write results/SERVE_load.json" >&2
    exit 1
}
hot_hits=$(( $(counter results/SERVE_load.json cache_hot_hits_total) \
    - $(counter "$scratch/SERVE_warm.json" cache_hot_hits_total) ))
reuse=$(( $(counter results/SERVE_load.json keepalive_reuse_total) \
    - $(counter "$scratch/SERVE_warm.json" keepalive_reuse_total) ))
low_hot=$(awk "BEGIN{print ($hot_hits / 30 < 0.9) ? 1 : 0}")
if [ "$low_hot" = 1 ]; then
    echo "error: keep-alive warm burst hot-tier hit rate below 90% ($hot_hits/30)" >&2
    exit 1
fi
if [ "$reuse" -lt 1 ]; then
    echo "error: keep-alive burst never reused a connection" >&2
    exit 1
fi
warm_p99=$(sed -n 's/.*"p99": *\([0-9.]*\).*/\1/p' results/SERVE_load.json)
p99_budget=$(sed -n 's/.*"warm_p99_ms": *\([0-9.]*\).*/\1/p' results/SERVE_budget.json)
if [ -z "$warm_p99" ] || [ -z "$p99_budget" ]; then
    echo "error: could not extract warm p99 (${warm_p99:-?}) or budget (${p99_budget:-?})" >&2
    exit 1
fi
over=$(awk "BEGIN{print ($warm_p99 > $p99_budget) ? 1 : 0}")
if [ "$over" = 1 ]; then
    echo "error: keep-alive warm p99 ${warm_p99}ms exceeds the ${p99_budget}ms budget" >&2
    echo "(results/SERVE_budget.json is the committed ceiling; raise it only with a reason)" >&2
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || {
    echo "error: serve did not drain cleanly on SIGTERM" >&2
    exit 1
}
serve_pid=""
echo "    $hot_hits/30 hot-tier hits, $reuse reused requests, p99 ${warm_p99}ms <= ${p99_budget}ms, graceful drain OK"
echo "    wrote results/SERVE_load.json"

echo "==> fault-sensitivity sweep smoke (CEDAR_SHRINK=16)"
CEDAR_SHRINK=16 cargo run --release --offline -p cedar-bench --bin faultsweep > /dev/null
test -s results/FAULTS_sensitivity.csv || {
    echo "error: faultsweep did not write results/FAULTS_sensitivity.csv" >&2
    exit 1
}
echo "    wrote results/FAULTS_sensitivity.csv"

# Invariant-oracle checker smoke: the four-case corpus under permuted
# tie-breaking. Exit 0 is the gate (any violation is a real bug or a
# real oracle miscalibration — both block); the violation report and
# the checker's own run manifest must exist, and the manifest must
# carry the oracle rollup so a green run is auditable.
echo "==> check-harness smoke (BENCH_SMOKE=1: 4 cases, all oracles)"
BENCH_SMOKE=1 BENCH_JSON_DIR="$scratch/check" ./target/release/check
for f in "$scratch/check/CHECK_violations.json" "$scratch/check/RUN_manifest.json"; do
    test -s "$f" || {
        echo "error: check did not write $f" >&2
        exit 1
    }
done
if ! grep -q '"check.oracles.pass":' "$scratch/check/RUN_manifest.json"; then
    echo "error: check manifest lacks the oracle rollup counters" >&2
    exit 1
fi
cp "$scratch/check/CHECK_violations.json" results/CHECK_violations.json
echo "    wrote results/CHECK_violations.json (0 violations)"

echo "==> OK"
