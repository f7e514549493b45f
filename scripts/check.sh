#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails fastest.
# Works offline — all third-party dependencies are vendored in vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release ==" >&2
cargo build --release --workspace

echo "== cargo test ==" >&2
cargo test -q --workspace --no-fail-fast

echo "== failure-injection conformance (3 seeds) ==" >&2
RCUDA_FAULT_SEEDS=3 cargo test -q --test failure_injection

echo "== chaos soak (3 seeds) ==" >&2
RCUDA_FAULT_SEEDS=3 cargo test -q --test server_soak

echo "== broker chaos soak (${RCUDA_BROKER_SEEDS:-3} seeds) ==" >&2
RCUDA_BROKER_SEEDS="${RCUDA_BROKER_SEEDS:-3}" cargo test -q --test broker_chaos

echo "== observed MM run + trace schema check ==" >&2
trace_out="target/check_observed_trace.json"
observed=$(cargo run -q --release --example observed_matmul "$trace_out")
grep -q "trace schema OK" <<<"$observed"
test -s "$trace_out" || { echo "observed_matmul wrote no trace" >&2; exit 1; }

echo "== rcbench selftest (its own package: the workspace build skips it) ==" >&2
cargo run --release --offline --quiet --manifest-path rcbench/Cargo.toml -- --selftest

echo "== memcpy data-plane bench smoke ==" >&2
BENCH_MEMCPY_OUT="$PWD/target/BENCH_memcpy.json" \
    cargo bench -q -p rcuda-bench --bench memcpy_path -- --test >/dev/null
python3 -c "import json; json.load(open('target/BENCH_memcpy.json'))" 2>/dev/null \
    || grep -q '"bench": "memcpy_path"' target/BENCH_memcpy.json
test -s target/BENCH_memcpy.json || { echo "memcpy bench wrote no artifact" >&2; exit 1; }

echo "== session-concurrency bench smoke ==" >&2
BENCH_CONCURRENCY_OUT="$PWD/target/BENCH_concurrency.json" \
    cargo bench -q -p rcuda-bench --bench concurrency -- --test >/dev/null
python3 -c "import json; json.load(open('target/BENCH_concurrency.json'))" 2>/dev/null \
    || grep -q '"bench": "concurrency"' target/BENCH_concurrency.json
test -s target/BENCH_concurrency.json || { echo "concurrency bench wrote no artifact" >&2; exit 1; }

echo "== workload suite bench smoke (fast mode) ==" >&2
RCUDA_WORKLOADS_FAST=1 BENCH_WORKLOADS_OUT="$PWD/target/BENCH_workloads.json" \
    cargo bench -q -p rcuda-bench --bench workloads -- --test >/dev/null
python3 -c "import json; json.load(open('target/BENCH_workloads.json'))" 2>/dev/null \
    || grep -q '"suite": "rcuda-workloads"' target/BENCH_workloads.json
test -s target/BENCH_workloads.json || { echo "workloads bench wrote no artifact" >&2; exit 1; }

echo "== multiplex HOL bench smoke ==" >&2
BENCH_MULTIPLEX_OUT="$PWD/target/BENCH_multiplex.json" \
    cargo bench -q -p rcuda-bench --bench multiplex -- --test >/dev/null
if command -v python3 >/dev/null; then
    python3 -c "
import json, sys
a = json.load(open('target/BENCH_multiplex.json'))
imp = a['improvement']
if imp < 5.0:
    sys.exit(f'mux small-call p99 improvement {imp:.1f}x < 5x acceptance floor')
"
else
    grep -q '"bench": "multiplex"' target/BENCH_multiplex.json
fi
test -s target/BENCH_multiplex.json || { echo "multiplex bench wrote no artifact" >&2; exit 1; }

echo "== broker bench smoke ==" >&2
BENCH_BROKER_OUT="$PWD/target/BENCH_broker.json" \
    cargo bench -q -p rcuda-bench --bench broker -- --test >/dev/null
python3 -c "import json; json.load(open('target/BENCH_broker.json'))" 2>/dev/null \
    || grep -q '"bench": "broker"' target/BENCH_broker.json
test -s target/BENCH_broker.json || { echo "broker bench wrote no artifact" >&2; exit 1; }

echo "== compression bench smoke ==" >&2
BENCH_COMPRESSION_OUT="$PWD/target/BENCH_compression.json" \
    cargo bench -q -p rcuda-bench --bench compression -- --test >/dev/null
if command -v python3 >/dev/null; then
    python3 -c "
import json, sys
a = json.load(open('target/BENCH_compression.json'))
g = a['gates']
if g['compressible_speedup'] < 1.5:
    sys.exit(f\"compressible speedup {g['compressible_speedup']:.2f}x < 1.5x acceptance floor\")
if g['incompressible_regression'] > 0.03:
    sys.exit(f\"incompressible regression {g['incompressible_regression']*100:.1f}% > 3% ceiling\")
"
else
    grep -q '"bench": "compression"' target/BENCH_compression.json
fi
test -s target/BENCH_compression.json || { echo "compression bench wrote no artifact" >&2; exit 1; }

echo "== cargo fmt --check ==" >&2
cargo fmt --all --check

echo "== cargo clippy -D warnings ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-obs -D warnings ==" >&2
cargo clippy -p rcuda-obs --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-server -D warnings ==" >&2
cargo clippy -p rcuda-server --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-proto -D warnings ==" >&2
cargo clippy -p rcuda-proto --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-transport -D warnings ==" >&2
cargo clippy -p rcuda-transport --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-workloads -D warnings ==" >&2
cargo clippy -p rcuda-workloads --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-broker -D warnings ==" >&2
cargo clippy -p rcuda-broker --all-targets -- -D warnings

echo "== cargo clippy -p lz4_flex -D warnings ==" >&2
cargo clippy -p lz4_flex --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-netsim -D warnings ==" >&2
cargo clippy -p rcuda-netsim --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-model -D warnings ==" >&2
cargo clippy -p rcuda-model --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-client -D warnings ==" >&2
cargo clippy -p rcuda-client --all-targets -- -D warnings

echo "== cargo clippy -p rcuda-bench -D warnings ==" >&2
cargo clippy -p rcuda-bench --all-targets -- -D warnings

echo "All checks passed." >&2
