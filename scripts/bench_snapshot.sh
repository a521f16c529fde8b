#!/usr/bin/env bash
# Regenerates the committed wall-clock baselines: BENCH_ingest.json for
# the ingest path (parallel transform drivers + in-domain maintenance),
# BENCH_serve.json for the concurrent query server (the exp_serve
# workers × clients sweep, as ss-exp-v1 JSONL rows), BENCH_update.json
# for the coalesced maintenance engine (the exp_update batch × box-size ×
# form sweep, same row format), BENCH_rw.json for the live read/write
# server (the exp_rw readers × writers sweep over the MVCC snapshot
# store, same row format), BENCH_trace.json for the tracing layer
# (the exp_trace off/ring/export overhead sweep, same row format) and
# BENCH_sparse.json for the sparse v3 storage layout (the exp_sparse
# retention-policy sweep: bytes on disk and query behaviour versus
# reconstruction error, same row format), BENCH_simd.json for the
# hot-kernel layer (the exp_simd kernel-vs-naive sweep run under both
# the scalar and, when a nightly toolchain is present, SIMD builds) and
# BENCH_shard.json for the scatter-gather router (the exp_shard shards ×
# replicas × clients sweep against real shard servers, same row format)
# and BENCH_pool.json for the buffer pool's per-access cost (the exp_pool
# hit/miss × frames sweep, same row format; the run fails unless the miss
# cost is flat in the budget).
#
# The criterion-shim prints one `group/name   <ns> ns/iter` line per
# benchmark; this script captures those into a small JSON document.
# Numbers are host-dependent single measurements: treat the committed
# baselines as an order-of-magnitude reference when reading experiment
# results, not as a CI regression gate.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_ingest.json}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cargo bench -p ss-bench --bench par --bench maintenance | tee "$log"

python3 - "$log" "$out" <<'PY'
import json
import sys

log, out = sys.argv[1], sys.argv[2]
benches = {}
with open(log) as f:
    for line in f:
        parts = line.split()
        if len(parts) >= 3 and parts[2].startswith("ns/iter"):
            benches[parts[0]] = {"ns_per_iter": float(parts[1])}
if not benches:
    sys.exit("no benchmark lines found in the cargo bench output")
with open(out, "w") as f:
    json.dump({"schema": "ss-bench-v1", "benches": benches}, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(benches)} benches)")
PY

serve_out="${2:-BENCH_serve.json}"
rm -f "$serve_out.tmp"
SS_EXP_JSON="$serve_out.tmp" cargo run --release -q -p ss-bench --bin exp_serve
./scripts/check_metrics_schema rows "$serve_out.tmp"
mv "$serve_out.tmp" "$serve_out"
echo "wrote $serve_out"

update_out="${3:-BENCH_update.json}"
rm -f "$update_out.tmp"
SS_EXP_JSON="$update_out.tmp" cargo run --release -q -p ss-bench --bin exp_update
./scripts/check_metrics_schema rows "$update_out.tmp"
mv "$update_out.tmp" "$update_out"
echo "wrote $update_out"

rw_out="${4:-BENCH_rw.json}"
rm -f "$rw_out.tmp"
SS_EXP_JSON="$rw_out.tmp" cargo run --release -q -p ss-bench --bin exp_rw
./scripts/check_metrics_schema rows "$rw_out.tmp"
mv "$rw_out.tmp" "$rw_out"
echo "wrote $rw_out"

trace_out="${5:-BENCH_trace.json}"
rm -f "$trace_out.tmp"
SS_EXP_JSON="$trace_out.tmp" cargo run --release -q -p ss-bench --bin exp_trace
./scripts/check_metrics_schema rows "$trace_out.tmp"
mv "$trace_out.tmp" "$trace_out"
echo "wrote $trace_out"

sparse_out="${6:-BENCH_sparse.json}"
rm -f "$sparse_out.tmp"
SS_EXP_JSON="$sparse_out.tmp" cargo run --release -q -p ss-bench --bin exp_sparse
./scripts/check_metrics_schema rows "$sparse_out.tmp"
mv "$sparse_out.tmp" "$sparse_out"
echo "wrote $sparse_out"

# BENCH_simd.json needs both kernel builds appended to one file: the
# scalar rows from the stable toolchain, the vector rows from nightly
# (portable_simd). If no nightly toolchain is installed, the scalar rows
# alone are still a valid (if boring) dataset — warn and keep them.
simd_out="${7:-BENCH_simd.json}"
rm -f "$simd_out.tmp"
SS_EXP_JSON="$simd_out.tmp" cargo run --release -q -p ss-bench --bin exp_simd
if cargo +nightly --version >/dev/null 2>&1; then
    SS_EXP_JSON="$simd_out.tmp" cargo +nightly run --release -q -p ss-bench \
        --bin exp_simd --features simd
else
    echo "warning: no nightly toolchain; $simd_out has scalar rows only" >&2
fi
./scripts/check_metrics_schema rows "$simd_out.tmp"
mv "$simd_out.tmp" "$simd_out"
echo "wrote $simd_out"

shard_out="${8:-BENCH_shard.json}"
rm -f "$shard_out.tmp"
SS_EXP_JSON="$shard_out.tmp" cargo run --release -q -p ss-bench --bin exp_shard
./scripts/check_metrics_schema rows "$shard_out.tmp"
mv "$shard_out.tmp" "$shard_out"
echo "wrote $shard_out"

pool_out="${9:-BENCH_pool.json}"
rm -f "$pool_out.tmp"
SS_EXP_JSON="$pool_out.tmp" cargo run --release -q -p ss-bench --bin exp_pool
./scripts/check_metrics_schema rows "$pool_out.tmp"
mv "$pool_out.tmp" "$pool_out"
echo "wrote $pool_out"
