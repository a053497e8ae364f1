#!/bin/sh
# Host-benchmark recorder: runs the BenchmarkHost* suite (host
# wall-clock cost of the simulator, as opposed to the simulated
# numbers in the kcmbench tables) and records the best-of-N results
# in BENCH_<n>.json.
#
#   scripts/hostbench.sh [n]        # writes BENCH_<n>.json (default n=0)
#
# Environment:
#   HOSTBENCH_COUNT     repetitions per benchmark; the minimum is kept
#                       (default 5 — the host is shared, single runs
#                       are noisy)
#   HOSTBENCH_TIME      go -benchtime per repetition (default 1s)
#   HOSTBENCH_BASELINE  path to a previously generated BENCH_*.json;
#                       its benchmark block is embedded as "baseline"
#                       so the file carries its own comparison point
set -eu
cd "$(dirname "$0")/.."

n=${1:-0}
count=${HOSTBENCH_COUNT:-5}
btime=${HOSTBENCH_TIME:-1s}
out="BENCH_${n}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench '^BenchmarkHost' -benchmem -benchtime "$btime" -count "$count" . | tee "$raw"
# The pool benchmark again at explicit parallelism levels: entries keep
# their -cpu suffix (PoolNrev-4, PoolNrev-8) so the file records the
# scaling curve. On a single-core host the curve is flat; host_cpus
# below says which case this file is.
go test -run '^$' -bench '^BenchmarkHostPoolNrev$' -benchmem -benchtime "$btime" -count "$count" -cpu 1,4,8 . | tee -a "$raw"

{
    printf '{\n'
    printf '  "bench_id": "%s",\n' "$n"
    printf '  "host_cpus": %s,\n' "$(nproc)"
    printf '  "note": "PoolNrev-N records warm-pool query throughput at GOMAXPROCS=N; scaling is bounded by host_cpus (flat when host_cpus=1)",\n'
    printf '  "protocol": "min of %s runs x %s, warm machine (see hostbench_test.go)",\n' "$count" "$btime"
    printf '  "benchmarks": {\n'
    awk '
    /^BenchmarkHost/ {
        name = $1
        sub(/^BenchmarkHost/, "", name)
        # Pool benchmarks keep their -cpu suffix: the scaling across
        # parallelism levels is the datum.
        if (name !~ /^Pool/) sub(/-[0-9]+$/, "", name)
        delete v
        for (i = 3; i < NF; i += 2) v[$(i + 1)] = $i
        if (!(name in ns)) { order[++m] = name }
        if (!(name in ns) || v["ns/op"] + 0 < ns[name] + 0) {
            ns[name]     = v["ns/op"] + 0
            bytes[name]  = v["B/op"] + 0
            allocs[name] = v["allocs/op"] + 0
            klips[name]  = v["simulated-Klips"] + 0
            mips[name]   = v["host-Mips"] + 0
        }
    }
    END {
        for (i = 1; i <= m; i++) {
            b = order[i]
            printf "    \"%s\": {\"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d, \"simulated_klips\": %.1f, \"host_mips\": %.1f}%s\n",
                b, ns[b], bytes[b], allocs[b], klips[b], mips[b], (i < m) ? "," : ""
        }
    }' "$raw"
    printf '  }'
    if [ -n "${HOSTBENCH_BASELINE:-}" ] && [ -f "${HOSTBENCH_BASELINE}" ]; then
        printf ',\n  "baseline": {\n'
        # Copy the benchmark block of the baseline file (one line per
        # benchmark in the format written above).
        awk '
        /"benchmarks": \{/ { inb = 1; next }
        inb && /^  \}/     { inb = 0 }
        inb                { print }
        ' "${HOSTBENCH_BASELINE}"
        printf '  }\n'
    else
        printf '\n'
    fi
    printf '}\n'
} > "$out"

echo "wrote $out"
