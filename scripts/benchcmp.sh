#!/bin/sh
# Compare two BENCH_*.json files written by scripts/hostbench.sh:
#
#   scripts/benchcmp.sh BENCH_1.json BENCH_2.json
#
# Prints per-benchmark old/new ns per run, the speedup factor, and the
# allocation counts. A file whose "baseline" block should serve as the
# old side can be compared against itself:
#
#   scripts/benchcmp.sh -baseline BENCH_2.json
#
# Plain sh + awk; no jq in the image.
set -eu

if [ "${1:-}" = "-baseline" ]; then
    [ $# -eq 2 ] || { echo "usage: $0 -baseline BENCH_n.json" >&2; exit 2; }
    old=$2 oldblock=baseline
    new=$2 newblock=benchmarks
else
    [ $# -eq 2 ] || { echo "usage: $0 OLD.json NEW.json" >&2; exit 2; }
    old=$1 oldblock=benchmarks
    new=$2 newblock=benchmarks
fi

# extract FILE BLOCK: prints "name ns allocs" per benchmark of BLOCK.
extract() {
    awk -v want="\"$2\": {" '
    index($0, want) && !done { inb = 1; next }
    inb && /^  \}/           { inb = 0; done = 1 }
    inb {
        line = $0
        # Sub-benchmark names carry "/" and "=" (TenantChurn/history=0).
        if (match(line, /"[A-Za-z0-9_\/=-]+": \{/)) {
            name = substr(line, RSTART + 1, RLENGTH - 5)
            ns = allocs = "?"
            if (match(line, /"ns_op": [0-9]+/))     ns     = substr(line, RSTART + 9, RLENGTH - 9)
            if (match(line, /"allocs_op": [0-9]+/)) allocs = substr(line, RSTART + 13, RLENGTH - 13)
            print name, ns, allocs
        }
    }' "$1"
}

tmpo=$(mktemp) tmpn=$(mktemp)
trap 'rm -f "$tmpo" "$tmpn"' EXIT
extract "$old" "$oldblock" > "$tmpo"
extract "$new" "$newblock" > "$tmpn"

awk -v oldf="$tmpo" -v newf="$tmpn" '
BEGIN {
    while ((getline line < oldf) > 0) {
        split(line, f, " "); ons[f[1]] = f[2]; oal[f[1]] = f[3]
    }
    printf "%-36s %12s %12s %9s %10s %10s\n",
        "benchmark", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs"
    while ((getline line < newf) > 0) {
        split(line, f, " ")
        b = f[1]; nns = f[2]; nal = f[3]
        if (b in ons && ons[b] + 0 > 0) {
            printf "%-36s %12d %12d %8.2fx %10d %10d\n",
                b, ons[b], nns, ons[b] / nns, oal[b], nal
        } else {
            printf "%-36s %12s %12d %9s %10s %10d\n", b, "-", nns, "-", "-", nal
        }
    }
}'
