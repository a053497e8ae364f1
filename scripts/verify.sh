#!/bin/sh
# Tier-1 verification gate. Everything here must pass before a change
# lands: formatting, vet, build, the full test suite under the race
# detector, the nested kcmdbench module's vet and tests, the static
# bytecode verifier over every example program and the whole benchmark
# suite, and a run of every example.
set -eu
cd "$(dirname "$0")/.."

# gotest runs go test with its arguments once every name in its -run
# and -fuzz patterns (split at '|') matches a Test, Fuzz or Benchmark
# func declared in the _test.go files of its packages. go test exits 0
# when a pattern matches nothing ("no tests to run"), so a gate whose
# test was renamed or deleted would otherwise stop running silently.
gotest() {
    pats='' pkgs='' prev=''
    for a in "$@"; do
        case $prev in -run | -fuzz) [ "$a" = '^$' ] || pats="$pats|$a" ;; esac
        case $a in . | ./*) pkgs="$pkgs $a" ;; esac
        prev=$a
    done
    funcs=$(for p in $pkgs; do cat "$p"/*_test.go; done |
        sed -n 's/^func \(\(Test\|Fuzz\|Benchmark\)[A-Za-z0-9_]*\)(.*/\1/p')
    set -f # the names are regular expressions, not file globs
    for name in $(echo "${pats#|}" | tr '|' ' '); do
        if ! echo "$funcs" | grep -Eq -- "$name"; then
            echo "FAIL: no test func in$pkgs matches $name; go test would skip it without a word" >&2
            exit 1
        fi
    done
    set +f
    go test "$@"
}

echo '== gofmt'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo '== go vet'
go vet ./...

echo '== go build'
go build ./...

echo '== go test -race'
go test -race ./...

echo '== kcmdbench (a nested module the root ./... skips: it must build, vet and pass its tests against this tree)'
(cd kcmdbench && go vet . && go test -count=1 .)

echo '== engine pool race tests (plain, traced sessions beside pooled queries, tenant churn across tail compactions)'
gotest -race -run 'TestPoolRace|TestPoolTraceRace|TestTenantCompactionRace' ./internal/engine/

echo '== stream writer and stream race tests (enumerator and writer goroutines share the line channel and the cancel func)'
gotest -race -count=5 -run 'TestStream' ./internal/server/

echo '== session lifecycle (next, cancel, eviction, suspend and drain race to end one parked session; each ending is typed and strands no machine)'
gotest -race -count=2 -run 'TestEvictSuspendCancelRace|TestConcurrentNextAndCancel|TestNextCancelSameSession|TestDoneReasonsTyped|TestDrainClosesParkedSessions|TestSuspendWriteFailureLeavesNoHandle|TestDrainReportsParkFailure' ./internal/server/

echo '== differential gates (assert-built == statically-compiled, incl. warm counters; served goal block == whole image, incl. cold and warm counters)'
gotest -count=1 -run 'TestDynamicDifferential|TestServingDifferential' . ./internal/machine/ ./internal/server/

echo '== dyndb fuzz smoke (assert/retract vs model, malformed-clause rejection; every solve leases through engine.Pool)'
gotest -count=1 -run '^$' -fuzz 'FuzzAssertRetract' -fuzztime 5s ./internal/dyndb/
gotest -count=1 -run '^$' -fuzz 'FuzzMalformedClause' -fuzztime 5s ./internal/dyndb/

echo '== snapshot round-trip gate (suspend/resume byte-identity, in-process, across tail compaction and across restart; the committed parked blob and the config fingerprint must not drift, so blobs older daemons parked still resume; the blob codec carries every counter and rejects every corruption typed)'
gotest -count=1 -run 'TestSuspendResumeByteIdentical|TestTenantSuspendAcrossCompaction|TestParkedBlobGolden|TestResumeRefusesPhaseMismatch' ./internal/engine/
gotest -count=1 -run 'TestConfigFingerprintPinned|TestBlobCarriesEveryCounter|TestDecodeRefusesPhaseMismatch|TestRoundTrip|TestTruncationSweep|TestBitFlips|TestVersionSkew|TestMalformed|TestValidateRejectsInsaneSections' ./internal/machine/
gotest -count=1 -run 'TestSuspendResumeAcrossRestart|TestDrainParksSessionsToDisk' ./internal/server/

echo '== snapshot blob fuzz smoke (mutated blobs must fail typed, never panic, never corrupt)'
gotest -count=1 -run '^$' -fuzz 'FuzzRestoreBlob' -fuzztime 5s ./internal/machine/

echo '== cycle-count pin (kcmbench counters, every other machine.Result counter and every paper table must not drift; EXPERIMENTS.md quotes the tables verbatim; the golden traces pin the execution order of the first 200 events)'
gotest -run 'TestCyclePin|TestCounterPin|TestTablesGolden|TestExperimentsExcerpts' ./internal/bench/
gotest -count=1 -run 'TestGoldenTrace|TestGoldenSeqContiguous' ./internal/trace/

echo '== probe inlining (rd and wr must inline to one call of the data-access probe)'
inl=$(go build -gcflags=-m ./internal/machine 2>&1)
for f in rd wr; do
    if ! echo "$inl" | grep -q "can inline (\*Machine)\.$f\$"; then
        echo "FAIL: (*Machine).$f no longer inlines; every simulated access would pay a second call" >&2
        exit 1
    fi
done

echo '== gc stress (benchmarks in tiny heaps, several collections, under -race)'
gotest -race -run 'TestGCStress' ./internal/bench/

echo '== coverage floors (scripts/coverage_floors.txt)'
covprofile=$(mktemp)
trap 'rm -f "$covprofile"' EXIT
covpkgs=$(grep -v '^#' scripts/coverage_floors.txt | awk 'NF {printf "%s%s", sep, "./" substr($1, index($1, "/") + 1); sep=","}')
go test -count=1 "-coverpkg=$covpkgs" "-coverprofile=$covprofile" ./... > /dev/null
# The profile concatenates one block list per test binary; a block is
# covered if any binary hit it, so dedupe by block key before summing.
awk 'NR > 1 {
    key = $1; stmts[key] = $2
    if ($3 > 0) hit[key] = 1
}
END {
    for (k in stmts) {
        pkg = k
        sub(/:.*/, "", pkg)
        sub(/\/[^\/]*\.go$/, "", pkg)
        tot[pkg] += stmts[k]
        if (hit[k]) cov[pkg] += stmts[k]
    }
    while ((getline line < "scripts/coverage_floors.txt") > 0) {
        if (line ~ /^#/ || line !~ /[^ ]/) continue
        split(line, f, " ")
        pct = (tot[f[1]] > 0) ? 100 * cov[f[1]] / tot[f[1]] : 0
        printf "%-28s %5.1f%% (floor %s%%)\n", f[1], pct, f[2]
        if (pct < f[2] + 0) {
            print "FAIL: " f[1] " coverage " pct "% below floor " f[2] "%" > "/dev/stderr"
            bad = 1
        }
    }
    exit bad
}' "$covprofile"

echo '== kcmd smoke (ephemeral port: query + stream + cancel + tenant + suspend/resume across restart, clean drain)'
go run ./cmd/kcmd -smoke

echo '== kcmvet (strict: analyzer warnings are errors)'
go run ./cmd/kcmvet -strict -bench examples/*/main.go

echo '== examples (each must run to completion and exit 0)'
for e in examples/*/; do go run "./$e" > /dev/null; done

echo '== kcmlint (host-source lint: sentinel errors, hot-loop allocs, Kind switches, handler discipline)'
go run ./cmd/kcmlint .

echo '== host-bench smoke (warm nrev, zebra and the miss-heavy nrev300, each must run allocation-free)'
out=$(go test -run '^$' -bench '^BenchmarkHost(Nrev|Zebra|Nrev300)$' -benchtime 1x -benchmem .)
echo "$out"
echo "$out" | awk '
/^BenchmarkHost(Nrev|Zebra|Nrev300)(-[0-9]+)?[ \t]/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    seen[name] = 1
    for (i = 1; i < NF; i++) {
        if ($(i + 1) == "allocs/op" && $i + 0 != 0) {
            print "FAIL: " $i " allocs/op on " name ", want 0" > "/dev/stderr"
            exit 1
        }
    }
}
END {
    split("BenchmarkHostNrev BenchmarkHostZebra BenchmarkHostNrev300", want, " ")
    for (i in want) if (!(want[i] in seen)) { print "FAIL: " want[i] " did not run" > "/dev/stderr"; exit 1 }
}
'

echo 'verify: all gates passed'
