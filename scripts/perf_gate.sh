#!/bin/sh
# Perf gate: runs a short msperf suite (every workload, 3 seeds, 10 s
# each, untraced; a few minutes) and compares it with the newest
# committed perf/msperf_*.json record through `msperf -compare`.
#
#   sh scripts/perf_gate.sh        # or: make perf-gate
#
# Exit status:
#   0  no metric regressed beyond its BENCHMARK.json bound, or the
#      record was taken on other hardware (-compare's "fingerprints
#      differ" warning): its numbers are not comparable, so the gate
#      warns and passes. "unresolved" verdicts never fail the gate.
#   1  a metric regressed and the fingerprints match.
#   2  the suite or the comparison could not run.
#
# The newest record is the one in the latest commit that added or
# changed a perf/msperf_*.json. A perf change commits its parent's
# record (named after the parent's commit hash) next to its own, so on
# a tie a hash-named record loses to the other; the suite output stays
# in .bench_build/perf_gate.json.
#
# Opt-in: not part of `make check`, because it takes minutes and a
# noisy host can move its numbers.
set -eu
cd "$(dirname "$0")/.."

commit=$(git log -1 --format=%H --diff-filter=AM -- 'perf/msperf_*.json')
if [ -z "$commit" ]; then
    echo "perf-gate: no committed perf/msperf_*.json record" >&2
    exit 2
fi
records=$(git show --format= --name-only --diff-filter=AM "$commit" -- 'perf/msperf_*.json')
base=$(printf '%s\n' "$records" | grep -Ev '^perf/msperf_[0-9a-f]{7,40}\.json$' | tail -n 1 || true)
if [ -z "$base" ]; then
    base=$(printf '%s\n' "$records" | tail -n 1)
fi

out=.bench_build/perf_gate.json
echo "== perf-gate: suite -reps 3 -> $out"
bash cmd/msperf/bench.sh -reps 3 -out "$out" >/dev/null || exit 2

echo "== perf-gate: msperf -compare $base $out"
status=0
report=$(bash cmd/msperf/bench.sh -compare "$base" "$out") || status=$?
printf '%s\n' "$report"
case $status in
0) echo "perf-gate: ok" ;;
1)
    if printf '%s\n' "$report" | grep -q '^warning: fingerprints differ'; then
        echo "perf-gate: warning: regressions against a record from other hardware are not comparable; not failing"
        status=0
    else
        echo "perf-gate: FAIL: regressed beyond the BENCHMARK.json bound" >&2
    fi
    ;;
*) status=2 ;;
esac
exit $status
