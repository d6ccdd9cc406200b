#!/bin/sh
# Full verification gate: build, vet, race-enabled tests, the benchmark
# module's own tests, golden replay diff, every fuzz target for 3 s, and
# the msserve end-to-end smoke (race-built server, byte-identical results,
# graceful drain). Mirrors `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test -race ./..."
go test -race ./...
echo "== msperf module tests (cmd/msperf is its own module)"
(cd cmd/msperf && go test ./...)
echo "== replay-diff (golden trace, serial vs parallel)"
go test -run TestGoldenTrace -count=1 ./internal/replay
echo "== fig15-demo (three-system occlusion comparison incl. Double-decker)"
go run ./cmd/msbench -experiment fig15
echo "== fig16-demo (concurrent multi-tag OFDM curve)"
go run ./cmd/msbench -experiment fig16
echo "== docs-check (dead intra-repo links)"
sh scripts/docs_check.sh
echo "== fuzz (every fuzz target, 3s each)"
sh scripts/fuzz.sh
echo "== serve smoke (msserve + msload byte-identical, race-built)"
sh scripts/serve_smoke.sh
if [ "${MS_SKIP_BENCH:-}" = "1" ]; then
    echo "== bench-compare (skipped: MS_SKIP_BENCH=1)"
else
    echo "== bench-compare (msbench metrics vs committed baseline)"
    sh scripts/bench_compare.sh
fi
echo "OK"
