#!/bin/sh
# Full verification gate: build, vet, gofmt, race-enabled tests, the
# benchmark module's own vet and tests, golden replay diff, the fig15/fig16
# demos, the docs link check, every fuzz target for 3 s, the msserve
# end-to-end smoke (race-built server, byte-identical results, graceful
# drain) and the msbench metrics diff against the committed baseline.
# `make check` and CI run this script.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== gofmt -l (every tracked Go file)"
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
	echo "gofmt: not formatted:"
	echo "$unformatted"
	exit 1
fi
echo "== go test -race ./..."
go test -race ./...
echo "== msperf module vet + tests (cmd/msperf is its own module)"
(cd cmd/msperf && go vet ./...)
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
echo "== bench-compare (msbench metrics vs committed baseline)"
sh scripts/bench_compare.sh
echo "OK"
