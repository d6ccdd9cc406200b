# multiscatter — build/verify entry points.
#
#   make check          build + vet + race-enabled tests + msperf-test + replay-diff + bench-compare
#   make test           plain test run (what CI tier-1 executes)
#   make msperf-test    tests of the benchmark module (cmd/msperf, its own go.mod)
#   make replay-diff    golden-trace determinism gate (serial vs parallel fleet)
#   make bench          fleet benchmarks at workers=1 and workers=NumCPU
#   make bench-compare  msbench metrics vs committed BENCH_<date>.json baseline
#   make profile        CPU+heap profile of BenchmarkFleet1000Tags, top-10 flat
#   make obs-demo       short fleet run with the -obs endpoint up, scraped with curl
#   make trace-demo     seeded fleet run exporting a Perfetto-loadable trace
#   make serve-demo     msserve + msload end-to-end byte-identical smoke (scripts/serve_smoke.sh)
#   make serve-smoke    alias for serve-demo
#   make fig15-demo     three-system occlusion comparison incl. Double-decker
#   make fig16-demo     concurrent multi-tag OFDM curve (joint decode vs capture)
#   make docs-check     dead intra-repo link check over the markdown docs

GO ?= go

.PHONY: all build vet test race msperf-test check replay-diff bench bench-compare profile obs-demo trace-demo serve-demo serve-smoke fig15-demo fig16-demo docs-check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cmd/msperf is a nested module, so the root ./... pattern skips it.
msperf-test:
	cd cmd/msperf && $(GO) test ./...

# Replays the canonical shadowing-enabled deployment and diffs it against
# the committed golden trace (internal/replay/testdata). Fails on any
# drift, including serial-vs-parallel divergence. Regenerate deliberately
# with `go test ./internal/replay -run Golden -update`.
replay-diff:
	$(GO) test -run TestGoldenTrace -count=1 ./internal/replay

check: build vet race msperf-test replay-diff bench-compare

bench:
	$(GO) test -run - -bench 'BenchmarkFleet' -benchtime 1x -benchmem ./

# Regenerates msbench metrics and diffs them against the latest committed
# BENCH_<date>.json; fails on >15% drops in gated (kbps/accuracy) metrics.
# The simulator is deterministic, so the expected diff is empty. Skip in
# check.sh with MS_SKIP_BENCH=1. Regenerate the baseline deliberately with
# `go run ./cmd/msbench -json BENCH_$$(date +%F).json`.
bench-compare:
	sh scripts/bench_compare.sh

# Profiles the 1000-tag fleet benchmark and prints the top-10 flat CPU
# and heap consumers. Profiles land in /tmp for deeper digging with
# `go tool pprof /tmp/fleet-cpu.prof`; see docs/OBSERVABILITY.md.
profile:
	$(GO) test -run - -bench 'BenchmarkFleet1000Tags' -benchtime 3x -benchmem \
		-cpuprofile /tmp/fleet-cpu.prof -memprofile /tmp/fleet-mem.prof ./
	@echo "-- top-10 flat CPU --"
	$(GO) tool pprof -top -nodecount=10 /tmp/fleet-cpu.prof
	@echo "-- top-10 flat heap (alloc_space) --"
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space /tmp/fleet-mem.prof

# Runs a short fleet with the observability endpoint up, scrapes it, and
# lets the run finish: a smoke test for -obs and a copy-paste example.
obs-demo:
	$(GO) build -o /tmp/msfleet-obs-demo ./cmd/msfleet
	/tmp/msfleet-obs-demo -tags 30 -floor 12x12 -receivers 4 -span 5s -obs 127.0.0.1:6060 -obs-hold 4s & \
	sleep 2.5; \
	echo "-- curl /metrics --"; \
	curl -s http://127.0.0.1:6060/metrics | head -40; \
	echo "-- curl /debug/pprof/ --"; \
	curl -s -o /dev/null -w "pprof index: %{http_code}\n" http://127.0.0.1:6060/debug/pprof/; \
	wait

# Starts msserve on an ephemeral port (race-built), drives it with
# msload, and cmp-checks every job result against an msfleet -json run
# with the same seed — the service reproducibility contract end to end,
# plus a graceful SIGTERM drain check. See docs/SERVICE.md.
serve-demo:
	sh scripts/serve_smoke.sh

serve-smoke: serve-demo

# Prints the Figure 15 three-system comparison: multiscatter and the
# dual-receiver baselines behind drywall, plus the Double-decker
# single-receiver curve across wall materials and its waveform-level
# superposition-decode BER. Deterministic for a fixed seed.
fig15-demo:
	$(GO) run ./cmd/msbench -experiment fig15

# Fails on dead intra-repo links in the markdown docs (docs/*.md,
# README.md, ROADMAP.md, EXPERIMENTS.md).
docs-check:
	sh scripts/docs_check.sh

# Prints the fig16 concurrency curve: n co-located 802.11n tags decoded
# jointly via subcarrier groups vs single-winner capture, plus the
# waveform-level joint-decode BER sweep. Deterministic for a fixed seed.
fig16-demo:
	$(GO) run ./cmd/msbench -experiment fig16

# Produces a Perfetto-loadable flight-recorder trace from a seeded fleet
# run: load /tmp/msfleet-trace.json at https://ui.perfetto.dev (or
# chrome://tracing) to browse per-packet lifecycles grouped by shard and
# tag. Identical seeds reproduce the trace byte-for-byte.
trace-demo:
	$(GO) build -o /tmp/msfleet-trace-demo ./cmd/msfleet
	/tmp/msfleet-trace-demo -tags 30 -floor 12x12 -receivers 4 -span 2s -seed 7 \
		-trace /tmp/msfleet-trace.json -trace-format chrome -trace-sample 10 > /dev/null
	@echo "trace written to /tmp/msfleet-trace.json — open https://ui.perfetto.dev and load it"
