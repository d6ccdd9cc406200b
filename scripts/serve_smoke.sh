#!/bin/sh
# End-to-end smoke test for the fleet service: build msserve, msfleet and
# msload with the race detector, start the server on an ephemeral port,
# drive it with msload, and assert that every job result is byte-identical
# to a standalone msfleet run with the same (seed, config). A repeat of the
# first job must then be served from the stored result, byte-identical
# too. Finishes by checking graceful SIGTERM drain (exit 0).
#
# Knobs (env): MS_SMOKE_JOBS (default 6), MS_SMOKE_SEED (default 7).
# MS_SMOKE_ARTIFACTS, when set to a directory, receives a telemetry
# snapshot (prom.txt, healthz.json, spans.json, spans-chrome.json: the
# Prometheus exposition, the structured health and job-1's span
# timeline as JSON and as a Perfetto-loadable Chrome trace) captured
# from the live server — CI uploads it as a build artifact.
set -eu
cd "$(dirname "$0")/.."

JOBS="${MS_SMOKE_JOBS:-6}"
SEED="${MS_SMOKE_SEED:-7}"
SCENARIO=home
TAGS=8
FLOOR=12x18
SPAN=2s

WORK="$(mktemp -d "${TMPDIR:-/tmp}/msserve-smoke.XXXXXX")"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build (race) msserve msfleet msload"
go build -race -o "$WORK" ./cmd/msserve ./cmd/msfleet ./cmd/msload

echo "== golden msfleet runs (seeds $SEED..$((SEED + JOBS - 1)))"
i=0
while [ "$i" -lt "$JOBS" ]; do
    s=$((SEED + i))
    "$WORK/msfleet" -scenario "$SCENARIO" -tags "$TAGS" -floor "$FLOOR" \
        -span "$SPAN" -seed "$s" -json "$WORK/golden-seed$s.json" > /dev/null
    i=$((i + 1))
done

echo "== start msserve on an ephemeral port"
"$WORK/msserve" -addr 127.0.0.1:0 -addr-file "$WORK/addr" -pool 2 &
SRV_PID=$!
i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve_smoke: msserve never published its address" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR="$(cat "$WORK/addr")"
echo "   msserve at $ADDR"

echo "== msload: $JOBS concurrent jobs"
"$WORK/msload" -server "$ADDR" -jobs "$JOBS" -concurrency "$JOBS" \
    -scenario "$SCENARIO" -tags "$TAGS" -floor "$FLOOR" -span "$SPAN" \
    -seed "$SEED" -out "$WORK/out"

echo "== byte-identical check: service results vs msfleet -json"
i=0
while [ "$i" -lt "$JOBS" ]; do
    s=$((SEED + i))
    cmp "$WORK/golden-seed$s.json" "$WORK/out/job-seed$s.json"
    i=$((i + 1))
done
echo "   $JOBS/$JOBS results byte-identical"

echo "== API surface"
curl -sf "http://$ADDR/healthz" > /dev/null
curl -sf "http://$ADDR/jobs" > /dev/null
curl -sf "http://$ADDR/metrics" > /dev/null
curl -sf "http://$ADDR/metrics/jobs" > /dev/null
curl -sf "http://$ADDR/obs/metrics" > /dev/null

echo "== telemetry snapshot (prom, healthz, spans as JSON and Chrome trace)"
curl -sf "http://$ADDR/metrics/prom" > "$WORK/prom.txt"
curl -sf "http://$ADDR/healthz" > "$WORK/healthz.json"
curl -sf "http://$ADDR/jobs/job-1/spans" > "$WORK/spans.json"
curl -sf "http://$ADDR/jobs/job-1/spans?format=chrome" > "$WORK/spans-chrome.json"
grep -q "^serve_jobs_done_total $JOBS\$" "$WORK/prom.txt"
grep -q "serve_latency_e2e_ms_bucket" "$WORK/prom.txt"
grep -q "runtime_goroutines" "$WORK/prom.txt"
grep -q '"status": "ok"' "$WORK/healthz.json"
grep -q '"jobs_done": '"$JOBS" "$WORK/healthz.json"
grep -q '"name": "job"' "$WORK/spans.json"
grep -q '"state": "done"' "$WORK/spans.json"
grep -q '"traceEvents"' "$WORK/spans-chrome.json"
grep -q '"displayTimeUnit"' "$WORK/spans-chrome.json"
# Metric history is Prometheus's job (it scrapes /metrics/prom); the
# server keeps none of its own.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/metrics/history")
if [ "$code" != 404 ]; then
    echo "serve_smoke: /metrics/history answered $code (want 404)" >&2
    exit 1
fi

echo "== result reuse: resubmit seed $SEED, served from the stored result"
"$WORK/msload" -server "$ADDR" -jobs 1 -concurrency 1 \
    -scenario "$SCENARIO" -tags "$TAGS" -floor "$FLOOR" -span "$SPAN" \
    -seed "$SEED" -out "$WORK/again"
cmp "$WORK/golden-seed$SEED.json" "$WORK/again/job-seed$SEED.json"
curl -sf "http://$ADDR/metrics/prom" > "$WORK/prom-reuse.txt"
grep -q "^serve_jobs_reused_total 1\$" "$WORK/prom-reuse.txt"
echo "   reused result byte-identical"
if [ -n "${MS_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$MS_SMOKE_ARTIFACTS"
    cp "$WORK/prom.txt" "$WORK/healthz.json" "$WORK/spans.json" \
        "$WORK/spans-chrome.json" "$MS_SMOKE_ARTIFACTS/"
    echo "   telemetry snapshot copied to $MS_SMOKE_ARTIFACTS"
fi

echo "== graceful drain on SIGTERM"
kill -TERM "$SRV_PID"
rc=0
wait "$SRV_PID" || rc=$?
SRV_PID=""
if [ "$rc" -ne 0 ]; then
    echo "serve_smoke: msserve exited $rc on SIGTERM (want 0)" >&2
    exit 1
fi
echo "serve smoke OK"
