package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerEndpoints exercises every route the -obs server exposes,
// including the ?counters=1 deterministic subset.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pkts").Add(7)
	reg.Gauge("level").Set(2.5)
	reg.Stage("phase").Observe(3 * time.Millisecond)

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	var full Snapshot
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if full.Counters["pkts"] != 7 || full.Gauges["level"] != 2.5 {
		t.Fatalf("/metrics content: %+v", full)
	}
	if st := full.Stages["phase"]; st.Count != 1 || st.MinNS != st.MaxNS {
		t.Fatalf("/metrics stage (min must equal max after one observation): %+v", st)
	}

	code, body = get("/metrics?counters=1")
	if code != http.StatusOK {
		t.Fatalf("/metrics?counters=1: %d", code)
	}
	var counters Snapshot
	if err := json.Unmarshal([]byte(body), &counters); err != nil {
		t.Fatalf("?counters=1 not JSON: %v", err)
	}
	if counters.Counters["pkts"] != 7 || len(counters.Gauges) != 0 || len(counters.Stages) != 0 {
		t.Fatalf("?counters=1 must strip everything but counters: %+v", counters)
	}

	code, body = get("/metrics.md")
	if code != http.StatusOK || !strings.Contains(body, "| pkts | 7 |") {
		t.Fatalf("/metrics.md: %d\n%s", code, body)
	}
	if !strings.Contains(body, "| stage | count | total | mean | min | max |") {
		t.Fatalf("/metrics.md stage table missing min column:\n%s", body)
	}

	if code, body = get("/"); code != http.StatusOK || !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index: %d\n%s", code, body)
	}
	if code, _ = get("/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", code)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ = get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

// TestServeShutdown pins the Serve contract the obsflag stop path relies
// on: Shutdown drains gracefully and the port is released.
func TestServeShutdown(t *testing.T) {
	reg := NewRegistry()
	srv, addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}
