package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
)

// oneTagGoldenConfig is mssim's default deployment: one tag 2 m from a
// receiver at the origin under 802.11n 2000/s, BLE 34/s and ZigBee 20/s
// for 10 s at seed 1.
func oneTagGoldenConfig(workers int) Config {
	wifi := wifiSource(2000)
	ble := excite.NewBLEAdvSource()
	ble.PacketRate = 34
	zig := excite.NewZigBeeSource()
	zig.PacketRate = 20
	return Config{
		Sources:   []excite.Source{wifi, ble, zig},
		Tags:      []TagSpec{{X: -2}},
		Receivers: []ReceiverSpec{{}},
		Span:      10 * time.Second,
		Seed:      1,
		Workers:   workers,
		Obs:       obs.NewRegistry(),
	}
}

// TestResultGolden pins the full fleet Result JSON — cache statistics
// included, which neither the trace goldens nor BENCH_*.json carry — for
// four deployments, at workers=1, workers=3, an oversubscribed pool and
// a shared pool of 2. Regenerate deliberately with
// `go test ./internal/fleet -run ResultGolden -update`.
func TestResultGolden(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		cfg  func(workers int) Config
	}{
		{"trace", traceGoldenConfig},
		{"phase", phaseGoldenConfig},
		{"onetag", oneTagGoldenConfig},
		{"wrap", wrapGoldenConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_result_"+tc.name+".json")
			encodeOn := func(workers int, pool *Pool) []byte {
				cfg := tc.cfg(workers)
				cfg.Pool = pool
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return append(raw, '\n')
			}
			encode := func(workers int) []byte { return encodeOn(workers, nil) }
			serial := encode(1)
			if *updateTrace {
				if err := os.WriteFile(path, serial, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, want) {
				t.Fatalf("workers=1 result drifted from %s", path)
			}
			if !bytes.Equal(encode(runtime.NumCPU()*2), want) {
				t.Fatalf("parallel result drifted from %s", path)
			}
			if !bytes.Equal(encode(3), want) {
				t.Fatalf("workers=3 result drifted from %s", path)
			}
			if !bytes.Equal(encodeOn(0, pool), want) {
				t.Fatalf("shared-pool result drifted from %s", path)
			}
		})
	}
}
