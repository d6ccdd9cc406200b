package benchdiff

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzBenchdiffLoad feeds arbitrary bytes to Load through a file, seeded
// with the committed BENCH_2026-08-08.json. Load must never panic, and a
// document it accepts must compare clean against itself: no deltas, no
// missing or added metrics, OK, and Format's "identical" line.
func FuzzBenchdiffLoad(f *testing.F) {
	bench, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCH_2026-08-08.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bench)
	f.Add([]byte(`{"trials":1,"seed":-2,"metrics":{"e":null,"f":{}}}`))
	f.Add([]byte(`{"metrics":{"e":{"m":1e308,"n":-0}}}`))
	// One file per fuzzing process: a process runs its inputs one at a
	// time.
	path := filepath.Join(f.TempDir(), "BENCH.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Load(path)
		if err != nil {
			return
		}
		r := Compare(d, d, 0)
		if len(r.Deltas) != 0 || len(r.Missing) != 0 || len(r.Added) != 0 || !r.OK() {
			t.Fatalf("document differs from itself: %+v", r)
		}
		if got, want := r.Format(), "bench-compare: metrics identical to baseline\n"; got != want {
			t.Fatalf("Format of a self-compare = %q, want %q", got, want)
		}
	})
}
