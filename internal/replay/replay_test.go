package replay

import (
	"bytes"
	"flag"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
)

var update = flag.Bool("update", false, "regenerate the golden replay trace")

const goldenPath = "testdata/golden_seed1.journal"

// TestGoldenTrace is the replay-diff regression gate: the canonical
// shadowing-enabled deployment at seed 1 must reproduce the committed
// golden journal byte-for-byte, at one worker and at a full pool.
// Regenerate deliberately with `go test ./internal/replay -run Golden
// -update` after an intentional model change, and say why in the PR.
func TestGoldenTrace(t *testing.T) {
	serial, err := RunGolden(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := serial.WriteFile(filepath.FromSlash(goldenPath)); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", goldenPath, len(serial.Entries))
	}
	mismatches, err := DiffFile(filepath.FromSlash(goldenPath), serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Error(m)
	}
	if t.Failed() {
		t.Fatalf("golden trace drifted (%d mismatches) — run with -update only if the change is intentional", len(mismatches))
	}

	// The same seed on an oversubscribed pool must produce the same
	// bytes: this is the shard-safety contract the journal exists to pin.
	parallel, err := RunGolden(1, runtime.NumCPU()*2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Encode(), parallel.Encode()) {
		for _, m := range Diff(serial, parallel) {
			t.Error(m)
		}
		// Re-run with the flight recorder attached so the failure names
		// the first divergent packet instead of just a drifted bucket.
		if why, err := ExplainFleetDivergence(GoldenConfig(1), 1, runtime.NumCPU()*2); err != nil {
			t.Logf("divergence explainer failed: %v", err)
		} else if why != "" {
			t.Log(why)
		}
		t.Fatal("journal differs between workers=1 and a parallel pool")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	j, err := RunGolden(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Entries) == 0 {
		t.Fatal("empty journal")
	}
	back, err := Decode(j.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, back) {
		t.Fatal("journal did not round-trip through its encoding")
	}
}

func TestJournalDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":  "nope\n",
		"no run line": FormatVersion + "\n",
		"bad entry":   FormatVersion + "\nrun kind=fleet seed=1 tags=1 events=1 span=1s\npkt garbage\nend\n",
		"bad proto":   FormatVersion + "\nrun kind=fleet seed=1 tags=1 events=1 span=1s\npkt tag=0 proto=LoRa outcome=delivered count=1 rssib=-50\nend\n",
		"bad outcome": FormatVersion + "\nrun kind=fleet seed=1 tags=1 events=1 span=1s\npkt tag=0 proto=802.11n outcome=vanished count=1 rssib=-50\nend\n",
		"no end":      FormatVersion + "\nrun kind=fleet seed=1 tags=1 events=1 span=1s\n",
		"after end":   FormatVersion + "\nrun kind=fleet seed=1 tags=1 events=1 span=1s\nend\npkt tag=0 proto=802.11n outcome=delivered count=1 rssib=-50\n",
	}
	for name, raw := range cases {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s: decode accepted malformed journal", name)
		}
	}
}

func TestDiffReportsDrift(t *testing.T) {
	a, err := RunGolden(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, a); len(d) != 0 {
		t.Fatalf("self-diff not clean: %v", d)
	}
	// A count drift, an RSSI drift, a vanished class, and a new class
	// must each be named.
	b, err := Decode(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	b.Entries[0].Count++
	b.Entries[1].RSSIBucket -= 3
	extra := b.Entries[2]
	extra.Tag = 9999
	b.Entries = append(b.Entries[:3], append([]Entry{extra}, b.Entries[3:]...)...)
	d := Diff(a, b)
	if len(d) < 3 {
		t.Fatalf("diff missed drifts: %v", d)
	}
	// Different seeds must not produce identical journals.
	c, err := RunGolden(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(Diff(a, c)) == 0 {
		t.Fatal("seeds 5 and 6 produced identical traces")
	}
}

// TestOneTagJournal pins the journal of a one-tag deployment — the
// mssim -journal/-replay path: entries cover every packet of the run,
// the encoding round-trips, and the same seed replays to the same bytes.
func TestOneTagJournal(t *testing.T) {
	wifi := excite.NewWiFi11nSource()
	wifi.PacketRate = 200
	run := func() *Journal {
		res, err := fleet.Run(fleet.Config{
			Sources:   []excite.Source{wifi, excite.NewBLEAdvSource()},
			Tags:      []fleet.TagSpec{{X: -2}},
			Receivers: []fleet.ReceiverSpec{{}},
			Span:      2 * time.Second,
			Seed:      4,
			Obs:       obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return FromFleet(4, res)
	}
	j := run()
	if j.Kind != "fleet" || j.Tags != 1 || len(j.Entries) == 0 {
		t.Fatalf("one-tag journal shape: %+v", j)
	}
	var n int
	for _, e := range j.Entries {
		if e.Tag != 0 {
			t.Fatalf("entry for tag %d in a one-tag journal", e.Tag)
		}
		n += e.Count
	}
	if n != j.Events {
		t.Fatalf("journal covers %d packets, run had %d", n, j.Events)
	}
	back, err := Decode(j.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, back) {
		t.Fatal("one-tag journal round-trip failed")
	}
	if !bytes.Equal(j.Encode(), run().Encode()) {
		t.Fatal("one-tag replay diverged")
	}
}
