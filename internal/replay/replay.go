// Package replay is the deterministic-replay harness for the deployment
// engine: it flattens a run's per-packet outcomes into a compact,
// canonical journal keyed by (tag, protocol, outcome, RSSI bucket),
// replays a seed, and diffs the journal against a committed golden trace.
// Because every RNG stream of internal/fleet is a pure function of
// (seed, stream, site), a journal mismatch means real
// nondeterminism (or an intentional model change) — the regression gate
// `make replay-diff` runs alongside the race gate on every PR.
package replay

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"multiscatter/internal/fleet"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// FormatVersion is the journal header magic. Bump it when the canonical
// encoding changes, and regenerate the golden traces (see EXPERIMENTS.md).
const FormatVersion = "multiscatter-replay v1"

// Entry is one journal line: how many packets of one protocol met one
// fate at one tag, and the integer-dB RSSI bucket of the link they were
// decided over (shadowing included).
type Entry struct {
	Tag        int
	Protocol   radio.Protocol
	Outcome    sim.Outcome
	Count      int
	RSSIBucket int
}

// Journal is the canonical outcome trace of one simulated run.
type Journal struct {
	// Kind names the engine that produced the run; always "fleet".
	Kind string
	// Seed the run was replayed from.
	Seed int64
	// Tags and Events give the deployment shape.
	Tags   int
	Events int
	// Span simulated.
	Span time.Duration
	// Entries in canonical order: tag ID, then radio.Protocols order,
	// then outcome numeric order.
	Entries []Entry
}

// rssiBucket quantizes a working-point RSSI to whole dB for the journal.
func rssiBucket(dbm float64) int {
	return int(math.Round(dbm))
}

// outcomeOrder enumerates outcomes in their numeric (canonical) order.
var outcomeOrder = []sim.Outcome{
	sim.Delivered, sim.TagAsleep, sim.Collided, sim.Misidentified,
	sim.Unsupported, sim.LostDownlink, sim.CrossCollided,
	sim.DecodedConcurrent,
}

// FromFleet flattens a fleet result into a journal. Entries follow the
// canonical order, so two byte-identical results encode to byte-identical
// journals and vice versa.
func FromFleet(seed int64, res *fleet.Result) *Journal {
	j := &Journal{
		Kind:   "fleet",
		Seed:   seed,
		Tags:   res.NumTags,
		Events: res.Events,
		Span:   res.Span,
	}
	for _, t := range res.Tags {
		for _, p := range radio.Protocols {
			counts := t.PerProtocol[p.String()]
			if len(counts) == 0 {
				continue
			}
			b := rssiBucket(t.RSSIdBm[p.String()])
			for _, o := range outcomeOrder {
				if n := counts[o]; n > 0 {
					j.Entries = append(j.Entries, Entry{t.ID, p, o, n, b})
				}
			}
		}
	}
	return j
}

// Encode renders the journal in its canonical text form — stable field
// order, one entry per line — suitable for committing as a golden trace
// and diffing byte-for-byte.
func (j *Journal) Encode() []byte {
	defer obsEncode.ObserveSince(time.Now())
	obsJournals.Inc()
	obsEntries.Add(int64(len(j.Entries)))
	var b bytes.Buffer
	fmt.Fprintln(&b, FormatVersion)
	fmt.Fprintf(&b, "run kind=%s seed=%d tags=%d events=%d span=%s\n",
		j.Kind, j.Seed, j.Tags, j.Events, j.Span)
	for _, e := range j.Entries {
		fmt.Fprintf(&b, "pkt tag=%d proto=%s outcome=%s count=%d rssib=%d\n",
			e.Tag, e.Protocol, e.Outcome, e.Count, e.RSSIBucket)
	}
	fmt.Fprintln(&b, "end")
	return b.Bytes()
}

// Decode parses a canonical journal.
func Decode(data []byte) (*Journal, error) {
	defer obsDecode.ObserveSince(time.Now())
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() || sc.Text() != FormatVersion {
		return nil, fmt.Errorf("replay: bad or missing header (want %q)", FormatVersion)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("replay: missing run line")
	}
	j := &Journal{}
	var spanStr string
	if _, err := fmt.Sscanf(sc.Text(), "run kind=%s seed=%d tags=%d events=%d span=%s",
		&j.Kind, &j.Seed, &j.Tags, &j.Events, &spanStr); err != nil {
		return nil, fmt.Errorf("replay: bad run line %q: %w", sc.Text(), err)
	}
	span, err := time.ParseDuration(spanStr)
	if err != nil {
		return nil, fmt.Errorf("replay: bad span %q: %w", spanStr, err)
	}
	j.Span = span
	protoByName := map[string]radio.Protocol{}
	for _, p := range radio.Protocols {
		protoByName[p.String()] = p
	}
	outcomeByName := map[string]sim.Outcome{}
	for _, o := range outcomeOrder {
		outcomeByName[o.String()] = o
	}
	ended := false
	for sc.Scan() {
		line := sc.Text()
		if line == "end" {
			ended = true
			continue
		}
		if ended && strings.TrimSpace(line) != "" {
			return nil, fmt.Errorf("replay: content after end marker")
		}
		if ended {
			continue
		}
		var e Entry
		var protoName, outcomeName string
		if _, err := fmt.Sscanf(line, "pkt tag=%d proto=%s outcome=%s count=%d rssib=%d",
			&e.Tag, &protoName, &outcomeName, &e.Count, &e.RSSIBucket); err != nil {
			return nil, fmt.Errorf("replay: bad entry %q: %w", line, err)
		}
		p, ok := protoByName[protoName]
		if !ok {
			return nil, fmt.Errorf("replay: unknown protocol %q", protoName)
		}
		o, ok := outcomeByName[outcomeName]
		if !ok {
			return nil, fmt.Errorf("replay: unknown outcome %q", outcomeName)
		}
		e.Protocol, e.Outcome = p, o
		j.Entries = append(j.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !ended {
		return nil, fmt.Errorf("replay: truncated journal (no end marker)")
	}
	return j, nil
}

// Diff compares two journals and returns human-readable mismatch lines,
// empty when identical. It keys entries by (tag, protocol, outcome) so a
// count or RSSI drift reports the specific packet class that moved, not
// just a byte offset.
func Diff(want, got *Journal) []string {
	obsDiffs.Inc()
	var out []string
	if want.Kind != got.Kind {
		out = append(out, fmt.Sprintf("kind: want %s, got %s", want.Kind, got.Kind))
	}
	if want.Seed != got.Seed {
		out = append(out, fmt.Sprintf("seed: want %d, got %d", want.Seed, got.Seed))
	}
	if want.Tags != got.Tags {
		out = append(out, fmt.Sprintf("tags: want %d, got %d", want.Tags, got.Tags))
	}
	if want.Events != got.Events {
		out = append(out, fmt.Sprintf("events: want %d, got %d", want.Events, got.Events))
	}
	if want.Span != got.Span {
		out = append(out, fmt.Sprintf("span: want %s, got %s", want.Span, got.Span))
	}
	type key struct {
		tag     int
		proto   radio.Protocol
		outcome sim.Outcome
	}
	index := func(j *Journal) map[key]Entry {
		m := make(map[key]Entry, len(j.Entries))
		for _, e := range j.Entries {
			m[key{e.Tag, e.Protocol, e.Outcome}] = e
		}
		return m
	}
	wm, gm := index(want), index(got)
	keys := make([]key, 0, len(wm)+len(gm))
	for k := range wm {
		keys = append(keys, k)
	}
	for k := range gm {
		if _, ok := wm[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.tag != b.tag {
			return a.tag < b.tag
		}
		if a.proto != b.proto {
			return a.proto < b.proto
		}
		return a.outcome < b.outcome
	})
	for _, k := range keys {
		w, wok := wm[k]
		g, gok := gm[k]
		name := fmt.Sprintf("tag %d %s %s", k.tag, k.proto, k.outcome)
		switch {
		case !gok:
			out = append(out, fmt.Sprintf("%s: missing (want count=%d rssib=%d)", name, w.Count, w.RSSIBucket))
		case !wok:
			out = append(out, fmt.Sprintf("%s: unexpected (got count=%d rssib=%d)", name, g.Count, g.RSSIBucket))
		case w.Count != g.Count || w.RSSIBucket != g.RSSIBucket:
			out = append(out, fmt.Sprintf("%s: want count=%d rssib=%d, got count=%d rssib=%d",
				name, w.Count, w.RSSIBucket, g.Count, g.RSSIBucket))
		}
	}
	obsMismatches.Add(int64(len(out)))
	return out
}

// WriteFile writes the canonical encoding to path.
func (j *Journal) WriteFile(path string) error {
	return os.WriteFile(path, j.Encode(), 0o644)
}

// ReadFile loads and decodes a journal from path.
func ReadFile(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// DiffFile diffs got against the journal committed at path. It returns
// the mismatch lines (nil when clean).
func DiffFile(path string, got *Journal) ([]string, error) {
	want, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Diff(want, got), nil
}
