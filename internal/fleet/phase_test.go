package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs/ptrace"
	"multiscatter/internal/radio"
)

const goldenPhaseTracePath = "testdata/golden_trace_phase.jsonl"

// phaseGoldenConfig is traceGoldenConfig with the phase-aware channel
// enabled, a BLE advertiser added, and the floor plan stretched 1.4×:
// that puts every tag in BLE's MARGINAL band (0 < PER < 1, ≈0.24 at
// this distance bucket), so the coherent penalty visibly moves the
// traced per-loss details and downlink outcomes. On the original plan
// every PER is exactly 0 and the phase path would be trace-invisible.
func phaseGoldenConfig(workers int) Config {
	cfg := traceGoldenConfig(workers)
	cfg.Sources = append(cfg.Sources, excite.NewBLEAdvSource())
	for i := range cfg.Tags {
		cfg.Tags[i].X *= 1.4
		cfg.Tags[i].Y *= 1.4
	}
	cfg.Phase = &PhaseConfig{}
	return cfg
}

// TestPhaseGoldenDeterminism pins satellite contract of docs/CHANNELS.md:
// a phase-aware fleet run drains byte-identical JSONL at workers=1 and
// an oversubscribed pool (the StreamChannelPhase draws are keyed per
// link-table site, not per worker), and matches the committed golden.
// Regenerate deliberately with
// `go test ./internal/fleet -run PhaseGolden -update`.
func TestPhaseGoldenDeterminism(t *testing.T) {
	encode := func(workers int) []byte {
		cfg := phaseGoldenConfig(workers)
		cfg.Trace = ptrace.New(ptrace.Config{Sample: 5})
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ptrace.WriteJSONL(&buf, cfg.Trace.Drain()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	prev := runtime.GOMAXPROCS(1)
	serial := encode(1)
	runtime.GOMAXPROCS(prev)
	parallel := encode(runtime.NumCPU() * 2)

	if !bytes.Equal(serial, parallel) {
		a, _ := ptrace.ReadJSONL(bytes.NewReader(serial))
		b, _ := ptrace.ReadJSONL(bytes.NewReader(parallel))
		t.Fatalf("phase-aware trace differs between workers=1 and a parallel pool:\n%s",
			ptrace.Diff(a, b).Format("workers=1", a, "parallel", b))
	}

	if *updateTrace {
		if err := os.WriteFile(filepath.FromSlash(goldenPhaseTracePath), serial, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPhaseTracePath, len(serial))
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenPhaseTracePath))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, want) {
		a, _ := ptrace.ReadJSONL(bytes.NewReader(want))
		b, _ := ptrace.ReadJSONL(bytes.NewReader(serial))
		t.Fatalf("phase-aware trace drifted from the committed golden — run with -update only if the channel-model change is intentional:\n%s",
			ptrace.Diff(a, b).Format("golden", a, "run", b))
	}
}

// TestPhaseChangesOutcomes guards against the phase path being wired up
// but vacuous: enabling it must actually move the working points (drift
// draws populate the result, and the PER-bearing fields differ from the
// magnitude-only run somewhere in the fleet).
func TestPhaseChangesOutcomes(t *testing.T) {
	baseCfg := phaseGoldenConfig(0)
	baseCfg.Phase = nil
	base, err := Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	phased, err := Run(phaseGoldenConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if !phased.PhaseAware || base.PhaseAware {
		t.Fatalf("PhaseAware flags wrong: base %v, phased %v", base.PhaseAware, phased.PhaseAware)
	}
	sawDrift := false
	for _, tr := range phased.Tags {
		if len(tr.PhaseRad) == 0 || len(tr.DriftHz) == 0 {
			t.Fatalf("tag %d missing phase fields on a phase-aware run", tr.ID)
		}
		for _, d := range tr.DriftHz {
			if d != 0 {
				sawDrift = true
			}
		}
	}
	if !sawDrift {
		t.Fatal("every link drew zero drift — phase stream not consumed")
	}
	for _, tr := range base.Tags {
		if len(tr.PhaseRad) != 0 || len(tr.DriftHz) != 0 {
			t.Fatal("magnitude-only run leaked phase fields")
		}
	}
	// RSSI must stay on the magnitude surface even with phase enabled.
	for i := range base.Tags {
		for p, v := range base.Tags[i].RSSIdBm {
			if phased.Tags[i].RSSIdBm[p] != v {
				t.Fatalf("tag %d %s RSSI moved with phase enabled: %v vs %v",
					i, p, v, phased.Tags[i].RSSIdBm[p])
			}
		}
	}

	// And the penalty must actually move a marginal PER working point —
	// otherwise the phase path is wired up but vacuous.
	cOff := newLinkTable(baseCfg.Channel, 0.25, baseCfg.Seed, nil, false)
	pc := PhaseConfig{}.withDefaults()
	cOn := newLinkTable(baseCfg.Channel, 0.25, baseCfg.Seed, &pc, false)
	moved := false
	for b := 5; b < 90 && !moved; b++ {
		off := cOff.compute(linkKey{radio.ProtocolBLE, b, 1})
		on := cOn.compute(linkKey{radio.ProtocolBLE, b, 1})
		if off.InRange && off.PERTag > 0 && off.PERTag < 1 && on.PERTag != off.PERTag {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no marginal BLE working point moved under the phase penalty")
	}
}

// TestDoubleDeckerFleetBaseline pins the Double-decker fleet path: the
// baseline auto-enables the phase-aware channel, scales per-packet tag
// capacity by the γ·spread and pilot budget, and is recorded in the
// result; an unknown baseline is rejected up front.
func TestDoubleDeckerFleetBaseline(t *testing.T) {
	cfg := traceGoldenConfig(0)
	cfg.Baseline = BaselineDoubleDecker
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PhaseAware || res.Baseline != string(BaselineDoubleDecker) {
		t.Fatalf("result not marked: phase %v baseline %q", res.PhaseAware, res.Baseline)
	}
	msCfg := traceGoldenConfig(0)
	msCfg.Phase = &PhaseConfig{}
	phased, err := Run(msCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetTagKbps <= 0 {
		t.Fatal("Double-decker fleet delivered nothing")
	}
	if res.FleetTagKbps >= phased.FleetTagKbps {
		t.Fatalf("Double-decker (%v kbps) must pay its capacity budget vs multiscatter (%v kbps)",
			res.FleetTagKbps, phased.FleetTagKbps)
	}

	c := newLinkTable(channel.NewLoS(), 0.25, 1, nil, true)
	if got := c.scaleTagBits(1000); got != 450 {
		t.Fatalf("scaleTagBits(1000) = %d, want 450 (×0.9/2)", got)
	}

	cfg = traceGoldenConfig(0)
	cfg.Baseline = "hitchhike-fleet"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown baseline must be rejected")
	}
}

// TestPhaseDriftBounded checks the per-link draws respect MaxDriftHz.
func TestPhaseDriftBounded(t *testing.T) {
	cfg := traceGoldenConfig(0)
	cfg.Phase = &PhaseConfig{MaxDriftHz: 50}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tags {
		for _, p := range radio.Protocols {
			if d := tr.DriftHz[p.String()]; d < -50 || d > 50 {
				t.Fatalf("tag %d %s drift %v out of ±50 Hz", tr.ID, p, d)
			}
		}
	}
}
