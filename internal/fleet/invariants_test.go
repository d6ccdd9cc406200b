package fleet

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// randomConfig draws one deployment for the invariant test: 1–60 tags
// and 1–8 receivers at random positions, a random scenario and span,
// shadowing and the phase-aware channel each on or off. About a third of
// the tags harvest, at light levels from a small set so profiles repeat,
// and some of those with jitter.
func randomConfig(rng *rand.Rand) Config {
	scenarios := excite.Scenarios()
	sc := scenarios[rng.Intn(len(scenarios))]
	w, h := 2+rng.Float64()*40, 2+rng.Float64()*40
	luxes := []float64{0, 50, 500, 1.04e5}
	modes := []overlay.Mode{0, overlay.Mode1, overlay.Mode2, overlay.Mode3}
	tags := make([]TagSpec, 1+rng.Intn(60))
	for i := range tags {
		tags[i] = TagSpec{X: rng.Float64() * w, Y: rng.Float64() * h, Mode: modes[rng.Intn(len(modes))]}
		if rng.Intn(4) == 0 {
			tags[i].Supported = []radio.Protocol{radio.Protocols[rng.Intn(len(radio.Protocols))]}
		}
		if rng.Intn(3) == 0 {
			ec := &sim.EnergyConfig{Lux: luxes[rng.Intn(len(luxes))], StartCharged: rng.Intn(2) == 0}
			if rng.Intn(4) == 0 {
				ec.HarvestJitterPct = 0.2
			}
			tags[i].Energy = ec
		}
	}
	receivers := make([]ReceiverSpec, 1+rng.Intn(8))
	for i := range receivers {
		receivers[i] = ReceiverSpec{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	cfg := Config{
		Sources:   sc.Sources,
		Tags:      tags,
		Receivers: receivers,
		Span:      time.Duration(100+rng.Intn(1400)) * time.Millisecond,
		Seed:      rng.Int63n(1 << 40),
	}
	if rng.Intn(2) == 0 {
		ch := channel.NewLoS()
		ch.ShadowSigmaDB = 4
		cfg.Channel = ch
	}
	if rng.Intn(2) == 0 {
		cfg.Phase = &PhaseConfig{}
	}
	return cfg
}

// TestFleetInvariantsRandomConfigs checks the simulator's invariants on
// seeded random deployments rather than the frozen ones: every packet ×
// tag pair ends in exactly one outcome, no tag delivers more bits than
// its deliveries can carry, Jain's index stays in [1/N, 1], and the
// Result JSON is identical at Workers 1, Workers 3 and on a shared pool.
func TestFleetInvariantsRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	pool := NewPool(2)
	defer pool.Close()
	const configs = 40
	harvesting, delivered := 0, 0
	for n := 0; n < configs; n++ {
		cfg := randomConfig(rng)
		var ref []byte
		for _, sched := range []struct {
			workers int
			pool    *Pool
		}{{1, nil}, {3, nil}, {0, pool}} {
			c := cfg
			c.Workers, c.Pool, c.Obs = sched.workers, sched.pool, obs.NewRegistry()
			res, err := Run(c)
			if err != nil {
				t.Fatalf("config %d: %v", n, err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = raw
				checkInvariants(t, n, cfg, res)
				delivered += res.Outcomes[sim.Delivered] + res.Outcomes[sim.DecodedConcurrent]
			} else if !bytes.Equal(raw, ref) {
				t.Fatalf("config %d: result at workers=%d pool=%v differs from workers=1", n, sched.workers, sched.pool != nil)
			}
		}
		for _, spec := range cfg.Tags {
			if spec.Energy != nil {
				harvesting++
			}
		}
	}
	if harvesting == 0 || delivered == 0 {
		t.Fatalf("random configs too tame: %d harvesting tags, %d delivered packets", harvesting, delivered)
	}
}

func checkInvariants(t *testing.T, n int, cfg Config, res *Result) {
	t.Helper()
	sum := 0
	for _, c := range res.Outcomes {
		sum += c
	}
	if want := res.Events * res.NumTags; sum != want {
		t.Fatalf("config %d: outcomes sum to %d, want %d packets × %d tags = %d", n, sum, res.Events, res.NumTags, want)
	}
	for _, tr := range res.Tags {
		tagSum := 0
		for _, c := range tr.Outcomes {
			tagSum += c
		}
		if tagSum != res.Events {
			t.Fatalf("config %d tag %d: outcomes sum to %d, want %d", n, tr.ID, tagSum, res.Events)
		}
		mode := cfg.Tags[tr.ID].Mode
		if mode == 0 {
			mode = overlay.Mode1
		}
		capacity := 0
		for _, s := range cfg.Sources {
			if _, bits := sim.PacketBits(s.Protocol, s.PacketDuration, mode); bits > capacity {
				capacity = bits
			}
		}
		decoded := tr.Outcomes[sim.Delivered] + tr.Outcomes[sim.DecodedConcurrent]
		if tr.TagBits > decoded*capacity {
			t.Fatalf("config %d tag %d: %d tag bits from %d decoded packets of at most %d bits", n, tr.ID, tr.TagBits, decoded, capacity)
		}
	}
	const eps = 1e-12
	if lo := 1 / float64(res.NumTags); res.Fairness < lo-eps || res.Fairness > 1+eps {
		t.Fatalf("config %d: Jain index %v outside [%v, 1]", n, res.Fairness, lo)
	}
}
