package fleet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"multiscatter/internal/energy"
	"multiscatter/internal/excite"
	"multiscatter/internal/sim"
)

// oracleWake is the per-packet harvesting loop the wake schedules
// replaced, kept verbatim from the identify phase it used to run in
// (minus tracing and the identification that followed it): a fresh
// harvester per tag, stepped through Step(dt, lux) up to each packet and
// through each powered packet. It reports, per timeline packet, whether
// the tag was powered, and the tag's discharge-round count.
func oracleWake(spec TagSpec, id int, seed int64, events []excite.Event) (awake []bool, rounds int) {
	var harvester *energy.Harvester
	var lux float64
	if ec := spec.Energy; ec != nil {
		load := ec.LoadW
		if load <= 0 {
			load = 0.2795
		}
		harvester = energy.NewHarvester(energy.NewMP337(), load)
		if ec.HarvestJitterPct > 0 {
			// Keyed by tag ID, not shard, so the jitter stream
			// survives any change to the shard partition.
			harvester.JitterPct = ec.HarvestJitterPct
			harvester.Rand = sim.SeedRNGAt(seed, sim.StreamEnergyHarvest, uint64(id))
		}
		lux = ec.Lux
		if ec.StartCharged {
			for !harvester.Step(0.05, 1e9) {
			}
		}
	}
	clock := time.Duration(0)
	wasActive := harvester == nil || harvester.Active()
	awake = make([]bool, len(events))
	for i, e := range events {
		if harvester != nil {
			for clock < e.Start {
				step := e.Start - clock
				if step > 10*time.Millisecond {
					step = 10 * time.Millisecond
				}
				active := harvester.Step(step.Seconds(), lux)
				if active && !wasActive {
					rounds++
				}
				wasActive = active
				clock += step
			}
			if !harvester.Active() {
				continue
			}
			harvester.Step(e.Duration.Seconds(), lux)
		}
		awake[i] = true
	}
	return awake, rounds
}

// wakeTimelines are the timelines the schedule test steps over: every
// built-in scenario, plus duty-cycled sources whose silent windows let
// the capacitor cross its thresholds between packets.
func wakeTimelines(t *testing.T) []struct {
	name   string
	events []excite.Event
} {
	t.Helper()
	spans := []time.Duration{500 * time.Millisecond, 2 * time.Second, time.Second, 5 * time.Second}
	var out []struct {
		name   string
		events []excite.Event
	}
	add := func(name string, sources []excite.Source, span time.Duration, seed int64) {
		events := excite.Timeline(sources, span, sim.SeedRNG(seed, sim.StreamFleetTimeline))
		if len(events) == 0 {
			t.Fatalf("timeline %s is empty", name)
		}
		out = append(out, struct {
			name   string
			events []excite.Event
		}{fmt.Sprintf("%s/%v", name, span), events})
	}
	for i, sc := range excite.Scenarios() {
		add(sc.Name, sc.Sources, spans[i%len(spans)], int64(i+1))
	}
	wifi := excite.NewWiFi11nSource()
	wifi.PacketRate = 800
	wifi.Period, wifi.OnFraction = 300*time.Millisecond, 0.25
	ble := excite.NewBLEAdvSource()
	ble.Period, ble.OnFraction, ble.PhaseOffset = time.Second, 0.5, 200*time.Millisecond
	zig := excite.NewZigBeeSource()
	add("duty-wifi", []excite.Source{wifi}, 3*time.Second, 11)
	add("duty-mix", []excite.Source{wifi, ble, zig}, 5*time.Second, 12)
	return out
}

// TestWakeScheduleMatchesHarvester pins the wake schedules to the
// per-packet harvester loop they replaced: for every profile and
// timeline, the powered packets and the round count are identical bit
// for bit. Equal jitter-free profiles (compared by value, after the load
// default) share one schedule; jittered tags never share.
func TestWakeScheduleMatchesHarvester(t *testing.T) {
	luxes := []float64{0, 0.001, 50, 500, 5000, 1.04e5}
	loads := []float64{0, 0.05, energy.PrototypeLoadW, 1}
	const seed = 77
	var specs []TagSpec
	for _, lux := range luxes {
		for _, load := range loads {
			for _, charged := range []bool{false, true} {
				// Two tags per profile, each with its own *EnergyConfig,
				// so sharing can only come from keying by value.
				for n := 0; n < 2; n++ {
					specs = append(specs, TagSpec{Energy: &sim.EnergyConfig{Lux: lux, LoadW: load, StartCharged: charged}})
				}
			}
			// Jittered tags of the same profiles, on their own IDs.
			for _, charged := range []bool{false, true} {
				specs = append(specs, TagSpec{Energy: &sim.EnergyConfig{Lux: lux, LoadW: load, StartCharged: charged, HarvestJitterPct: 0.2}})
			}
		}
	}
	specs = append(specs, TagSpec{}) // always powered
	for _, tl := range wakeTimelines(t) {
		t.Run(tl.name, func(t *testing.T) {
			tags := make([]*tagRun, len(specs))
			for i, spec := range specs {
				tags[i] = &tagRun{spec: spec, id: i}
			}
			buildWakeSchedules(tags, tl.events, seed)
			mixed := 0
			for i, tr := range tags {
				awake, rounds := oracleWake(tr.spec, i, seed, tl.events)
				if tr.spec.Energy == nil {
					if tr.wake != nil {
						t.Fatalf("tag %d without an energy profile got a schedule", i)
					}
					continue
				}
				want := newPacketSet(len(tl.events))
				nAwake := 0
				for pkt, a := range awake {
					if a {
						want.set(pkt)
						nAwake++
					}
				}
				if !slices.Equal(tr.wake.awake, want) {
					t.Fatalf("tag %d (%+v): awake set differs from the harvester loop", i, *tr.spec.Energy)
				}
				if tr.wake.rounds != rounds {
					t.Fatalf("tag %d (%+v): rounds = %d, harvester loop %d", i, *tr.spec.Energy, tr.wake.rounds, rounds)
				}
				if nAwake > 0 && nAwake < len(awake) {
					mixed++
				}
			}
			if mixed == 0 {
				t.Fatal("no profile both slept and woke on this timeline; the test would not see a threshold crossing")
			}
			for i, a := range tags {
				for j := i + 1; j < len(tags); j++ {
					b := tags[j]
					if a.wake == nil || b.wake == nil {
						continue
					}
					ea, eb := *a.spec.Energy, *b.spec.Energy
					jittered := ea.HarvestJitterPct > 0 || eb.HarvestJitterPct > 0
					same := ea.Lux == eb.Lux && ea.StartCharged == eb.StartCharged &&
						defaultLoad(ea.LoadW) == defaultLoad(eb.LoadW)
					if shared := a.wake == b.wake; shared != (same && !jittered) {
						t.Fatalf("tags %d (%+v) and %d (%+v): shared schedule = %v", i, ea, j, eb, shared)
					}
				}
			}
		})
	}
}

func defaultLoad(w float64) float64 {
	if w <= 0 {
		return energy.PrototypeLoadW
	}
	return w
}
