package fleet

import (
	"time"

	"multiscatter/internal/energy"
	"multiscatter/internal/excite"
	"multiscatter/internal/sim"
)

// packetSet is a set of timeline packet indices, one bit per packet of
// the run's timeline. It holds a wake schedule's powered packets, a
// tag's responses and contention verdicts, the timeline's clean and
// per-protocol packets, and the traced ones. The phases walk a set word
// by word, lowest bit first, which visits the packets in ascending order.
type packetSet []uint64

// newPacketSet returns an empty set over a timeline of n packets.
func newPacketSet(n int) packetSet { return make(packetSet, (n+63)/64) }

// newPacketSets returns k empty sets over a timeline of n packets, cut
// from one allocation.
func newPacketSets(k, n int) []packetSet {
	words := (n + 63) / 64
	backing := make([]uint64, k*words)
	sets := make([]packetSet, k)
	for i := range sets {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

func (s packetSet) set(i int) { s[uint(i)/64] |= 1 << (uint(i) % 64) }

// wakeSchedule is one energy profile's capacitor trajectory over the
// run's timeline: the packets at which a tag of that profile is powered,
// and how many discharge rounds it starts.
type wakeSchedule struct {
	awake  packetSet
	rounds int
}

// wakeProfile keys the schedules of jitter-free tags. Harvesting without
// jitter draws no randomness and every tag sees the same timeline, so
// tags with equal profiles (compared by value, never by *EnergyConfig
// pointer) follow the same trajectory and share one schedule.
type wakeProfile struct {
	lux, loadW   float64
	startCharged bool
}

// buildWakeSchedules points every energy-limited tag at its wake schedule
// (tagRun.wake; nil means always powered). Each jitter-free profile is
// stepped once; a tag with HarvestJitterPct > 0 is its own profile and
// draws its jitter from sim.SeedRNGAt(seed, StreamEnergyHarvest, tagID),
// keyed by tag ID so the stream survives any change to the shard
// partition.
func buildWakeSchedules(tags []*tagRun, events []excite.Event, seed int64) {
	panel := energy.NewMP337()
	shared := map[wakeProfile]*wakeSchedule{}
	for _, t := range tags {
		ec := t.spec.Energy
		if ec == nil {
			continue
		}
		load := ec.LoadW
		if load <= 0 {
			load = energy.PrototypeLoadW
		}
		if ec.HarvestJitterPct > 0 {
			h := energy.NewHarvester(panel, load)
			h.JitterPct = ec.HarvestJitterPct
			h.Rand = sim.SeedRNGAt(seed, sim.StreamEnergyHarvest, uint64(t.id))
			t.wake = stepWakeSchedule(h, ec.Lux, ec.StartCharged, events)
			continue
		}
		k := wakeProfile{lux: ec.Lux, loadW: load, startCharged: ec.StartCharged}
		w, ok := shared[k]
		if !ok {
			w = stepWakeSchedule(energy.NewHarvester(panel, load), ec.Lux, ec.StartCharged, events)
			shared[k] = w
		}
		t.wake = w
	}
}

// stepWakeSchedule steps a fresh harvester over the timeline: in steps of
// at most 10 ms up to each packet's start, then, only when the tag is
// powered at that start, through the packet's duration (which does not
// advance the step clock). Rounds count inactive→active transitions of
// the between-packet steps. The panel power is resolved once per light
// level, so every step sees the same float Step(dt, lux) would.
func stepWakeSchedule(h *energy.Harvester, lux float64, startCharged bool, events []excite.Event) *wakeSchedule {
	if startCharged {
		full := h.Panel.PowerW(1e9)
		for !h.StepW(0.05, full) {
		}
	}
	in := h.Panel.PowerW(lux)
	w := &wakeSchedule{awake: newPacketSet(len(events))}
	clock := time.Duration(0)
	wasActive := h.Active()
	for i, e := range events {
		for clock < e.Start {
			step := e.Start - clock
			if step > 10*time.Millisecond {
				step = 10 * time.Millisecond
			}
			active := h.StepW(step.Seconds(), in)
			if active && !wasActive {
				w.rounds++
			}
			wasActive = active
			clock += step
		}
		if h.Active() {
			w.awake.set(i)
			h.StepW(e.Duration.Seconds(), in)
		}
	}
	return w
}
