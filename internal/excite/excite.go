// Package excite models excitation traffic: per-protocol packet sources
// with rates, durations, channels and duty cycles; event timelines; and
// the time/frequency collision accounting of Figure 16 and the
// discontinuous-excitation scenarios of Figure 18.
package excite

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"multiscatter/internal/radio"
)

// Source is one excitation transmitter.
type Source struct {
	// Protocol of the packets.
	Protocol radio.Protocol
	// PacketRate is the average packets per second.
	PacketRate float64
	// PacketDuration is the on-air time per packet.
	PacketDuration time.Duration
	// Period and OnFraction duty-cycle the source (Figure 18a): packets
	// are only emitted during the first OnFraction of each Period.
	// A zero Period means always on.
	Period time.Duration
	// OnFraction of the period during which the source transmits.
	OnFraction float64
	// PhaseOffset shifts the duty-cycle window.
	PhaseOffset time.Duration
}

// DutyCycle returns the fraction of airtime the source occupies.
func (s Source) DutyCycle() float64 {
	d := s.PacketRate * s.PacketDuration.Seconds()
	if s.Period > 0 && s.OnFraction > 0 && s.OnFraction < 1 {
		d *= s.OnFraction
	}
	if d > 1 {
		return 1
	}
	return d
}

// ActiveAt reports whether the duty-cycle window is open at time t.
func (s Source) ActiveAt(t time.Duration) bool {
	if s.Period <= 0 || s.OnFraction <= 0 || s.OnFraction >= 1 {
		return true
	}
	phase := (t + s.PhaseOffset) % s.Period
	return phase < time.Duration(float64(s.Period)*s.OnFraction)
}

// Paper's Figure 16 setups.

// NewWiFi11nSource returns the 802.11n excitation of Figure 16: 2.417
// GHz, 2000 pkt/s, 300-byte packets.
func NewWiFi11nSource() Source {
	return Source{
		Protocol:       radio.Protocol80211n,
		PacketRate:     2000,
		PacketDuration: 406 * time.Microsecond, // 300 B at MCS0 + preamble
	}
}

// NewBLEAdvSource returns the BLE excitation of Figure 16a: 2.432 GHz,
// 34 pkt/s advertising (the measured campus rate), 37-byte packets.
func NewBLEAdvSource() Source {
	return Source{
		Protocol:       radio.ProtocolBLE,
		PacketRate:     34,
		PacketDuration: 336 * time.Microsecond,
	}
}

// NewZigBeeSource returns the ZigBee excitation of Figure 16c: 2.415
// GHz, 20 pkt/s, 200-byte packets.
func NewZigBeeSource() Source {
	return Source{
		Protocol:       radio.ProtocolZigBee,
		PacketRate:     20,
		PacketDuration: 6624 * time.Microsecond,
	}
}

// Event is one packet on the timeline.
type Event struct {
	// Start time of the packet.
	Start time.Duration
	// Duration on air.
	Duration time.Duration
	// Source index the packet came from.
	Source int
	// Protocol of the packet.
	Protocol radio.Protocol
}

// End returns the event's end time.
func (e Event) End() time.Duration { return e.Start + e.Duration }

// Timeline generates span worth of Poisson packet arrivals from the
// sources, honoring duty-cycle windows, sorted by start time.
func Timeline(sources []Source, span time.Duration, rng *rand.Rand) []Event {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	var events []Event
	for idx, s := range sources {
		if s.PacketRate <= 0 {
			continue
		}
		mean := time.Duration(float64(time.Second) / s.PacketRate)
		t := time.Duration(float64(mean) * rng.Float64())
		for t < span {
			if s.ActiveAt(t) {
				events = append(events, Event{
					Start:    t,
					Duration: s.PacketDuration,
					Source:   idx,
					Protocol: s.Protocol,
				})
			}
			t += time.Duration(rng.ExpFloat64() * float64(mean))
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return events
}

// CollisionFlags marks, for every event of a start-sorted timeline,
// whether it overlaps in time with any event from a different source.
// The tag has no channel filter, so any time overlap corrupts the
// envelope regardless of frequency separation. The flags depend only on
// the timeline, so deployment simulators (internal/sim, internal/fleet)
// compute them once and share them across tags.
func CollisionFlags(events []Event) []bool {
	flags := make([]bool, len(events))
	for i, e := range events {
		// Events are sorted by start; scan neighbours both ways.
		for j := i - 1; j >= 0 && events[j].End() > e.Start; j-- {
			if events[j].Source != e.Source {
				flags[i] = true
				break
			}
		}
		if !flags[i] {
			for j := i + 1; j < len(events) && events[j].Start < e.End(); j++ {
				if events[j].Source != e.Source {
					flags[i] = true
					break
				}
			}
		}
	}
	return flags
}

// CollisionStats summarizes one source's exposure on a timeline.
type CollisionStats struct {
	// Packets emitted by the source.
	Packets int
	// Collided packets (time-overlapping any other source's packet —
	// the tag has no channel filter, so frequency separation does not
	// protect it).
	Collided int
}

// CollisionFraction returns the collided share.
func (c CollisionStats) CollisionFraction() float64 {
	if c.Packets == 0 {
		return 0
	}
	return float64(c.Collided) / float64(c.Packets)
}

// Collisions computes per-source collision stats over a start-sorted
// timeline, from its CollisionFlags.
func Collisions(events []Event, numSources int) []CollisionStats {
	out := make([]CollisionStats, numSources)
	for i, collided := range CollisionFlags(events) {
		s := events[i].Source
		if s >= numSources {
			continue
		}
		out[s].Packets++
		if collided {
			out[s].Collided++
		}
	}
	return out
}

// ExpectedCollisionLoss returns the analytic fraction of a target
// source's packets that overlap other sources' packets, assuming Poisson
// arrivals: 1 − exp(−Σ rate_i · (dur_i + dur_target)).
func ExpectedCollisionLoss(target Source, others []Source) float64 {
	var lambda float64
	for _, o := range others {
		rate := o.PacketRate
		if o.Period > 0 && o.OnFraction > 0 && o.OnFraction < 1 {
			rate *= o.OnFraction
		}
		lambda += rate * (o.PacketDuration + target.PacketDuration).Seconds()
	}
	if lambda <= 0 {
		return 0
	}
	return 1 - math.Exp(-lambda)
}
