// Package sim holds the vocabulary shared by the deployment engine
// (internal/fleet) and everything that reads its results: the per-packet
// Outcome classes, the per-packet overlay capacity (PacketBits), the
// paper's identification accuracies, the harvesting configuration, and
// the seeded RNG streams (SeedRNG/SeedRNGAt) every random draw flows
// through, each on a Source, math/rand's generator as a concrete type.
// A single-tag deployment is a one-tag fleet.Config.
package sim

import (
	"fmt"
	"time"

	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// Outcome classifies what happened to one excitation packet at the tag.
type Outcome int

const (
	// Delivered: identified, modulated, and decoded by the receiver.
	Delivered Outcome = iota
	// TagAsleep: the harvester had no energy budget for this packet.
	TagAsleep
	// Collided: another packet overlapped it at the tag (no channel
	// filter), so identification failed.
	Collided
	// Misidentified: the matcher decided wrongly or not at all.
	Misidentified
	// Unsupported: identified correctly but outside the tag's protocol
	// set (single-protocol comparison tags).
	Unsupported
	// LostDownlink: the backscattered packet did not reach the receiver.
	LostDownlink
	// CrossCollided: another tag of the same fleet backscattered the same
	// excitation packet and neither cleared the capture margin at the
	// receiver.
	CrossCollided
	// DecodedConcurrent: several tags of the fleet backscattered the same
	// 802.11n excitation packet and the receiver recovered this tag
	// jointly via subcarrier-redundancy concurrent OFDM decoding instead
	// of capture arbitration.
	DecodedConcurrent
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case TagAsleep:
		return "tag-asleep"
	case Collided:
		return "collided"
	case Misidentified:
		return "misidentified"
	case Unsupported:
		return "unsupported"
	case LostDownlink:
		return "lost-downlink"
	case CrossCollided:
		return "cross-collided"
	case DecodedConcurrent:
		return "decoded-concurrent"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// DefaultIdentAccuracy is the paper's per-protocol identification
// accuracy at the 2.5 Msps operating point (§1: 94.3% 802.11n, 95.9%
// 802.11b, 81.8% BLE, 99.9% ZigBee).
var DefaultIdentAccuracy = map[radio.Protocol]float64{
	radio.Protocol80211n: 0.943,
	radio.Protocol80211b: 0.959,
	radio.ProtocolBLE:    0.818,
	radio.ProtocolZigBee: 0.999,
}

// EnergyConfig enables harvesting-limited operation.
type EnergyConfig struct {
	// Lux is the light level driving the MP3-37 panel.
	Lux float64
	// LoadW is the tag's active power draw (default: the COTS
	// prototype's 279.5 mW, energy.PrototypeLoadW).
	LoadW float64
	// StartCharged starts the capacitor at the 4.1 V threshold.
	StartCharged bool
	// HarvestJitterPct adds multiplicative Gaussian flicker to the
	// harvested power (relative σ per step), drawn from the dedicated
	// StreamEnergyHarvest stream. Zero keeps harvesting deterministic.
	HarvestJitterPct float64
}

// PacketBits returns (productive, tag) bits carried by one packet of
// protocol p with the given on-air duration under mode m — the per-packet
// overlay capacity the deployment engine accounts with.
func PacketBits(p radio.Protocol, dur time.Duration, m overlay.Mode) (int, int) {
	g, ok := overlay.Gammas[p]
	if !ok {
		return 0, 0
	}
	sym := overlay.SymbolDuration(p)
	tr := overlay.DefaultTraffic(p)
	overhead := time.Duration(tr.OverheadUS*1e3) * time.Nanosecond
	payload := int((dur - overhead) / sym)
	if payload <= 0 {
		return 0, 0
	}
	k := overlay.Kappa(p, m, payload/g)
	seqs := payload / k
	if seqs < 1 {
		return 0, 0
	}
	return seqs, seqs * (k/g - 1)
}
