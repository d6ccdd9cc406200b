// Package energy models the multiscatter prototype's harvesting
// subsystem (§3): an MP3-37 solar panel feeding a BQ25570 power manager
// and a 0.01 F storage capacitor cycled between 4.1 V and 2.6 V, and the
// per-protocol tag-data exchange arithmetic of Table 4.
package energy

import (
	"math"
	"math/rand"

	"multiscatter/internal/radio"
)

// Capacitor cycle constants from the paper.
const (
	// StorageFarads is the storage capacitor value.
	StorageFarads = 0.01
	// StartVolts is the BQ25570 turn-on threshold.
	StartVolts = 4.1
	// StopVolts is the BQ25570 shutdown threshold.
	StopVolts = 2.6
	// IndoorLux is the paper's indoor light level.
	IndoorLux = 500
	// OutdoorLux is the paper's outdoor light level.
	OutdoorLux = 1.04e5
	// PrototypeLoadW is the COTS prototype's active system draw (Table 3:
	// 279.5 mW at 20 Msps), the default tag load.
	PrototypeLoadW = 0.2795
)

// RoundEnergyJ returns the energy released per discharge round:
// ½·C·(V_hi² − V_lo²) ≈ 50 mJ.
func RoundEnergyJ() float64 {
	return 0.5 * StorageFarads * (StartVolts*StartVolts - StopVolts*StopVolts)
}

// SolarPanel converts illuminance to harvested electrical power. The
// power law is calibrated on the paper's two measured points: 50 mJ in
// 216.2 s at 500 lux and 50 mJ in 0.78 s at 1.04×10⁵ lux.
type SolarPanel struct {
	// CoeffW and Exponent define P = CoeffW · lux^Exponent.
	CoeffW   float64
	Exponent float64
}

// NewMP337 returns the paper-calibrated panel model.
func NewMP337() *SolarPanel {
	e := RoundEnergyJ()
	pIndoor := e / 216.2 // W at 500 lux
	pOutdoor := e / 0.78 // W at 1.04e5 lux
	exp := math.Log(pOutdoor/pIndoor) / math.Log(OutdoorLux/IndoorLux)
	return &SolarPanel{
		CoeffW:   pIndoor / math.Pow(IndoorLux, exp),
		Exponent: exp,
	}
}

// PowerW returns the harvested power at the given illuminance.
func (p *SolarPanel) PowerW(lux float64) float64 {
	if lux <= 0 {
		return 0
	}
	return p.CoeffW * math.Pow(lux, p.Exponent)
}

// HarvestSeconds returns the time to charge one discharge round's worth
// of energy at the given illuminance. It returns +Inf in darkness.
func (p *SolarPanel) HarvestSeconds(lux float64) float64 {
	w := p.PowerW(lux)
	if w <= 0 {
		return math.Inf(1)
	}
	return RoundEnergyJ() / w
}

// Harvester simulates the BQ25570 + capacitor state machine.
type Harvester struct {
	// Panel supplies power.
	Panel *SolarPanel
	// LoadW is the system draw while active; the prototype draws
	// PrototypeLoadW.
	LoadW float64
	// JitterPct adds multiplicative Gaussian noise to the harvested power
	// each Step — relative σ, so 0.1 means ±10% 1-σ flicker. Zero (the
	// default) keeps harvesting deterministic.
	JitterPct float64
	// Rand supplies the jitter draws; the simulators inject a dedicated
	// per-tag stream (sim.StreamEnergyHarvest) so harvesting noise never
	// interleaves with identification or shadowing streams. Nil disables
	// jitter even when JitterPct > 0.
	Rand *rand.Rand
	// volts is the current capacitor voltage.
	volts float64
	// active reports whether the load is powered.
	active bool
}

// NewHarvester returns a harvester with an empty capacitor.
func NewHarvester(panel *SolarPanel, loadW float64) *Harvester {
	return &Harvester{Panel: panel, LoadW: loadW, volts: StopVolts}
}

// Voltage returns the capacitor voltage.
func (h *Harvester) Voltage() float64 { return h.volts }

// Active reports whether the tag is currently powered.
func (h *Harvester) Active() bool { return h.active }

// Step advances the simulation by dt seconds at the given illuminance and
// reports whether the tag was active during the step.
func (h *Harvester) Step(dt, lux float64) bool {
	return h.StepW(dt, h.Panel.PowerW(lux))
}

// StepW is Step with the panel's output already resolved: it advances
// the simulation by dt seconds at a harvested power of powerW watts
// (before jitter). A caller stepping at one light level resolves
// Panel.PowerW once instead of once per step; the state trajectory is
// identical to Step's.
func (h *Harvester) StepW(dt, powerW float64) bool {
	in := powerW
	if h.JitterPct > 0 && h.Rand != nil && in > 0 {
		in *= 1 + h.JitterPct*h.Rand.NormFloat64()
		if in < 0 {
			in = 0
		}
	}
	var net float64
	if h.active {
		net = in - h.LoadW
	} else {
		net = in
	}
	// dE = P·dt; V = sqrt(V² + 2·dE/C).
	v2 := h.volts*h.volts + 2*net*dt/StorageFarads
	if v2 < 0 {
		v2 = 0
	}
	h.volts = math.Sqrt(v2)
	if h.volts >= StartVolts {
		h.active = true
		h.volts = StartVolts
	}
	if h.volts <= StopVolts {
		h.active = false
		if h.volts < StopVolts && in <= 0 {
			h.volts = StopVolts // the BQ25570 disconnects the load
		}
	}
	return h.active
}

// ActiveSecondsPerRound returns how long one 50 mJ round powers a load.
func ActiveSecondsPerRound(loadW float64) float64 {
	if loadW <= 0 {
		return math.Inf(1)
	}
	return RoundEnergyJ() / loadW
}

// ExchangeRates are the excitation packet rates of Table 4.
var ExchangeRates = map[radio.Protocol]float64{
	radio.Protocol80211n: 2000,
	radio.Protocol80211b: 2000,
	radio.ProtocolBLE:    70,
	radio.ProtocolZigBee: 20,
}

// Exchange is one Table 4 row.
type Exchange struct {
	// Protocol of the excitation.
	Protocol radio.Protocol
	// PacketsPerRound the tag can backscatter in one discharge round.
	PacketsPerRound float64
	// IndoorSeconds is the average time per tag-data exchange at 500 lux.
	IndoorSeconds float64
	// OutdoorSeconds is the average time per exchange at 1.04×10⁵ lux.
	OutdoorSeconds float64
}

// ExchangeTable computes Table 4 for a system load in watts using the
// paper's excitation rates.
func ExchangeTable(loadW float64) []Exchange {
	panel := NewMP337()
	active := ActiveSecondsPerRound(loadW)
	indoor := panel.HarvestSeconds(IndoorLux)
	outdoor := panel.HarvestSeconds(OutdoorLux)
	order := []radio.Protocol{
		radio.Protocol80211n, radio.Protocol80211b,
		radio.ProtocolBLE, radio.ProtocolZigBee,
	}
	out := make([]Exchange, 0, len(order))
	for _, p := range order {
		pkts := ExchangeRates[p] * active
		row := Exchange{Protocol: p, PacketsPerRound: pkts}
		if pkts > 0 {
			row.IndoorSeconds = indoor / pkts
			row.OutdoorSeconds = outdoor / pkts
		}
		out = append(out, row)
	}
	return out
}
