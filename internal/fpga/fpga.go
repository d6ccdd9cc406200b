// Package fpga models the tag's digital-logic cost: D-flip-flop and LUT
// budgets for the multiprotocol identification correlators (Tables 2 and
// 5 of the paper), the AGLN250 capacity check, and the prototype's power
// breakdown (Table 3). The per-element costs are the ones the paper
// publishes: a 9×9 multiplier takes 259 D-flip-flops and a 9-bit adder
// takes 19.
package fpga

// Published per-element synthesis costs (paper §2.3.1).
const (
	// DFFPerMultiplier is the D-flip-flop cost of a 9×9 multiplier.
	DFFPerMultiplier = 259
	// DFFPerAdder is the D-flip-flop cost of a 9-bit adder.
	DFFPerAdder = 19
	// AGLN250DFFs is the flip-flop capacity of the Igloo nano AGLN250.
	AGLN250DFFs = 6144
	// QuantizedDFFPerTap is the empirical flip-flop density of the ±1
	// quantized correlator, calibrated from the paper's measured 2,860
	// DFFs for four 120-tap templates (2860 / 480 taps).
	QuantizedDFFPerTap = 2860.0 / 480.0
)

// Resources is a synthesis resource estimate.
type Resources struct {
	// Multipliers used (9×9).
	Multipliers int
	// Adders used (9-bit).
	Adders int
	// DFFs is the D-flip-flop total.
	DFFs int
}

// NaiveCorrelator returns the resources of a full-precision correlator
// over one template of templateSize 9-bit samples: one multiplier per tap
// and an adder tree of templateSize−1 adders.
func NaiveCorrelator(templateSize int) Resources {
	if templateSize < 1 {
		return Resources{}
	}
	m := templateSize
	a := templateSize - 1
	return Resources{
		Multipliers: m,
		Adders:      a,
		DFFs:        m*DFFPerMultiplier + a*DFFPerAdder,
	}
}

// NaiveMultiprotocol returns the naive implementation cost of matching
// protocols templates in parallel (Table 2's "Naive Impl." row).
func NaiveMultiprotocol(templateSize, protocols int) Resources {
	one := NaiveCorrelator(templateSize)
	return Resources{
		Multipliers: one.Multipliers * protocols,
		Adders:      one.Adders * protocols,
		DFFs:        one.DFFs * protocols,
	}
}

// QuantizedMultiprotocol returns the ±1-quantized implementation cost
// (Table 2's "Nano FPGA Impl." row): quantization replaces multipliers
// with sign agreements accumulated by counters, with an empirical DFF
// density per template tap.
func QuantizedMultiprotocol(templateSize, protocols int) Resources {
	taps := templateSize * protocols
	if taps < 0 {
		taps = 0
	}
	return Resources{
		Multipliers: 0,
		Adders:      protocols,
		DFFs:        int(QuantizedDFFPerTap*float64(taps) + 0.5),
	}
}

// FitsAGLN250 reports whether the estimate fits the AGLN250's flip-flops.
func (r Resources) FitsAGLN250() bool { return r.DFFs <= AGLN250DFFs }

// IdentSetup describes one protocol-identification implementation point
// of Table 5.
type IdentSetup struct {
	// RateMsps is the ADC sampling rate in Msps.
	RateMsps float64
	// Quantized selects the ±1 implementation.
	Quantized bool
}

// identAnchor holds the paper's measured Artix-7 synthesis points.
var identAnchors = map[IdentSetup]IdentCost{
	{RateMsps: 20, Quantized: false}:  {PowerMW: 564, LUTs: 34751},
	{RateMsps: 20, Quantized: true}:   {PowerMW: 12, LUTs: 1574},
	{RateMsps: 2.5, Quantized: true}:  {PowerMW: 2, LUTs: 1070},
	{RateMsps: 10, Quantized: true}:   {PowerMW: 6.9, LUTs: 1358},
	{RateMsps: 2.5, Quantized: false}: {PowerMW: 91, LUTs: 34751},
	{RateMsps: 1, Quantized: true}:    {PowerMW: 1.2, LUTs: 1012},
}

// IdentCost is a Table 5 row: simulated power and LUT usage on the
// Artix-7 used for comparison (the naive variants do not fit an AGLN250).
type IdentCost struct {
	// PowerMW is the simulated power in milliwatts.
	PowerMW float64
	// LUTs is the look-up-table count.
	LUTs int
}

// IdentCostOf returns the cost of a protocol-identification setup. The
// paper's three published points are returned exactly; other rates
// interpolate with the dynamic-power scaling law P ≈ P_static +
// k·LUTs·rate anchored on the published points.
func IdentCostOf(s IdentSetup) IdentCost {
	if c, ok := identAnchors[s]; ok {
		return c
	}
	// Scale from the nearest anchored point of the same implementation
	// class: LUTs shrink weakly with rate (shorter windows), power
	// scales linearly with rate plus a static floor.
	var base IdentSetup
	if s.Quantized {
		base = IdentSetup{RateMsps: 20, Quantized: true}
	} else {
		base = IdentSetup{RateMsps: 20, Quantized: false}
	}
	b := identAnchors[base]
	ratio := s.RateMsps / base.RateMsps
	static := 0.5 // mW static floor
	return IdentCost{
		PowerMW: static + (b.PowerMW-static)*ratio,
		LUTs:    b.LUTs,
	}
}

// PowerSavingFactor returns how much lower the given setup's power is
// than the naive 20 Msps implementation (the paper's headline 282×).
func PowerSavingFactor(s IdentSetup) float64 {
	naive := identAnchors[IdentSetup{RateMsps: 20, Quantized: false}]
	c := IdentCostOf(s)
	if c.PowerMW <= 0 {
		return 0
	}
	return naive.PowerMW / c.PowerMW
}

// PowerBreakdown is the COTS prototype's peak power budget (Table 3).
type PowerBreakdown struct {
	// PacketDetectFPGAmW is the FPGA share of packet detection.
	PacketDetectFPGAmW float64
	// ADCmW is the converter at the configured sampling rate.
	ADCmW float64
	// ModulationFPGAmW is the FPGA share of tag modulation.
	ModulationFPGAmW float64
	// RFSwitchMW is the ADG902 backscatter switch.
	RFSwitchMW float64
	// OscillatorMW is the 20 MHz clock.
	OscillatorMW float64
}

// NewPowerBreakdown returns Table 3's peak budget at 20 Msps.
func NewPowerBreakdown() PowerBreakdown {
	return PowerBreakdown{
		PacketDetectFPGAmW: 2.5,
		ADCmW:              260,
		ModulationFPGAmW:   1.0,
		RFSwitchMW:         0.1,
		OscillatorMW:       15.9,
	}
}

// TotalMW sums the budget.
func (p PowerBreakdown) TotalMW() float64 {
	return p.PacketDetectFPGAmW + p.ADCmW + p.ModulationFPGAmW + p.RFSwitchMW + p.OscillatorMW
}

// AtADCRate returns the breakdown with the ADC share rescaled to the
// given sampling rate (linear CMOS scaling from the 260 mW / 20 Msps
// anchor).
func (p PowerBreakdown) AtADCRate(rateMsps float64) PowerBreakdown {
	out := p
	out.ADCmW = 260 * rateMsps / 20
	return out
}
