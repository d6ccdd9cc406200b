package fpga

import (
	"math"
	"testing"
)

func TestNaiveCorrelatorTable2Row(t *testing.T) {
	// Table 2: one protocol at template size 120 → 120 multipliers, 119
	// adders, 33,341 DFFs.
	r := NaiveCorrelator(120)
	if r.Multipliers != 120 || r.Adders != 119 {
		t.Fatalf("element counts = %+v", r)
	}
	if r.DFFs != 33341 {
		t.Fatalf("DFFs = %d, want 33341", r.DFFs)
	}
	if r.FitsAGLN250() {
		t.Fatal("naive single-protocol correlator must not fit the AGLN250")
	}
	if got := NaiveCorrelator(0); got.DFFs != 0 {
		t.Fatal("degenerate template size")
	}
}

func TestNaiveMultiprotocolTable2Total(t *testing.T) {
	// Table 2 total: 480 multipliers, 476 adders, 133,364 DFFs.
	r := NaiveMultiprotocol(120, 4)
	if r.Multipliers != 480 || r.Adders != 476 || r.DFFs != 133364 {
		t.Fatalf("naive total = %+v", r)
	}
}

func TestQuantizedFitsNano(t *testing.T) {
	// Table 2: the quantized 4-protocol matcher takes 2,860 DFFs and
	// fits the AGLN250's 6,144.
	r := QuantizedMultiprotocol(120, 4)
	if r.DFFs != 2860 {
		t.Fatalf("quantized DFFs = %d, want 2860", r.DFFs)
	}
	if !r.FitsAGLN250() {
		t.Fatal("quantized matcher must fit the AGLN250")
	}
	if r.Multipliers != 0 {
		t.Fatal("quantization must eliminate multipliers")
	}
	// Reduction factor ≈ 46×.
	naive := NaiveMultiprotocol(120, 4)
	if f := float64(naive.DFFs) / float64(r.DFFs); f < 40 || f > 55 {
		t.Fatalf("DFF reduction %v out of expected range", f)
	}
}

func TestIdentCostTable5(t *testing.T) {
	cases := []struct {
		setup IdentSetup
		power float64
		luts  int
	}{
		{IdentSetup{20, false}, 564, 34751},
		{IdentSetup{20, true}, 12, 1574},
		{IdentSetup{2.5, true}, 2, 1070},
	}
	for _, c := range cases {
		got := IdentCostOf(c.setup)
		if got.PowerMW != c.power || got.LUTs != c.luts {
			t.Errorf("%+v → %+v, want {%v %v}", c.setup, got, c.power, c.luts)
		}
	}
}

func TestPowerSaving282x(t *testing.T) {
	// The headline: 2.5 Msps + quantization is 282× below naive.
	f := PowerSavingFactor(IdentSetup{RateMsps: 2.5, Quantized: true})
	if f != 282 {
		t.Fatalf("saving factor = %v, want 282", f)
	}
	// Quantization alone at 20 Msps: 564/12 = 47×.
	f = PowerSavingFactor(IdentSetup{RateMsps: 20, Quantized: true})
	if math.Abs(f-47) > 0.01 {
		t.Fatalf("quantization-only factor = %v, want 47", f)
	}
}

func TestIdentCostInterpolation(t *testing.T) {
	// Non-anchored points scale monotonically with rate.
	p5 := IdentCostOf(IdentSetup{RateMsps: 5, Quantized: true})
	p15 := IdentCostOf(IdentSetup{RateMsps: 15, Quantized: true})
	if !(p5.PowerMW < p15.PowerMW) {
		t.Fatalf("power not monotone in rate: %v vs %v", p5.PowerMW, p15.PowerMW)
	}
	if p5.PowerMW <= 0 {
		t.Fatal("interpolated power must be positive")
	}
}

func TestPowerBreakdownTable3(t *testing.T) {
	p := NewPowerBreakdown()
	if got := p.TotalMW(); math.Abs(got-279.5) > 1e-9 {
		t.Fatalf("total = %v mW, want 279.5", got)
	}
	// The ADC dominates (93% of the budget).
	if p.ADCmW/p.TotalMW() < 0.9 {
		t.Fatal("ADC should dominate the budget")
	}
	// At 2.5 Msps the ADC share drops 8×.
	low := p.AtADCRate(2.5)
	if math.Abs(low.ADCmW-32.5) > 1e-9 {
		t.Fatalf("ADC at 2.5 Msps = %v", low.ADCmW)
	}
	if low.OscillatorMW != p.OscillatorMW {
		t.Fatal("non-ADC parts must not change")
	}
}
