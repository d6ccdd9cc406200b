package analog

import (
	"math"
	"testing"

	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"

	"multiscatter/internal/phy/dsss"
)

// squareEnvelope builds an on/off envelope alternating every halfPeriod
// samples, n samples total, amplitude amp.
func squareEnvelope(n, halfPeriod int, amp float64) []float64 {
	env := make([]float64, n)
	for i := range env {
		if (i/halfPeriod)%2 == 0 {
			env[i] = amp
		}
	}
	return env
}

func TestClampBoostsOutput(t *testing.T) {
	// Figure 4a: with the clamp, the rectifier produces higher output for
	// the same input.
	const rate = 22e6
	env := squareEnvelope(2200, 110, 0.3)
	basic := NewBasicRectifier().Detect(env, rate)
	clamped := NewMultiscatterRectifier().Detect(env, rate)
	pb := dsp.MeanFloat(basic)
	pc := dsp.MeanFloat(clamped)
	if pc <= pb {
		t.Fatalf("clamped mean output %v not above basic %v", pc, pb)
	}
}

func TestSubThresholdInputBlocked(t *testing.T) {
	// An input below the diode turn-on voltage never charges the basic
	// rectifier ("the diode will never turn on").
	const rate = 22e6
	env := squareEnvelope(2200, 110, 0.08) // 0.2 V after matching, below 0.25 V turn-on
	out := NewBasicRectifier().Detect(env, rate)
	if p := dsp.MeanFloat(out); p > 1e-12 {
		t.Fatalf("sub-threshold input produced output %v", p)
	}
	// The clamp rescues the same input.
	out = NewMultiscatterRectifier().Detect(env, rate)
	if p := dsp.MeanFloat(out); p <= 0 {
		t.Fatal("clamped rectifier should pass sub-threshold input")
	}
}

func TestWISPDistortsHighBandwidth(t *testing.T) {
	// Figure 4b: on an 802.11b input the WISP rectifier's slow discharge
	// smears the envelope; the multiscatter rectifier tracks it. Fidelity
	// is measured as correlation between rectified output and the true
	// envelope.
	mod := dsss.NewModulator(dsss.Config{Rate: dsss.Rate1Mbps})
	w, _ := mod.Modulate(radio.Packet{Payload: []byte{0xA5, 0x5A, 0x3C}})
	// Impose a 1 µs on/off amplitude pattern (the envelope the detector
	// must track after frequency conversion artifacts).
	env := dsp.Envelope(w.IQ)
	for i := range env {
		if (i/22)%2 == 1 {
			env[i] *= 0.2
		}
		env[i] *= 0.4
	}
	ours := NewMultiscatterRectifier().Detect(env, w.Rate)
	wisp := NewWISPRectifier().Detect(env, w.Rate)
	cOurs := dsp.NormCorrFloat(dsp.RemoveDC(dsp.CloneFloat(ours)), dsp.RemoveDC(dsp.CloneFloat(env)))
	cWISP := dsp.NormCorrFloat(dsp.RemoveDC(dsp.CloneFloat(wisp)), dsp.RemoveDC(dsp.CloneFloat(env)))
	if cOurs <= cWISP {
		t.Fatalf("multiscatter rectifier fidelity %v not above WISP %v", cOurs, cWISP)
	}
	if cOurs < 0.8 {
		t.Fatalf("multiscatter rectifier fidelity %v too low", cOurs)
	}
}

func TestWISPOutputVoltageHigher(t *testing.T) {
	// The paper: "the output voltage of our rectifier is less than half
	// of WISP" — the bandwidth/SNR trade.
	const rate = 22e6
	env := squareEnvelope(4400, 2200, 0.3) // slow envelope both can track
	ours := NewMultiscatterRectifier().Detect(env, rate)
	wisp := NewWISPRectifier().Detect(env, rate)
	peakOurs, _ := dsp.MaxFloat(ours)
	peakWISP, _ := dsp.MaxFloat(wisp)
	if peakOurs >= peakWISP {
		t.Fatalf("our peak %v should be below WISP %v", peakOurs, peakWISP)
	}
	if peakOurs < 0.3*peakWISP {
		t.Fatalf("our peak %v implausibly low vs WISP %v", peakOurs, peakWISP)
	}
}

func TestRectifierDegenerateInputs(t *testing.T) {
	r := NewMultiscatterRectifier()
	if out := r.Detect(nil, 20e6); out != nil {
		t.Fatal("nil input should return nil")
	}
	if out := r.Detect([]float64{1}, 0); out != nil {
		t.Fatal("zero rate should return nil")
	}
	// Negative envelope values are clamped to zero input.
	out := r.Detect([]float64{-1, -1, -1}, 20e6)
	for _, v := range out {
		if v != 0 {
			t.Fatal("negative envelope should produce zero output")
		}
	}
}

func TestSensitivity(t *testing.T) {
	r := NewMultiscatterRectifier()
	// At strong input (0 dBm) the 0.15 V threshold is met.
	if !r.Sensitivity(0, 0.15) {
		t.Fatal("0 dBm should exceed threshold")
	}
	// At very weak input (-40 dBm) it is not.
	if r.Sensitivity(-40, 0.15) {
		t.Fatal("-40 dBm should not exceed threshold")
	}
	// The paper's operating point: around −13 dBm tag sensitivity the
	// clamped rectifier is right at the edge; the basic one is far worse.
	basic := NewBasicRectifier()
	ms := -100.0
	for dbm := -30.0; dbm <= 10; dbm += 0.5 {
		if r.Sensitivity(dbm, 0.15) {
			ms = dbm
			break
		}
	}
	bs := -100.0
	for dbm := -30.0; dbm <= 10; dbm += 0.5 {
		if basic.Sensitivity(dbm, 0.15) {
			bs = dbm
			break
		}
	}
	if ms >= bs {
		t.Fatalf("clamped sensitivity %v dBm should beat basic %v dBm", ms, bs)
	}
	if ms < -16 || ms > -8 {
		t.Fatalf("clamped sensitivity %v dBm outside the paper's -13 dBm ballpark", ms)
	}
}

func TestADCQuantization(t *testing.T) {
	adc := NewADC(20e6)
	if got := adc.Code(0); got != 0 {
		t.Fatalf("Code(0) = %d", got)
	}
	if got := adc.Code(0.5); got != 511 {
		t.Fatalf("Code(VRef) = %d, want 511", got)
	}
	if got := adc.Code(1.0); got != 511 {
		t.Fatalf("Code above VRef should clip to 511, got %d", got)
	}
	if got := adc.Code(-0.1); got != 0 {
		t.Fatalf("negative voltage should clip to 0, got %d", got)
	}
	// Quantize round-trips within 1 LSB.
	lsb := 0.5 / 511
	for _, v := range []float64{0.1, 0.25, 0.33, 0.499} {
		if got := adc.Quantize(v); math.Abs(got-v) > lsb {
			t.Fatalf("Quantize(%v) = %v off by more than 1 LSB", v, got)
		}
	}
}

func TestADCVRefTuning(t *testing.T) {
	// Matching VRef to the input range uses more output codes — the
	// paper's ADC optimization note. A 0.15 V signal on a 1 V reference
	// uses ~76 codes; on a 0.2 V reference it uses ~383.
	wide := &ADC{Rate: 20e6, Bits: 9, VRef: 1.0}
	tuned := &ADC{Rate: 20e6, Bits: 9, VRef: 0.2}
	if wide.Code(0.15) >= tuned.Code(0.15) {
		t.Fatal("tuned reference should use more codes")
	}
}

func TestADCSampleRateConversion(t *testing.T) {
	adc := NewADC(10e6)
	in := make([]float64, 2000) // 20 Msps input
	for i := range in {
		in[i] = 0.4
	}
	out := adc.Sample(in, 20e6)
	if len(out) != 1000 {
		t.Fatalf("resampled length = %d, want 1000", len(out))
	}
	for _, v := range out {
		if math.Abs(v-0.4) > 0.01 {
			t.Fatalf("sample %v, want ≈0.4", v)
		}
	}
	if adc.Sample(nil, 20e6) != nil {
		t.Fatal("nil input")
	}
}

func TestADCDefaults(t *testing.T) {
	adc := &ADC{Rate: 20e6} // zero Bits/VRef fall back to 9-bit, 0.5 V
	if adc.Code(0.5) != 511 {
		t.Fatal("defaults not applied")
	}
	if adc.Quantize(0.5) != 0.5 {
		t.Fatal("default quantize")
	}
}

func TestWakeUpReceiver(t *testing.T) {
	w := NewWakeUpReceiver()
	// The cited design: 236 nW.
	if w.PowerMW() != 236e-6 {
		t.Fatalf("power = %v mW", w.PowerMW())
	}
	// Duty-weighted power: idle → wake-up floor; saturated → awake power.
	if got := w.EffectiveDutyPower(0, 278.4); got != w.PowerMW() {
		t.Fatalf("idle duty power = %v", got)
	}
	if got := w.EffectiveDutyPower(1.5, 278.4); got != 278.4 {
		t.Fatalf("saturated duty power = %v (clamp)", got)
	}
	mid := w.EffectiveDutyPower(0.01, 278.4)
	if mid < 2.7 || mid > 2.9 {
		t.Fatalf("1%% duty power = %v mW, want ≈2.78", mid)
	}
}
