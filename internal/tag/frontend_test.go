package tag

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// pipelineCarriers builds one overlay carrier per protocol the way the
// waveform pipeline does: a Mode1 plan over 128 random productive bits,
// through the protocol's default codec.
func pipelineCarriers(t testing.TB) []radio.Waveform {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var out []radio.Waveform
	for _, p := range radio.Protocols {
		bits := make([]byte, 128)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		plan, err := overlay.NewPlan(p, overlay.Mode1, bits)
		if err != nil {
			t.Fatal(err)
		}
		codec, err := overlay.NewCodec(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := codec.Build(plan)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c.Waveform)
	}
	return out
}

// acquireUnfused is Acquire's chain before the anti-alias filter moved
// into the ADC's resampler — envelope, Detect, a full ApplyFloat, then
// ADC.Sample — kept as the oracle of TestAcquireMatchesUnfused.
func acquireUnfused(f *FrontEnd, iq []complex128, rate float64) []float64 {
	if len(iq) == 0 || rate <= 0 {
		return nil
	}
	rect := f.Rectifier.Detect(envelopeUnfused(f, iq, rate), rate)
	if !f.NoAntiAlias && f.ADC.Rate < rate {
		cutoff := 0.4 * f.ADC.Rate / rate
		taps := int(2*rate/f.ADC.Rate) | 1
		if taps < 9 {
			taps = 9
		}
		if taps > 63 {
			taps = 63
		}
		rect = dsp.NewLowpass(cutoff, taps).ApplyFloat(rect)
	}
	return f.ADC.Sample(rect, rate)
}

// envelopeUnfused is the allocating envelope stage, verbatim.
func envelopeUnfused(f *FrontEnd, iq []complex128, rate float64) []float64 {
	scale := f.InputScale
	if scale <= 0 {
		scale = 0.1
	}
	if f.Slope == 0 {
		env := dsp.Envelope(iq)
		for i := range env {
			env[i] *= scale
		}
		return env
	}
	ref := f.SlopeRefHz
	if ref <= 0 {
		ref = 2e6
	}
	k := f.Slope / (2 * math.Pi * ref)
	env := make([]float64, len(iq))
	for i := range iq {
		var d complex128
		switch {
		case i == 0:
			d = (iq[1] - iq[0]) * complex(rate, 0)
		case i == len(iq)-1:
			d = (iq[i] - iq[i-1]) * complex(rate, 0)
		default:
			d = (iq[i+1] - iq[i-1]) * complex(rate/2, 0)
		}
		y := iq[i] - complex(0, k)*d
		re, im := real(y), imag(y)
		env[i] = scale * math.Sqrt(re*re+im*im)
	}
	return env
}

// TestAcquireMatchesUnfused pins the fused front end to the unfused
// chain bit for bit, over the four protocols' pipeline carriers at ADC
// rates below, at and above their sample rates (so the filtered,
// unfiltered, downsampling and upsampling paths all run), with and
// without the FM→AM tilt, the anti-alias filter and converter noise,
// at the tag's 9 bits and at 62 bits, where quantization no longer
// hides a difference in the last bit of a filtered sample. One
// FrontEnd serves every carrier of a configuration, so its scratch is
// reused across lengths, and every returned stream is checked again at
// the end: a stream must not alias the scratch.
func TestAcquireMatchesUnfused(t *testing.T) {
	carriers := pipelineCarriers(t)
	for _, adcRate := range []float64{2.5e6, 4e6, 20e6, 25e6} {
		for _, slope := range []float64{0, 0.7} {
			for _, noAA := range []bool{false, true} {
				for _, noise := range []bool{false, true} {
					for _, bits := range []int{9, 62} {
						fe, ref := NewFrontEnd(adcRate), NewFrontEnd(adcRate)
						for _, f := range []*FrontEnd{fe, ref} {
							f.Slope, f.NoAntiAlias, f.ADC.Bits = slope, noAA, bits
							if noise {
								f.ADC.Rand = rand.New(rand.NewSource(int64(adcRate)))
							}
						}
						var got, want [][]float64
						for _, w := range carriers {
							got = append(got, fe.Acquire(w.IQ, w.Rate))
							want = append(want, acquireUnfused(ref, w.IQ, w.Rate))
						}
						for c := range carriers {
							if len(got[c]) != len(want[c]) {
								t.Fatalf("adc %g slope %g noAA %v noise %v bits %d carrier %d: %d samples, want %d",
									adcRate, slope, noAA, noise, bits, c, len(got[c]), len(want[c]))
							}
							for i := range want[c] {
								if math.Float64bits(got[c][i]) != math.Float64bits(want[c][i]) {
									t.Fatalf("adc %g slope %g noAA %v noise %v bits %d carrier %d sample %d: %v, want %v",
										adcRate, slope, noAA, noise, bits, c, i, got[c][i], want[c][i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestIdentifyBytes guards the front end's allocation: a warmed
// identifier at the default operating point (2.5 Msps, quantized,
// extended window) allocates at most half a float64 per input sample
// per Identify. Before the fused front end it allocated 3.2–3.5 times
// 8 bytes per sample: the envelope, the rectifier output and the
// filtered copy, each at the input rate.
func TestIdentifyBytes(t *testing.T) {
	id, err := NewIdentifier(IdentifierConfig{ADCRate: 2.5e6, Quantized: true, Extended: true, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range pipelineCarriers(t) {
		id.Identify(w.IQ, w.Rate, true)
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			id.Identify(w.IQ, w.Rate, true)
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
		if limit := 0.5 * 8 * float64(len(w.IQ)); perCall > limit {
			t.Errorf("%d-sample carrier at %g Hz: %.0f bytes per Identify, want at most %.0f", len(w.IQ), w.Rate, perCall, limit)
		}
	}
}
