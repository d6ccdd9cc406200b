package core

import (
	"math"
	"math/rand"
	"testing"

	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/ofdm"
	"multiscatter/internal/radio"
)

// buildCarrier makes a small overlay carrier with tag data applied.
func buildCarrier(t *testing.T, p radio.Protocol) (*overlay.Carrier, *overlay.Plan, []byte, overlay.Codec) {
	t.Helper()
	codec, err := overlay.NewCodec(p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := overlay.NewPlan(p, overlay.Mode1, []byte{1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	carrier, err := codec.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	tagBits := []byte{0, 1, 1, 0}
	codec.ApplyTag(carrier, tagBits)
	return carrier, plan, tagBits, codec
}

func TestRecoverDelayOnly(t *testing.T) {
	for _, p := range radio.Protocols {
		carrier, plan, tagBits, codec := buildCarrier(t, p)
		Impair(carrier, Impairments{DelaySamples: 251, SNRdB: 18, Seed: 4})
		rx := NewReceiver(p)
		rx.SearchHz = 0 // delay-only recovery
		cfo, delay, err := rx.Recover(carrier)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if cfo != 0 {
			t.Fatalf("%v: CFO = %v, want 0", p, cfo)
		}
		// ZigBee's repeating preamble allows symbol-period ambiguity;
		// the others must be exact.
		if p == radio.ProtocolZigBee {
			if (delay-251)%128 != 0 {
				t.Fatalf("ZigBee delay = %d", delay)
			}
			if delay != 251 {
				continue // ambiguous lock: skip decode check
			}
		} else if delay != 251 {
			t.Fatalf("%v: delay = %d, want 251", p, delay)
		}
		res, err := codec.Decode(carrier)
		if err != nil {
			t.Fatalf("%v: decode: %v", p, err)
		}
		pe, te := res.BitErrors(plan, tagBits)
		if pe != 0 || te != 0 {
			t.Fatalf("%v: post-recovery errors %d/%d", p, pe, te)
		}
	}
}

func TestRecoverCFOAndDelay(t *testing.T) {
	// The tag's oscillator error leaves a residual CFO; the receiver's
	// brute-force alignment must find it within one search step and the
	// decode must succeed. DSSS/BLE/ZigBee tolerate small residuals;
	// 802.11n needs the pilot-free uncoded path so we test the three
	// narrowband protocols here.
	for _, tc := range []struct {
		p   radio.Protocol
		cfo float64
	}{
		{radio.Protocol80211b, 20e3},
		{radio.ProtocolBLE, -15e3},
		{radio.ProtocolZigBee, 10e3},
	} {
		carrier, plan, tagBits, codec := buildCarrier(t, tc.p)
		Impair(carrier, Impairments{DelaySamples: 97, CFOHz: tc.cfo, SNRdB: 20, Seed: 6})
		rx := NewReceiver(tc.p)
		cfo, _, err := rx.Recover(carrier)
		if err != nil {
			t.Fatalf("%v: %v", tc.p, err)
		}
		if math.Abs(cfo-tc.cfo) > rx.StepHz {
			t.Fatalf("%v: estimated CFO %v, want ≈%v", tc.p, cfo, tc.cfo)
		}
		res, err := codec.Decode(carrier)
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.p, err)
		}
		pe, te := res.BitErrors(plan, tagBits)
		if pe != 0 || te != 0 {
			t.Fatalf("%v: errors %d/%d after CFO recovery (est %v Hz)", tc.p, pe, te, cfo)
		}
	}
}

func TestRecoverWrongProtocol(t *testing.T) {
	carrier, _, _, _ := buildCarrier(t, radio.ProtocolBLE)
	rx := NewReceiver(radio.ProtocolZigBee)
	if _, _, err := rx.Recover(carrier); err == nil {
		t.Fatal("expected protocol mismatch error")
	}
}

func TestRecoverNoFrame(t *testing.T) {
	carrier, _, _, _ := buildCarrier(t, radio.ProtocolBLE)
	// Destroy the waveform: pure noise.
	Impair(carrier, Impairments{SNRdB: -30, Seed: 9})
	rx := NewReceiver(radio.ProtocolBLE)
	rx.SearchHz = 10e3
	if _, _, err := rx.Recover(carrier); err == nil {
		t.Fatal("expected no-frame error in heavy noise")
	}
}

// directCorrPeak is the time-domain matched filter the receiver used
// before its search moved to the frequency domain, kept as the
// oracle's inner loop.
func directCorrPeak(x, ref []complex128, maxOffset int) (int, float64) {
	m := len(ref)
	if m == 0 || len(x) < m {
		return -1, 0
	}
	limit := len(x) - m
	if maxOffset > 0 && maxOffset < limit {
		limit = maxOffset
	}
	var eRef float64
	for _, v := range ref {
		eRef += real(v)*real(v) + imag(v)*imag(v)
	}
	if eRef == 0 {
		return -1, 0
	}
	bestOff, bestScore := -1, 0.0
	var eX float64
	for i := 0; i < m; i++ {
		eX += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	for off := 0; off <= limit; off++ {
		if eX > 0 {
			var accRe, accIm float64
			for i := 0; i < m; i++ {
				xv := x[off+i]
				rv := ref[i]
				accRe += real(xv)*real(rv) + imag(xv)*imag(rv)
				accIm += imag(xv)*real(rv) - real(xv)*imag(rv)
			}
			score := math.Sqrt(accRe*accRe+accIm*accIm) / math.Sqrt(eX*eRef)
			if score > bestScore {
				bestScore, bestOff = score, off
			}
		}
		if off < limit {
			out := x[off]
			in := x[off+m]
			eX += real(in)*real(in) + imag(in)*imag(in) -
				real(out)*real(out) - imag(out)*imag(out)
			if eX < 0 {
				eX = 0
			}
		}
	}
	return bestOff, bestScore
}

// bruteForceSearch is the receiver's CFO × delay search as it was: per
// candidate, clone the probe, derotate it and run the protocol's sync on
// it, with the direct matched filter for the three matched-filter
// protocols. It returns the lock Recover must reproduce, without
// touching iq.
func bruteForceSearch(r *Receiver, iq []complex128, rate float64) (cfo float64, delay int) {
	probeLen := min(r.MaxDelay+int(rate*300e-6), len(iq))
	ref := r.syncReference()
	bestScore := -1.0
	bestCFO, bestOff := 0.0, -1
	step := r.StepHz
	if step <= 0 {
		step = 5e3
	}
	for cand := -r.SearchHz; cand <= r.SearchHz+1; cand += step {
		probe := dsp.Clone(iq[:probeLen])
		dsp.Rotate(probe, -cand, rate, 0)
		var off int
		var score float64
		if ref == nil {
			off, score = ofdm.Synchronize(radio.Waveform{IQ: probe, Rate: rate}, r.MaxDelay)
		} else if off, score = directCorrPeak(probe, ref, r.MaxDelay); score < 0.5 {
			off = -1
		}
		if off >= 0 && score > bestScore {
			bestScore, bestCFO, bestOff = score, cand, off
		}
	}
	return bestCFO, bestOff
}

// TestRecoverMatchesBruteForce pins Recover's lock to the direct search
// on 208 seeded impairments: delays 0–1900, CFO within ±55 kHz on the
// protocols whose receivers search it (802.11n gets none), SNR 8–28 dB,
// every fifth case without AWGN.
func TestRecoverMatchesBruteForce(t *testing.T) {
	const perProtocol = 52
	for pi, p := range radio.Protocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			codec, err := overlay.NewCodec(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100 + pi)))
			productive := make([]byte, 32)
			for i := range productive {
				productive[i] = byte(rng.Intn(2))
			}
			plan, err := overlay.NewPlan(p, overlay.Mode1, productive)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := codec.Build(plan)
			if err != nil {
				t.Fatal(err)
			}
			rx := NewReceiver(p)
			for i := 0; i < perProtocol; i++ {
				imp := Impairments{DelaySamples: rng.Intn(1901), SNRdB: 8 + 20*rng.Float64(), Seed: rng.Int63()}
				if p != radio.Protocol80211n {
					imp.CFOHz = (2*rng.Float64() - 1) * 55e3
				}
				if i%5 == 4 {
					imp.SNRdB = 0
				}
				c := *clean
				c.Waveform.IQ = dsp.Clone(clean.Waveform.IQ)
				Impair(&c, imp)
				wantCFO, wantDelay := bruteForceSearch(rx, c.Waveform.IQ, c.Waveform.Rate)
				cfo, delay, err := rx.Recover(&c)
				if wantDelay < 0 {
					if err == nil {
						t.Fatalf("case %d %+v: Recover locked at (%v Hz, %d), direct search found nothing", i, imp, cfo, delay)
					}
					continue
				}
				if err != nil || cfo != wantCFO || delay != wantDelay {
					t.Fatalf("case %d %+v: Recover (%v Hz, %d, %v), direct search (%v Hz, %d)",
						i, imp, cfo, delay, err, wantCFO, wantDelay)
				}
			}
		})
	}
}

// BenchmarkRecover times the receiver's search per packet: BLE and
// 802.11b over the default ±60 kHz grid, ZigBee and 802.11n at SearchHz
// 0, as the msperf pipeline drives them.
func BenchmarkRecover(b *testing.B) {
	for _, p := range radio.Protocols {
		b.Run(p.String(), func(b *testing.B) {
			codec, err := overlay.NewCodec(p)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := overlay.NewPlan(p, overlay.Mode1, make([]byte, 128))
			if err != nil {
				b.Fatal(err)
			}
			clean, err := codec.Build(plan)
			if err != nil {
				b.Fatal(err)
			}
			imp := Impairments{DelaySamples: 150, SNRdB: 22, Seed: 3}
			rx := NewReceiver(p)
			if p == radio.ProtocolZigBee || p == radio.Protocol80211n {
				rx.SearchHz = 0
			} else {
				imp.CFOHz = 12e3
			}
			Impair(clean, imp)
			impaired := clean.Waveform.IQ
			buf := make([]complex128, len(impaired))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := *clean
				c.Waveform.IQ = buf
				copy(buf, impaired)
				if _, _, err := rx.Recover(&c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
