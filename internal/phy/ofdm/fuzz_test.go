package ofdm

import (
	"math"
	"testing"

	"multiscatter/internal/radio"
)

// FuzzJointDemodulate feeds the joint decoder garbage: the layout of a
// real uncoded four-symbol frame over an n-sample waveform (n up to the
// frame's length) built from arbitrary bytes, one sample per byte,
// repeated as needed. Each nibble picks a component from jointLevels, so
// NaN, ±Inf, ±0 and extreme magnitudes occur. It runs for 1–6
// concurrent tags, with or without a known excitation. Demodulate must
// return one stream per tag or an error, never panic. Short inputs
// cover whole frames, which keeps the fuzzer's minimization quick.
func FuzzJointDemodulate(f *testing.F) {
	cfg := Config{Modulation: QPSK}
	payload := make([]byte, 52)
	for i := range payload {
		payload[i] = byte(i*29 + 7)
	}
	frame, info := NewModulator(cfg).Modulate(radio.Packet{Protocol: radio.Protocol80211n, Payload: payload})
	// One seed is the start of the frame itself, each component rounded
	// to the nearest finite level.
	nearest := func(v float64) byte {
		best := 0
		for l, lv := range jointLevels[:9] {
			if math.Abs(v-lv) < math.Abs(v-jointLevels[best]) {
				best = l
			}
		}
		return byte(best)
	}
	head := make([]byte, 80)
	for i, v := range frame.IQ[:len(head)] {
		head[i] = nearest(real(v)) | nearest(imag(v))<<4
	}
	full := uint16(len(frame.IQ))
	f.Add(uint8(0), false, full, head)
	f.Add(uint8(5), true, full, head)
	f.Add(uint8(2), false, uint16(info.PreambleEnd), head)
	f.Add(uint8(3), true, full, []byte{0xCA, 0xBC, 0x00, 0x11})
	f.Add(uint8(1), false, full, []byte{})
	f.Fuzz(func(t *testing.T, k uint8, excite bool, n uint16, data []byte) {
		iq := make([]complex128, int(n)%(len(frame.IQ)+1))
		if len(data) > 0 {
			for i := range iq {
				b := data[i%len(data)]
				iq[i] = complex(jointLevels[b&15], jointLevels[b>>4])
			}
		}
		tags := 1 + int(k)%6
		j, err := NewJointDemodulator(cfg, AssignConcurrent(tags))
		if err != nil {
			t.Fatal(err)
		}
		if excite {
			j.SetExcitation(radio.BytesToBits(data[:min(len(data), 64)]))
		}
		streams, err := j.Demodulate(radio.Waveform{IQ: iq, Rate: SampleRate}, info)
		if err == nil && len(streams) != tags {
			t.Fatalf("%d streams for %d tags", len(streams), tags)
		}
	})
}

// jointLevels are the sample components FuzzJointDemodulate can build;
// the first nine are the finite levels its seed is rounded to.
var jointLevels = [16]float64{
	0, 0.1, -0.1, 0.5, -0.5, 1, -1, 2, -2,
	math.Copysign(0, -1), 1e-300, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}
