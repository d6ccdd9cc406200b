package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomIQ(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func BenchmarkFFT64(b *testing.B) {
	x := randomIQ(64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randomIQ(1024, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// BenchmarkFFT4096 times the receiver's sync transform size.
func BenchmarkFFT4096(b *testing.B) {
	x := randomIQ(4096, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// BenchmarkFFTPlanVsLegacy pits the planned transform against the legacy
// direct implementation at the sizes the simulator uses (64 = one OFDM
// symbol, 1024 = spectrum diagnostics).
func BenchmarkFFTPlanVsLegacy(b *testing.B) {
	for _, n := range []int{64, 1024} {
		x := randomIQ(n, int64(n))
		p := PlanFFT(n)
		b.Run(fmt.Sprintf("plan-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Forward(x)
			}
		})
		b.Run(fmt.Sprintf("legacy-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fftDirect(x, false)
			}
		})
	}
}

func BenchmarkFIRApplyInto(b *testing.B) {
	f := NewLowpass(0.1, 63)
	x := randomIQ(4096, 9)
	dst := make([]complex128, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.ApplyInto(dst, x)
	}
}

func BenchmarkEnvelopeInto(b *testing.B) {
	x := randomIQ(4096, 10)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EnvelopeInto(dst, x)
	}
}

func BenchmarkSlidingNormCorrInto(b *testing.B) {
	src := randomIQ(800, 11)
	x := make([]float64, len(src))
	for i, v := range src {
		x[i] = real(v)
	}
	tmpl := x[100:220:220]
	dst := make([]float64, len(x)-len(tmpl)+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SlidingNormCorrInto(dst, x, tmpl)
	}
}

func BenchmarkRotateZeroFreq(b *testing.B) {
	x := randomIQ(4096, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Rotate(x, 0, 20e6, 0.5)
	}
}

func BenchmarkNormCorr120(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 120)
	t := make([]float64, 120)
	for i := range x {
		x[i] = rng.NormFloat64()
		t[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormCorrFloat(x, t)
	}
}

func BenchmarkSignCorr120(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]int8, 120)
	t := make([]int8, 120)
	for i := range x {
		x[i] = int8(rng.Intn(2)*2 - 1)
		t[i] = int8(rng.Intn(2)*2 - 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SignCorr(x, t)
	}
}

func BenchmarkRotate(b *testing.B) {
	x := randomIQ(4096, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Rotate(x, 1e5, 20e6, 0)
	}
}

func BenchmarkCrossCorrPeak(b *testing.B) {
	x := randomIQ(2000, 6)
	ref := randomIQ(320, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CrossCorrPeak(x, ref, 1000)
	}
}

// BenchmarkCrossCorrSearch times the receiver's CFO × delay search at
// the BLE sizes: a 320-sample header searched over 2001 offsets and a
// 25-point ±60 kHz grid at 8 Msps (4096-point transforms).
func BenchmarkCrossCorrSearch(b *testing.B) {
	x := randomIQ(4400, 6)
	ref := randomIQ(320, 7)
	freqs := make([]float64, 25)
	for k := range freqs {
		freqs[k] = -60e3 + 5e3*float64(k)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CrossCorrSearch(x, ref, 2000, freqs, 8e6)
	}
}
