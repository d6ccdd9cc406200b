package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// nearestByHypot is the scan nearestReceiver stands in for: the first
// receiver of least math.Hypot distance, receiver 0 when all are +Inf.
func nearestByHypot(x, y float64, rx []ReceiverSpec) (int, float64) {
	best, dist := 0, math.Inf(1)
	for i, r := range rx {
		if d := math.Hypot(x-r.X, y-r.Y); d < dist {
			best, dist = i, d
		}
	}
	return best, dist
}

// TestNearestReceiverMatchesHypotScan checks nearestReceiver's receiver
// and distance, bit for bit, against the Hypot scan: on random layouts,
// and on layouts built to tie or nearly tie (receivers mirrored about the
// tag, receivers 1 ulp apart, duplicates, a tag on a receiver, receivers
// where squared distances overflow to +Inf or underflow to subnormals or
// zero), each also at scales from 1e-170 to 1e307.
func TestNearestReceiverMatchesHypotScan(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	coord := func() float64 { return 100 * r.Float64() }
	layouts := []func() (x, y float64, rx []ReceiverSpec){
		// Random.
		func() (float64, float64, []ReceiverSpec) {
			rx := make([]ReceiverSpec, 1+r.Intn(64))
			for i := range rx {
				rx[i] = ReceiverSpec{X: coord(), Y: coord()}
			}
			return coord(), coord(), rx
		},
		// Mirrored about the tag, about its axes and its diagonal.
		func() (float64, float64, []ReceiverSpec) {
			x, y := coord(), coord()
			var rx []ReceiverSpec
			for range 1 + r.Intn(6) {
				a, b := 10*r.Float64(), 10*r.Float64()
				if r.Intn(3) == 0 {
					b = a
				}
				for _, p := range [][2]float64{{a, b}, {-a, b}, {a, -b}, {-a, -b}, {b, a}, {-b, -a}} {
					rx = append(rx, ReceiverSpec{X: x + p[0], Y: y + p[1]})
				}
			}
			r.Shuffle(len(rx), func(i, j int) { rx[i], rx[j] = rx[j], rx[i] })
			return x, y, rx
		},
		// Receivers a few ulps apart, the tag near or far; duplicates.
		func() (float64, float64, []ReceiverSpec) {
			bx, by := coord(), coord()
			rx := make([]ReceiverSpec, 2+r.Intn(8))
			for i := range rx {
				rx[i] = ReceiverSpec{X: bx, Y: by}
				for range r.Intn(3) {
					rx[i].X = math.Nextafter(rx[i].X, math.Inf(2*r.Intn(2)-1))
				}
				for range r.Intn(3) {
					rx[i].Y = math.Nextafter(rx[i].Y, math.Inf(2*r.Intn(2)-1))
				}
			}
			reach := math.Pow(10, float64(r.Intn(8)-4))
			return bx + reach*(r.Float64()-0.5), by + reach*(r.Float64()-0.5), rx
		},
		// Receivers around a tag at the origin, at distances where the
		// squares overflow to +Inf or fall below the least normal float.
		func() (float64, float64, []ReceiverSpec) {
			reach := []float64{math.Sqrt(math.MaxFloat64), math.Sqrt(0x1p-1022), math.Sqrt(0x1p-1075)}[r.Intn(3)]
			rx := make([]ReceiverSpec, 2+r.Intn(16))
			for i := range rx {
				d, th := reach*(1+4e-15*(r.Float64()-0.5)), r.Float64()*math.Pi/2
				rx[i] = ReceiverSpec{X: d * math.Cos(th), Y: d * math.Sin(th)}
			}
			return 0, 0, rx
		},
		// A tag on one of the receivers.
		func() (float64, float64, []ReceiverSpec) {
			rx := make([]ReceiverSpec, 1+r.Intn(16))
			for i := range rx {
				rx[i] = ReceiverSpec{X: coord(), Y: coord()}
			}
			on := rx[r.Intn(len(rx))]
			return on.X, on.Y, rx
		},
	}
	// Receiver 1 is the nearer by Hypot, though its square is larger:
	// receiver 0's square underflows to 0 and receiver 1's is subnormal,
	// or receiver 0's is finite and receiver 1's overflows to +Inf.
	edges := [][]ReceiverSpec{
		{{X: 1.41 * 0x1p-538, Y: 1.41 * 0x1p-538}, {X: 1.9 * 0x1p-538}},
		{{X: 1.2326446211595935e+153, Y: 1.3351026204908666e+154}, {X: 2.3758294261076958e+153, Y: 1.3195633672706755e+154}},
	}
	for _, rx := range edges {
		if got, _ := nearestReceiver(0, 0, rx, make([]float64, len(rx))); got != 1 {
			t.Fatalf("receivers %v: receiver %d, want 1", rx, got)
		}
	}
	scales := []float64{1, 1e150, 1e-150, 1e154, 1e-154, 1e155, 1e-160, 1e-170, 1e307}
	for _, layout := range layouts {
		for _, scale := range scales {
			for range 300 {
				x, y, rx := layout()
				x, y = x*scale, y*scale
				for i := range rx {
					rx[i].X *= scale
					rx[i].Y *= scale
				}
				gi, gd := nearestReceiver(x, y, rx, make([]float64, len(rx)))
				wi, wd := nearestByHypot(x, y, rx)
				if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
					t.Fatalf("tag (%v, %v), receivers %v: receiver %d at %v, Hypot scan gives %d at %v",
						x, y, rx, gi, gd, wi, wd)
				}
			}
		}
	}
}
