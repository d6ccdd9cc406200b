package sim

import (
	"math"
	"math/rand"
	"testing"
)

// streams lists every stream constant; the exactness tests cover them all.
var streams = []int64{StreamFleetTimeline, StreamFleetShard, StreamFleetDownlink,
	StreamFleetShadow, StreamEnergyHarvest, StreamChannelPhase}

// testSeeds covers the seed reduction's edge cases: negative seeds, 0
// and the seeds math/rand maps onto it (multiples of 2³¹−1), the int64
// extremes, and a spread of ordinary values.
func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 42, 89482311, math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 31, -(1 << 31), 1 << 62}
	for k := int64(-3); k <= 3; k++ {
		seeds = append(seeds, k*int32max, k*int32max+1, k*int32max-1)
	}
	r := rand.New(rand.NewSource(2024))
	for range 40 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// assertSameSource draws n values from a Source's own methods and from
// math/rand's generator seeded alike, interleaving Int63, Uint64 and
// Float64, and fails on the first difference.
func assertSameSource(t *testing.T, s *Source, want *rand.Rand, n int) {
	t.Helper()
	for i := range n {
		var got, exp any
		switch i % 3 {
		case 0:
			got, exp = s.Int63(), want.Int63()
		case 1:
			got, exp = s.Uint64(), want.Uint64()
		case 2:
			got, exp = s.Float64(), want.Float64()
		}
		if got != exp {
			t.Fatalf("draw %d: got %v, math/rand gives %v", i, got, exp)
		}
	}
}

// assertSameRand draws n values from rand.New over a Source and from
// math/rand's own generator, through every kind of draw the engine's
// streams make, and fails on the first difference.
func assertSameRand(t *testing.T, r, want *rand.Rand, n int) {
	t.Helper()
	for i := range n {
		var got, exp any
		switch i % 6 {
		case 0:
			got, exp = r.Int63(), want.Int63()
		case 1:
			got, exp = r.Uint64(), want.Uint64()
		case 2:
			got, exp = r.Float64(), want.Float64()
		case 3:
			got, exp = r.NormFloat64(), want.NormFloat64()
		case 4:
			got, exp = r.ExpFloat64(), want.ExpFloat64()
		case 5:
			got, exp = r.Intn(1000), want.Intn(1000)
		}
		if got != exp {
			t.Fatalf("draw %d: got %v, math/rand gives %v", i, got, exp)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		assertSameSource(t, NewSource(seed), rand.New(rand.NewSource(seed)), 3000)
		assertSameRand(t, rand.New(NewSource(seed)), rand.New(rand.NewSource(seed)), 3000)
	}
	// Reseeding an advanced Source restarts the stream.
	s := NewSource(5)
	for range 1000 {
		s.Uint64()
	}
	s.Seed(-77)
	assertSameSource(t, s, rand.New(rand.NewSource(-77)), 1000)
}

// TestSeedRNGStreamsMatchMathRand pins every stream's generator, at many
// sites, to math/rand's over the same mixed seed, so the streams every
// golden depends on are math/rand's.
func TestSeedRNGStreamsMatchMathRand(t *testing.T) {
	sites := []uint64{0, 1, 2, 3, 255, 1 << 20, 1 << 40, math.MaxUint64}
	r := rand.New(rand.NewSource(99))
	for range 8 {
		sites = append(sites, r.Uint64())
	}
	for _, seed := range []int64{0, 1, -1, 7, 42, int32max, math.MinInt64, math.MaxInt64} {
		for _, stream := range streams {
			for _, site := range sites {
				want := rand.New(rand.NewSource(mixSeed(seed, stream, site)))
				assertSameRand(t, SeedRNGAt(seed, stream, site), want, 700)
			}
			assertSameSource(t, SeedSource(seed, stream), rand.New(rand.NewSource(mixSeed(seed, stream, 0))), 700)
		}
	}
}

// TestFloat64IntsBlocks draws blocks of every size from 0 to 64, each
// followed by a scalar Float64, and checks the whole sequence against
// math/rand's Float64 stream.
func TestFloat64IntsBlocks(t *testing.T) {
	var buf [64]int64
	for _, seed := range []int64{0, 3, -11, 1 << 40} {
		s, want := NewSource(seed), rand.New(rand.NewSource(seed))
		for round := range 3 {
			for n := 0; n <= len(buf); n++ {
				s.Float64Ints(buf[:n])
				for k, x := range buf[:n] {
					if x < 0 || x >= floatOne {
						t.Fatalf("seed %d round %d block %d draw %d: %d is not a Float64 draw", seed, round, n, k, x)
					}
					if got, exp := float64(x)/(1<<63), want.Float64(); got != exp {
						t.Fatalf("seed %d round %d block %d draw %d: %v, math/rand gives %v", seed, round, n, k, got, exp)
					}
				}
				if got, exp := s.Float64(), want.Float64(); got != exp {
					t.Fatalf("seed %d round %d after block %d: %v, math/rand gives %v", seed, round, n, got, exp)
				}
			}
		}
	}
}

// TestFloat64IntsSkipsResampled puts the generator in a state whose next
// values would make Float64 round to 1, and checks that the block draw
// skips exactly the values Float64 resamples.
func TestFloat64IntsSkipsResampled(t *testing.T) {
	s := NewSource(1)
	// Step k+1 from here adds vec[tap-1-k] into vec[feed-1-k]; force the
	// sums of the next five steps.
	sums := []int64{
		floatOne,                     // the least value Float64 resamples
		floatOne - 1,                 // the largest it keeps, just below 1
		-1,                           // 63 one bits after the mask: resampled
		math.MinInt64 + floatOne - 1, // the top bit is masked away: kept
		rngMask,                      // resampled
	}
	for k, sum := range sums {
		tap, feed := s.tap-1-k, s.feed-1-k
		if tap < 0 {
			tap += rngLen
		}
		s.vec[feed] = sum - s.vec[tap]
	}
	scalar := *s
	var got [3]int64
	s.Float64Ints(got[:])
	for k, x := range got {
		if want := scalar.Float64(); float64(x)/(1<<63) != want {
			t.Fatalf("draw %d: block %v, Float64 %v", k, float64(x)/(1<<63), want)
		}
	}
	if got[0] != floatOne-1 || got[1] != floatOne-1 {
		t.Fatalf("block draws %d, %d: want %d twice", got[0], got[1], int64(floatOne-1))
	}
	if *s != scalar {
		t.Fatal("block and scalar draws left the generator in different states")
	}
}

// TestCut checks the cut against the comparison it replaces,
// float64(x)/(1<<63) > p, for every x within ±4096 of the cut, over
// random probabilities and the edge cases.
func TestCut(t *testing.T) {
	ps := []float64{
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-53, 0x1p-10, 0.5,
		1 - 0x1p-53, 1 - 0x1p-52, 1, 1.5, math.Inf(1), 0, -0.5, math.Inf(-1),
		math.NaN(),
	}
	for _, a := range DefaultIdentAccuracy {
		ps = append(ps, a)
	}
	r := rand.New(rand.NewSource(11))
	for range 500 {
		ps = append(ps, r.Float64())
		// Uniform over exponents as well as mantissas.
		ps = append(ps, math.Float64frombits(r.Uint64()>>2))
	}
	for _, p := range ps {
		c := Cut(p)
		for d := int64(-4096); d <= 4096; d++ {
			x := c + d
			if (d > 0 && x < c) || x < 0 {
				continue // past the int64 range, or not a draw
			}
			if got, want := x > c, float64(x)/(1<<63) > p; got != want {
				t.Fatalf("p=%v cut=%d: x=%d gives %v, Float64 comparison %v", p, c, x, got, want)
			}
		}
	}
}

func FuzzSourceStream(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 64})
	f.Add(int64(-1), []byte{3, 200, 17, 0, 255})
	f.Add(int64(int32max), []byte{64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64})
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte) {
		s, want := NewSource(seed), rand.New(rand.NewSource(seed))
		buf := make([]int64, 256)
		for i, n := range sizes {
			s.Float64Ints(buf[:n])
			for k, x := range buf[:n] {
				if got, exp := float64(x)/(1<<63), want.Float64(); got != exp {
					t.Fatalf("block %d (size %d) draw %d: %v, math/rand gives %v", i, n, k, got, exp)
				}
			}
		}
	})
}

var sinkF float64

// BenchmarkSourceDraws reports the cost of one identification draw: ns
// per value for math/rand's Float64, Source.Float64 and Float64Ints in
// blocks of 32, about a word's worth of awake, clean packets.
func BenchmarkSourceDraws(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var sum float64
		for range b.N {
			sum += r.Float64()
		}
		sinkF = sum
	})
	b.Run("Float64", func(b *testing.B) {
		s := NewSource(1)
		var sum float64
		for range b.N {
			sum += s.Float64()
		}
		sinkF = sum
	})
	b.Run("Float64Ints", func(b *testing.B) {
		s := NewSource(1)
		var buf [32]int64
		var sum int64
		for i := 0; i < b.N; i += len(buf) {
			xs := buf[:min(len(buf), b.N-i)]
			s.Float64Ints(xs)
			sum += xs[0]
		}
		sinkF = float64(sum)
	})
}
