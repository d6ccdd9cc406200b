package sim

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestSiteWordsMatchSeed checks every state word the site source computes
// on its own against the word Seed writes, for all 607 words.
func TestSiteWordsMatchSeed(t *testing.T) {
	seeds := testSeeds()
	r := rand.New(rand.NewSource(607))
	for range 1000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	var full Source
	var site siteSource
	for _, seed := range seeds {
		full.Seed(seed)
		site.Seed(seed)
		for i, want := range full.vec {
			if got := site.word(i); got != want {
				t.Fatalf("seed %d word %d: %d, Seed writes %d", seed, i, got, want)
			}
		}
	}
}

// drawKinds are the draws the engine's per-site streams make, by name.
var drawKinds = []struct {
	name string
	draw func(*rand.Rand) any
}{
	{"Int63", func(r *rand.Rand) any { return r.Int63() }},
	{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
	{"Float64", func(r *rand.Rand) any { return r.Float64() }},
	{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() }},
	{"ExpFloat64", func(r *rand.Rand) any { return r.ExpFloat64() }},
	{"Intn", func(r *rand.Rand) any { return r.Intn(1000) }},
}

// TestSiteDrawsMatchMathRand makes n draws of one kind from a fresh site,
// for every n from 0 to 700 and the kinds in turn, then a few of every
// kind, and checks each value against math/rand over the same seed. So
// the switch to the full Source falls inside every kind of draw, after
// every number of served draws. Reseeding must restart the stream.
func TestSiteDrawsMatchMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, int32max, 1 << 40} {
		for n := 0; n <= 700; n++ {
			kind := drawKinds[n%len(drawKinds)]
			site, want := siteRand(seed), rand.New(rand.NewSource(seed))
			for i := range n {
				if got, exp := kind.draw(site), kind.draw(want); got != exp {
					t.Fatalf("seed %d %s draw %d of %d: %v, math/rand gives %v", seed, kind.name, i, n, got, exp)
				}
			}
			assertSameRand(t, site, want, 12)
		}
	}
	site := siteRand(5)
	for range 400 {
		site.Uint64()
	}
	site.Seed(-77)
	assertSameRand(t, site, rand.New(rand.NewSource(-77)), 700)
}

// siteRand is rand.New over a site source seeded with seed.
func siteRand(seed int64) *rand.Rand {
	s := new(siteSource)
	s.Seed(seed)
	return rand.New(s)
}

// FuzzSiteStream draws from a per-site stream as kinds directs and checks
// every value against math/rand over the same mixed seed. Each byte of
// kinds picks a kind of draw (byte mod 6) and a run of 1 to 43 draws of
// it (byte/6 + 1), so a few bytes reach the switch to the full Source.
func FuzzSiteStream(f *testing.F) {
	f.Add(int64(0), uint64(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-1), uint64(1)<<16|2<<8, []byte{255, 254, 253, 252, 251, 250, 249})
	f.Add(int64(42), uint64(3), []byte{2, 2})
	f.Fuzz(func(t *testing.T, seed int64, site uint64, kinds []byte) {
		got := SeedRNGAt(seed, StreamChannelPhase, site)
		want := rand.New(rand.NewSource(mixSeed(seed, StreamChannelPhase, site)))
		n := 0
		for _, b := range kinds {
			kind := drawKinds[int(b)%len(drawKinds)]
			for range int(b)/len(drawKinds) + 1 {
				if g, e := kind.draw(got), kind.draw(want); g != e {
					t.Fatalf("draw %d (%s): %v, math/rand gives %v", n, kind.name, g, e)
				}
				n++
			}
		}
	})
}

// BenchmarkSeedRNGAt reports what one per-site stream costs: seeding it
// and making 0, 2, 4 or 300 Float64 draws (a phase site makes two), for
// SeedRNGAt and for math/rand's generator over the same seed.
func BenchmarkSeedRNGAt(b *testing.B) {
	for _, draws := range []int{0, 2, 4, 300} {
		b.Run("site/draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := range b.N {
				r := SeedRNGAt(1, StreamChannelPhase, uint64(i))
				for range draws {
					sum += r.Float64()
				}
			}
			sinkF = sum
		})
		b.Run("mathrand/draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := range b.N {
				r := rand.New(rand.NewSource(mixSeed(1, StreamChannelPhase, uint64(i))))
				for range draws {
					sum += r.Float64()
				}
			}
			sinkF = sum
		})
	}
}
