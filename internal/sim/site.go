package sim

// seedPow[n] is 48271ⁿ mod (2³¹−1): Seed's n-th seedrand step takes x₀
// to x₀·seedPow[n] mod (2³¹−1). Seed takes 3·rngLen+20 steps.
var seedPow = func() (p [3*rngLen + 21]uint32) {
	x := int32(1)
	p[0] = 1
	for n := 1; n < len(p); n++ {
		x = seedrand(x)
		p[n] = uint32(x)
	}
	return p
}()

// siteSource gives NewSource(seed)'s stream to a consumer that draws a
// few values, without seeding a Source. Seed fills 607 state words from
// 1841 sequential seedrand steps, but draw k < rngTap reads only words
// rngLen−rngTap−1−k and rngLen−1−k, which no earlier draw has written,
// and word i is steps 21+3i to 23+3i, which seedPow reaches directly. So
// each such draw costs six multiply-mods. Draw rngTap is the first to
// read a word an earlier draw wrote: there the site seeds a full Source
// and skips the draws it has served.
type siteSource struct {
	x0   uint64  // Seed's starting value x₀
	n    int     // draws served while full is nil
	full *Source // the stream from draw rngTap on
}

// Seed puts the source at the start of NewSource(seed)'s stream.
func (s *siteSource) Seed(seed int64) {
	*s = siteSource{x0: uint64(seedStart(seed))}
}

// word returns state word i as Seed writes it: steps 21+3i, 22+3i and
// 23+3i from x₀, mixed with rngCooked[i].
func (s *siteSource) word(i int) int64 {
	p := seedPow[21+3*i : 24+3*i : 24+3*i]
	a := s.x0 * uint64(p[0]) % int32max
	b := s.x0 * uint64(p[1]) % int32max
	c := s.x0 * uint64(p[2]) % int32max
	return int64(a<<40^b<<20^c) ^ rngCooked[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *siteSource) Uint64() uint64 {
	if s.full == nil {
		if k := s.n; k < rngTap {
			s.n++
			return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
		}
		s.full = NewSource(int64(s.x0))
		for range s.n {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 returns the next value of the stream as a non-negative 63-bit
// integer.
func (s *siteSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
