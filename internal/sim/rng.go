package sim

import "math/rand"

// Stream identifiers for SeedRNG. Every consumer of randomness in the
// deployment engine draws from a stream derived from (Config.Seed,
// stream), so adding a new consumer never perturbs existing ones and the
// full seed path is auditable in one place. The values are part of the
// determinism contract — every golden depends on them — so a stream
// keeps its number for good; 0 and 4 belonged to retired streams.
const (
	// StreamFleetTimeline feeds the shared excitation timeline of an
	// internal/fleet deployment.
	StreamFleetTimeline int64 = 1
	// StreamFleetShard feeds one fleet shard's identification draws;
	// the shard's seed is Config.Seed + shardID.
	StreamFleetShard int64 = 2
	// StreamFleetDownlink feeds one fleet shard's downlink packet-loss
	// draws; the shard's seed is Config.Seed + shardID.
	StreamFleetDownlink int64 = 3
	// StreamFleetShadow feeds internal/fleet's calibrated-link shadowing.
	// Each link-table entry derives its own RNG via SeedRNGAt keyed by
	// the (protocol, bucket, mode) site, so entries are identical in any
	// build order and on any goroutine.
	StreamFleetShadow int64 = 5
	// StreamEnergyHarvest feeds harvest-power jitter. The site is the
	// tag ID, so the stream is independent of the shard partition and
	// worker count.
	StreamEnergyHarvest int64 = 6
	// StreamChannelPhase feeds the phase-aware complex channel: each
	// link's initial phase and residual drift rate (channel.PhaseDrift)
	// are drawn once per link-table site, keyed exactly like
	// StreamFleetShadow, so phase-aware runs are byte-identical at any
	// worker count. Consumes two draws per site (phase, then rate) —
	// see docs/CHANNELS.md for the determinism contract.
	StreamChannelPhase int64 = 7
)

// SeedRNG derives a deterministic RNG for one named stream of a
// simulation seeded with seed. The (seed, stream) pair is mixed through a
// SplitMix64-style finalizer so that nearby seeds and streams produce
// uncorrelated sequences — simply adding offsets to the raw seed (the old
// `cfg.Seed + 1` idiom) hands correlated state to math/rand's lagged
// Fibonacci generator.
func SeedRNG(seed, stream int64) *rand.Rand {
	return SeedRNGAt(seed, stream, 0)
}

// SeedRNGAt derives a deterministic RNG for one call site of a stream:
// site distinguishes independent consumers inside the stream (a link-table
// key, a tag ID) so each draws a sequence that is a pure function of
// (seed, stream, site) — the foundation of shard-safe randomness, since
// no consumption order or goroutine schedule can perturb another site.
// Site 0 is the plain stream: SeedRNGAt(seed, stream, 0) == SeedRNG(seed,
// stream).
func SeedRNGAt(seed, stream int64, site uint64) *rand.Rand {
	z := uint64(seed)
	z ^= uint64(stream) * 0x9E3779B97F4A7C15
	z ^= site * 0xD1B54A32D192ED03
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
