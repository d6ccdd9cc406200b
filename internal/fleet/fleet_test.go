package fleet

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

func wifiSource(rate float64) excite.Source {
	s := excite.NewWiFi11nSource()
	s.PacketRate = rate
	return s
}

// perfectAccuracy removes identification randomness from a test.
var perfectAccuracy = map[radio.Protocol]float64{
	radio.Protocol80211n: 1, radio.Protocol80211b: 1,
	radio.ProtocolBLE: 1, radio.ProtocolZigBee: 1,
}

func TestRunBasicFleet(t *testing.T) {
	cfg := Config{
		Sources: []excite.Source{wifiSource(200), excite.NewBLEAdvSource()},
		Tags:    PlaceGrid(9, 6, 6),
		Span:    2 * time.Second,
		Seed:    1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTags != 9 || res.NumReceivers != 1 {
		t.Fatalf("deployment shape: %d tags, %d receivers", res.NumTags, res.NumReceivers)
	}
	if res.Events < 300 || res.Events > 600 {
		t.Fatalf("events = %d, want ≈430", res.Events)
	}
	if res.FleetTagKbps <= 0 {
		t.Fatal("no fleet throughput")
	}
	if len(res.Tags) != 9 {
		t.Fatalf("per-tag results = %d", len(res.Tags))
	}
	// Opportunities = events × tags.
	var packets int
	for _, pt := range res.PerProtocol {
		packets += pt.Packets
	}
	if packets != res.Events*res.NumTags {
		t.Fatalf("opportunities = %d, want %d", packets, res.Events*res.NumTags)
	}
	// A 6×6 m room with one central receiver: every tag in range, and
	// with 9 co-located tags contending, cross-collisions must appear.
	if res.Outcomes[sim.CrossCollided] == 0 {
		t.Fatal("9 tags sharing one receiver should cross-collide")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{Tags: PlaceGrid(1, 1, 1)}); err == nil {
		t.Fatal("expected error without sources")
	}
	if _, err := Run(Config{Sources: []excite.Source{wifiSource(10)}}); err == nil {
		t.Fatal("expected error without tags")
	}
	// 288230376151711743 ms wraps to −1 ms as a Duration; it must be an
	// error, not a negative bucket count.
	cfg := Config{Sources: []excite.Source{wifiSource(10)}, Tags: PlaceGrid(1, 1, 1), BucketMS: 288230376151711743}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for an overflowing bucket length")
	}
}

func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Sources:   []excite.Source{wifiSource(300), excite.NewBLEAdvSource(), excite.NewZigBeeSource()},
		Tags:      PlaceGrid(60, 30, 50),
		Receivers: PlaceReceivers(2, 30, 50),
		Span:      2 * time.Second,
		Seed:      7,
	}
	// Some tags harvest, some are single-protocol, to exercise every
	// code path under both pool sizes.
	cfg.Tags[3].Energy = &sim.EnergyConfig{Lux: 1.04e5, StartCharged: true}
	cfg.Tags[5].Supported = []radio.Protocol{radio.Protocol80211n}

	prev := runtime.GOMAXPROCS(1)
	cfg.Workers = 1
	serial, err := Run(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	cfg.Workers = runtime.NumCPU() * 2 // oversubscribe to stress scheduling
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		explainDivergence(t, cfg, cfg.Workers)
		t.Fatal("fleet result differs between workers=1/GOMAXPROCS=1 and a parallel pool")
	}

	// And byte-for-byte: the rendered artifacts must match too.
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Fatal("JSON artifacts differ across pool sizes")
	}
}

func TestFleetShadowingDeterministicAcrossWorkers(t *testing.T) {
	// The regression this PR fixes: with log-normal shadowing enabled,
	// the old shared channel.Model RNG made results depend on cache-fill
	// order (goroutine scheduling). Per-site shadow streams must make a
	// shadowing-enabled run byte-identical at workers=1/GOMAXPROCS=1 and
	// an oversubscribed parallel pool.
	cfg := Config{
		Sources:   []excite.Source{wifiSource(300), excite.NewBLEAdvSource(), excite.NewZigBeeSource()},
		Tags:      PlaceGrid(48, 30, 50),
		Receivers: PlaceReceivers(3, 30, 50),
		Channel:   &channel.Model{RefLossDB: 40.05, Exponent: 2.0, ShadowSigmaDB: 6},
		Span:      2 * time.Second,
		Seed:      21,
	}
	cfg.Tags[2].Energy = &sim.EnergyConfig{Lux: 1.04e5, StartCharged: true, HarvestJitterPct: 0.2}
	cfg.Tags[7].Supported = []radio.Protocol{radio.ProtocolZigBee}

	prev := runtime.GOMAXPROCS(1)
	cfg.Workers = 1
	serial, err := Run(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	cfg.Workers = runtime.NumCPU() * 2
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		explainDivergence(t, cfg, cfg.Workers)
		t.Fatal("shadowing-enabled fleet result differs across pool sizes")
	}

	// Shadowing must actually be in effect: the same deployment without
	// it lands at a different working point.
	cfg.Channel = &channel.Model{RefLossDB: 40.05, Exponent: 2.0}
	cfg.Workers = 0
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := json.Marshal(flat)
	if string(fj) == string(sj) {
		t.Fatal("σ=6 dB shadowing changed nothing")
	}

	// And replaying the same seed reproduces the shadowed run exactly.
	cfg.Channel = &channel.Model{RefLossDB: 40.05, Exponent: 2.0, ShadowSigmaDB: 6}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(again)
	if string(aj) != string(sj) {
		t.Fatal("same-seed shadowed replay diverged")
	}
}

func TestCrossTagCollisionSamePosition(t *testing.T) {
	// Two co-located tags respond to every packet with identical RSSI:
	// neither clears the capture margin, so nothing is delivered. Joint
	// OFDM decoding is disabled to pin the pure capture path (the joint
	// behavior of the same deployment is TestConcurrentOFDMJointDecode).
	spec := TagSpec{X: 1, Y: 0, IdentAccuracy: perfectAccuracy}
	cfg := Config{
		Sources:        []excite.Source{wifiSource(100)},
		Tags:           []TagSpec{spec, spec},
		Receivers:      []ReceiverSpec{{X: 0, Y: 0}},
		Span:           time.Second,
		Seed:           3,
		ConcurrentOFDM: -1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outcomes[sim.Delivered]; got != 0 {
		t.Fatalf("co-located tags delivered %d packets, want 0", got)
	}
	if res.Outcomes[sim.CrossCollided] != res.Events*2 {
		t.Fatalf("cross-collided = %d, want %d", res.Outcomes[sim.CrossCollided], res.Events*2)
	}

	// A single tag in the same deployment delivers everything.
	cfg.Tags = []TagSpec{spec}
	solo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Outcomes[sim.Delivered] != solo.Events {
		t.Fatalf("solo tag delivered %d/%d", solo.Outcomes[sim.Delivered], solo.Events)
	}
}

func TestCaptureMargin(t *testing.T) {
	// Near tag (2 m) vs far tag (16 m): the dyadic backscatter link gives
	// the near tag tens of dB of advantage, far beyond the 10 dB capture
	// margin, so the receiver captures it and only the far tag loses.
	near := TagSpec{X: 2, Y: 0, IdentAccuracy: perfectAccuracy}
	far := TagSpec{X: 16, Y: 0, IdentAccuracy: perfectAccuracy}
	cfg := Config{
		Sources:        []excite.Source{wifiSource(100)},
		Tags:           []TagSpec{near, far},
		Receivers:      []ReceiverSpec{{X: 0, Y: 0}},
		Span:           time.Second,
		Seed:           4,
		ConcurrentOFDM: -1, // pin the capture path; joint decode has its own tests
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nearR, farR := res.Tags[0], res.Tags[1]
	if nearR.Outcomes[sim.Delivered] == 0 || nearR.Outcomes[sim.CrossCollided] != 0 {
		t.Fatalf("near tag should capture: %+v", nearR.Outcomes)
	}
	if farR.Outcomes[sim.CrossCollided] != res.Events {
		t.Fatalf("far tag should lose every contention: %+v", farR.Outcomes)
	}
	if res.Fairness >= 0.99 {
		t.Fatalf("capture asymmetry must show up in fairness, got %v", res.Fairness)
	}
}

func TestFairnessSymmetricFleet(t *testing.T) {
	// Four tags at the receiver's corners: identical distances, no
	// contention winner — but also no delivery. Use well-separated
	// receivers instead: one tag each, so all deliver equally.
	cfg := Config{
		Sources:   []excite.Source{wifiSource(150)},
		Tags:      []TagSpec{{X: 1, Y: 1}, {X: 99, Y: 1}, {X: 1, Y: 99}, {X: 99, Y: 99}},
		Receivers: []ReceiverSpec{{X: 2, Y: 2}, {X: 98, Y: 2}, {X: 2, Y: 98}, {X: 98, Y: 98}},
		Span:      2 * time.Second,
		Seed:      5,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[sim.CrossCollided] != 0 {
		t.Fatalf("separated receivers should not contend: %+v", res.Outcomes)
	}
	if res.Fairness < 0.95 {
		t.Fatalf("symmetric fleet fairness = %v, want ≈1", res.Fairness)
	}
	if res.Outcomes[sim.Delivered] == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestLinkCachePrefilled(t *testing.T) {
	res, err := Run(Config{
		Sources: []excite.Source{wifiSource(200), excite.NewZigBeeSource()},
		Tags:    PlaceGrid(25, 10, 10),
		Span:    time.Second,
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.LinkMisses != 0 || res.Cache.BitsMisses != 0 {
		t.Fatalf("static fleet should be fully prefilled, got %d/%d misses", res.Cache.LinkMisses, res.Cache.BitsMisses)
	}
	if res.Cache.Entries == 0 || res.Cache.BitsEntries == 0 ||
		res.Cache.LinkLookups == 0 || res.Cache.BitsLookups == 0 {
		t.Fatalf("cache unused: %+v", res.Cache)
	}
	// Delivered packets read both maps: bits traffic can never exceed
	// link traffic (every delivery was preceded by a link lookup).
	if res.Cache.BitsLookups > res.Cache.LinkLookups {
		t.Fatalf("bits lookups %d > link lookups %d", res.Cache.BitsLookups, res.Cache.LinkLookups)
	}
	// 25 tags × 4 protocols is the key ceiling; bucketing collapses
	// symmetric grid positions well below it.
	if res.Cache.Entries > 25*4 {
		t.Fatalf("cache entries = %d, want ≤ %d", res.Cache.Entries, 25*4)
	}
}

func TestLinkTablePrefill(t *testing.T) {
	c := newLinkTable(channel.NewLoS(), 0.25, 1, nil, false)
	// Same bucket, same entry: 2.0 m and 2.1 m share a 0.25 m bucket.
	if c.bucketOf(2.0) != c.bucketOf(2.1) {
		t.Fatal("bucketing too fine")
	}
	e := c.compute(linkKey{radio.ProtocolBLE, c.bucketOf(2), 1})
	if !e.InRange {
		t.Fatal("BLE at 2 m should be in range")
	}
	if again := c.compute(linkKey{radio.ProtocolBLE, c.bucketOf(2), 1}); again != e {
		t.Fatal("compute is not a pure function of the key")
	}

	tags := []*tagRun{
		{bucket: c.bucketOf(2.0), mode: 1},
		{bucket: c.bucketOf(2.1), mode: 1},
		{bucket: c.bucketOf(5), mode: 2},
	}
	b11 := excite.Source{Protocol: radio.Protocol80211b, PacketDuration: 2192 * time.Microsecond}
	sources := []excite.Source{b11, wifiSource(100), b11}
	stats := c.prefill(tags, sources)
	// Two distinct (bucket, mode) pairs × four protocols; two distinct
	// packet shapes × two modes.
	if stats != (CacheStats{Entries: 8, BitsEntries: 4}) {
		t.Fatalf("prefill shape = %+v", stats)
	}
	if tags[0].linked[radio.ProtocolBLE] != e || tags[1].linked != tags[0].linked {
		t.Fatal("tags sharing a bucket must share the computed working points")
	}
	// An 802.11b packet of 2192 µs in mode 1 carries 250 tag bits; the
	// capacity row is indexed by source and shared by every mode-1 tag.
	if tags[0].bits[0] != 250 || tags[0].bits[2] != 250 {
		t.Fatalf("mode-1 802.11b capacity = %v, want 250", tags[0].bits)
	}
	if &tags[0].bits[0] != &tags[1].bits[0] || &tags[0].bits[0] == &tags[2].bits[0] {
		t.Fatal("capacity rows must be shared per mode")
	}
}

func TestLinkCacheZeroDistanceBucket(t *testing.T) {
	// A tag co-located with its receiver lands in bucket 0, which must be
	// evaluated at the 0.1 m near-field clamp — not at a full bucket
	// width (the old clamp-to-bucket-1 behaviour overstated path loss by
	// 10·2·log10(0.25/0.1) ≈ 8 dB at the default resolution).
	c := newLinkTable(channel.NewLoS(), 0.25, 1, nil, false)
	if b := c.bucketOf(0); b != 0 {
		t.Fatalf("bucketOf(0) = %d, want 0", b)
	}
	if d := c.distanceOf(0); d != 0.1 {
		t.Fatalf("distanceOf(0) = %v, want 0.1", d)
	}
	zero := c.compute(linkKey{radio.Protocol80211n, c.bucketOf(0), 1})
	one := c.compute(linkKey{radio.Protocol80211n, 1, 1})
	if !zero.InRange {
		t.Fatal("co-located tag must be in range")
	}
	if zero.RSSIdBm <= one.RSSIdBm {
		t.Fatalf("bucket 0 RSSI %v should beat bucket 1 RSSI %v", zero.RSSIdBm, one.RSSIdBm)
	}
	// End-to-end: a tag exactly on its receiver delivers everything.
	cfg := Config{
		Sources:   []excite.Source{wifiSource(100)},
		Tags:      []TagSpec{{X: 3, Y: 3, IdentAccuracy: perfectAccuracy}},
		Receivers: []ReceiverSpec{{X: 3, Y: 3}},
		Span:      time.Second,
		Seed:      2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[sim.Delivered] != res.Events {
		t.Fatalf("co-located tag delivered %d/%d", res.Outcomes[sim.Delivered], res.Events)
	}
}

func TestEnergyLimitedFleet(t *testing.T) {
	tags := PlaceGrid(4, 4, 4)
	for i := range tags {
		tags[i].Energy = &sim.EnergyConfig{Lux: 500}
	}
	res, err := Run(Config{
		Sources: []excite.Source{wifiSource(100)},
		Tags:    tags,
		Span:    5 * time.Second,
		Seed:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	asleep := res.Outcomes[sim.TagAsleep]
	total := res.Events * res.NumTags
	if float64(asleep)/float64(total) < 0.95 {
		t.Fatalf("indoor harvesting fleet should sleep ≈100%%: %d/%d", asleep, total)
	}
}

func TestSingleProtocolTags(t *testing.T) {
	tags := []TagSpec{{X: 1, Y: 1, Supported: []radio.Protocol{radio.ProtocolZigBee}}}
	res, err := Run(Config{
		Sources: []excite.Source{wifiSource(100)},
		Tags:    tags,
		Span:    time.Second,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[sim.Delivered] != 0 {
		t.Fatal("ZigBee-only tag must not deliver on 802.11n")
	}
	if res.Outcomes[sim.Unsupported] == 0 {
		t.Fatal("unsupported packets not accounted")
	}
}

// TestOneTagFleet pins the single-tag deployment behaviours (the mssim
// and examples/harvest shape: one tag 2 m from one receiver) that the
// multi-tag tests do not reach.
func TestOneTagFleet(t *testing.T) {
	oneTag := func(span time.Duration, seed int64, sources ...excite.Source) Config {
		return Config{
			Sources:   sources,
			Tags:      []TagSpec{{X: -2}},
			Receivers: []ReceiverSpec{{}},
			Span:      span,
			Seed:      seed,
		}
	}
	frac := func(n, of int) float64 { return float64(n) / float64(of) }
	// Alternating 50% duty-cycled 802.11b/802.11n carriers (Figure 18a):
	// 802.11b is on during even 500 ms buckets, 802.11n during odd ones.
	b11 := excite.Source{
		Protocol:       radio.Protocol80211b,
		PacketRate:     300,
		PacketDuration: 2392 * time.Microsecond,
		Period:         time.Second,
		OnFraction:     0.5,
	}
	n11 := wifiSource(300)
	n11.Period = time.Second
	n11.OnFraction = 0.5
	n11.PhaseOffset = 500 * time.Millisecond
	diversity := oneTag(6*time.Second, 2, b11, n11)
	singleN := oneTag(6*time.Second, 2, b11, n11)
	singleN.Tags[0].Supported = []radio.Protocol{radio.Protocol80211n}
	dutyN := wifiSource(300)
	dutyN.Period = 2 * time.Second
	dutyN.OnFraction = 0.5
	duty := oneTag(4*time.Second, 5, dutyN)
	duty.BucketMS = 250
	indoor := oneTag(20*time.Second, 4, wifiSource(100))
	indoor.Tags[0].Energy = &sim.EnergyConfig{Lux: 500}
	outdoor := oneTag(20*time.Second, 4, wifiSource(100))
	outdoor.Tags[0].Energy = &sim.EnergyConfig{Lux: 1.04e5, StartCharged: true}

	for _, tc := range []struct {
		name  string
		cfg   Config
		check func(t *testing.T, res *Result)
	}{
		{"basic_delivery", oneTag(5*time.Second, 1, wifiSource(200)), func(t *testing.T, res *Result) {
			// One source: no air collisions, ≈94% identification.
			if res.Events < 800 || res.Events > 1200 {
				t.Fatalf("events = %d, want ≈1000", res.Events)
			}
			if f := frac(res.Outcomes[sim.Delivered], res.Events); f < 0.85 || f > 0.99 {
				t.Fatalf("delivered fraction = %v, want ≈0.94", f)
			}
			if res.Tags[0].TagKbps <= 0 || res.Tags[0].EnergyRounds != 0 {
				t.Fatalf("always-powered tag: %+v", res.Tags[0])
			}
		}},
		{"ble_collided", oneTag(3*time.Second, 3, wifiSource(2000), excite.NewBLEAdvSource()), func(t *testing.T, res *Result) {
			// Dense 802.11n (≈80% duty) collides most BLE packets at the
			// tag (Figure 16), while 802.11n itself stays mostly clean.
			packets := func(c OutcomeCounts) (n int) {
				for _, k := range c {
					n += k
				}
				return n
			}
			ble := res.Tags[0].PerProtocol[radio.ProtocolBLE.String()]
			if n := packets(ble); n == 0 || frac(ble[sim.Collided], n) < 0.4 {
				t.Fatalf("BLE collided %d of %d, want ≥ 40%%", ble[sim.Collided], n)
			}
			wifi := res.Tags[0].PerProtocol[radio.Protocol80211n.String()]
			if f := frac(wifi[sim.Collided], packets(wifi)); f > 0.1 {
				t.Fatalf("802.11n collided fraction = %v, want small", f)
			}
		}},
		{"duty_cycle_buckets", duty, func(t *testing.T, res *Result) {
			// On window [0,1) s, off window [1,2) s.
			if res.BucketDur != 250*time.Millisecond {
				t.Fatalf("bucket duration %v", res.BucketDur)
			}
			if on, off := res.Buckets[1], res.Buckets[5]; !(on > 0) || off != 0 {
				t.Fatalf("duty cycle not visible in buckets: on=%v off=%v", on, off)
			}
		}},
		{"single_protocol_idles", singleN, func(t *testing.T, res *Result) {
			c := res.Tags[0].PerProtocol[radio.Protocol80211b.String()]
			if c[sim.Unsupported] == 0 || c[sim.Delivered] != 0 {
				t.Fatalf("802.11n-only tag on 802.11b: %v", c)
			}
			for b := 0; b < 12; b++ {
				if idle := res.Buckets[b] == 0; idle != (b%2 == 0) {
					t.Fatalf("bucket %d = %v kbps: the tag must idle exactly while only 802.11b is on", b, res.Buckets[b])
				}
			}
		}},
		{"multi_protocol_uninterrupted", diversity, func(t *testing.T, res *Result) {
			for b := 0; b < 12; b++ {
				if res.Buckets[b] == 0 {
					t.Fatalf("bucket %d idle: a multiprotocol tag rides both carriers", b)
				}
			}
		}},
		{"indoor_asleep", indoor, func(t *testing.T, res *Result) {
			// At 500 lux one 0.18 s active burst costs a ≈216 s recharge.
			if f := frac(res.Outcomes[sim.TagAsleep], res.Events); f < 0.95 {
				t.Fatalf("asleep fraction = %v, want ≈1 indoors", f)
			}
		}},
		{"outdoor_rounds", outdoor, func(t *testing.T, res *Result) {
			served := res.Outcomes[sim.Delivered] + res.Outcomes[sim.Misidentified]
			if f := frac(served, res.Events); f < 0.1 {
				t.Fatalf("outdoor served fraction = %v, want substantial", f)
			}
			if res.Tags[0].EnergyRounds == 0 {
				t.Fatal("outdoor run should cycle the harvester")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Obs = obs.NewRegistry()
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}

func TestPlaceGrid(t *testing.T) {
	for _, n := range []int{1, 7, 50, 100} {
		tags := PlaceGrid(n, 30, 50)
		if len(tags) != n {
			t.Fatalf("PlaceGrid(%d) returned %d tags", n, len(tags))
		}
		seen := map[[2]float64]bool{}
		for _, tag := range tags {
			if tag.X <= 0 || tag.X >= 30 || tag.Y <= 0 || tag.Y >= 50 {
				t.Fatalf("tag outside floor plan: %+v", tag)
			}
			k := [2]float64{tag.X, tag.Y}
			if seen[k] {
				t.Fatalf("duplicate position %v", k)
			}
			seen[k] = true
		}
	}
	if PlaceGrid(0, 10, 10) != nil {
		t.Fatal("no tags for n=0")
	}
	if len(PlaceReceivers(3, 30, 50)) != 3 {
		t.Fatal("PlaceReceivers count")
	}
}

func TestMarkdownAndJSON(t *testing.T) {
	res, err := Run(Config{
		Sources: []excite.Source{wifiSource(100), excite.NewBLEAdvSource()},
		Tags:    PlaceGrid(4, 8, 8),
		Span:    time.Second,
		Seed:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	md := res.Markdown()
	for _, want := range []string{"fleet deployment", "802.11n", "Jain fairness", "Timeline"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["fleet_tag_kbps"]; !ok {
		t.Fatal("JSON missing fleet_tag_kbps")
	}
	// Outcome histograms must use readable names.
	if !strings.Contains(string(raw), `"delivered"`) {
		t.Fatal("outcome names not in JSON")
	}
	top := res.TopTags(2)
	if len(top) != 2 || top[0].TagKbps < top[1].TagKbps {
		t.Fatalf("TopTags not sorted: %+v", top)
	}
}

func TestJain(t *testing.T) {
	if f := jain([]TagResult{{TagKbps: 5}, {TagKbps: 5}}); math.Abs(f-1) > 1e-12 {
		t.Fatalf("equal rates → 1, got %v", f)
	}
	if f := jain([]TagResult{{TagKbps: 10}, {TagKbps: 0}}); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("monopolized pair → 0.5, got %v", f)
	}
	if f := jain([]TagResult{{}, {}}); f != 1 {
		t.Fatalf("all-zero fleet → 1, got %v", f)
	}
}
