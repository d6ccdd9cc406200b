package baseline

import (
	"math"
	"testing"

	"multiscatter/internal/channel"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

func TestTable1Matrix(t *testing.T) {
	if len(Table1) != 11 || len(Table1Order) != 11 {
		t.Fatalf("Table 1 should have 11 systems")
	}
	for _, name := range Table1Order {
		if _, ok := Table1[name]; !ok {
			t.Fatalf("missing row %q", name)
		}
	}
	// Only multiscatter satisfies all three requirements.
	for name, c := range Table1 {
		all := c.ExcitationDiversity && c.ProductiveCarrier && c.SingleCommodityReceiver
		if name == "Multiscatter" && !all {
			t.Fatal("Multiscatter must satisfy all three")
		}
		if name != "Multiscatter" && all {
			t.Fatalf("%s must not satisfy all three", name)
		}
	}
	// The two-receiver family carries productive data but needs two
	// radios.
	for _, name := range []string{"Hitchhike", "FreeRider", "X-Tandem"} {
		c := Table1[name]
		if !c.ProductiveCarrier || c.SingleCommodityReceiver {
			t.Errorf("%s capabilities wrong: %+v", name, c)
		}
	}
}

func TestXORTagBER(t *testing.T) {
	if got := XORTagBER(0, 0); got != 0 {
		t.Fatal("clean XOR should be 0")
	}
	if got := XORTagBER(0.5, 0); got != 0.5 {
		t.Fatal("one random stream gives 0.5")
	}
	// Symmetric.
	if XORTagBER(0.1, 0.02) != XORTagBER(0.02, 0.1) {
		t.Fatal("XOR BER must be symmetric")
	}
}

func TestOriginalChannelOcclusion(t *testing.T) {
	// Figure 9a's shape: BER grows monotonically none → wood → concrete.
	n := OriginalChannelBER(10, channel.NoWall)
	w := OriginalChannelBER(10, channel.Wood)
	c := OriginalChannelBER(10, channel.Concrete)
	if !(n < w && w < c) {
		t.Fatalf("occlusion ordering violated: %v %v %v", n, w, c)
	}
	if n > 0.01 {
		t.Fatalf("unoccluded BER %v too high", n)
	}
}

func TestModulationOffsets(t *testing.T) {
	// Figure 9b: offsets grow with range, up to 8 symbols.
	if ModulationOffsetSymbols(0.5) != 0 {
		t.Fatal("short range should have no offset")
	}
	prev := 0
	for d := 1.0; d <= 30; d++ {
		off := ModulationOffsetSymbols(d)
		if off < prev {
			t.Fatalf("offset decreased at %v m", d)
		}
		if off > 8 {
			t.Fatalf("offset %d exceeds the paper's max of 8", off)
		}
		prev = off
	}
	if ModulationOffsetSymbols(30) != 8 {
		t.Fatalf("long-range offset = %d, want 8", ModulationOffsetSymbols(30))
	}
}

func TestOffsetRecovery(t *testing.T) {
	if OffsetRecoveryProb(0) != 1 {
		t.Fatal("zero offset recovers always")
	}
	if !(OffsetRecoveryProb(8) < OffsetRecoveryProb(2)) {
		t.Fatal("recovery must degrade with offset")
	}
}

func TestTagBERFig9Shape(t *testing.T) {
	// Figure 9a: ~0.2% BER unoccluded rising to ~50–59% behind concrete.
	base := DecodeConfig{
		System:         Hitchhike,
		OriginalSNRdB:  9,
		BackscatterBER: 0.002,
		DistanceM:      2,
	}
	clean := TagBER(base)
	if clean < 0.001 || clean > 0.05 {
		t.Fatalf("unoccluded tag BER = %v, want ≈0.2%%–5%%", clean)
	}
	base.Wall = channel.Concrete
	blocked := TagBER(base)
	if blocked < 0.4 {
		t.Fatalf("concrete-occluded tag BER = %v, want ≳0.4", blocked)
	}
	base.Wall = channel.Wood
	wood := TagBER(base)
	if !(clean < wood && wood < blocked) {
		t.Fatalf("ordering violated: %v %v %v", clean, wood, blocked)
	}
}

func TestFreeRiderMoreFragile(t *testing.T) {
	cfg := DecodeConfig{
		OriginalSNRdB:  8,
		Wall:           channel.Drywall,
		BackscatterBER: 0.002,
		DistanceM:      3,
	}
	cfg.System = Hitchhike
	h := TagBER(cfg)
	cfg.System = FreeRider
	f := TagBER(cfg)
	if f <= h {
		t.Fatalf("FreeRider BER %v should exceed Hitchhike %v", f, h)
	}
}

func TestFig15ThroughputShape(t *testing.T) {
	// Figure 15: under drywall occlusion of the original channel, the
	// multiscatter tag throughput beats Hitchhike, which beats FreeRider.
	tr := overlay.DefaultTraffic(radio.Protocol80211b)
	cfg := DecodeConfig{
		OriginalSNRdB:  8,
		Wall:           channel.Drywall,
		BackscatterBER: 0.002,
		DistanceM:      4,
	}
	cfg.System = Hitchhike
	hh := TagThroughputKbps(cfg, tr, radio.Protocol80211b)
	cfg.System = FreeRider
	fr := TagThroughputKbps(cfg, tr, radio.Protocol80211b)
	ms := overlay.ModeThroughput(radio.Protocol80211b, overlay.Mode1, tr, 0, 0).TagKbps
	if !(ms > hh && hh > fr) {
		t.Fatalf("Fig 15 ordering violated: multiscatter=%v hitchhike=%v freerider=%v", ms, hh, fr)
	}
	if fr <= 0 {
		t.Fatal("FreeRider throughput should be positive, just low")
	}
}

func TestSystemString(t *testing.T) {
	if Hitchhike.String() != "Hitchhike" || FreeRider.String() != "FreeRider" ||
		DoubleDecker.String() != "Double-decker" {
		t.Fatal("names wrong")
	}
}

func TestTagBERBounds(t *testing.T) {
	for d := 1.0; d < 40; d += 3 {
		for _, w := range []channel.Material{channel.NoWall, channel.Wood, channel.Concrete} {
			b := TagBER(DecodeConfig{OriginalSNRdB: 10, Wall: w, DistanceM: d, BackscatterBER: 0.01})
			if b < 0 || b > 1 || math.IsNaN(b) {
				t.Fatalf("TagBER out of range: %v", b)
			}
		}
	}
}
