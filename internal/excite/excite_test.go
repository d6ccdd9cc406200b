package excite

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"multiscatter/internal/radio"
)

func TestDutyCycle(t *testing.T) {
	s := Source{PacketRate: 2000, PacketDuration: 400 * time.Microsecond}
	if got := s.DutyCycle(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("duty = %v, want 0.8", got)
	}
	// Duty-cycled source halves.
	s.Period = time.Second
	s.OnFraction = 0.5
	if got := s.DutyCycle(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("windowed duty = %v, want 0.4", got)
	}
	// Saturation clamps at 1.
	s = Source{PacketRate: 1e6, PacketDuration: time.Millisecond}
	if s.DutyCycle() != 1 {
		t.Fatal("duty should clamp at 1")
	}
}

func TestActiveAt(t *testing.T) {
	s := Source{Period: 100 * time.Millisecond, OnFraction: 0.5}
	if !s.ActiveAt(10 * time.Millisecond) {
		t.Fatal("should be active in first half")
	}
	if s.ActiveAt(60 * time.Millisecond) {
		t.Fatal("should be idle in second half")
	}
	// Phase offset shifts the window.
	s.PhaseOffset = 50 * time.Millisecond
	if s.ActiveAt(10 * time.Millisecond) {
		t.Fatal("offset source should be idle")
	}
	if !s.ActiveAt(60 * time.Millisecond) {
		t.Fatal("offset source should be active")
	}
	// Always-on defaults.
	if !(Source{}).ActiveAt(42 * time.Hour) {
		t.Fatal("zero-period source is always on")
	}
}

func TestTimelineRates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := []Source{NewWiFi11nSource(), NewBLEAdvSource()}
	span := 2 * time.Second
	events := Timeline(src, span, rng)
	counts := map[int]int{}
	prev := time.Duration(-1)
	for _, e := range events {
		counts[e.Source]++
		if e.Start < prev {
			t.Fatal("timeline not sorted")
		}
		prev = e.Start
	}
	// ≈4000 WiFi and ≈68 BLE events over 2 s (Poisson, ±20%).
	if counts[0] < 3200 || counts[0] > 4800 {
		t.Fatalf("WiFi events = %d, want ≈4000", counts[0])
	}
	if counts[1] < 40 || counts[1] > 100 {
		t.Fatalf("BLE events = %d, want ≈68", counts[1])
	}
	// Protocols tagged correctly.
	for _, e := range events {
		want := src[e.Source].Protocol
		if e.Protocol != want {
			t.Fatal("event protocol mismatch")
		}
	}
}

func TestTimelineDutyCycling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewWiFi11nSource()
	s.Period = 200 * time.Millisecond
	s.OnFraction = 0.5
	events := Timeline([]Source{s}, time.Second, rng)
	for _, e := range events {
		phase := e.Start % s.Period
		if phase >= 100*time.Millisecond {
			t.Fatalf("event at %v outside duty window", e.Start)
		}
	}
	if len(events) < 700 || len(events) > 1300 {
		t.Fatalf("duty-cycled event count = %d, want ≈1000", len(events))
	}
}

func TestCollisionsFig16aShape(t *testing.T) {
	// Figure 16a/b: dense 802.11n packets collide with most BLE packets,
	// while only a tiny share of 802.11n packets are hit.
	rng := rand.New(rand.NewSource(4))
	src := []Source{NewWiFi11nSource(), NewBLEAdvSource()}
	events := Timeline(src, 5*time.Second, rng)
	stats := Collisions(events, len(src))
	wifiLoss := stats[0].CollisionFraction()
	bleLoss := stats[1].CollisionFraction()
	if !(bleLoss > 0.4) {
		t.Fatalf("BLE collision fraction = %v, want > 0.4 (WiFi duty ≈ 0.8)", bleLoss)
	}
	if !(wifiLoss < 0.1) {
		t.Fatalf("WiFi collision fraction = %v, want < 0.1", wifiLoss)
	}
	if !(bleLoss > 5*wifiLoss) {
		t.Fatalf("asymmetry missing: BLE %v vs WiFi %v", bleLoss, wifiLoss)
	}
}

func TestCollisionFractionZeroPackets(t *testing.T) {
	// A source that emitted nothing has a 0 (not NaN) collision share —
	// idle sources in a scenario must not poison fig16 aggregates.
	if got := (CollisionStats{}).CollisionFraction(); got != 0 {
		t.Fatalf("CollisionFraction of empty stats = %v, want 0", got)
	}
	if got := (CollisionStats{Collided: 3}.CollisionFraction()); got != 0 {
		t.Fatalf("CollisionFraction with zero packets = %v, want 0", got)
	}
	stats := Collisions(nil, 2)
	for i, s := range stats {
		if f := s.CollisionFraction(); f != 0 {
			t.Fatalf("empty timeline: source %d fraction = %v, want 0", i, f)
		}
	}
}

func TestExpectedCollisionLossMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wifi := NewWiFi11nSource()
	ble := NewBLEAdvSource()
	analytic := ExpectedCollisionLoss(ble, []Source{wifi})
	events := Timeline([]Source{wifi, ble}, 10*time.Second, rng)
	stats := Collisions(events, 2)
	sim := stats[1].CollisionFraction()
	if math.Abs(analytic-sim) > 0.12 {
		t.Fatalf("analytic %v vs simulated %v", analytic, sim)
	}
	if ExpectedCollisionLoss(ble, nil) != 0 {
		t.Fatal("no interferers → no loss")
	}
}

func TestEventHelpers(t *testing.T) {
	a := Event{Start: 0, Duration: 10 * time.Millisecond}
	if a.End() != 10*time.Millisecond {
		t.Fatal("End wrong")
	}
}

func TestPaperSources(t *testing.T) {
	if NewWiFi11nSource().Protocol != radio.Protocol80211n ||
		NewBLEAdvSource().Protocol != radio.ProtocolBLE ||
		NewZigBeeSource().Protocol != radio.ProtocolZigBee {
		t.Fatal("source protocols wrong")
	}
	if NewBLEAdvSource().PacketRate != 34 {
		t.Fatal("BLE rate should be the measured 34 pkt/s")
	}
	if NewZigBeeSource().PacketRate != 20 {
		t.Fatal("ZigBee rate should be 20 pkt/s")
	}
}

func TestScenarioLibrary(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) < 4 {
		t.Fatalf("scenario count = %d", len(scenarios))
	}
	seen := map[string]bool{}
	for _, s := range scenarios {
		if s.Name == "" || s.Description == "" || len(s.Sources) == 0 {
			t.Fatalf("incomplete scenario %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
		if d := s.TotalDuty(); d <= 0 || d > 1 {
			t.Fatalf("%s duty = %v", s.Name, d)
		}
	}
}

func TestFindScenario(t *testing.T) {
	s, err := FindScenario("office")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "office" {
		t.Fatal("wrong scenario")
	}
	if _, err := FindScenario("moonbase"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestScenarioOfficeDenserThanHome(t *testing.T) {
	office, _ := FindScenario("office")
	home, _ := FindScenario("home")
	if !(office.TotalDuty() > home.TotalDuty()) {
		t.Fatalf("office duty %v should exceed home %v", office.TotalDuty(), home.TotalDuty())
	}
}
