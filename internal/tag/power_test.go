package tag

import (
	"math"
	"testing"
	"time"
)

func TestDefaultPowerProfileTable3(t *testing.T) {
	// At 20 Msps, detecting draws the Table 3 packet-detection budget
	// (2.5 + 260 + 15.9 = 278.4 mW) and modulating the modulation budget
	// (1.0 + 0.1 + 15.9 = 17 mW).
	p := DefaultPowerProfile(20)
	if math.Abs(p.DetectMW-278.4) > 1e-9 {
		t.Fatalf("detect = %v mW", p.DetectMW)
	}
	if math.Abs(p.ModulateMW-17.0) > 1e-9 {
		t.Fatalf("modulate = %v mW", p.ModulateMW)
	}
	if p.SleepMW != 15.9 {
		t.Fatalf("sleep = %v mW", p.SleepMW)
	}
	// At 2.5 Msps the ADC share drops 8×.
	low := DefaultPowerProfile(2.5)
	if math.Abs(low.DetectMW-(15.9+2.5+32.5)) > 1e-9 {
		t.Fatalf("2.5 Msps detect = %v mW", low.DetectMW)
	}
}

func TestDutyCycledPower(t *testing.T) {
	p := DefaultPowerProfile(2.5)
	// No traffic → oscillator floor.
	if got := p.DutyCycledPowerMW(0, 60*time.Microsecond, 400*time.Microsecond); got != p.SleepMW {
		t.Fatalf("idle power = %v", got)
	}
	// Sparse ZigBee traffic (20 pkt/s): barely above the floor.
	sparse := p.DutyCycledPowerMW(20, 60*time.Microsecond, 6400*time.Microsecond)
	if sparse > p.SleepMW+5 {
		t.Fatalf("sparse-traffic power = %v mW, want near the %v floor", sparse, p.SleepMW)
	}
	// Saturated traffic cannot exceed the detect+modulate mixture.
	sat := p.DutyCycledPowerMW(1e9, 60*time.Microsecond, 400*time.Microsecond)
	if sat > p.DetectMW || sat < p.ModulateMW {
		t.Fatalf("saturated power = %v outside state range", sat)
	}
	// More traffic, more power (monotone).
	prev := 0.0
	for _, rate := range []float64{1, 10, 100, 1000} {
		got := p.DutyCycledPowerMW(rate, 60*time.Microsecond, 400*time.Microsecond)
		if got <= prev {
			t.Fatalf("power not monotone at %v pkt/s", rate)
		}
		prev = got
	}
}
