package analog_test

import (
	"math"
	"testing"

	"multiscatter/internal/tag"
)

// TestADCPowerScaling pins the converter's Table 3 anchor, 260 mW at
// 20 Msps and linear in rate, in tag.PowerProfile, which owns the
// tag's power figures: the ADC's share is the detect draw above its
// 0 Msps floor.
func TestADCPowerScaling(t *testing.T) {
	adcMW := func(msps float64) float64 {
		return tag.DefaultPowerProfile(msps).DetectMW - tag.DefaultPowerProfile(0).DetectMW
	}
	if p := adcMW(20); math.Abs(p-260) > 1e-9 {
		t.Fatalf("20 Msps power = %v", p)
	}
	if p := adcMW(2.5); math.Abs(p-32.5) > 1e-9 {
		t.Fatalf("2.5 Msps power = %v", p)
	}
}
