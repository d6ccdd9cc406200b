package excite

import (
	"fmt"
	"sort"
	"time"

	"multiscatter/internal/radio"
)

// Scenario is a named excitation environment: a mix of sources matching
// a deployment the paper's introduction motivates (home, office, café).
type Scenario struct {
	// Name of the scenario.
	Name string
	// Description for humans.
	Description string
	// Sources active in the environment.
	Sources []Source
}

// Scenarios returns the built-in environment library. Rates follow the
// paper's measurements where available (campus BLE advertising runs
// 30–40 pkt/s; CC2530-class ZigBee peaks at 20 pkt/s) and common sense
// elsewhere.
func Scenarios() []Scenario {
	wifiDense := NewWiFi11nSource()
	wifiDense.PacketRate = 2000

	wifiModerate := NewWiFi11nSource()
	wifiModerate.PacketRate = 400

	wifiSparse := NewWiFi11nSource()
	wifiSparse.PacketRate = 50

	wifiB := Source{
		Protocol:       radio.Protocol80211b,
		PacketRate:     120,
		PacketDuration: 2392 * time.Microsecond,
	}

	ble := NewBLEAdvSource()
	bleBusy := NewBLEAdvSource()
	bleBusy.PacketRate = 70 // the CC2540 ceiling

	zig := NewZigBeeSource()

	return []Scenario{
		{
			Name:        "home",
			Description: "one WiFi AP at moderate load, a few BLE wearables, a ZigBee light hub",
			Sources:     []Source{wifiModerate, ble, zig},
		},
		{
			Name:        "office",
			Description: "dense 802.11n traffic, legacy 802.11b devices, many BLE advertisers",
			Sources:     []Source{wifiDense, wifiB, bleBusy},
		},
		{
			Name:        "cafe",
			Description: "busy WiFi, the measured campus BLE advertising rate",
			Sources:     []Source{wifiDense, ble},
		},
		{
			Name:        "warehouse",
			Description: "sparse WiFi, a dense ZigBee sensor mesh",
			Sources:     []Source{wifiSparse, zig, zig},
		},
	}
}

// FindScenario returns the named scenario.
func FindScenario(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(Scenarios()))
	for _, s := range Scenarios() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("excite: unknown scenario %q (known: %v)", name, names)
}

// TotalDuty returns the summed airtime duty of the scenario's sources —
// a rough measure of how much excitation a tag can ride.
func (s Scenario) TotalDuty() float64 {
	var d float64
	for _, src := range s.Sources {
		d += src.DutyCycle()
	}
	if d > 1 {
		return 1
	}
	return d
}
