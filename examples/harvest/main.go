// Harvest: energy-limited multiscatter operation (§3's power analysis in
// motion). A solar-harvesting tag rides dense 802.11n excitation through
// a day profile — bright outdoor light, office light, darkness — cycling
// its 0.01 F storage capacitor between 4.1 V and 2.6 V. The example
// prints each phase's delivery statistics and shows how the paper's
// Table 4 exchange-time arithmetic emerges from the event simulation of
// a one-tag deployment (the tag 2 m from its receiver).
package main

import (
	"fmt"
	"log"
	"time"

	"multiscatter/internal/energy"
	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/sim"
)

func main() {
	wifi := excite.NewWiFi11nSource()
	wifi.PacketRate = 500

	phases := []struct {
		name string
		lux  float64
	}{
		{"outdoor (1.04e5 lux)", 1.04e5},
		{"indoor (500 lux)", 500},
		{"darkness", 0.001},
	}

	fmt.Println("phase                  packets  delivered   asleep   tag kbps  rounds")
	for i, ph := range phases {
		res, err := fleet.Run(fleet.Config{
			Sources: []excite.Source{wifi},
			Tags: []fleet.TagSpec{{
				X:      -2,
				Energy: &sim.EnergyConfig{Lux: ph.lux, StartCharged: true},
			}},
			Receivers: []fleet.ReceiverSpec{{}},
			Span:      15 * time.Second,
			Seed:      int64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		tag := res.Tags[0]
		fmt.Printf("%-22s %8d %10d %8d %10.2f %7d\n",
			ph.name, res.Events, tag.Outcomes[sim.Delivered],
			tag.Outcomes[sim.TagAsleep], tag.TagKbps, tag.EnergyRounds)
	}

	// The static Table 4 arithmetic for comparison.
	fmt.Println("\nTable 4 arithmetic (50 mJ rounds at 279.5 mW):")
	panel := energy.NewMP337()
	fmt.Printf("  one round powers the tag for %.2f s\n", energy.ActiveSecondsPerRound(0.2795))
	fmt.Printf("  recharging takes %.3g s indoors, %.3g s outdoors\n",
		panel.HarvestSeconds(energy.IndoorLux), panel.HarvestSeconds(energy.OutdoorLux))
	for _, r := range energy.ExchangeTable(0.2795) {
		fmt.Printf("  %-8v %6.1f pkts/round → one exchange every %8.3gs indoor / %8.3gs outdoor\n",
			r.Protocol, r.PacketsPerRound, r.IndoorSeconds, r.OutdoorSeconds)
	}
}
