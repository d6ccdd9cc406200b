// Command mssim runs a one-tag multiscatter deployment on the fleet
// engine: excitation sources with configurable rates and duty cycles, an
// optionally energy-harvesting tag, and one receiver at a configurable
// distance. It prints per-protocol outcome accounting and a
// tag-throughput timeline; -journal writes the run's fleet replay
// journal.
//
// Usage:
//
//	mssim [-span 10s] [-distance 2] [-lux 0] [-single 11n]
//	      [-wifi 2000] [-ble 34] [-zigbee 20] [-duty 0] [-shadow 0]
//	      [-journal run.journal] [-replay golden.journal]
//	      [-trace run.jsonl] [-trace-sample 100] [-trace-format jsonl]
//	      [-obs :6060] [-obs-hold 5s] [-v] [-q]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/clilog"
	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/obs/obsflag"
	"multiscatter/internal/obs/ptrace/traceflag"
	"multiscatter/internal/radio"
	"multiscatter/internal/replay"
	"multiscatter/internal/sim"
)

var (
	span      = flag.Duration("span", 10*time.Second, "simulated time span")
	distance  = flag.Float64("distance", 2, "tag→receiver distance (m)")
	lux       = flag.Float64("lux", 0, "light level for energy harvesting (0 = unlimited power)")
	single    = flag.String("single", "", "restrict the tag to one protocol (11b, 11n, ble, zigbee)")
	wifiRate  = flag.Float64("wifi", 2000, "802.11n packet rate (pkt/s, 0 disables)")
	bleRate   = flag.Float64("ble", 34, "BLE packet rate (pkt/s, 0 disables)")
	zigRate   = flag.Float64("zigbee", 20, "ZigBee packet rate (pkt/s, 0 disables)")
	duty      = flag.Float64("duty", 0, "duty-cycle every source with this on-fraction (0 = always on)")
	scenario  = flag.String("scenario", "", "use a named excitation scenario (home, office, cafe, warehouse) instead of the rate flags")
	seed      = flag.Int64("seed", 1, "random seed")
	shadow    = flag.Float64("shadow", 0, "log-normal shadowing σ in dB (0 disables)")
	journal   = flag.String("journal", "", "write the run's replay journal to this path")
	replayRef = flag.String("replay", "", "diff the run against a recorded journal; exit 1 on drift")
)

func main() {
	flag.Parse()
	lg := clilog.Setup("mssim")
	defer obsflag.Start("mssim")()
	var sources []excite.Source
	add := func(s excite.Source, rate float64) {
		if rate <= 0 {
			return
		}
		s.PacketRate = rate
		if *duty > 0 && *duty < 1 {
			s.Period = time.Second
			s.OnFraction = *duty
			s.PhaseOffset = time.Duration(len(sources)) * 250 * time.Millisecond
		}
		sources = append(sources, s)
	}
	if *scenario != "" {
		sc, err := excite.FindScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mssim:", err)
			os.Exit(2)
		}
		for _, src := range sc.Sources {
			add(src, src.PacketRate)
		}
		fmt.Printf("scenario %q: %s\n", sc.Name, sc.Description)
	} else {
		add(excite.NewWiFi11nSource(), *wifiRate)
		add(excite.NewBLEAdvSource(), *bleRate)
		add(excite.NewZigBeeSource(), *zigRate)
	}

	// One tag at (-distance, 0) reporting to one receiver at the origin.
	tag := fleet.TagSpec{X: -*distance}
	if *lux > 0 {
		tag.Energy = &sim.EnergyConfig{Lux: *lux, StartCharged: true}
	}
	if *single != "" {
		p, err := parseProtocol(*single)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mssim:", err)
			os.Exit(2)
		}
		tag.Supported = []radio.Protocol{p}
	}
	cfg := fleet.Config{
		Sources:   sources,
		Tags:      []fleet.TagSpec{tag},
		Receivers: []fleet.ReceiverSpec{{}},
		Span:      *span,
		Seed:      *seed,
	}
	if *shadow > 0 {
		ch := channel.NewLoS()
		ch.ShadowSigmaDB = *shadow
		cfg.Channel = ch
	}

	rec := traceflag.Recorder("mssim")
	cfg.Trace = rec
	lg.Debug("run starting",
		"seed", *seed, "span", *span, "sources", len(sources),
		"distance_m", *distance, "lux", *lux, "trace", traceflag.Enabled())

	t0 := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		lg.Error("run failed", "err", err)
		os.Exit(1)
	}
	traceflag.Finish("mssim", rec)
	tr := res.Tags[0]
	lg.Debug("run complete",
		"seed", *seed, "wall", time.Since(t0).Round(time.Millisecond),
		"tag_kbps", tr.TagKbps, "energy_rounds", tr.EnergyRounds)

	fmt.Printf("deployment: %v span, receiver at %.1f m", *span, *distance)
	if *lux > 0 {
		fmt.Printf(", %g lux harvesting (%d rounds)", *lux, tr.EnergyRounds)
	}
	fmt.Println()
	fmt.Printf("%-10s %8s %10s %9s %9s %8s %8s %11s\n",
		"protocol", "packets", "delivered", "collided", "misident", "asleep", "unsupp", "tag bits")
	for _, pt := range res.PerProtocol {
		if pt.Packets == 0 {
			continue
		}
		o := tr.PerProtocol[pt.Name]
		fmt.Printf("%-10s %8d %10d %9d %9d %8d %8d %11d\n",
			pt.Name, pt.Packets,
			o[sim.Delivered], o[sim.Collided],
			o[sim.Misidentified], o[sim.TagAsleep],
			o[sim.Unsupported], pt.TagBits)
	}
	// Busy: the share of packets met awake that the tag delivered.
	busy := 0.0
	if awake := res.Events - tr.Outcomes[sim.TagAsleep]; awake > 0 {
		busy = float64(tr.Outcomes[sim.Delivered]+tr.Outcomes[sim.DecodedConcurrent]) / float64(awake)
	}
	fmt.Printf("\ntag throughput: %.1f kbps (busy %.0f%% of awake packets)\n",
		tr.TagKbps, busy*100)

	// Throughput timeline as a sparkline-style bar chart.
	maxKbps := 0.0
	for _, v := range res.Buckets {
		if v > maxKbps {
			maxKbps = v
		}
	}
	if maxKbps > 0 {
		fmt.Printf("timeline (%v buckets, max %.0f kbps):\n", res.BucketDur, maxKbps)
		var sb strings.Builder
		marks := []rune(" ▁▂▃▄▅▆▇█")
		for _, v := range res.Buckets {
			idx := int(v / maxKbps * float64(len(marks)-1))
			sb.WriteRune(marks[idx])
		}
		fmt.Printf("  |%s|\n", sb.String())
	}

	j := replay.FromFleet(*seed, res)
	if *journal != "" {
		if err := j.WriteFile(*journal); err != nil {
			fmt.Fprintln(os.Stderr, "mssim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote replay journal %s (%d entries)\n", *journal, len(j.Entries))
	}
	if *replayRef != "" {
		drift, err := replay.DiffFile(*replayRef, j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mssim:", err)
			os.Exit(1)
		}
		if len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "mssim: replay drift against %s:\n", *replayRef)
			for _, d := range drift {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			os.Exit(1)
		}
		fmt.Printf("replay matches %s\n", *replayRef)
	}
}

func parseProtocol(s string) (radio.Protocol, error) {
	switch s {
	case "ble":
		return radio.ProtocolBLE, nil
	case "zigbee":
		return radio.ProtocolZigBee, nil
	case "11b":
		return radio.Protocol80211b, nil
	case "11n":
		return radio.Protocol80211n, nil
	default:
		return radio.ProtocolUnknown, fmt.Errorf("unknown protocol %q", s)
	}
}
