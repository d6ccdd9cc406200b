package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"multiscatter/internal/analog"
	"multiscatter/internal/baseline"
	"multiscatter/internal/channel"
	"multiscatter/internal/dsp"
	"multiscatter/internal/excite"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/dsss"
	"multiscatter/internal/phy/ofdm"
	"multiscatter/internal/radio"
	"multiscatter/internal/stats"
	"multiscatter/internal/tag"
)

// IdentifyOptions configures an identification-accuracy experiment
// (Figures 5b, 7, 8).
type IdentifyOptions struct {
	// ADCRate in samples/s.
	ADCRate float64
	// Quantized selects ±1 correlation.
	Quantized bool
	// Extended selects the 40 µs window.
	Extended bool
	// Ordered selects ordered matching (false = blind).
	Ordered bool
	// Trials per protocol.
	Trials int
	// SNRLoDB and SNRHiDB bound the uniform per-trace SNR mixture (the
	// paper's traces span "different ranges, scenarios").
	SNRLoDB, SNRHiDB float64
	// ADCNoiseLSB is the converter's input-referred noise.
	ADCNoiseLSB float64
	// Thresholds optionally overrides the matcher thresholds.
	Thresholds map[radio.Protocol]float64
	// Seed for reproducibility.
	Seed int64
}

// withDefaults fills zero fields.
func (o IdentifyOptions) withDefaults() IdentifyOptions {
	if o.Trials == 0 {
		o.Trials = 40
	}
	if o.SNRLoDB == 0 && o.SNRHiDB == 0 {
		o.SNRLoDB, o.SNRHiDB = 9, 21
	}
	if o.ADCNoiseLSB == 0 {
		o.ADCNoiseLSB = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// traceScores holds one trace's correlation scores against all templates.
type traceScores struct {
	truth  radio.Protocol
	scores map[radio.Protocol]float64
}

// collectScores acquires Trials noisy, jittered traces per protocol and
// scores them once against every template; threshold policies are then
// evaluated on the cached scores (this is how the paper's brute-force
// threshold search stays tractable).
//
// Trials run on a worker pool: each trace derives all of its randomness
// from its own seed (o.Seed + trace index), so the result is
// deterministic regardless of scheduling.
func collectScores(o IdentifyOptions) ([]traceScores, error) {
	// Templates are built once, clean, and shared read-only.
	tmplFE := tag.NewFrontEnd(o.ADCRate)
	window := tag.BaseWindowUS
	if o.Extended {
		window = tag.ExtendedWindowUS
	}
	set, err := tag.BuildTemplateSet(tmplFE, window)
	if err != nil {
		return nil, err
	}
	matcher := tag.NewMatcher(set, tag.MatchConfig{Quantized: o.Quantized})

	type job struct {
		truth radio.Protocol
		wave  radio.Waveform
		seed  int64
	}
	var jobs []job
	for pi, p := range radio.Protocols {
		w, err := tag.PreambleWaveform(p)
		if err != nil {
			return nil, err
		}
		for i := 0; i < o.Trials; i++ {
			jobs = append(jobs, job{
				truth: p,
				wave:  w,
				seed:  o.Seed + int64(pi*o.Trials+i)*7919,
			})
		}
	}

	traces := make([]traceScores, len(jobs))
	workers := runtime.NumCPU()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe := tag.NewFrontEnd(o.ADCRate)
			for ji := range next {
				j := jobs[ji]
				rng := rand.New(rand.NewSource(j.seed))
				fe.ADC.Rand = rng
				fe.ADC.NoiseLSB = o.ADCNoiseLSB
				// Start-phase jitter spans one ADC period (the
				// converter clock free-runs relative to packet arrival).
				period := int(j.wave.Rate / o.ADCRate)
				if period < 1 {
					period = 1
				}
				off := rng.Intn(period + 1)
				iq := make([]complex128, off, off+len(j.wave.IQ))
				iq = append(iq, j.wave.IQ...)
				snr := o.SNRLoDB + rng.Float64()*(o.SNRHiDB-o.SNRLoDB)
				channel.AWGN(iq, snr, rng)
				samples := fe.Acquire(iq, j.wave.Rate)
				traces[ji] = traceScores{
					truth:  j.truth,
					scores: matcher.Scores(samples),
				}
			}
		}()
	}
	for ji := range jobs {
		next <- ji
	}
	close(next)
	wg.Wait()
	return traces, nil
}

// decideFromScores applies a matching policy to cached scores.
func decideFromScores(ts traceScores, ordered bool, thr map[radio.Protocol]float64) radio.Protocol {
	threshold := func(p radio.Protocol) float64 {
		if t, ok := thr[p]; ok {
			return t
		}
		return tag.DefaultThreshold
	}
	if ordered {
		for _, p := range radio.Protocols {
			if ts.scores[p] >= threshold(p) {
				return p
			}
		}
		return radio.ProtocolUnknown
	}
	best := radio.ProtocolUnknown
	bestScore := 0.0
	for _, p := range radio.Protocols {
		if s := ts.scores[p]; s > bestScore {
			best, bestScore = p, s
		}
	}
	if best != radio.ProtocolUnknown && bestScore < threshold(best) {
		return radio.ProtocolUnknown
	}
	return best
}

// confusionOf evaluates a policy over cached traces.
func confusionOf(traces []traceScores, ordered bool, thr map[radio.Protocol]float64) *stats.Confusion {
	c := stats.NewConfusion()
	for _, ts := range traces {
		c.Add(ts.truth, decideFromScores(ts, ordered, thr))
	}
	return c
}

// TuneThresholds brute-force searches per-protocol thresholds (the
// paper's §2.3.2 methodology) on the cached scores, greedily maximizing
// average accuracy protocol by protocol in matching order.
func TuneThresholds(traces []traceScores, ordered bool) map[radio.Protocol]float64 {
	thr := map[radio.Protocol]float64{}
	for _, p := range radio.Protocols {
		thr[p] = tag.DefaultThreshold
	}
	grid := []float64{0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9}
	for pass := 0; pass < 2; pass++ {
		for _, p := range radio.Protocols {
			bestAcc := -1.0
			bestT := thr[p]
			for _, t := range grid {
				thr[p] = t
				if acc := confusionOf(traces, ordered, thr).Average(); acc > bestAcc {
					bestAcc, bestT = acc, t
				}
			}
			thr[p] = bestT
		}
	}
	return thr
}

// RunIdentification runs a full identification experiment: collect
// traces, tune thresholds, evaluate. It returns the confusion matrix and
// the tuned thresholds.
func RunIdentification(o IdentifyOptions) (*stats.Confusion, map[radio.Protocol]float64, error) {
	s, err := ScoreIdentification(o)
	if err != nil {
		return nil, nil, err
	}
	c, thr := s.Decide(o.Ordered)
	return c, thr, nil
}

// IdentScores are one operating point's traces, each scored once
// against every template. Both matching policies are decided from the
// same scores, so comparing them acquires the traces once.
type IdentScores struct {
	traces     []traceScores
	thresholds map[radio.Protocol]float64
}

// ScoreIdentification acquires and scores the traces of o's operating
// point. o.Ordered plays no part: Decide takes the policy.
func ScoreIdentification(o IdentifyOptions) (*IdentScores, error) {
	o = o.withDefaults()
	traces, err := collectScores(o)
	if err != nil {
		return nil, err
	}
	return &IdentScores{traces: traces, thresholds: o.Thresholds}, nil
}

// Decide evaluates blind or ordered matching on the scores, at the
// options' Thresholds when they were set and at thresholds tuned for the
// policy otherwise. It returns the confusion matrix and the thresholds.
func (s *IdentScores) Decide(ordered bool) (*stats.Confusion, map[radio.Protocol]float64) {
	thr := s.thresholds
	if thr == nil {
		thr = TuneThresholds(s.traces, ordered)
	}
	return confusionOf(s.traces, ordered, thr), thr
}

// RangePoint is one distance sample of Figures 13/14.
type RangePoint struct {
	// DistanceM from tag to receiver.
	DistanceM float64
	// RSSIdBm of the backscattered signal.
	RSSIdBm float64
	// TagBER of the tag data.
	TagBER float64
	// AggregateKbps is productive + tag throughput.
	AggregateKbps float64
}

// RangeSweep computes RSSI/BER/throughput across distances for one
// protocol over the given channel (mode 1, default traffic).
func RangeSweep(p radio.Protocol, m *channel.Model, maxD, step float64) []RangePoint {
	l := NewLink(p, m)
	tr := overlay.DefaultTraffic(p)
	var out []RangePoint
	for d := step; d <= maxD+1e-9; d += step {
		tp := l.Throughput(d, overlay.Mode1, tr)
		out = append(out, RangePoint{
			DistanceM:     d,
			RSSIdBm:       RoundRSSI(l.RSSI(d)),
			TagBER:        l.TagBER(d),
			AggregateKbps: tp.Aggregate(),
		})
	}
	return out
}

// MaxRangeOf returns the last distance with nonzero throughput in a
// sweep.
func MaxRangeOf(points []RangePoint) float64 {
	var best float64
	for _, pt := range points {
		if pt.AggregateKbps > 0 && pt.DistanceM > best {
			best = pt.DistanceM
		}
	}
	return best
}

// TradeoffResult is one bar group of Figure 12.
type TradeoffResult struct {
	Protocol radio.Protocol
	Mode     overlay.Mode
	overlay.Throughput
}

// RunTradeoffs computes Figure 12: productive vs tag throughput for all
// protocols and modes, averaged over tag positions (the paper's 100
// locations → we average the link over 1–10 m).
func RunTradeoffs() []TradeoffResult {
	var out []TradeoffResult
	los := channel.NewLoS()
	for _, p := range radio.Protocols {
		l := NewLink(p, los)
		tr := overlay.DefaultTraffic(p)
		for _, m := range []overlay.Mode{overlay.Mode1, overlay.Mode2, overlay.Mode3} {
			var sum overlay.Throughput
			n := 0
			for d := 1.0; d <= 10; d++ {
				tp := l.Throughput(d, m, tr)
				sum.ProductiveKbps += tp.ProductiveKbps
				sum.TagKbps += tp.TagKbps
				n++
			}
			sum.ProductiveKbps /= float64(n)
			sum.TagKbps /= float64(n)
			out = append(out, TradeoffResult{Protocol: p, Mode: m, Throughput: sum})
		}
	}
	return out
}

// OcclusionResult is one bar of Figure 15.
type OcclusionResult struct {
	// System label ("multiscatter BLE", "Hitchhike", ...).
	System string
	// TagKbps under a drywall-occluded original channel.
	TagKbps float64
}

// RunOcclusion computes Figure 15: tag throughput with the original
// channel behind drywall — multiscatter is unaffected (it never uses the
// original channel), the two-receiver baselines collapse.
func RunOcclusion() []OcclusionResult {
	trB := overlay.DefaultTraffic(radio.Protocol80211b)
	trBLE := overlay.DefaultTraffic(radio.ProtocolBLE)
	los := channel.NewLoS()
	msBLE := NewLink(radio.ProtocolBLE, los).Throughput(4, overlay.Mode1, trBLE).TagKbps
	msB := NewLink(radio.Protocol80211b, los).Throughput(4, overlay.Mode1, trB).TagKbps
	cfg := baseline.DecodeConfig{
		OriginalSNRdB:  8,
		Wall:           channel.Drywall,
		BackscatterBER: 0.002,
		DistanceM:      4,
	}
	cfg.System = baseline.Hitchhike
	hh := baseline.TagThroughputKbps(cfg, trB, radio.Protocol80211b)
	cfg.System = baseline.FreeRider
	fr := baseline.TagThroughputKbps(cfg, trB, radio.Protocol80211b)
	dd := baseline.DoubleDeckerThroughputKbps(baseline.DoubleDeckerConfig{}, trB, radio.Protocol80211b)
	return []OcclusionResult{
		{"multiscatter BLE", msBLE},
		{"multiscatter 802.11b", msB},
		{"Double-decker", dd},
		{"Hitchhike", hh},
		{"FreeRider", fr},
	}
}

// OcclusionSweepPoint is one wall material of the extended Figure 15
// sweep: the two-receiver baselines against Double-decker's
// single-receiver decoding as the original channel degrades.
type OcclusionSweepPoint struct {
	Wall channel.Material
	// Tag throughputs at the Figure 15 working point (802.11b carrier).
	DoubleDeckerKbps float64
	HitchhikeKbps    float64
	FreeRiderKbps    float64
	// DoubleDeckerBER is the analytic tag-layer BER (wall-independent).
	DoubleDeckerBER float64
}

// RunOcclusionSweep extends Figure 15 across wall materials: Hitchhike
// and FreeRider decay with the occluded original channel, while
// Double-decker is flat — its single receiver never sees the wall.
func RunOcclusionSweep() []OcclusionSweepPoint {
	trB := overlay.DefaultTraffic(radio.Protocol80211b)
	ddCfg := baseline.DoubleDeckerConfig{}
	dd := baseline.DoubleDeckerThroughputKbps(ddCfg, trB, radio.Protocol80211b)
	ddBER := baseline.DoubleDeckerTagBER(ddCfg, radio.Protocol80211b)
	var out []OcclusionSweepPoint
	for _, wall := range []channel.Material{channel.NoWall, channel.Drywall, channel.Wood, channel.Concrete} {
		cfg := baseline.DecodeConfig{
			OriginalSNRdB:  8,
			Wall:           wall,
			BackscatterBER: 0.002,
			DistanceM:      4,
		}
		cfg.System = baseline.Hitchhike
		hh := baseline.TagThroughputKbps(cfg, trB, radio.Protocol80211b)
		cfg.System = baseline.FreeRider
		fr := baseline.TagThroughputKbps(cfg, trB, radio.Protocol80211b)
		out = append(out, OcclusionSweepPoint{
			Wall:             wall,
			DoubleDeckerKbps: dd,
			HitchhikeKbps:    hh,
			FreeRiderKbps:    fr,
			DoubleDeckerBER:  ddBER,
		})
	}
	return out
}

// RunDoubleDeckerDecode Monte-Carlos the waveform-level single-receiver
// decoder: real 802.11b DSSS excitation frames superposed with a
// backscatter copy 25 dB down, the tag keying one bit per γ·spread
// symbol group with a 100 Hz residual phase drift, AWGN at 15 dB —
// decoded by baseline.DecodeSuperposedTag from the one received stream.
// Returns the measured tag-bit error rate over the given packet count.
func RunDoubleDeckerDecode(packets int, seed int64) (float64, error) {
	if packets <= 0 {
		return 0, fmt.Errorf("core: need at least one packet, got %d", packets)
	}
	rng := rand.New(rand.NewSource(seed))
	mod := dsss.NewModulator(dsss.Config{Rate: dsss.Rate1Mbps})
	ddCfg := baseline.DoubleDeckerConfig{}.WithDefaults()
	g := overlay.Gammas[radio.Protocol80211b]
	const pilotGroups = 2
	var bits, errs int
	for pkt := 0; pkt < packets; pkt++ {
		payload := make([]byte, 32)
		rng.Read(payload)
		clean, info := mod.Modulate(radio.Packet{Protocol: radio.Protocol80211b, Payload: payload})
		groupLen := info.SamplesPerSymbol * g * baseline.DoubleDeckerSpread
		groups := len(clean.IQ) / groupLen
		if groups < pilotGroups+2 {
			return 0, fmt.Errorf("core: frame too short for superposition decode (%d groups)", groups)
		}
		want := make([]byte, groups-pilotGroups-1)
		for i := range want {
			want[i] = byte(rng.Intn(2))
		}
		// Direct path at unit gain; backscatter DirectToBackscatterDB
		// below it with its own phase, drifting across the frame.
		hb := channel.Coeff{GainDB: -ddCfg.DirectToBackscatterDB, PhaseRad: 0}
		drift := channel.NewPhaseDrift(rng, ddCfg.DriftHz)
		rx := make([]complex128, len(clean.IQ))
		for gi := 0; gi < groups; gi++ {
			tag := 0.0 // silent pilots
			switch {
			case gi == pilotGroups:
				tag = 1
			case gi > pilotGroups:
				tag = -1
				if want[gi-pilotGroups-1] == 1 {
					tag = 1
				}
			}
			t := time.Duration(float64(gi*groupLen) / clean.Rate * float64(time.Second))
			h := drift.Apply(hb, t).H()
			for i := gi * groupLen; i < (gi+1)*groupLen; i++ {
				rx[i] = clean.IQ[i] * (1 + complex(tag, 0)*h)
			}
		}
		channel.AWGN(rx, 15, rng)
		got, err := baseline.DecodeSuperposedTag(rx, clean.IQ, groupLen, pilotGroups)
		if err != nil {
			return 0, err
		}
		for i := range want {
			bits++
			if got[i] != want[i] {
				errs++
			}
		}
	}
	return float64(errs) / float64(bits), nil
}

// CollisionResult is one protocol's throughput with and without a
// colliding excitation (Figure 16).
type CollisionResult struct {
	Protocol  radio.Protocol
	AloneKbps float64
	// CollidedKbps under the paper's collision scenario.
	CollidedKbps float64
}

// RunCollisions computes Figure 16: time-domain collision of 802.11n and
// BLE (16a/b) and frequency-domain collision of 802.11n and ZigBee
// (16c/d), via Monte Carlo packet timelines.
func RunCollisions(seed int64) (timeDomain, freqDomain []CollisionResult) {
	rng := rand.New(rand.NewSource(seed))
	span := 5 * time.Second
	los := channel.NewLoS()

	run := func(a, b excite.Source, pa, pb radio.Protocol) []CollisionResult {
		events := excite.Timeline([]excite.Source{a, b}, span, rng)
		cs := excite.Collisions(events, 2)
		mk := func(p radio.Protocol, loss float64, src excite.Source) CollisionResult {
			// Throughput accounting uses the saturated carrier (the
			// paper's Figure 16 plots the saturated 278-kbps-class BLE
			// number); the collision exposure comes from the realistic
			// packet-rate timeline.
			l := NewLink(p, los)
			tr := overlay.DefaultTraffic(p)
			alone := l.Throughput(2, overlay.Mode1, tr).Aggregate()
			return CollisionResult{
				Protocol:     p,
				AloneKbps:    alone,
				CollidedKbps: alone * (1 - loss),
			}
		}
		return []CollisionResult{
			mk(pa, cs[0].CollisionFraction(), a),
			mk(pb, cs[1].CollisionFraction(), b),
		}
	}

	wifi := excite.NewWiFi11nSource()
	wifi.PacketRate = 2000
	// Figure 16a: BLE blasted saturated so its standalone throughput is
	// the 278-kbps-class number; collisions with dense WiFi erase most
	// of it.
	bleSat := excite.NewBLEAdvSource()
	bleSat.PacketRate = 34
	timeDomain = run(wifi, bleSat, radio.Protocol80211n, radio.ProtocolBLE)

	// Figure 16c: the frequency-domain collision scenario. The paper
	// notes "both excitations are not overlapped in the time domain" —
	// the dense WiFi bursts and the long, sparse ZigBee frames were
	// scheduled apart — so the sources are windowed into disjoint
	// phases of a common period.
	wifiF := excite.NewWiFi11nSource()
	wifiF.PacketRate = 2000
	wifiF.Period = 50 * time.Millisecond
	wifiF.OnFraction = 0.7 // bursts in [0, 35) ms of each period
	zig := excite.NewZigBeeSource()
	zig.Period = 50 * time.Millisecond
	zig.OnFraction = 0.1                    // frames start in [38, 43) ms...
	zig.PhaseOffset = 12 * time.Millisecond // ...and end before 50 ms
	freqDomain = run(wifiF, zig, radio.Protocol80211n, radio.ProtocolZigBee)
	return timeDomain, freqDomain
}

// DiversityResult summarizes Figure 18a.
type DiversityResult struct {
	// MultiKbps is the multiscatter tag's average throughput.
	MultiKbps float64
	// SingleKbps is the single-protocol (802.11n-only) tag's.
	SingleKbps float64
	// MultiBusyFrac and SingleBusyFrac are the fraction of time each tag
	// had a usable excitation.
	MultiBusyFrac, SingleBusyFrac float64
}

// RunDiversity computes Figure 18a: 802.11b and 802.11n carriers
// alternate with 50% duty cycle each; the multiscatter tag rides both,
// the single-protocol tag idles half the time.
func RunDiversity() DiversityResult {
	los := channel.NewLoS()
	b := NewLink(radio.Protocol80211b, los)
	n := NewLink(radio.Protocol80211n, los)
	trB := overlay.DefaultTraffic(radio.Protocol80211b)
	trN := overlay.DefaultTraffic(radio.Protocol80211n)
	const d = 2.0
	tpB := b.Throughput(d, overlay.Mode1, trB).TagKbps
	tpN := n.Throughput(d, overlay.Mode1, trN).TagKbps
	// 50% of the time 802.11b is on, 50% 802.11n is on (complementary).
	return DiversityResult{
		MultiKbps:      0.5*tpB + 0.5*tpN,
		SingleKbps:     0.5 * tpN,
		MultiBusyFrac:  1.0,
		SingleBusyFrac: 0.5,
	}
}

// CarrierPickResult summarizes Figure 18b.
type CarrierPickResult struct {
	// Goodputs per available excitation.
	Goodputs map[radio.Protocol]float64
	// Picked is the multiscatter tag's choice.
	Picked radio.Protocol
	// PickedKbps is the chosen goodput.
	PickedKbps float64
	// MeetsTarget reports whether the 6.3 kbps bracelet requirement is
	// met.
	MeetsTarget bool
	// SingleKbps is the 802.11b-only tag's goodput, and SingleMeets its
	// verdict.
	SingleKbps  float64
	SingleMeets bool
}

// BraceletGoodputKbps is the on-body monitoring requirement of §4.2.2.
const BraceletGoodputKbps = 6.3

// RunCarrierPick computes Figure 18b: abundant 802.11n excitation and
// spotty 802.11b; the multiscatter tag picks 802.11n and meets the
// bracelet goodput, the 802.11b-only tag fails.
func RunCarrierPick() CarrierPickResult {
	los := channel.NewLoS()
	const d = 2.0
	// Spotty 802.11b: 2% duty; abundant 802.11n: 30 pkt/s equivalent.
	trB := overlay.DefaultTraffic(radio.Protocol80211b)
	trB.MaxPacketRate = 8 // spotty
	trN := overlay.DefaultTraffic(radio.Protocol80211n)
	trN.MaxPacketRate = 200 // abundant
	gB := NewLink(radio.Protocol80211b, los).Throughput(d, overlay.Mode1, trB).TagKbps
	gN := NewLink(radio.Protocol80211n, los).Throughput(d, overlay.Mode1, trN).TagKbps
	goodputs := map[radio.Protocol]float64{
		radio.Protocol80211b: gB,
		radio.Protocol80211n: gN,
	}
	picked, ok := SelectCarrier(goodputs, BraceletGoodputKbps)
	return CarrierPickResult{
		Goodputs:    goodputs,
		Picked:      picked,
		PickedKbps:  goodputs[picked],
		MeetsTarget: ok,
		SingleKbps:  gB,
		SingleMeets: gB >= BraceletGoodputKbps,
	}
}

// BaselineFailurePoint is one bar of Figure 9a.
type BaselineFailurePoint struct {
	System string
	Wall   channel.Material
	TagBER float64
}

// RunBaselineFailure computes Figure 9a (occlusion BER for Hitchhike and
// FreeRider) plus the offset series of Figure 9b.
func RunBaselineFailure() (bers []BaselineFailurePoint, offsets *stats.Series) {
	for _, sys := range []baseline.System{baseline.Hitchhike, baseline.FreeRider} {
		for _, wall := range []channel.Material{channel.NoWall, channel.Wood, channel.Concrete} {
			cfg := baseline.DecodeConfig{
				System:         sys,
				OriginalSNRdB:  9,
				Wall:           wall,
				BackscatterBER: 0.002,
				DistanceM:      2,
			}
			bers = append(bers, BaselineFailurePoint{
				System: sys.String(),
				Wall:   wall,
				TagBER: baseline.TagBER(cfg),
			})
		}
	}
	offsets = &stats.Series{Name: "Hitchhike offset", Unit: "symbols"}
	for d := 1.0; d <= 30; d += 1 {
		offsets.Add(d, float64(baseline.ModulationOffsetSymbols(d)))
	}
	return bers, offsets
}

// RefModResult is one bar of Figure 17.
type RefModResult struct {
	// Label of the reference-symbol modulation.
	Label string
	// TagBER measured over Monte Carlo carriers.
	TagBER float64
}

// RunRefModulation computes Figure 17: tag-data BER across
// reference-symbol modulations, by running real carriers through the
// codecs under AWGN. snrDB applies to the 802.11b variants (Figure 17a);
// the OFDM variants (Figure 17b) run 6 dB higher — OFDM has no Barker
// despreading gain, and the two panels are separate experiments at their
// own working points.
func RunRefModulation(snrDB float64, packets int, seed int64) ([]RefModResult, error) {
	rng := rand.New(rand.NewSource(seed))
	type variant struct {
		label string
		codec overlay.Codec
		snr   float64
	}
	variants := []variant{
		{"DSSS-BPSK", overlay.NewDSSSCodec(dsss.Rate1Mbps), snrDB},
		{"DSSS-DQPSK", overlay.NewDSSSCodec(dsss.Rate2Mbps), snrDB},
		{"CCK-5.5", overlay.NewDSSSCodec(dsss.Rate5_5Mbps), snrDB},
		{"OFDM-BPSK", overlay.NewOFDMCodec(ofdm.BPSK), snrDB + 6},
		{"OFDM-QPSK", overlay.NewOFDMCodec(ofdm.QPSK), snrDB + 6},
		{"OFDM-16QAM", overlay.NewOFDMCodec(ofdm.QAM16), snrDB + 6},
	}
	out := make([]RefModResult, 0, len(variants))
	for _, v := range variants {
		errorsN, totalN := 0, 0
		for pkt := 0; pkt < packets; pkt++ {
			productive := make([]byte, 6)
			for i := range productive {
				productive[i] = byte(rng.Intn(2))
			}
			plan, err := overlay.NewPlan(v.codec.Protocol(), overlay.Mode1, productive)
			if err != nil {
				return nil, err
			}
			tagBits := make([]byte, plan.TagCapacity())
			for i := range tagBits {
				tagBits[i] = byte(rng.Intn(2))
			}
			carrier, err := v.codec.Build(plan)
			if err != nil {
				return nil, err
			}
			v.codec.ApplyTag(carrier, tagBits)
			channel.AWGN(carrier.Waveform.IQ, v.snr, rng)
			res, err := v.codec.Decode(carrier)
			if err != nil {
				return nil, err
			}
			_, te := res.BitErrors(plan, tagBits)
			errorsN += te
			totalN += len(tagBits)
		}
		ber := 0.0
		if totalN > 0 {
			ber = float64(errorsN) / float64(totalN)
		}
		out = append(out, RefModResult{Label: v.label, TagBER: ber})
	}
	return out, nil
}

// JointOFDMPoint is one cell of the waveform-level concurrent-OFDM
// experiment: k tags riding the same 802.11n frames at one SNR, decoded
// jointly via subcarrier-group (and, beyond four tags, Walsh-code)
// separation.
type JointOFDMPoint struct {
	// K concurrent tags sharing the excitation.
	K int
	// SNRdB of the AWGN channel the collided backscatter crossed.
	SNRdB float64
	// TagBER is the per-tag bit error rate of the joint decoder.
	TagBER float64
	// TagBitsPerFrame is what each tag recovers from one frame;
	// AggregateBitsPerFrame sums all k tags — the concurrency payoff.
	TagBitsPerFrame       int
	AggregateBitsPerFrame int
}

// RunJointOFDM sweeps the fig16 concurrency experiment at the waveform
// level: for each fleet size k it modulates real 802.11n frames, rides
// k tags on each via ofdm.AssignConcurrent, pushes the superposition
// through an AWGN channel, and joint-decodes every tag with the known
// clean excitation as reference (the productive two-receiver setup).
// Disjoint subcarrier groups carry k≤4 without rate loss; k=6
// exercises the Walsh code-sharing path.
func RunJointOFDM(snrsDB []float64, packets int, seed int64) ([]JointOFDMPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := ofdm.Config{Modulation: ofdm.BPSK}
	out := make([]JointOFDMPoint, 0, 5*len(snrsDB))
	for _, k := range []int{1, 2, 3, 4, 6} {
		for _, snr := range snrsDB {
			errorsN, totalN, windows := 0, 0, 0
			for pkt := 0; pkt < packets; pkt++ {
				payload := make([]byte, 120)
				for i := range payload {
					payload[i] = byte(rng.Intn(256))
				}
				w, info := ofdm.NewModulator(cfg).Modulate(radio.Packet{Payload: payload})
				clean := append([]complex128(nil), w.IQ...)

				assigns := ofdm.AssignConcurrent(k)
				codeLen := len(assigns[0].Code)
				if codeLen == 0 {
					codeLen = 1
				}
				windows = info.NumSymbols() / codeLen
				want := make([][]byte, k)
				for i := range want {
					want[i] = make([]byte, windows)
					for j := range want[i] {
						want[i][j] = byte(rng.Intn(2))
					}
				}
				if err := ofdm.ApplyConcurrentTags(w, info, assigns, want); err != nil {
					return nil, err
				}
				gain := complex(0.6, -0.5)
				for i := range w.IQ {
					w.IQ[i] *= gain
				}
				channel.AWGN(w.IQ, snr, rng)

				cleanInfo := *info
				ref, err := ofdm.NewDemodulator(cfg).Demodulate(radio.Waveform{IQ: clean, Rate: w.Rate}, &cleanInfo)
				if err != nil {
					return nil, err
				}
				jd, err := ofdm.NewJointDemodulator(cfg, assigns)
				if err != nil {
					return nil, err
				}
				jd.SetExcitation(ref)
				streams, err := jd.Demodulate(w, info)
				if err != nil {
					return nil, err
				}
				for i, a := range assigns {
					got := ofdm.JointTagBits(streams[i], ref, a, cfg.Modulation, info.NumSymbols())
					for j := range want[i] {
						if got[j] != want[i][j] {
							errorsN++
						}
						totalN++
					}
				}
			}
			ber := 0.0
			if totalN > 0 {
				ber = float64(errorsN) / float64(totalN)
			}
			out = append(out, JointOFDMPoint{
				K: k, SNRdB: snr, TagBER: ber,
				TagBitsPerFrame:       windows,
				AggregateBitsPerFrame: windows * k,
			})
		}
	}
	return out, nil
}

// RectifierResult summarizes Figure 4.
type RectifierResult struct {
	// BasicMeanV and ClampedMeanV are the mean outputs of the basic and
	// the clamped (multiscatter) rectifier on one square envelope.
	BasicMeanV, ClampedMeanV float64
	// OursFidelity and WISPFidelity correlate the multiscatter and the
	// WISP rectifier's outputs with an 802.11b packet's envelope.
	OursFidelity, WISPFidelity float64
}

// RunRectifiers computes Figure 4: the clamp stage raises the output of
// a 0.3 V square envelope, and the multiscatter rectifier tracks an
// 802.11b envelope the WISP rectifier distorts.
func RunRectifiers() RectifierResult {
	const rate = 22e6
	env := make([]float64, 2200)
	for i := range env {
		if (i/110)%2 == 0 {
			env[i] = 0.3
		}
	}
	res := RectifierResult{
		BasicMeanV:   dsp.MeanFloat(analog.NewBasicRectifier().Detect(env, rate)),
		ClampedMeanV: dsp.MeanFloat(analog.NewMultiscatterRectifier().Detect(env, rate)),
	}

	mod := dsss.NewModulator(dsss.Config{Rate: dsss.Rate1Mbps})
	w, _ := mod.Modulate(radio.Packet{Payload: []byte{0xA5, 0x5A, 0x3C}})
	sig := dsp.Envelope(w.IQ)
	for i := range sig {
		if (i/22)%2 == 1 {
			sig[i] *= 0.2
		}
		sig[i] *= 0.4
	}
	ref := dsp.RemoveDC(dsp.CloneFloat(sig))
	fidelity := func(out []float64) float64 { return dsp.NormCorrFloat(dsp.RemoveDC(out), ref) }
	res.OursFidelity = fidelity(analog.NewMultiscatterRectifier().Detect(sig, w.Rate))
	res.WISPFidelity = fidelity(analog.NewWISPRectifier().Detect(sig, w.Rate))
	return res
}
