package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"multiscatter/internal/core"
	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// pipelinePackets is the size of the pipeline's input pool: twelve
// rounds of one packet per protocol, cycled for the whole window.
const pipelinePackets = 48

// productiveBits per packet: one overlay sequence each, so every packet
// carries as many tag bits (Mode1, κ = 2γ).
const productiveBits = 128

// packetSpec is one generated pipeline input.
type packetSpec struct {
	proto      radio.Protocol
	productive []byte
	tag        []byte
	imp        core.Impairments
}

// pipelineInputs draws the packet pool: random productive and tag bits,
// 50–250 samples of arrival delay, and on BLE and 802.11b (whose
// receivers search CFO) a ±20 kHz residual offset; 22 dB SNR throughout.
// ZigBee and 802.11n get no offset, as in TestGrandPipeline: their
// receivers rely on hardware frequency correction the model leaves out.
func pipelineInputs(seed int64) []packetSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]packetSpec, pipelinePackets)
	for i := range specs {
		s := packetSpec{
			proto:      radio.Protocols[i%len(radio.Protocols)],
			productive: make([]byte, productiveBits),
			tag:        make([]byte, productiveBits),
			imp:        core.Impairments{DelaySamples: 50 + rng.Intn(201), SNRdB: 22, Seed: rng.Int63()},
		}
		for k := range s.productive {
			s.productive[k] = byte(rng.Intn(2))
			s.tag[k] = byte(rng.Intn(2))
		}
		if s.proto == radio.ProtocolBLE || s.proto == radio.Protocol80211b {
			s.imp.CFOHz = (rng.Float64()*2 - 1) * 20e3
		}
		specs[i] = s
	}
	return specs
}

// pipelineRig is the program state the pipeline runs on: one tag (its
// identifier and four codecs) and one receiver per protocol.
type pipelineRig struct {
	tag *core.Tag
	rx  map[radio.Protocol]*core.Receiver
}

func newPipelineRig() (*pipelineRig, error) {
	tg, err := core.NewTag(core.TagConfig{})
	if err != nil {
		return nil, err
	}
	rig := &pipelineRig{tag: tg, rx: map[radio.Protocol]*core.Receiver{}}
	for _, p := range radio.Protocols {
		rx := core.NewReceiver(p)
		if p == radio.ProtocolZigBee || p == radio.Protocol80211n {
			rx.SearchHz = 0
		}
		rig.rx[p] = rx
	}
	return rig, nil
}

// pipelineLayers names the spans of one packet, in call order; the root
// "pipeline.packet" span's self time is the benchmark's own share (plan,
// payload and checks).
var pipelineLayers = []string{"overlay.build", "tag.identify", "overlay.apply_tag", "channel.impair", "core.recover", "overlay.decode"}

// packet runs one packet through Fig. 2 and checks it. ts receives the
// time before the plan, after each layer call and after the check.
func (rig *pipelineRig) packet(s *packetSpec, ts *[9]int64) error {
	ts[0] = time.Now().UnixNano()
	plan, err := overlay.NewPlan(s.proto, overlay.Mode1, s.productive)
	if err != nil {
		return err
	}
	codec := rig.tag.Codecs[s.proto]
	ts[1] = time.Now().UnixNano()
	carrier, err := codec.Build(plan)
	ts[2] = time.Now().UnixNano()
	if err != nil {
		return err
	}
	got, _ := rig.tag.Identify(carrier.Waveform.IQ, carrier.Waveform.Rate)
	ts[3] = time.Now().UnixNano()
	codec.ApplyTag(carrier, s.tag)
	ts[4] = time.Now().UnixNano()
	core.Impair(carrier, s.imp)
	ts[5] = time.Now().UnixNano()
	_, _, err = rig.rx[s.proto].Recover(carrier)
	ts[6] = time.Now().UnixNano()
	if err != nil {
		return err
	}
	res, err := codec.Decode(carrier)
	ts[7] = time.Now().UnixNano()
	if err != nil {
		return err
	}
	err = checkPacket(s.proto, got, plan, s.tag, res)
	ts[8] = time.Now().UnixNano()
	return err
}

// checkPacket is the pipeline's correctness gate: the tag identified the
// true protocol and the receiver recovered every productive and tag bit.
func checkPacket(want, got radio.Protocol, plan *overlay.Plan, tagBits []byte, res overlay.Result) error {
	if got != want {
		return fmt.Errorf("identified %v, sent %v", got, want)
	}
	if pe, te := res.BitErrors(plan, tagBits); pe != 0 || te != 0 {
		return fmt.Errorf("%v: %d productive and %d tag bit errors", want, pe, te)
	}
	return nil
}

// runPipeline times rounds: one packet of each protocol, in
// ordered-matching order, as a tag that sees all four excitations would.
// A round, not a packet, is the operation, because per-packet times
// cluster by protocol (BLE and 802.11b search 25 CFO candidates, ZigBee
// and 802.11n one) and a packet median would fall between the clusters.
func runPipeline(p params) (*report, error) {
	specs := pipelineInputs(p.seed)
	setup := &setupClock{build: func() (func(), error) { _, err := newPipelineRig(); return nil, err }}
	rig, err := newPipelineRig()
	if err != nil {
		return nil, err
	}
	// Warm-up: the codecs build their modems on first use.
	var ts [9]int64
	for i := range radio.Protocols {
		if err := rig.packet(&specs[i], &ts); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var tr *tracer
	if p.trace {
		tr = &tracer{}
	}
	perProto := map[radio.Protocol][]float64{}
	var allocs uint64
	rounds := len(specs) / len(radio.Protocols)
	round := func(i int) (time.Duration, bool) {
		traced := tr != nil && tracedOp(i)
		var a0 uint64
		if traced {
			a0 = allocBytes()
		}
		var lat time.Duration
		for k := range radio.Protocols {
			s := &specs[(i%rounds)*len(radio.Protocols)+k]
			var ts [9]int64
			if err := rig.packet(s, &ts); err != nil {
				fmt.Printf("pipeline round %d, %v packet: %v\n", i, s.proto, err)
				return lat + time.Duration(time.Now().UnixNano()-ts[0]), false
			}
			lat += time.Duration(ts[8] - ts[0])
			if traced {
				tree := []node{{"pipeline.packet", -1, ts[0], ts[8]}}
				for j, name := range pipelineLayers {
					tree = append(tree, node{name, 0, ts[j+1], ts[j+2]})
				}
				tr.record(tree)
				perProto[s.proto] = append(perProto[s.proto], float64(ts[8]-ts[0])/1e6)
			}
		}
		if traced {
			allocs += allocBytes() - a0
		}
		return lat, true
	}
	w, err := measure(p.seconds, setup, func(first int, d time.Duration) segment { return closedLoop(first, d, 1, 0, round) })
	if err != nil {
		return nil, err
	}
	r := newReport(w, p)
	if !p.trace {
		endToEnd(r, setup, w, 2, false)
		return r, nil
	}
	layers := tr.layers()
	r.metrics = map[string]float64{"pipeline.self_ms": layers.meanMS("pipeline.packet")}
	for _, name := range pipelineLayers {
		r.metrics[name+"_ms"] = layers.meanMS(name)
	}
	for proto, name := range map[radio.Protocol]string{
		radio.ProtocolBLE: "ble", radio.Protocol80211b: "80211b",
		radio.Protocol80211n: "80211n", radio.ProtocolZigBee: "zigbee",
	} {
		r.metrics["pipeline."+name+"_ms"] = mean(perProto[proto])
	}
	if layers.ops > 0 {
		r.metrics["pipeline.alloc_kb_per_pkt"] = float64(allocs) / 1024 / float64(layers.ops)
	}
	return r, finishTrace(r, p, "pipeline", tr, layers, "pipeline.packet", w)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dspKernels times the kernels under the receivers in tight loops, at
// the sizes the pipeline uses: one OFDM symbol's FFT (with the copy that
// resets its input), the tag front end's 63-tap anti-alias FIR over 4096
// samples, the preamble sliding correlation, and a CFO derotation of
// 4096 samples. Each is the fastest of five rounds, in nanoseconds per
// call.
func dspKernels() map[string]float64 {
	rng := rand.New(rand.NewSource(1))
	iq := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	src64, x64 := iq(64), make([]complex128, 64)
	plan := dsp.PlanFFT(64)
	fir := dsp.NewLowpass(0.1, 63)
	firIn, firOut := iq(4096), make([]complex128, 4096)
	corrIn := make([]float64, 800)
	for i := range corrIn {
		corrIn[i] = rng.NormFloat64()
	}
	tmpl := corrIn[100:220:220]
	corrOut := make([]float64, len(corrIn)-len(tmpl)+1)
	rot := iq(4096)
	return map[string]float64{
		"dsp.fft64_ns":        fastestNS(5, 20000, func() { copy(x64, src64); plan.Forward(x64) }),
		"dsp.fir63_4096_ns":   fastestNS(5, 40, func() { fir.ApplyInto(firOut, firIn) }),
		"dsp.sliding_corr_ns": fastestNS(5, 200, func() { dsp.SlidingNormCorrInto(corrOut, corrIn, tmpl) }),
		"dsp.rotate4096_ns":   fastestNS(5, 200, func() { dsp.Rotate(rot, 20e3, 20e6, 0) }),
	}
}

// fastestNS runs fn perRound times in each of rounds rounds and returns
// the fastest round's nanoseconds per call.
func fastestNS(rounds, perRound int, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			fn()
		}
		best = math.Min(best, float64(time.Since(t0))/float64(perRound))
	}
	return best
}
