// Waveform pipeline benchmark: one round of msperf's pipeline workload
// (one packet per protocol through the seven calls of Fig. 2) as a
// `go test` benchmark, so `make profile-pipeline` can profile the signal
// path without the benchmark harness.
package multiscatter_test

import (
	"math/rand"
	"testing"

	"multiscatter/internal/core"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// pipelinePacket is one fixed pipeline input.
type pipelinePacket struct {
	proto           radio.Protocol
	productive, tag []byte
	imp             core.Impairments
}

// pipelineRoundInputs draws one packet per protocol the way msperf's
// pipeline does: 128 random productive and tag bits, 50–250 samples of
// arrival delay, 22 dB SNR, and a ±20 kHz residual CFO on BLE and
// 802.11b, whose receivers search for it.
func pipelineRoundInputs(seed int64) []pipelinePacket {
	rng := rand.New(rand.NewSource(seed))
	var pkts []pipelinePacket
	for _, p := range radio.Protocols {
		s := pipelinePacket{
			proto:      p,
			productive: make([]byte, 128),
			tag:        make([]byte, 128),
			imp:        core.Impairments{DelaySamples: 50 + rng.Intn(201), SNRdB: 22, Seed: rng.Int63()},
		}
		for k := range s.productive {
			s.productive[k] = byte(rng.Intn(2))
			s.tag[k] = byte(rng.Intn(2))
		}
		if p == radio.ProtocolBLE || p == radio.Protocol80211b {
			s.imp.CFOHz = (rng.Float64()*2 - 1) * 20e3
		}
		pkts = append(pkts, s)
	}
	return pkts
}

// BenchmarkPipelineRound times one round: for each protocol, NewPlan →
// Build → Identify → ApplyTag → Impair → Recover → Decode, on the
// default tag and one receiver per protocol (ZigBee and 802.11n without
// a CFO search, as in msperf). Every packet must be identified as sent
// and decoded without a bit error.
func BenchmarkPipelineRound(b *testing.B) {
	tg, err := core.NewTag(core.TagConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rx := map[radio.Protocol]*core.Receiver{}
	for _, p := range radio.Protocols {
		rx[p] = core.NewReceiver(p)
		if p == radio.ProtocolZigBee || p == radio.Protocol80211n {
			rx[p].SearchHz = 0
		}
	}
	pkts := pipelineRoundInputs(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range pkts {
			plan, err := overlay.NewPlan(s.proto, overlay.Mode1, s.productive)
			if err != nil {
				b.Fatal(err)
			}
			codec := tg.Codecs[s.proto]
			carrier, err := codec.Build(plan)
			if err != nil {
				b.Fatal(err)
			}
			got, _ := tg.Identify(carrier.Waveform.IQ, carrier.Waveform.Rate)
			codec.ApplyTag(carrier, s.tag)
			core.Impair(carrier, s.imp)
			if _, _, err := rx[s.proto].Recover(carrier); err != nil {
				b.Fatal(err)
			}
			res, err := codec.Decode(carrier)
			if err != nil {
				b.Fatal(err)
			}
			if got != s.proto {
				b.Fatalf("identified %v, sent %v", got, s.proto)
			}
			if pe, te := res.BitErrors(plan, s.tag); pe != 0 || te != 0 {
				b.Fatalf("%v: %d productive and %d tag bit errors", s.proto, pe, te)
			}
		}
	}
}
