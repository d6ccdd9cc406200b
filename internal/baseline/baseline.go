// Package baseline implements the prior-art backscatter systems
// multiscatter is evaluated against. Three decoding architectures are
// modelled: Hitchhike and FreeRider, whose codeword-translation
// decoding requires the ORIGINAL packet from a second, synchronized
// receiver — with the two failure modes the paper demonstrates
// (Figures 9 and 15): original-channel dependence under occlusion, and
// modulation offsets that break two-receiver codeword alignment — and
// Double-decker (arXiv 2408.16280, same group), which decodes the
// productive carrier AND the tag layer from the superposed
// excitation+backscatter stream with a single commodity receiver using
// the pilot-estimated complex channel (internal/channel's Coeff /
// Estimator), trading symbol efficiency for original-channel immunity.
// The package also carries the Table 1 capability matrix.
package baseline

import (
	"math"

	"multiscatter/internal/channel"
	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// Capability is one row of Table 1.
type Capability struct {
	// ExcitationDiversity: can the tag work with multiple carrier
	// protocols at once?
	ExcitationDiversity bool
	// ProductiveCarrier: can the excitation carry its own data?
	ProductiveCarrier bool
	// SingleCommodityReceiver: does decoding need only one unmodified
	// commodity radio?
	SingleCommodityReceiver bool
}

// Table1 is the paper's comparison of backscatter systems.
var Table1 = map[string]Capability{
	"WiFi backscatter": {false, true, true},
	"FS backscatter":   {false, true, true},
	"Interscatter":     {false, false, true},
	"Passive WiFi":     {false, false, true},
	"LoRa backscatter": {false, false, true},
	"Hitchhike":        {false, true, false},
	"FreeRider":        {false, true, false},
	"X-Tandem":         {false, true, false},
	"PLoRa":            {false, true, false},
	"Double-decker":    {false, true, true},
	"Multiscatter":     {true, true, true},
}

// Table1Order lists the rows in the paper's order, with Double-decker
// appended before Multiscatter (it postdates the paper's table).
var Table1Order = []string{
	"WiFi backscatter", "FS backscatter", "Interscatter", "Passive WiFi",
	"LoRa backscatter", "Hitchhike", "FreeRider", "X-Tandem", "PLoRa",
	"Double-decker", "Multiscatter",
}

// System identifies a baseline decoding architecture.
type System int

const (
	// Hitchhike decodes 802.11b codeword translation with two receivers.
	Hitchhike System = iota
	// FreeRider extends codeword translation to 802.11g/BLE/ZigBee, still
	// with two receivers.
	FreeRider
	// DoubleDecker decodes carrier and tag layers jointly from the
	// superposed stream at a single commodity receiver, using a
	// pilot-estimated complex channel instead of a second radio.
	DoubleDecker
)

// String names the system.
func (s System) String() string {
	switch s {
	case FreeRider:
		return "FreeRider"
	case DoubleDecker:
		return "Double-decker"
	default:
		return "Hitchhike"
	}
}

// XORTagBER returns the tag-data bit error rate of two-receiver XOR
// decoding given the original-channel BER and the backscatter-channel
// BER: the XOR is wrong when exactly one stream bit is wrong.
func XORTagBER(origBER, backBER float64) float64 {
	return origBER*(1-backBER) + backBER*(1-origBER)
}

// OriginalChannelBER models the original (excitation → original
// receiver) 802.11b link: a reference SNR degraded by the occluding
// wall, through the DBPSK curve with Barker despreading gain.
func OriginalChannelBER(refSNRdB float64, wall channel.Material) float64 {
	snr := dsp.FromDB10(refSNRdB - wall.LossDB())
	return dsp.BERDBPSK(snr * 11)
}

// ModulationOffsetSymbols models Figure 9b: the tag cannot symbol-
// synchronize to the WiFi carrier, so the backscattered codeword stream
// lands offset by up to ±8 symbols, growing with range as SNR-driven
// detection jitter increases. The offset is deterministic in distance for
// reproducibility.
func ModulationOffsetSymbols(distanceM float64) int {
	if distanceM <= 1 {
		return 0
	}
	off := int(math.Floor(math.Log2(distanceM) * 2.6))
	if off > 8 {
		off = 8
	}
	return off
}

// OffsetRecoveryProb returns the probability that two-receiver decoding
// recovers codeword alignment for a given offset: the receivers' index
// search absorbs offsets within its ±2-symbol window; beyond that, each
// extra symbol of offset multiplies the chance of locking onto the wrong
// codeword pair.
func OffsetRecoveryProb(offsetSymbols int) float64 {
	if offsetSymbols <= 2 {
		return 1
	}
	return math.Pow(0.9, float64(offsetSymbols-2))
}

// wallUsableFraction is the fraction of packets whose ORIGINAL copy
// remains decodable behind a wall, calibrated per system to the paper's
// Figure 15 measurements (Hitchhike 94 of ~200 kbps and FreeRider 33
// behind drywall). FreeRider's OFDM codeword translation is the more
// fragile: the scrambler and BCC amplify original-channel errors.
func wallUsableFraction(sys System, wall channel.Material) float64 {
	k := 0.302 // Hitchhike: e^(−0.302·2.5 dB) ≈ 0.47
	if sys == FreeRider {
		k = 0.72 // FreeRider: e^(−0.72·2.5 dB) ≈ 0.165
	}
	return math.Exp(-k * wall.LossDB())
}

// DecodeConfig describes a two-receiver experiment point.
type DecodeConfig struct {
	// System selects Hitchhike or FreeRider.
	System System
	// OriginalSNRdB is the unoccluded original-channel SNR.
	OriginalSNRdB float64
	// Wall occludes the original channel only (the backscatter channel
	// stays clear, as in Figure 9a's setup).
	Wall channel.Material
	// BackscatterBER is the backscattered channel's own BER.
	BackscatterBER float64
	// DistanceM drives the modulation offset.
	DistanceM float64
}

// TagBER returns the end-to-end tag-data BER of the baseline, counting
// packets whose original copy is lost or misaligned as half-wrong — the
// receiver can only guess those bits.
func TagBER(cfg DecodeConfig) float64 {
	origBER := OriginalChannelBER(cfg.OriginalSNRdB, channel.NoWall)
	xber := XORTagBER(origBER, cfg.BackscatterBER)
	good := cfg.usableFraction()
	return good*xber + (1-good)*0.5
}

// usableFraction combines offset recovery and wall survival.
func (cfg DecodeConfig) usableFraction() float64 {
	rec := OffsetRecoveryProb(ModulationOffsetSymbols(cfg.DistanceM))
	return rec * wallUsableFraction(cfg.System, cfg.Wall)
}

// TagThroughputKbps returns the baseline's tag throughput under the
// given carrier traffic: baselines modulate every γ-spread payload symbol
// group (no reference-unit overhead, so twice the clean tag rate of
// overlay mode 1), but lose every packet whose original copy is unusable
// or misaligned.
func TagThroughputKbps(cfg DecodeConfig, tr overlay.Traffic, proto radio.Protocol) float64 {
	g := overlay.Gammas[proto]
	tagBits := float64(tr.PayloadSymbols / g)
	rate := tr.PacketRate(proto)
	return tagBits * rate * cfg.usableFraction() * (1 - cfg.BackscatterBER) / 1e3
}
