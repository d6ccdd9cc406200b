// Package core assembles the multiscatter system: the calibrated
// per-protocol backscatter links, the tag (identification + overlay
// modulation + carrier policy), and the experiment drivers that
// regenerate every table and figure of the paper's evaluation.
package core

import (
	"math"
	"math/rand"

	"multiscatter/internal/channel"
	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// Paper-fixed deployment constants (§3, Experimental Setup).
const (
	// TxPowerDBm is the excitation transmit power (30 dBm via PA).
	TxPowerDBm = 30
	// TagDistanceM is the excitation→tag distance (0.8 m).
	TagDistanceM = 0.8
	// RectifierThresholdV is the identification output threshold (0.15 V).
	RectifierThresholdV = 0.15
)

// ReceiverParams models one protocol's commodity backscatter receiver.
type ReceiverParams struct {
	// SensitivityDBm is the weakest backscatter RSSI the receiver still
	// synchronizes to. Calibrated so the LoS ranges land at the paper's
	// 28 m (WiFi), 22 m (ZigBee) and 20 m (BLE).
	SensitivityDBm float64
	// EdgeSNRdB is the effective decision SNR at sensitivity: the BER
	// curves are evaluated at RSSI − Sensitivity + EdgeSNR.
	EdgeSNRdB float64
}

// Receivers returns the calibrated receiver parameters.
func Receivers() map[radio.Protocol]ReceiverParams {
	return map[radio.Protocol]ReceiverParams{
		radio.Protocol80211b: {-85.1, 1.5},
		radio.Protocol80211n: {-85.1, 4.0},
		radio.ProtocolBLE:    {-82.2, 7.0},
		radio.ProtocolZigBee: {-83.0, 1.0},
	}
}

// Link is one protocol's end-to-end backscatter link at a deployment
// point.
type Link struct {
	// Protocol of the excitation and receiver.
	Protocol radio.Protocol
	// Channel model (LoS or NLoS).
	Channel *channel.Model
	// Receiver parameters.
	Receiver ReceiverParams
	// Backscatter link budget.
	Budget *channel.BackscatterLink
}

// NewLink builds a link for protocol p over channel m. The paper's NLoS
// deployment puts the transmitter and tag together in the office with
// the wall only between tag and receiver, so any wall in m is applied to
// the backward segment only.
func NewLink(p radio.Protocol, m *channel.Model) *Link {
	budget := channel.NewBackscatterLink(m)
	if m.Wall != channel.NoWall {
		fwd := *m
		fwd.Wall = channel.NoWall
		budget.Forward = &fwd
	}
	obsLinksCreated.Inc()
	return &Link{
		Protocol: p,
		Channel:  m,
		Receiver: Receivers()[p],
		Budget:   budget,
	}
}

// RSSI returns the mean backscatter signal strength at receiver distance
// d (metres from the tag), with the paper's fixed TX power and tag
// placement.
func (l *Link) RSSI(d float64) float64 {
	return l.RSSIAt(d, 0)
}

// ShadowDB draws the link's shadowing loss (forward then backward
// segment, one sample each) from rng — zero, consuming nothing, when the
// channel has no shadowing. The returned offset parameterizes the *At
// method family, so one draw fixes a consistent working point (RSSI,
// range, BER, PER all see the same fade) instead of each metric fading
// independently.
func (l *Link) ShadowDB(rng *rand.Rand) float64 {
	return l.Budget.ShadowDB(rng)
}

// RSSIAt is RSSI with a fixed shadowing loss of shadowDB applied.
func (l *Link) RSSIAt(d, shadowDB float64) float64 {
	obsRSSIEvals.Inc()
	return l.Budget.RSSI(TxPowerDBm, TagDistanceM, d) - shadowDB
}

// DecisionSNR returns the effective per-symbol decision SNR (linear) at
// distance d.
func (l *Link) DecisionSNR(d float64) float64 {
	return l.DecisionSNRAt(d, 0)
}

// DecisionSNRAt is DecisionSNR under a fixed shadowing loss.
func (l *Link) DecisionSNRAt(d, shadowDB float64) float64 {
	db := l.RSSIAt(d, shadowDB) - l.Receiver.SensitivityDBm + l.Receiver.EdgeSNRdB
	return dsp.FromDB10(db)
}

// InRange reports whether backscattered packets still synchronize at
// distance d.
func (l *Link) InRange(d float64) bool {
	return l.InRangeAt(d, 0)
}

// InRangeAt is InRange under a fixed shadowing loss.
func (l *Link) InRangeAt(d, shadowDB float64) bool {
	return l.RSSIAt(d, shadowDB) >= l.Receiver.SensitivityDBm
}

// TagBER returns the tag-data bit error rate at distance d.
func (l *Link) TagBER(d float64) float64 {
	return l.TagBERAt(d, 0)
}

// TagBERAt is TagBER under a fixed shadowing loss.
func (l *Link) TagBERAt(d, shadowDB float64) float64 {
	if !l.InRangeAt(d, shadowDB) {
		return 0.5
	}
	return overlay.TagBERForSNR(l.Protocol, l.DecisionSNRAt(d, shadowDB))
}

// ProductiveBER returns the productive-data bit error rate at distance d
// (the reference units see the same decision SNR without the tag's
// modulation loss, modelled as a 1 dB advantage).
func (l *Link) ProductiveBER(d float64) float64 {
	return l.ProductiveBERAt(d, 0)
}

// ProductiveBERAt is ProductiveBER under a fixed shadowing loss.
func (l *Link) ProductiveBERAt(d, shadowDB float64) float64 {
	if !l.InRangeAt(d, shadowDB) {
		return 0.5
	}
	snr := l.DecisionSNRAt(d, shadowDB) * dsp.FromDB10(1)
	return overlay.TagBERForSNR(l.Protocol, snr)
}

// PERs returns the packet error rates for productive and tag data at
// distance d under the given traffic and mode.
func (l *Link) PERs(d float64, m overlay.Mode, tr overlay.Traffic) (perProd, perTag float64) {
	return l.PERsAt(d, 0, m, tr)
}

// PERsAt is PERs under a fixed shadowing loss.
func (l *Link) PERsAt(d, shadowDB float64, m overlay.Mode, tr overlay.Traffic) (perProd, perTag float64) {
	obsPEREvals.Inc()
	if !l.InRangeAt(d, shadowDB) {
		return 1, 1
	}
	g := overlay.Gammas[l.Protocol]
	units := tr.PayloadSymbols / g
	k := overlay.Kappa(l.Protocol, m, units)
	seqs := tr.PayloadSymbols / k
	if seqs < 1 {
		return 1, 1
	}
	prodBits := seqs
	tagBits := seqs * (k/g - 1)
	perProd = dsp.PacketErrorRate(l.ProductiveBERAt(d, shadowDB), prodBits)
	perTag = dsp.PacketErrorRate(l.TagBERAt(d, shadowDB), tagBits)
	return perProd, perTag
}

// Throughput returns the overlay throughput at distance d.
func (l *Link) Throughput(d float64, m overlay.Mode, tr overlay.Traffic) overlay.Throughput {
	if !l.InRange(d) {
		return overlay.Throughput{}
	}
	perProd, perTag := l.PERs(d, m, tr)
	return overlay.ModeThroughput(l.Protocol, m, tr, perProd, perTag)
}

// MaxRange returns the largest distance (in steps of step metres, up to
// limit) at which the link still delivers packets.
func (l *Link) MaxRange(step, limit float64) float64 {
	var best float64
	for d := step; d <= limit; d += step {
		if l.InRange(d) {
			best = d
		}
	}
	return best
}

// DownlinkImplLossDB is the implementation loss of the excitation→tag
// downlink beyond free space: polarization mismatch and connector/board
// losses of the prototype's antennas (≈4 dB). With it, the 0.15 V
// threshold is crossed at 0.9 m — the paper's measured downlink range —
// exactly where the tag input hits its −13 dBm sensitivity.
const DownlinkImplLossDB = 4

// DownlinkRange returns the maximum excitation→tag distance at which the
// rectifier still clears its identification threshold (§2.2.1's 0.9 m),
// scanning in 1 cm steps.
func DownlinkRange(rect interface {
	Sensitivity(dbm, threshold float64) bool
}, m *channel.Model) float64 {
	var best float64
	for d := 0.1; d <= 3; d += 0.01 {
		rx := TxPowerDBm - m.PathLossDB(d) - DownlinkImplLossDB
		if rect.Sensitivity(rx, RectifierThresholdV) {
			best = d
		}
	}
	return best
}

// RoundRSSI rounds to 0.1 dB for stable table output.
func RoundRSSI(x float64) float64 { return math.Round(x*10) / 10 }
