package core

import (
	"fmt"
	"math/rand"

	"multiscatter/internal/channel"
	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/ble"
	"multiscatter/internal/phy/dsss"
	"multiscatter/internal/phy/ofdm"
	"multiscatter/internal/phy/zigbee"
	"multiscatter/internal/radio"
)

// Impairments describes what the channel does to a backscattered carrier
// on its way to the receiver.
type Impairments struct {
	// DelaySamples of noise prepended (packet-arrival uncertainty).
	DelaySamples int
	// CFOHz is the residual carrier-frequency offset: the tag's
	// low-power oscillator shifts the backscatter to the adjacent
	// channel only approximately, so the receiver sees the packet offset
	// by up to a few tens of kHz.
	CFOHz float64
	// SNRdB adds AWGN (0 disables).
	SNRdB float64
	// Seed for the noise.
	Seed int64
}

// Impair applies the impairments to the carrier in place: the waveform
// is delayed, rotated and noised; the stored symbol layout keeps its
// frame-relative meaning (the receiver must re-align).
func Impair(c *overlay.Carrier, imp Impairments) {
	rng := rand.New(rand.NewSource(imp.Seed + 99))
	iq := c.Waveform.IQ
	if imp.CFOHz != 0 {
		dsp.Rotate(iq, imp.CFOHz, c.Waveform.Rate, 0)
	}
	if imp.DelaySamples > 0 {
		head := make([]complex128, imp.DelaySamples, imp.DelaySamples+len(iq))
		for i := range head {
			head[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01
		}
		iq = append(head, iq...)
	}
	if imp.SNRdB != 0 {
		channel.AWGN(iq, imp.SNRdB, rng)
	}
	c.Waveform.IQ = iq
}

// Receiver recovers frame alignment and center frequency for one
// protocol before overlay decoding — the processing a commodity radio's
// front end performs. The brute-force CFO search locates the shifted
// backscatter channel to within StepHz; the differential 802.11b and
// discriminator BLE demodulators tolerate that residual, while ZigBee's
// coherent OQPSK despreader and OFDM's subcarrier grid additionally rely
// on the hardware AFC / pilot tracking that commodity receivers perform
// (not modelled here) — drive those protocols with CFO-free carriers.
type Receiver struct {
	// Protocol served.
	Protocol radio.Protocol
	// SearchHz bounds the brute-force CFO search (±SearchHz); the paper
	// performs "center-frequency alignment by a brute-force search"
	// (§2.4.2 footnote). Default ±60 kHz.
	SearchHz float64
	// StepHz is the search granularity (default 5 kHz).
	StepHz float64
	// MaxDelay bounds the frame-start search in samples (default 2000).
	MaxDelay int
}

// NewReceiver returns a receiver with default search bounds.
func NewReceiver(p radio.Protocol) *Receiver {
	return &Receiver{Protocol: p, SearchHz: 60e3, StepHz: 5e3, MaxDelay: 2000}
}

// syncReference returns the matched-filter reference of the protocol's
// frame sync, or nil for 802.11n, whose sync is not a plain matched
// filter.
func (r *Receiver) syncReference() []complex128 {
	switch r.Protocol {
	case radio.Protocol80211b:
		return dsss.SyncReference(dsss.Config{Rate: dsss.Rate1Mbps, NoScramble: true})
	case radio.ProtocolBLE:
		return ble.SyncReference(ble.Config{NoWhitening: true})
	case radio.ProtocolZigBee:
		return zigbee.SyncReference(zigbee.Config{})
	default:
		return nil
	}
}

// candidates returns the CFO grid: −SearchHz, −SearchHz+StepHz, … up to
// SearchHz (+1 Hz of slack for the accumulated steps).
func (r *Receiver) candidates() []float64 {
	step := r.StepHz
	if step <= 0 {
		step = 5e3
	}
	var grid []float64
	for cand := -r.SearchHz; cand <= r.SearchHz+1; cand += step {
		grid = append(grid, cand)
	}
	return grid
}

// Recover re-aligns an impaired carrier in place: it brute-force scans
// the candidate CFOs for the best frame-sync score, then applies that
// derotation and trims the delay so the overlay codec can decode. It
// returns the estimated CFO and delay.
//
// For 802.11b, BLE and ZigBee the whole CFO × delay search is one
// dsp.CrossCorrSearch: the sync reference is rotated up by each
// candidate instead of the probe being rotated down, which has the same
// score. 802.11n's sync (an autocorrelation plateau, then an L-LTF
// search around it) runs once per candidate on a derotated probe.
func (r *Receiver) Recover(c *overlay.Carrier) (cfoHz float64, delay int, err error) {
	if r.Protocol != c.Plan.Protocol {
		return 0, 0, fmt.Errorf("core: receiver for %v given %v carrier", r.Protocol, c.Plan.Protocol)
	}
	rate := c.Waveform.Rate
	// Probe: enough samples to cover the delay search plus the sync
	// reference.
	probeLen := r.MaxDelay + int(rate*300e-6)
	if probeLen > len(c.Waveform.IQ) {
		probeLen = len(c.Waveform.IQ)
	}
	probe := c.Waveform.IQ[:probeLen]
	grid := r.candidates()
	bestCFO, bestOff := 0.0, -1
	if ref := r.syncReference(); ref != nil {
		off, k, score := dsp.CrossCorrSearch(probe, ref, r.MaxDelay, grid, rate)
		if off >= 0 && score >= dsp.SyncThreshold {
			bestCFO, bestOff = grid[k], off
		}
	} else {
		bestOff, bestCFO = r.searchEach(probe, grid, rate)
	}
	if bestOff < 0 {
		return 0, 0, fmt.Errorf("core: no %v frame found within ±%.0f kHz", r.Protocol, r.SearchHz/1e3)
	}
	dsp.Rotate(c.Waveform.IQ, -bestCFO, rate, 0)
	c.Waveform.IQ = c.Waveform.IQ[bestOff:]
	return bestCFO, bestOff, nil
}

// searchEach runs 802.11n's sync once per candidate on the probe
// derotated into one reused buffer, and returns the best lock's offset
// (−1 if none) and CFO.
func (r *Receiver) searchEach(probe []complex128, grid []float64, rate float64) (int, float64) {
	buf := dsp.SharedPool.GetComplex(len(probe))
	defer dsp.SharedPool.PutComplex(buf)
	bestScore := -1.0
	bestCFO, bestOff := 0.0, -1
	for _, cand := range grid {
		copy(buf, probe)
		dsp.Rotate(buf, -cand, rate, 0)
		off, score := ofdm.Synchronize(radio.Waveform{IQ: buf, Rate: rate}, r.MaxDelay)
		if off >= 0 && score > bestScore {
			bestScore, bestCFO, bestOff = score, cand, off
		}
	}
	return bestOff, bestCFO
}
