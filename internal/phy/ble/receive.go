package ble

import (
	"errors"

	"multiscatter/internal/radio"
)

// Frame is a fully received BLE advertising frame.
type Frame struct {
	// PDU bytes (header + AdvA + AdvData), CRC stripped and verified.
	PDU []byte
	// StartSample of the frame in the input waveform.
	StartSample int
}

// ErrNoFrame is returned when no preamble/access-address is found.
var ErrNoFrame = errors.New("ble: no frame found")

// ErrLength is returned when the PDU header length is inconsistent with
// the captured samples.
var ErrLength = errors.New("ble: PDU length exceeds capture")

// ErrCRC is returned when the recovered CRC-24 does not match the PDU.
var ErrCRC = errors.New("ble: CRC mismatch")

// ReceiveFrame runs the complete BLE advertising receive chain on an
// unaligned waveform: preamble + access-address synchronization, PDU
// header demodulation (the length field sizes the rest), de-whitening,
// and CRC-24 verification.
func ReceiveFrame(w radio.Waveform, cfg Config, maxOffset int) (*Frame, error) {
	start, _ := Synchronize(w, cfg, maxOffset)
	if start < 0 {
		return nil, ErrNoFrame
	}
	sps := cfg.sps()
	iq := w.IQ[start:]

	demodBits := func(n int) ([]byte, error) {
		info := &FrameInfo{
			SampleRate:       cfg.SampleRate(),
			PreambleEnd:      8 * sps,
			AccessEnd:        40 * sps,
			SamplesPerSymbol: sps,
		}
		for i := 0; i < n; i++ {
			info.SymbolStart = append(info.SymbolStart, (40+i)*sps)
		}
		d := NewDemodulator(Config{
			SamplesPerSymbol: cfg.SamplesPerSymbol,
			Channel:          cfg.Channel,
			NoWhitening:      true, // de-whitening happens stream-wise below
			ChannelFilterHz:  cfg.ChannelFilterHz,
		})
		return d.Demodulate(radio.Waveform{IQ: iq, Rate: w.Rate}, info)
	}

	// The PDU header (2 bytes) tells us how much more to demodulate.
	hdrBits, err := demodBits(16)
	if err != nil {
		return nil, ErrNoFrame
	}
	hdrCopy := append([]byte(nil), hdrBits...)
	if !cfg.NoWhitening {
		radio.WhitenBLE(hdrCopy, cfg.channel())
	}
	length := int(radio.BitsToBytes(hdrCopy[8:16])[0])
	totalBits := (2+length)*8 + 24
	if start+((40+totalBits)*sps) > len(w.IQ)+sps {
		return nil, ErrLength
	}
	bits, err := demodBits(totalBits)
	if err != nil {
		return nil, ErrLength
	}
	if !cfg.NoWhitening {
		radio.WhitenBLE(bits, cfg.channel())
	}
	pduBits := bits[:len(bits)-24]
	var crc uint32
	for _, b := range bits[len(bits)-24:] {
		crc = crc<<1 | uint32(b&1)
	}
	if radio.CRC24BLE(pduBits, 0x555555) != crc {
		return nil, ErrCRC
	}
	return &Frame{
		PDU:         radio.BitsToBytes(pduBits),
		StartSample: start,
	}, nil
}
