package mac

import (
	"bytes"
	"errors"
	"testing"

	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

func TestZigBeeFrameRoundTrip(t *testing.T) {
	f := &ZigBeeFrame{
		Sequence:    42,
		PANID:       0x1234,
		Destination: 0xFFFF,
		Source:      0x0001,
		Payload:     []byte("sensor reading"),
	}
	b := f.Marshal()
	got, err := ParseZigBee(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sequence != 42 || got.PANID != 0x1234 || got.Destination != 0xFFFF || got.Source != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("payload mismatch")
	}
	// Corruption detected.
	b[5] ^= 0x80
	if _, err := ParseZigBee(b); !errors.Is(err, ErrFCS) {
		t.Fatalf("err = %v, want ErrFCS", err)
	}
	if _, err := ParseZigBee(b[:4]); !errors.Is(err, ErrTooShort) {
		t.Fatal("short frame accepted")
	}
}

func TestMACFrameThroughOverlay(t *testing.T) {
	// End to end: a real 802.15.4 MAC frame rides the reference units of
	// a ZigBee overlay carrier alongside tag data, and the receiver
	// reassembles and FCS-verifies it.
	frame := &ZigBeeFrame{Sequence: 7, PANID: 0xBEEF, Destination: 2, Source: 3, Payload: []byte("t=21.5C")}
	wire := frame.Marshal()
	productive := ProductiveBits(wire)

	codec, err := overlay.NewCodec(radio.ProtocolZigBee)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := overlay.NewPlan(radio.ProtocolZigBee, overlay.Mode1, productive)
	if err != nil {
		t.Fatal(err)
	}
	carrier, err := codec.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	tagBits := make([]byte, plan.TagCapacity())
	for i := range tagBits {
		tagBits[i] = byte(i % 2)
	}
	codec.ApplyTag(carrier, tagBits)
	res, err := codec.Decode(carrier)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := FrameFromProductive(res.Productive)
	got, err := ParseZigBee(rebuilt)
	if err != nil {
		t.Fatalf("reassembled frame invalid: %v", err)
	}
	if !bytes.Equal(got.Payload, frame.Payload) {
		t.Fatal("MAC payload corrupted through overlay")
	}
	if _, te := res.BitErrors(plan, tagBits); te != 0 {
		t.Fatalf("tag errors %d", te)
	}
}
