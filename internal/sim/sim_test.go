package sim

import (
	"testing"
	"time"

	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

func TestPacketBits(t *testing.T) {
	// An 802.11b packet of 2192 µs (192 µs overhead + 2000 symbols) in
	// mode 1 (κ=8): 250 sequences → 250 productive + 250 tag bits.
	prod, tag := PacketBits(radio.Protocol80211b, 2192*time.Microsecond, overlay.Mode1)
	if prod != 250 || tag != 250 {
		t.Fatalf("PacketBits = %d, %d", prod, tag)
	}
	// Too short a packet carries nothing.
	prod, tag = PacketBits(radio.Protocol80211b, 100*time.Microsecond, overlay.Mode1)
	if prod != 0 || tag != 0 {
		t.Fatal("short packet should carry nothing")
	}
	// Unknown protocol.
	if p, tg := PacketBits(radio.ProtocolUnknown, time.Millisecond, overlay.Mode1); p != 0 || tg != 0 {
		t.Fatal("unknown protocol")
	}
}

func TestOutcomeString(t *testing.T) {
	for o := Delivered; o <= CrossCollided; o++ {
		if o.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
	if Outcome(99).String() == "" {
		t.Fatal("unknown outcome name")
	}
}
