package analog

// WakeUpReceiver models the always-on wake-up module the paper cites as
// a further power saving (§2.3.2 note 1, ref [30]: a 236 nW receiver
// with −56.5 dBm sensitivity). With it, even the 20 MHz oscillator can
// be gated off between packets: the wake-up watcher triggers the FPGA's
// envelope-rise path only when RF energy actually arrives.
type WakeUpReceiver struct {
	// PowerNW is the always-on draw in nanowatts.
	PowerNW float64
}

// NewWakeUpReceiver returns the cited 65 nm design's operating point.
func NewWakeUpReceiver() *WakeUpReceiver {
	return &WakeUpReceiver{PowerNW: 236}
}

// PowerMW returns the draw in milliwatts.
func (w *WakeUpReceiver) PowerMW() float64 { return w.PowerNW * 1e-6 }

// EffectiveDutyPower returns the average power of a wake-up-gated tag
// serving trafficDuty (fraction of time the main chain must be awake)
// with awake power awakeMW: the wake-up module replaces the sleep floor.
func (w *WakeUpReceiver) EffectiveDutyPower(trafficDuty, awakeMW float64) float64 {
	d := trafficDuty
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return awakeMW*d + w.PowerMW()*(1-d)
}
