package tag

import "time"

// PowerProfile is the tag's per-state power draw in milliwatts, derived
// from Table 3: asleep only the oscillator (and the envelope watch)
// runs; detecting adds the ADC and the identification FPGA; modulating
// swaps those for the modulation FPGA and RF switch.
type PowerProfile struct {
	// SleepMW is the gated-off floor.
	SleepMW float64
	// DetectMW is ADC + identification logic + oscillator.
	DetectMW float64
	// ModulateMW is modulation logic + RF switch + oscillator.
	ModulateMW float64
}

// DefaultPowerProfile derives the per-state draws from Table 3 at the
// given ADC rate in Msps.
func DefaultPowerProfile(adcRateMsps float64) PowerProfile {
	const (
		oscillator = 15.9
		pktDetFPGA = 2.5
		modFPGA    = 1.0
		rfSwitch   = 0.1
		adcAt20    = 260.0
	)
	return PowerProfile{
		SleepMW:    oscillator,
		DetectMW:   oscillator + pktDetFPGA + adcAt20*adcRateMsps/20,
		ModulateMW: oscillator + modFPGA + rfSwitch,
	}
}

// DutyCycledPowerMW predicts the average power of a tag serving the
// given excitation pattern analytically: packets arrive at rate pktRate
// (Hz), each requiring detectDur of ADC-on identification and modDur of
// modulation, with the remainder asleep. It is the paper's duty-cycling
// argument quantified: at low packet rates the 279.5 mW peak collapses
// toward the oscillator floor.
func (p PowerProfile) DutyCycledPowerMW(pktRate float64, detectDur, modDur time.Duration) float64 {
	dDetect := pktRate * detectDur.Seconds()
	dMod := pktRate * modDur.Seconds()
	if dDetect+dMod > 1 {
		scale := 1 / (dDetect + dMod)
		dDetect *= scale
		dMod *= scale
	}
	dSleep := 1 - dDetect - dMod
	return p.DetectMW*dDetect + p.ModulateMW*dMod + p.SleepMW*dSleep
}
