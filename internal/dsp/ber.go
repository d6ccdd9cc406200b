package dsp

import "math"

// Q returns the Gaussian tail probability Q(x) = P(N(0,1) > x).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BERBPSK returns the bit error rate of coherent BPSK at the given Eb/N0
// (linear, not dB): Q(sqrt(2*EbN0)).
func BERBPSK(ebn0 float64) float64 {
	if ebn0 <= 0 {
		return 0.5
	}
	return Q(math.Sqrt(2 * ebn0))
}

// BERDBPSK returns the bit error rate of differentially detected BPSK:
// 0.5*exp(-EbN0). 802.11b 1 Mbps uses DBPSK.
func BERDBPSK(ebn0 float64) float64 {
	if ebn0 <= 0 {
		return 0.5
	}
	return 0.5 * math.Exp(-ebn0)
}

// BERFSK returns the bit error rate of non-coherent binary FSK:
// 0.5*exp(-EbN0/2). BLE GFSK with a limiter-discriminator receiver behaves
// close to this at modulation index 0.5.
func BERFSK(ebn0 float64) float64 {
	if ebn0 <= 0 {
		return 0.5
	}
	return 0.5 * math.Exp(-ebn0/2)
}

// BEROQPSKDSSS returns the post-despreading bit error rate of IEEE
// 802.15.4 O-QPSK with 32-chip PN sequences. The standard approximation
// (half-sine O-QPSK behaves as offset BPSK per chip, plus ~9 dB of
// despreading gain folded into the symbol decision over 16 quasi-orthogonal
// codewords) is
//
//	BER ≈ (8/15) · (1/16) · Σ_{k=2..16} (-1)^k C(16,k) exp(20·SINR·(1/k − 1))
//
// with SINR the chip-level SNR. See e.g. the 802.15.4 standard annex.
func BEROQPSKDSSS(sinr float64) float64 {
	if sinr <= 0 {
		return 0.5
	}
	var sum float64
	sign := 1.0 // (-1)^k for k=2 is +1
	c := 120.0  // C(16,2)
	for k := 2; k <= 16; k++ {
		sum += sign * c * math.Exp(20*sinr*(1/float64(k)-1))
		// Update binomial C(16,k) -> C(16,k+1) and alternate sign.
		c = c * float64(16-k) / float64(k+1)
		sign = -sign
	}
	b := 8.0 / 15.0 / 16.0 * sum
	if b < 0 {
		return 0
	}
	if b > 0.5 {
		return 0.5
	}
	return b
}

// BERRepetition returns the error rate after a majority vote over n
// independent repetitions each failing with probability p. Even n breaks
// ties toward error with probability half the tie mass.
func BERRepetition(p float64, n int) float64 {
	if n <= 1 {
		return p
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// Sum over k >= ceil(n/2 + 0.5) wrong votes, plus half the tie mass.
	var out float64
	for k := 0; k <= n; k++ {
		prob := binomPMF(n, k, p)
		switch {
		case 2*k > n:
			out += prob
		case 2*k == n:
			out += prob / 2
		}
	}
	return out
}

func binomPMF(n, k int, p float64) float64 {
	// Work in logs for numeric stability at large n.
	lg := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// PacketErrorRate converts a bit error rate and packet bit length into a
// packet error rate assuming independent bit errors.
func PacketErrorRate(ber float64, bitsPerPacket int) float64 {
	if ber <= 0 || bitsPerPacket <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return 1 - math.Pow(1-ber, float64(bitsPerPacket))
}
