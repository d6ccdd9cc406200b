// Command msident explores the multiprotocol identification design space:
// it sweeps sampling rate, quantization, window length and matching policy
// and prints the confusion matrix and tuned thresholds for each point.
//
// Usage:
//
//	msident [-rates 20,10,2.5,1] [-trials N] [-snr-lo dB] [-snr-hi dB]
//	        [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"multiscatter/internal/core"
	"multiscatter/internal/radio"
)

var (
	ratesFlag = flag.String("rates", "20,10,2.5,1", "ADC rates to sweep, in Msps")
	trials    = flag.Int("trials", 30, "trials per protocol")
	snrLo     = flag.Float64("snr-lo", 9, "lower SNR bound (dB)")
	snrHi     = flag.Float64("snr-hi", 21, "upper SNR bound (dB)")
	seed      = flag.Int64("seed", 1, "random seed")
	verbose   = flag.Bool("v", false, "print full confusion matrices")
)

func main() {
	flag.Parse()
	var rates []float64
	for _, s := range strings.Split(*ratesFlag, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msident: bad rate %q\n", s)
			os.Exit(2)
		}
		rates = append(rates, r*1e6)
	}

	fmt.Printf("%-10s %-6s %-8s %-8s %10s\n", "rate", "quant", "window", "policy", "accuracy")
	for _, rate := range rates {
		for _, quant := range []bool{false, true} {
			for _, ext := range []bool{false, true} {
				// Both policies decide the same scored traces.
				scores, err := core.ScoreIdentification(core.IdentifyOptions{
					ADCRate: rate, Quantized: quant, Extended: ext,
					Trials: *trials, SNRLoDB: *snrLo, SNRHiDB: *snrHi, Seed: *seed,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "msident:", err)
					os.Exit(1)
				}
				for _, ordered := range []bool{false, true} {
					c, thr := scores.Decide(ordered)
					window := "8µs"
					if ext {
						window = "40µs"
					}
					policy := "blind"
					if ordered {
						policy = "ordered"
					}
					fmt.Printf("%-10s %-6v %-8s %-8s %10.3f\n",
						fmt.Sprintf("%.3g Msps", rate/1e6), quant, window, policy, c.Average())
					if *verbose {
						fmt.Print(c)
						fmt.Print("  thresholds:")
						for _, p := range radio.Protocols {
							fmt.Printf(" %v=%.2f", p, thr[p])
						}
						fmt.Println()
					}
				}
			}
		}
	}
}
