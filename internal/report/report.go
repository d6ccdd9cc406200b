// Package report regenerates the paper's evaluation — every table and
// figure, with the paper's published values alongside — as one markdown
// document and the machine-readable metrics of BENCH_<date>.json. The
// evaluation is an ordered list of experiments, one per msbench
// -experiment id: each runs once, records its metrics and renders its
// section. cmd/msbench selects and writes them, and the root
// BenchmarkExperiments times them; CI pipelines can diff successive
// reports.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"multiscatter/internal/analog"
	"multiscatter/internal/baseline"
	"multiscatter/internal/channel"
	"multiscatter/internal/core"
	"multiscatter/internal/energy"
	"multiscatter/internal/fleet"
	"multiscatter/internal/fpga"
	"multiscatter/internal/obs"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
	"multiscatter/internal/serve"
	"multiscatter/internal/stats"
)

// Options configures report generation.
type Options struct {
	// Trials per protocol for identification experiments.
	Trials int
	// Seed for reproducibility.
	Seed int64
	// Title of the document.
	Title string
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Title == "" {
		o.Title = "multiscatter — regenerated evaluation"
	}
	return o
}

// Metrics is the machine-readable counterpart of the markdown report:
// experiment id → metric name → value. Keys are stable across runs so CI
// can diff successive BENCH_<date>.json files numerically.
type Metrics map[string]map[string]float64

// experiment regenerates one table or figure: run records its metrics
// and renders the body of its section.
type experiment struct {
	// id is the msbench -experiment id the experiment answers.
	id string
	// title heads the section; paper quotes the published values.
	title, paper string
	run          func(r *renderer) error
}

// experiments is the evaluation in report order.
var experiments = []experiment{
	{"table1", "System comparison (Table 1)", "only multiscatter satisfies all three", table1},
	{"table2", "FPGA resources for 4-protocol matching (Table 2)", "naive 480/476/133,364; nano 2,860 DFFs", table2},
	{"table3", "COTS prototype power (Table 3)", "total 279.5 mW at 20 Msps", table3},
	{"table4", "Tag-data exchange times (Table 4)", "360/360/12.6/3.6 pkts; 0.6/0.6/17.2/60.1 s indoor", table4},
	{"table5", "Identification power and LUTs (Table 5)", "564 → 12 → 2 mW (282×)", table5},
	{"table6", "Overlay modes (Table 6)", "κ = 2γ / 4γ / γ·n", table6},
	{"fig4", "Rectifier comparison (Figure 4)", "clamp raises output; WISP distorts 802.11b", fig4},
	{"fig5", "Identification at 20 Msps, full precision (Figure 5)", "≥99.3% all, 99.7% average", fig5},
	{"fig7", "Identification: blind vs ordered matching at 10 Msps + quantization (Figure 7)", "0.906 vs 0.976", fig7},
	{"fig8", "Identification at low sampling rates (Figure 8)", "2.5 Msps: 0.485 → 0.93 extended; 1 Msps ≈ 0.5", fig8},
	{"fig9", "Baselines: original-channel dependence (Figure 9)", "BER 0.2% → 59%; offsets to 8 symbols", fig9},
	{"fig12", "Overlay trade-offs (Figure 12)", "mode-1 BLE aggregate 278.4 kbps (141.6 + 136.8)", fig12},
	{"fig13", "Ranges in line of sight (Figure 13)", "max ranges 28 / 22 / 20 m", ranges("fig13", channel.NewLoS(), "28", "22", "20")},
	{"fig14", "Ranges without line of sight (Figure 14)", "max ranges 22 / 18 / 16 m", ranges("fig14", channel.NewNLoS(), "22", "18", "16")},
	{"fig15", "Baselines behind an occluded original channel (Figure 15)", "multiscatter 136/121 vs Hitchhike 94, FreeRider 33", fig15},
	{"fig16", "Collided excitations (Figure 16)", "BLE 278 → 92; others ~unchanged", fig16},
	{"fig17", "Reference-symbol modulations (Figure 17)", "tag BER stable, ≤0.6% for 802.11b", fig17},
	{"fig18", "Excitation diversity (Figure 18)", "multiscatter busy 100%; picks 802.11n for 6.3 kbps", fig18},
	{"downlink", "Downlink range (§2.2.1)", "0.9 m at 30 dBm / 0.15 V threshold", downlink},
}

// IDs returns the experiment ids in report order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Write runs every experiment and renders the report to w.
func Write(w io.Writer, o Options) error {
	_, err := WriteMetrics(w, o)
	return err
}

// WriteMetrics renders the report to w and returns the collected metrics.
// Experiments run once; both outputs come from the same numbers.
func WriteMetrics(w io.Writer, o Options) (Metrics, error) {
	o = o.withDefaults()
	// Snapshot the default obs registry up front so the trailing metrics
	// section shows this report's activity as a delta, not the process's
	// cumulative totals — two identical seeded runs render identically.
	before := obs.Default().Snapshot()
	r := &renderer{w: w, o: o, metrics: Metrics{}}
	r.printf("# %s\n\n", o.Title)
	r.printf("Generated by `internal/report` with %d trials/protocol, seed %d.\n\n", o.Trials, o.Seed)
	for _, e := range experiments {
		r.section(e)
	}
	r.serveSection()
	r.runMetrics(before)
	return r.metrics, r.err
}

// WriteExperiment runs the experiment that answers id and renders its
// section to w.
func WriteExperiment(w io.Writer, id string, o Options) error {
	for _, e := range experiments {
		if e.id == id {
			r := &renderer{w: w, o: o.withDefaults(), metrics: Metrics{}}
			r.section(e)
			return r.err
		}
	}
	return fmt.Errorf("report: unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
}

type renderer struct {
	w       io.Writer
	o       Options
	err     error
	metrics Metrics
}

func (r *renderer) printf(format string, args ...any) {
	if r.err != nil {
		return
	}
	_, r.err = fmt.Fprintf(r.w, format, args...)
}

// metric records one value under an experiment id.
func (r *renderer) metric(exp, name string, v float64) {
	m, ok := r.metrics[exp]
	if !ok {
		m = map[string]float64{}
		r.metrics[exp] = m
	}
	m[name] = v
}

// section runs e and renders its heading, the paper's values and its
// body.
func (r *renderer) section(e experiment) {
	if r.err != nil {
		return
	}
	r.printf("## %s\n\nPaper: %s.\n\n", e.title, e.paper)
	if err := e.run(r); err != nil && r.err == nil {
		r.err = err
	}
	r.printf("\n")
}

func table1(r *renderer) error {
	r.printf("| system | excitation diversity | productive carrier | single commodity receiver |\n|---|---|---|---|\n")
	yesNo := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, name := range baseline.Table1Order {
		c := baseline.Table1[name]
		r.printf("| %s | %s | %s | %s |\n",
			name, yesNo(c.ExcitationDiversity), yesNo(c.ProductiveCarrier), yesNo(c.SingleCommodityReceiver))
	}
	r.printf("\nDouble-decker (arXiv 2408.16280) postdates the paper's table; it joins the single-commodity-receiver column via superposition decoding (see docs/CHANNELS.md).\n")
	return nil
}

func table2(r *renderer) error {
	naive := fpga.NaiveMultiprotocol(120, 4)
	one := fpga.NaiveCorrelator(120)
	nano := fpga.QuantizedMultiprotocol(120, 4)
	r.printf("| implementation | multipliers | adders | D flip-flops |\n|---|---|---|---|\n")
	for _, p := range radio.Protocols {
		r.printf("| %v (naive) | %d | %d | %d |\n", p, one.Multipliers, one.Adders, one.DFFs)
	}
	r.printf("| total (naive) | %d | %d | %d |\n", naive.Multipliers, naive.Adders, naive.DFFs)
	r.printf("| nano FPGA | %d | %d | %d |\n", nano.Multipliers, nano.Adders, nano.DFFs)
	r.printf("\nThe nano implementation fits the AGLN250: %v.\n", nano.FitsAGLN250())
	r.metric("table2", "naive_multipliers", float64(naive.Multipliers))
	r.metric("table2", "naive_adders", float64(naive.Adders))
	r.metric("table2", "naive_dffs", float64(naive.DFFs))
	r.metric("table2", "nano_dffs", float64(nano.DFFs))
	return nil
}

func table3(r *renderer) error {
	p := fpga.NewPowerBreakdown()
	r.printf("| component | power (mW) |\n|---|---|\n")
	r.printf("| packet detection FPGA | %.1f |\n| ADC (20 Msps) | %.1f |\n| modulation FPGA | %.1f |\n| RF switch | %.1f |\n| oscillator (20 MHz) | %.1f |\n| **total** | **%.1f** |\n",
		p.PacketDetectFPGAmW, p.ADCmW, p.ModulationFPGAmW, p.RFSwitchMW, p.OscillatorMW, p.TotalMW())
	low := p.AtADCRate(2.5)
	r.printf("\nAt 2.5 Msps the ADC drops to %.1f mW and the total to %.1f mW.\n", low.ADCmW, low.TotalMW())
	r.metric("table3", "total_mw", p.TotalMW())
	return nil
}

func table4(r *renderer) error {
	r.printf("| protocol | pkts/round | indoor (s) | outdoor (s) |\n|---|---|---|---|\n")
	for _, row := range energy.ExchangeTable(fpga.NewPowerBreakdown().TotalMW() / 1e3) {
		r.printf("| %v | %.1f | %.3g | %.3g |\n", row.Protocol, row.PacketsPerRound, row.IndoorSeconds, row.OutdoorSeconds)
		r.metric("table4", fmt.Sprintf("indoor_s_%v", row.Protocol), row.IndoorSeconds)
		r.metric("table4", fmt.Sprintf("outdoor_s_%v", row.Protocol), row.OutdoorSeconds)
	}
	h := energy.NewMP337()
	r.printf("\nOne round takes %.1f mJ; harvesting it takes %.3g s indoors and %.3g s outdoors.\n",
		energy.RoundEnergyJ()*1e3, h.HarvestSeconds(energy.IndoorLux), h.HarvestSeconds(energy.OutdoorLux))
	return nil
}

func table5(r *renderer) error {
	r.printf("| setup | power (mW) | LUTs | saving |\n|---|---|---|---|\n")
	for _, s := range []fpga.IdentSetup{
		{RateMsps: 20, Quantized: false},
		{RateMsps: 20, Quantized: true},
		{RateMsps: 2.5, Quantized: true},
	} {
		c := fpga.IdentCostOf(s)
		r.printf("| %.3g MS/s quant=%v | %.3g | %d | %.0f× |\n",
			s.RateMsps, s.Quantized, c.PowerMW, c.LUTs, fpga.PowerSavingFactor(s))
		r.metric("table5", fmt.Sprintf("power_mw_%.3gmsps_quant=%v", s.RateMsps, s.Quantized), c.PowerMW)
	}
	return nil
}

func table6(r *renderer) error {
	r.printf("| protocol | γ | κ mode 1 | κ mode 2 | κ mode 3 |\n|---|---|---|---|---|\n")
	for _, p := range radio.Protocols {
		r.printf("| %v | %d | %d | %d | %d·n |\n", p, overlay.Gammas[p],
			overlay.Kappa(p, overlay.Mode1, 0), overlay.Kappa(p, overlay.Mode2, 0), overlay.Gammas[p])
	}
	return nil
}

func fig4(r *renderer) error {
	res := core.RunRectifiers()
	r.printf("Mean output on a 0.3 V square envelope: basic %.3f V, clamped %.3f V (%.2f×).\n\n",
		res.BasicMeanV, res.ClampedMeanV, res.ClampedMeanV/res.BasicMeanV)
	r.printf("802.11b envelope fidelity (correlation with the input envelope): multiscatter %.3f, WISP %.3f.\n",
		res.OursFidelity, res.WISPFidelity)
	return nil
}

// score acquires and scores the traces of one identification operating
// point at the report's trials and seed.
func (r *renderer) score(o core.IdentifyOptions) (*core.IdentScores, error) {
	o.Trials, o.Seed = r.o.Trials, r.o.Seed
	return core.ScoreIdentification(o)
}

// identRow decides one matching policy on s, renders its row of an
// identification table and records its average accuracy.
func (r *renderer) identRow(label, key, paper string, s *core.IdentScores, ordered bool) *stats.Confusion {
	c, _ := s.Decide(ordered)
	r.printf("| %s | %.3f | %s |\n", label, c.Average(), paper)
	r.metric("identification", key, c.Average())
	return c
}

// identify runs one operating point under o's matching policy and
// renders its row.
func (r *renderer) identify(label, key, paper string, o core.IdentifyOptions) (*stats.Confusion, error) {
	s, err := r.score(o)
	if err != nil {
		return nil, err
	}
	return r.identRow(label, key, paper, s, o.Ordered), nil
}

const identHeader = "| operating point | measured | paper |\n|---|---|---|\n"

func fig5(r *renderer) error {
	r.printf(identHeader)
	c, err := r.identify("20 Msps, full precision, ordered", "accuracy_20msps_full_ordered", "0.997",
		core.IdentifyOptions{ADCRate: 20e6, Ordered: true})
	if err != nil {
		return err
	}
	r.printf("\n```text\n%s```\n", c)
	return nil
}

// fig7 decides blind and ordered matching on the same scored traces.
func fig7(r *renderer) error {
	s, err := r.score(core.IdentifyOptions{ADCRate: 10e6, Quantized: true})
	if err != nil {
		return err
	}
	r.printf(identHeader)
	r.identRow("10 Msps, ±1, blind", "accuracy_10msps_quant_blind", "0.906", s, false)
	r.identRow("10 Msps, ±1, ordered", "accuracy_10msps_quant_ordered", "0.976", s, true)
	return nil
}

func fig8(r *renderer) error {
	r.printf(identHeader)
	for _, pt := range []struct {
		label, key, paper string
		rate              float64
		extended          bool
	}{
		{"2.5 Msps, ±1, 8 µs window", "accuracy_2.5msps_quant_ordered", "0.485", 2.5e6, false},
		{"2.5 Msps, ±1, 40 µs window", "accuracy_2.5msps_quant_extended", "0.93", 2.5e6, true},
		{"1 Msps, ±1, 40 µs window", "accuracy_1msps_quant_extended", "≈0.5", 1e6, true},
	} {
		if _, err := r.identify(pt.label, pt.key, pt.paper, core.IdentifyOptions{
			ADCRate: pt.rate, Quantized: true, Extended: pt.extended, Ordered: true,
		}); err != nil {
			return err
		}
	}
	return nil
}

func fig9(r *renderer) error {
	bers, offsets := core.RunBaselineFailure()
	r.printf("| system | wall | tag BER |\n|---|---|---|\n")
	for _, b := range bers {
		r.printf("| %s | %v | %.4f |\n", b.System, b.Wall, b.TagBER)
		r.metric("fig9", fmt.Sprintf("tag_ber_%s_%v", b.System, b.Wall), b.TagBER)
	}
	r.printf("\nHitchhike's modulation offset reaches %.0f symbols at 30 m.\n", offsets.MaxY())
	r.metric("fig9", "max_offset_symbols", offsets.MaxY())
	return nil
}

func fig12(r *renderer) error {
	r.printf("| protocol | mode | productive (kbps) | tag (kbps) | aggregate (kbps) |\n|---|---|---|---|---|\n")
	for _, row := range core.RunTradeoffs() {
		r.printf("| %v | %v | %.1f | %.1f | %.1f |\n", row.Protocol, row.Mode, row.ProductiveKbps, row.TagKbps, row.Aggregate())
		r.metric("fig12", fmt.Sprintf("aggregate_kbps_%v_%v", row.Protocol, row.Mode), row.Aggregate())
	}
	return nil
}

// ranges renders Figure 13 or 14 over channel ch: each protocol's
// maximum range next to the paper's (WiFi, ZigBee and BLE), and the
// RSSI, tag BER and aggregate throughput of a 2 m distance sweep to
// 30 m.
func ranges(exp string, ch *channel.Model, paperWiFi, paperZigBee, paperBLE string) func(*renderer) error {
	paper := map[radio.Protocol]string{
		radio.Protocol80211b: paperWiFi, radio.Protocol80211n: paperWiFi,
		radio.ProtocolZigBee: paperZigBee, radio.ProtocolBLE: paperBLE,
	}
	return func(r *renderer) error {
		r.printf("| protocol | max range (m) | paper (m) |\n|---|---|---|\n")
		var rssi, ber, tput []*stats.Series
		for _, p := range radio.Protocols {
			m := core.NewLink(p, ch).MaxRange(0.5, 40)
			r.printf("| %v | %.1f | %s |\n", p, m, paper[p])
			r.metric(exp, fmt.Sprintf("max_range_m_%v", p), m)
			rs := &stats.Series{Name: p.String(), Unit: "dBm"}
			bs := &stats.Series{Name: p.String(), Unit: "BER"}
			ts := &stats.Series{Name: p.String(), Unit: "kbps"}
			for _, pt := range core.RangeSweep(p, ch, 30, 2) {
				rs.Add(pt.DistanceM, pt.RSSIdBm)
				bs.Add(pt.DistanceM, pt.TagBER)
				ts.Add(pt.DistanceM, pt.AggregateKbps)
			}
			rssi, ber, tput = append(rssi, rs), append(ber, bs), append(tput, ts)
		}
		r.printf("\nRSSI, tag BER and aggregate throughput vs distance:\n\n```text\n%s\n%s\n%s```\n",
			stats.Table("dist (m)", rssi...), stats.Table("dist (m)", ber...), stats.Table("dist (m)", tput...))
		return nil
	}
}

func fig15(r *renderer) error {
	r.printf("| system | tag throughput behind drywall (kbps) |\n|---|---|\n")
	for _, row := range core.RunOcclusion() {
		r.printf("| %s | %.1f |\n", row.System, row.TagKbps)
		r.metric("fig15", fmt.Sprintf("tag_kbps_%s", row.System), row.TagKbps)
	}
	r.printf("\nDouble-decker decodes the superposed stream at ONE commodity receiver (arXiv 2408.16280), paying a γ·spread capacity budget instead of a second radio.\n\n")

	ddCfg := baseline.DoubleDeckerConfig{}
	r.printf("Occlusion sweep — Double-decker has no original receiver to occlude, so its curve is flat while the dual-receiver baselines decay:\n\n")
	r.printf("| wall | Double-decker (kbps) | Hitchhike (kbps) | FreeRider (kbps) |\n|---|---|---|---|\n")
	for _, p := range core.RunOcclusionSweep() {
		r.printf("| %v | %.1f | %.1f | %.1f |\n", p.Wall, p.DoubleDeckerKbps, p.HitchhikeKbps, p.FreeRiderKbps)
		r.metric("fig15", fmt.Sprintf("doubledecker_tag_kbps_%v", p.Wall), p.DoubleDeckerKbps)
	}
	trB := overlay.DefaultTraffic(radio.Protocol80211b)
	r.metric("fig15", "doubledecker_tag_kbps", baseline.DoubleDeckerThroughputKbps(ddCfg, trB, radio.Protocol80211b))
	r.metric("fig15", "doubledecker_sinr_db", baseline.DoubleDeckerSINRdB(ddCfg))
	r.metric("fig15", "doubledecker_tag_ber", baseline.DoubleDeckerTagBER(ddCfg, radio.Protocol80211b))

	wfBER, err := core.RunDoubleDeckerDecode(3, r.o.Seed)
	if err != nil {
		return err
	}
	r.printf("\nWaveform-level single-receiver decode (3 real DSSS frames, pilot-estimated H_d cancellation, coherent H_b slicing): measured tag BER %.4f.\n", wfBER)
	r.metric("fig15", "doubledecker_waveform_ber", wfBER)
	return nil
}

func fig16(r *renderer) error {
	timeDom, freqDom := core.RunCollisions(r.o.Seed)
	for _, dom := range []struct {
		title, key string
		rows       []core.CollisionResult
	}{
		{"Time-domain collision (802.11n + BLE)", "time", timeDom},
		{"Frequency-domain collision (802.11n + ZigBee)", "freq", freqDom},
	} {
		r.printf("%s:\n\n| protocol | alone (kbps) | collided (kbps) |\n|---|---|---|\n", dom.title)
		for _, c := range dom.rows {
			r.printf("| %v | %.1f | %.1f |\n", c.Protocol, c.AloneKbps, c.CollidedKbps)
			r.metric("fig16", fmt.Sprintf("%s_collided_kbps_%v", dom.key, c.Protocol), c.CollidedKbps)
		}
		r.printf("\n")
	}
	r.printf("Concurrent multi-tag OFDM (joint subcarrier-group decoding vs capture):\n\n")
	r.printf("| tags | joint aggregate (kbps) | capture baseline (kbps) | Jain |\n|---|---|---|---|\n")
	pts, err := fleet.ConcurrencySweep(4, 2*time.Second, r.o.Seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		r.printf("| %d | %.2f | %.2f | %.3f |\n", p.N, p.AggregateKbps, p.BaselineKbps, p.Jain)
		r.metric("fig16", fmt.Sprintf("concurrent_aggregate_kbps_n%d", p.N), p.AggregateKbps)
		r.metric("fig16", fmt.Sprintf("concurrent_baseline_kbps_n%d", p.N), p.BaselineKbps)
	}
	r.metric("fig16", "concurrent_jain_n4", pts[len(pts)-1].Jain)
	joint, err := core.RunJointOFDM([]float64{0, 5, 15}, 3, r.o.Seed)
	if err != nil {
		return err
	}
	r.printf("\nWaveform-level joint decode (per-tag BER, BPSK):\n\n")
	r.printf("| k | 0 dB | 5 dB | 15 dB | bits/frame/tag | aggregate bits/frame |\n|---|---|---|---|---|---|\n")
	byK := map[int][]core.JointOFDMPoint{}
	var order []int
	for _, p := range joint {
		if _, ok := byK[p.K]; !ok {
			order = append(order, p.K)
		}
		byK[p.K] = append(byK[p.K], p)
		r.metric("fig16", fmt.Sprintf("joint_tag_ber_k%d_snr%gdB", p.K, p.SNRdB), p.TagBER)
	}
	for _, k := range order {
		row := byK[k]
		r.printf("| %d | %.4f | %.4f | %.4f | %d | %d |\n",
			k, row[0].TagBER, row[1].TagBER, row[2].TagBER, row[0].TagBitsPerFrame, row[0].AggregateBitsPerFrame)
	}
	return nil
}

func fig17(r *renderer) error {
	rows, err := core.RunRefModulation(-5, 40, r.o.Seed)
	if err != nil {
		return err
	}
	r.printf("| reference-symbol modulation | tag BER |\n|---|---|\n")
	for _, row := range rows {
		r.printf("| %s | %.4f |\n", row.Label, row.TagBER)
	}
	return nil
}

func fig18(r *renderer) error {
	d := core.RunDiversity()
	r.printf("Figure 18a: multiscatter %.1f kbps (busy %.0f%%) vs single-protocol %.1f kbps (busy %.0f%%).\n\n",
		d.MultiKbps, d.MultiBusyFrac*100, d.SingleKbps, d.SingleBusyFrac*100)
	r.metric("fig18", "multi_kbps", d.MultiKbps)
	r.metric("fig18", "single_kbps", d.SingleKbps)
	pick := core.RunCarrierPick()
	r.metric("fig18", "picked_kbps", pick.PickedKbps)
	r.printf("Figure 18b: picked %v at %.1f kbps (target %.1f kbps met: %v); 802.11b-only %.1f kbps (met: %v).\n",
		pick.Picked, pick.PickedKbps, core.BraceletGoodputKbps, pick.MeetsTarget,
		pick.SingleKbps, pick.SingleMeets)
	return nil
}

func downlink(r *renderer) error {
	los := channel.NewLoS()
	r.printf("Clamped rectifier: %.2f m; basic rectifier: %.2f m.\n",
		core.DownlinkRange(analog.NewMultiscatterRectifier(), los),
		core.DownlinkRange(analog.NewBasicRectifier(), los))
	return nil
}

// serveSection runs the fixed fleet-service workload (the same job set
// BenchmarkServeConcurrentJobs submits) through a private serve.Manager
// and records only sim-domain numbers: per-job results are
// byte-identical to standalone runs, so every metric here is
// deterministic and the committed-baseline diff stays empty. Wall-clock
// service throughput lives in the Go benchmark and msload output.
func (r *renderer) serveSection() {
	if r.err != nil {
		return
	}
	jobs := serve.BenchJobs(8)
	m := serve.NewManager(serve.Config{Obs: obs.NewRegistry()})
	defer m.Close()
	submitted := make([]*serve.Job, 0, len(jobs))
	for _, jc := range jobs {
		j, err := m.Submit(jc)
		if err != nil {
			r.err = err
			return
		}
		submitted = append(submitted, j)
	}
	r.printf("## Fleet service (msserve shared-pool workload)\n\n")
	r.printf("| job | scenario | seed | packets | fleet (kbps) |\n|---|---|---|---|---|\n")
	var sumKbps float64
	var packets int
	for i, j := range submitted {
		<-j.Done()
		res := j.Result()
		if res == nil {
			r.err = fmt.Errorf("serve job %s: %s", j.ID, j.Err())
			return
		}
		r.printf("| %d | %s | %d | %d | %.2f |\n",
			i+1, j.Config.Scenario, j.Config.Seed, res.Events, res.FleetTagKbps)
		sumKbps += res.FleetTagKbps
		packets += res.Events
	}
	r.printf("\n%d concurrent jobs on one shared pool; results byte-identical to standalone runs (see docs/SERVICE.md).\n\n",
		len(jobs))
	r.metric("serve", "jobs_done", float64(len(jobs)))
	r.metric("serve", "packets_total", float64(packets))
	r.metric("serve", "sum_fleet_tag_kbps", sumKbps)
}

// runMetrics appends the observability section: the obs counters this
// report run incremented, as a delta against the registry state at
// entry. Only counters are rendered — they are exact and deterministic
// for a fixed (trials, seed), so the section is byte-identical across
// repeated runs, keeping full-report diffs clean. Wall-clock stages and
// histograms stay on the -obs HTTP endpoint.
func (r *renderer) runMetrics(before obs.Snapshot) {
	delta := obs.Default().Snapshot().Sub(before).CountersOnly()
	if len(delta.Counters) == 0 {
		return
	}
	r.printf("\n## Run metrics\n\n")
	r.printf("Simulator work performed while generating this report (see docs/OBSERVABILITY.md):\n\n")
	r.printf("%s", delta.Markdown())
}
