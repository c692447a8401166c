package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/spans"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDef{
	{"minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pass_rate", "ratio"},
	{"paper_gap_pp", "pp"},
}

// layerMetric names each ledger layer's host-time metric.
var layerMetric = map[string]string{
	"trace":       "trace.ns_per_instr",
	"sampling":    "sampling.ns_per_instr",
	"sim":         "sim.ns_per_instr",
	"sim.ff":      "sim.ff_ns_per_instr",
	"cache":       "cache.ns_per_instr",
	"tlb":         "tlb.ns_per_instr",
	"ptw":         "ptw.ns_per_instr",
	"tlbprefetch": "tlbprefetch.ns_per_instr",
	"icache":      "icache.ns_per_instr",
	"cpu":         "cpu.ns_per_instr",
	"runtime":     "runtime.ns_per_instr",
	"other":       "other.ns_per_instr",
}

// perLayerMetrics are printed by every traced run.
var perLayerMetrics = []metricDef{
	{"trace.ns_per_instr", "ns/instr"},
	{"sampling.ns_per_instr", "ns/instr"},
	{"sim.ns_per_instr", "ns/instr"},
	{"sim.ff_ns_per_instr", "ns/instr"},
	{"cache.ns_per_instr", "ns/instr"},
	{"tlb.ns_per_instr", "ns/instr"},
	{"ptw.ns_per_instr", "ns/instr"},
	{"tlbprefetch.ns_per_instr", "ns/instr"},
	{"icache.ns_per_instr", "ns/instr"},
	{"cpu.ns_per_instr", "ns/instr"},
	{"runtime.ns_per_instr", "ns/instr"},
	{"other.ns_per_instr", "ns/instr"},
	{"total.ns_per_instr", "ns/instr"},
	{"runtime.gc_share", "ratio"},
	{"ledger.layer_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},

	{"sampling.profile_s", "s"},
	{"sampling.fastforward_s", "s"},
	{"sampling.slicewarmup_s", "s"},
	{"sampling.measure_s", "s"},
	{"sampling.timed_frac", "ratio"},
	{"sampling.ci95_ipc_pct", "%"},

	{"runner.job_p50_ms", "ms"},
	{"runner.job_p90_ms", "ms"},
	{"runner.idle_frac", "ratio"},
	{"trace.wait_s", "s"},
	{"tracestore.build_s", "s"},
	{"tracestore.cache_hit_ratio", "ratio"},

	{"tlb.istlb_mpki", "MPKI"},
	{"tlb.dstlb_mpki", "MPKI"},
	{"ptw.walks_pki", "PKI"},
	{"ptw.refs_per_walk", "refs"},
	{"ptw.psc_hit_rate", "ratio"},
	{"tlbprefetch.issued_pki", "PKI"},
	{"tlbprefetch.useful_ratio", "ratio"},
	{"tlbprefetch.morrigan_speedup_pct", "%"},
	{"icache.pb_served_ratio", "ratio"},
	{"cache.l1i_mpki", "MPKI"},
	{"cpu.ipc_geomean", "IPC"},
	{"cpu.translation_cycle_pct", "%"},
}

// collect attaches units to values and checks that exactly the defined
// metrics were computed.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics, defined %d", len(values), len(defs))
	}
	return out, nil
}

// minstrPerSec is represented instructions per second of window wall time.
func minstrPerSec(b *bench, w window) float64 {
	return float64(b.represented()) * float64(len(w.rounds)) / w.wall.Seconds() / 1e6
}

func endToEnd(b *bench, w window, attempted, failed int) (map[string]float64, error) {
	speedup, err := headlineSpeedup(w.rounds[0], b.headline)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"minstr_per_s": minstrPerSec(b, w),
		"setup_s":      b.setupTime.Seconds(),
		"peak_rss_mb":  rss,
		"pass_rate":    1 - float64(failed)/float64(attempted),
		"paper_gap_pp": math.Abs(speedup - b.paper),
	}, nil
}

// ledger is what a traced window observed besides the results.
type ledger struct {
	layers     map[string]int64 // CPU ns per layer
	total      int64
	spans      []spans.Span
	waitNS     int64
	untracedMI float64 // minstr_per_s of the untraced window before it
}

func perLayer(b *bench, w window, l ledger) (map[string]float64, error) {
	v := map[string]float64{}
	rounds := float64(len(w.rounds))
	instr := float64(b.represented()) * rounds
	var listed int64
	for layer, name := range layerMetric {
		v[name] = float64(l.layers[layer]) / instr
		if layer != "other" {
			listed += l.layers[layer]
		}
	}
	v["total.ns_per_instr"] = float64(l.total) / instr
	v["runtime.gc_share"] = ratio(float64(l.layers["runtime"]), float64(l.total))
	v["ledger.layer_share"] = ratio(float64(listed), float64(l.total))
	traced := minstrPerSec(b, w)
	v["bench.trace_overhead_pct"] = (l.untracedMI - traced) / l.untracedMI * 100

	phase := map[string]float64{}
	for _, p := range spans.Breakdown(l.spans) {
		phase[p.Phase] = p.TotalMS / 1000
	}
	v["sampling.profile_s"] = phase["sample.profile"] / rounds
	v["sampling.fastforward_s"] = phase["sample.fastforward"] / rounds
	v["sampling.slicewarmup_s"] = phase["sample.slicewarmup"] / rounds
	v["sampling.measure_s"] = phase["sample.measure"] / rounds
	timed := phase["sample.slicewarmup"] + phase["sample.measure"] + phase["simulate"]
	v["sampling.timed_frac"] = ratio(timed, phase["execute"])

	var elapsed []float64
	var busy time.Duration
	for _, round := range w.rounds {
		for _, r := range round {
			elapsed = append(elapsed, float64(r.Elapsed)/float64(time.Millisecond))
			busy += r.Elapsed
		}
	}
	v["runner.job_p50_ms"] = percentile(elapsed, 50)
	v["runner.job_p90_ms"] = percentile(elapsed, 90)
	v["runner.idle_frac"] = 1 - busy.Seconds()/(workers*w.wall.Seconds())
	v["trace.wait_s"] = float64(l.waitNS) / 1e9 / rounds
	v["tracestore.build_s"] = b.buildTime.Seconds()
	v["tracestore.cache_hit_ratio"] = ratio(float64(w.cacheHits), float64(w.cacheGets))

	speedup, err := headlineSpeedup(w.rounds[0], b.headline)
	if err != nil {
		return nil, err
	}
	v["tlbprefetch.morrigan_speedup_pct"] = speedup
	for k, x := range modelled(w.rounds[0]) {
		v[k] = x
	}
	return v, nil
}

// modelled aggregates simulated (not host) counts over one round's jobs.
// They explain paper_gap_pp and must not move under a pure speed change.
func modelled(results []runner.Result) map[string]float64 {
	var instr, istlb, dstlb, walks, demandWalks, demandRefs, issued, pbHits, l1i, xpHits, xpWalks uint64
	var psc, trans float64
	ipcs := make([]float64, 0, len(results))
	for _, r := range results {
		st := r.Stats
		instr += st.Instructions
		istlb += st.ISTLBMisses
		dstlb += st.DSTLBMisses
		demandWalks += st.DemandIWalks + st.DemandDWalks
		demandRefs += st.DemandIWalkRefs + st.DemandDWalkRefs
		walks += st.DemandIWalks + st.DemandDWalks + st.PrefetchWalks
		issued += st.PrefetchesIssued
		pbHits += st.PBHits
		l1i += st.L1IMisses
		xpHits += st.ICachePBHits
		xpWalks += st.ICacheXPageWalks
		psc += st.PSCHitRate
		trans += st.TranslationCyclePct
		ipcs = append(ipcs, st.IPC)
	}
	n := float64(len(results))
	pki := func(x uint64) float64 { return ratio(float64(x), float64(instr)) * 1000 }
	return map[string]float64{
		"tlb.istlb_mpki":            pki(istlb),
		"tlb.dstlb_mpki":            pki(dstlb),
		"ptw.walks_pki":             pki(walks),
		"ptw.refs_per_walk":         ratio(float64(demandRefs), float64(demandWalks)),
		"ptw.psc_hit_rate":          psc / n,
		"tlbprefetch.issued_pki":    pki(issued),
		"tlbprefetch.useful_ratio":  ratio(float64(pbHits), float64(issued)),
		"icache.pb_served_ratio":    ratio(float64(xpHits), float64(xpHits+xpWalks)),
		"cache.l1i_mpki":            pki(l1i),
		"cpu.ipc_geomean":           geomean(ipcs),
		"cpu.translation_cycle_pct": trans / n,
		"sampling.ci95_ipc_pct":     ci95IPCPct(results),
	}
}

// ci95IPCPct is the mean 95% confidence half-width of sampled IPC, as a
// percentage of the IPC; zero for full runs.
func ci95IPCPct(results []runner.Result) float64 {
	var sum float64
	var n int
	for _, r := range results {
		if r.Sampling != nil && r.Stats.IPC > 0 {
			sum += r.Sampling.CI95.IPC / r.Stats.IPC * 100
			n++
		}
	}
	return ratio(sum, float64(n))
}

func geomean(xs []float64) float64 {
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
