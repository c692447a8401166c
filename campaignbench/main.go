// Command campaignbench is the repository benchmark. It runs one of three
// paper campaigns through runner.Run for a fixed time, checks every result,
// and prints one JSON line: the end-to-end metrics, or with -trace 1 the
// per-layer host-time ledger. README.md describes the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash campaignbench/run.sh --workload fig15-corpus --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/pprof"
	"sync/atomic"

	"morrigan/internal/runner"
	"morrigan/internal/spans"
)

// defaultSeed is the seed the benchmark was tuned on (README.md also names
// a held-out seed).
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// output is the benchmark's final stdout line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "campaign to run: fig15-sampled, fig15-corpus or fig20-smt")
	seed := fs.Int64("seed", defaultSeed, "seed that draws and orders the campaign's workloads")
	seconds := fs.Float64("seconds", 10, "minimum measured time; whole campaign rounds run until it has passed")
	traced := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's scratch corpus, removed on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, ok := campaignByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "campaignbench: need -workload fig15-sampled|fig15-corpus|fig20-smt, -seconds > 0 and -trace 0|1")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	out, err := measure(c, *seed, *seconds, *traced == 1, dir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure sets the campaign up, runs its timed window (or, traced, an
// untraced window and then a traced one of half the time each), runs the
// output checks and computes the metrics.
func measure(c campaign, seed int64, seconds float64, traced bool, dir string, stderr io.Writer) (output, error) {
	ctx := context.Background()
	report := func(s string) { fmt.Fprintln(stderr, "check failed:", s) }
	b, err := setUpMedian(c, seed, dir)
	if err != nil {
		return output{}, err
	}
	b.log = stderr
	rss, _ := peakRSSMB()
	fmt.Fprintf(stderr, "set-up: %d jobs, median %.3fs, peak RSS %.1f MB\n", len(b.jobs), b.setupTime.Seconds(), rss)
	var (
		w                 window
		values            map[string]float64
		defs              = endToEndMetrics
		attempted, failed int
	)
	if !traced {
		if w, err = b.measure(ctx, seconds, hooks{}); err != nil {
			return output{}, err
		}
	} else {
		defs = perLayerMetrics
		plain, err := b.measure(ctx, seconds/2, hooks{})
		if err != nil {
			return output{}, err
		}
		var l ledger
		if w, l, err = b.tracedWindow(ctx, seconds/2); err != nil {
			return output{}, err
		}
		l.untracedMI = minstrPerSec(b, plain)
		if values, err = perLayer(b, w, l); err != nil {
			return output{}, err
		}
		attempted++
		if share := values["ledger.layer_share"]; share < 0.9 {
			failed++
			report(fmt.Sprintf("named layers cover %.3f of profiled CPU time, want at least 0.9", share))
		}
	}
	a, f := tally(w.rounds, report)
	attempted, failed = attempted+a, failed+f
	if b.corpusDir != "" {
		a, f, err := b.spotCheck(ctx, w.rounds[0], seed, report)
		if err != nil {
			return output{}, err
		}
		attempted, failed = attempted+a, failed+f
	}
	if !traced {
		if values, err = endToEnd(b, w, attempted, failed); err != nil {
			return output{}, err
		}
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return output{}, err
	}
	return output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// tracedWindow measures with every instrument attached: a CPU profile of
// the window folded into layers, the runner's phase spans, and timed trace
// readers.
func (b *bench) tracedWindow(ctx context.Context, seconds float64) (window, ledger, error) {
	h := hooks{spans: spans.NewRecorder("campaignbench"), wait: new(atomic.Int64)}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return window{}, ledger{}, err
	}
	w, err := b.measure(ctx, seconds, h)
	pprof.StopCPUProfile()
	if err != nil {
		return window{}, ledger{}, err
	}
	layers, total, err := fold(prof.Bytes())
	if err != nil {
		return window{}, ledger{}, err
	}
	return w, ledger{layers: layers, total: total, spans: h.spans.Spans(), waitNS: h.wait.Load()}, nil
}

// spotCheck reruns one seed-chosen workload group generator-fed and
// compares it with the corpus-fed results of the first round.
func (b *bench) spotCheck(ctx context.Context, corpusFed []runner.Result, seed int64, report func(string)) (attempted, failed int, err error) {
	groups := groupByWorkload(b.jobs)
	pick := rand.New(rand.NewSource(seed)).Intn(len(groups))
	start := 0
	for _, g := range groups[:pick] {
		start += len(g)
	}
	jobs := groups[pick]
	gen, _, err := b.round(ctx, jobs, hooks{}, false)
	if err != nil {
		return 0, 0, err
	}
	a, f := compareReruns(corpusFed[start:start+len(jobs)], gen, report)
	return a, f, nil
}
