// Command experiments regenerates the paper's tables and figures on the
// synthetic workload suite.
//
// Examples:
//
//	experiments -exp all                 # everything, default scale
//	experiments -exp fig15 -v            # one figure with progress output
//	experiments -exp fig9,fig15 -quick   # reduced scale
//	experiments -exp all -full -out results.txt
//	experiments -exp all -quick -jobs 8  # fan out over 8 workers
//	experiments -exp fig15 -json results.json -csv results.csv
//	experiments -exp fig9,fig15 -corpus corpus/  # share materialised traces across configs
//	experiments -exp all -results results/       # reuse stored results; rerun a killed sweep to resume it
//	experiments -exp all -fabric :9090           # delegate jobs to fabric workers
//	experiments -exp all -fabric :9090 -lease-ttl 5s -results results/
//	experiments -exp fig15 -dry-run              # print enumerated jobs, simulate nothing
//	experiments -exp fig15 -sample -corpus corpus/  # sampled mode: timed slices + 95% CIs
//	experiments -exp fig15 -trace-out trace.json # Perfetto-loadable lifecycle trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"morrigan/internal/cli"
	"morrigan/internal/experiments"
	"morrigan/internal/runner"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment IDs, or 'all' (see -list)")
		quick   = flag.Bool("quick", false, "reduced scale (benchmark-sized)")
		full    = flag.Bool("full", false, "paper-scale methodology (slow)")
		warmup  = flag.Uint64("warmup", 0, "override warmup instructions per run")
		measure = flag.Uint64("measure", 0, "override measured instructions per run")
		out     = flag.String("out", "", "write results to a file instead of stdout")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		cf      cli.Flags
	)
	cf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range experiments.Order {
			fmt.Println(id)
		}
		return
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *full {
		opt = experiments.FullOptions()
	}
	if *warmup > 0 {
		opt.Warmup = *warmup
	}
	if *measure > 0 {
		opt.Measure = *measure
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c, err := cf.Start("experiments", opt.Measure)
	if err != nil {
		c.Close()
		fatal("%v", err)
	}
	defer c.Close()
	c.Apply(&opt)
	opt.Context = ctx
	// One result cache for the whole sweep: experiments share baseline
	// (machine, workload, scale) triples, so each distinct triple simulates
	// exactly once and every later occurrence is served from the cache.
	// Rendered tables are unaffected — cached stats are the original run's,
	// bit for bit. Each cache-served job's record says "reused": "cache".
	opt.Cache = runner.NewResultCache()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w = f
	}

	ids := experiments.Order
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	if !cf.DryRun {
		fmt.Fprintf(w, "Morrigan reproduction experiments (warmup %d, measure %d instructions per run)\n\n",
			opt.Warmup, opt.Measure)
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tab, err := experiments.Run(id, opt)
		if err != nil {
			if ferr := c.Finish(ctx); ferr != nil {
				fmt.Fprintln(os.Stderr, "experiments:", ferr)
			}
			c.Close()
			fatal("%s: %v", id, err)
		}
		if cf.DryRun {
			continue // jobs were printed as they were enumerated; tables are all zeros
		}
		tab.Render(w)
		fmt.Fprintf(os.Stderr, "%s finished in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	if err := c.Finish(ctx); err != nil {
		c.Close()
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
