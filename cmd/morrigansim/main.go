// Command morrigansim runs one or more workloads through the simulator under
// a chosen iSTLB-prefetching configuration and prints the measurement
// snapshots.
//
// Examples:
//
//	morrigansim -workload qmm-srv-07 -prefetcher morrigan
//	morrigansim -workload qmm-srv-07 -prefetcher none -perfect
//	morrigansim -workload qmm-srv-03 -smt qmm-srv-19 -prefetcher morrigan2x
//	morrigansim -workload cassandra -icache fnlmma -icache-tlb-cost
//	morrigansim -trace trace.mgt -prefetcher sp
//	morrigansim -workload qmm-srv-01,qmm-srv-02,qmm-srv-03 -jobs 3 -json -
//	morrigansim -workload qmm-srv-01 -corpus corpus/ -prefetcher morrigan
//	morrigansim -prefetcher morrigan -dump-config spec.json
//	morrigansim -workload qmm-srv-07 -config spec.json
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -results results/  # rerun a killed campaign to resume it
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -fabric :9090
//	morrigansim -workload qmm-srv-01 -smt qmm-srv-19 -dry-run
//	morrigansim -workload qmm-srv-01,qmm-srv-02 -trace-out trace.json
//	morrigansim -workload qmm-srv-01 -measure 10000000 -sample -corpus corpus/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"morrigan/internal/arch"
	"morrigan/internal/cli"
	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sim"
	"morrigan/internal/telemetry"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "qmm-srv-01", "comma-separated built-in workload names (see -list)")
		traceFile = flag.String("trace", "", "trace file to execute instead of a built-in workload")
		smt       = flag.String("smt", "", "colocate this second workload on an SMT thread of every run")
		pf        = flag.String("prefetcher", "none", "iSTLB prefetcher: none|sp|asp|dp|mp|mp2inf|mpinf|morrigan|morrigan2x|mono")
		icachePf  = flag.String("icache", "nextline", "I-cache prefetcher: nextline|fnlmma|epi|djolt")
		icacheTLB = flag.Bool("icache-tlb-cost", false, "charge address translation for page-crossing I-cache prefetches")
		perfect   = flag.Bool("perfect", false, "perfect iSTLB (all instruction lookups hit)")
		p2tlb     = flag.Bool("p2tlb", false, "prefetch directly into the STLB instead of the PB")
		asap      = flag.Bool("asap", false, "enable ASAP-style parallel page walks")
		stlb      = flag.Int("stlb", 1536, "STLB entries")
		pb        = flag.Int("pb", 64, "prefetch buffer entries")
		warmup    = flag.Uint64("warmup", 1_000_000, "warmup instructions")
		measure   = flag.Uint64("measure", 5_000_000, "measured instructions")
		interval  = flag.Uint64("interval", 0, "telemetry sampling interval in instructions (0 = default 100000)")
		events    = flag.Int("events", 0, "telemetry event-ring capacity (0 = default 4096, negative disables the event trace)")
		confIn    = flag.String("config", "", "load the machine spec from this JSON file (overrides the machine flags)")
		confOut   = flag.String("dump-config", "", "write the machine spec as JSON to this file ('-' for stdout) and exit")
		list      = flag.Bool("list", false, "list built-in workloads and exit")
		refLoop   = flag.Bool("reference-loop", false, "run the per-record reference loop instead of the batched pipeline (verification; Stats are bit-identical, only throughput differs)")
		cf        cli.Flags
	)
	cf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		var names []string
		for _, w := range workloads.QMM() {
			names = append(names, w.Name)
		}
		for _, w := range workloads.SPEC() {
			names = append(names, w.Name)
		}
		for _, w := range workloads.Java() {
			names = append(names, w.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	// The machine under test is a declarative spec: built from the flags, or
	// loaded verbatim from -config. Either way Build validates it before any
	// simulation launches.
	spec := specFromFlags(*pf, *icachePf, *perfect, *p2tlb, *asap, *icacheTLB, *stlb, *pb)
	pfLabel := *pf
	if *confIn != "" {
		f, err := os.Open(*confIn)
		if err != nil {
			fatal("%v", err)
		}
		spec, err = machine.Load(f)
		f.Close()
		if err != nil {
			fatal("config %s: %v", *confIn, err)
		}
		// The machine came from the spec file, so the displayed prefetcher
		// must too — the -prefetcher flag did not shape this run.
		switch {
		case spec.PerfectISTLB:
			pfLabel = "perfect"
		case spec.Prefetcher.Kind == "":
			pfLabel = "none"
		default:
			pfLabel = spec.Prefetcher.Kind
		}
	}
	if _, err := spec.Build(); err != nil {
		fatal("%v", err)
	}
	if *confOut != "" {
		var w io.Writer = os.Stdout
		if *confOut != "-" {
			f, err := os.Create(*confOut)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := machine.Save(w, spec); err != nil {
			fatal("%v", err)
		}
		return
	}

	cjobs := buildJobs(*workload, *traceFile, *smt, spec, *warmup, *measure)
	if *refLoop {
		// Instrumented jobs opt out of keyed reuse (store/cache), so a
		// reference-loop run always simulates — exactly what the CI
		// equivalence gate wants.
		for i := range cjobs {
			cjobs[i].Instrument = func(cfg *sim.Config) { cfg.ReferenceLoop = true }
		}
	}
	pol, err := cf.Policy(*measure)
	if err != nil {
		fatal("%v", err)
	}
	if pol != nil {
		for i := range cjobs {
			// Sampling needs a single workload-described stream: trace-file
			// jobs (NewThreads) and SMT pairs must simulate in full.
			if cjobs[i].NewThreads != nil || len(cjobs[i].Workloads) != 1 {
				fatal("-sample requires single-workload jobs (no -trace, no -smt)")
			}
			cjobs[i].Sampling = pol
		}
	}
	if cf.DryRun {
		for _, j := range cjobs {
			fmt.Println(j.Describe())
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c, err := cf.Start("morrigansim", *measure)
	if err != nil {
		c.Close()
		fatal("%v", err)
	}
	defer c.Close()
	if c.Telemetry != nil {
		c.Telemetry.Config = telemetry.Config{Interval: *interval, EventBuffer: *events}
	}
	campaignResults, err := runner.Run(ctx, cjobs, c.Options(*warmup+*measure))
	c.Record.Add(campaignResults)

	for i, res := range campaignResults {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "morrigansim: %s: %v\n", res.Job.Workload, res.Err)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		printStats(res.Job.Workload, pfLabel, res.Stats)
		if o := res.Sampling; o != nil {
			fmt.Printf("sampled         %d/%d intervals timed (%d instr timed, %d fast-forwarded)\n",
				o.Slices, o.Intervals, o.TimedInstructions, o.FastForwarded)
			fmt.Printf("ci95            IPC ±%.4f, iSTLB MPKI ±%.4f, dSTLB MPKI ±%.4f\n",
				o.CI95.IPC, o.CI95.ISTLBMPKI, o.CI95.DSTLBMPKI)
		}
		if res.Reused != "" {
			fmt.Printf("reused          %s\n", res.Reused)
		}
		if res.TelemetryPath != "" {
			fmt.Printf("telemetry       %s\n", res.TelemetryPath)
		}
	}
	if ferr := c.Finish(ctx); ferr != nil {
		c.Close()
		fatal("%v", ferr)
	}
	if err != nil {
		c.Close()
		os.Exit(1)
	}
}

// specFromFlags assembles the declarative machine spec the flags describe:
// the Table 1 machine with the named iSTLB and I-cache prefetchers and the
// geometry overrides applied. Unknown prefetcher names fail immediately,
// before any simulation launches.
func specFromFlags(pf, icachePf string, perfect, p2tlb, asap, icacheTLB bool, stlb, pb int) machine.Spec {
	spec := machine.Default()
	spec.PerfectISTLB = perfect
	spec.PrefetchIntoSTLB = p2tlb
	spec.Walker.ASAP = asap
	spec.STLBEntries = stlb
	spec.PBEntries = pb
	spec.ICacheTLBCost = icacheTLB

	switch pf {
	case "none":
	case "sp":
		spec.Prefetcher = machine.SP()
	case "asp":
		spec.Prefetcher = machine.ASP(440)
	case "dp":
		spec.Prefetcher = machine.DP(648)
	case "mp":
		spec.Prefetcher = machine.MP(128, 4)
	case "mp2inf":
		spec.Prefetcher = machine.UnboundedMP(2)
	case "mpinf":
		spec.Prefetcher = machine.UnboundedMP(0)
	case "morrigan":
		spec.Prefetcher = machine.Morrigan(core.DefaultConfig())
	case "morrigan2x":
		spec.Prefetcher = machine.Morrigan(core.ScaledConfig(2))
	case "mono":
		spec.Prefetcher = machine.Morrigan(core.MonoConfig())
	default:
		fatal("unknown prefetcher %q", pf)
	}

	switch icachePf {
	case "nextline":
	case "fnlmma":
		spec.ICachePrefetcher = machine.FNLMMA()
	case "epi":
		spec.ICachePrefetcher = machine.EPI()
	case "djolt":
		spec.ICachePrefetcher = machine.DJolt()
	default:
		fatal("unknown I-cache prefetcher %q", icachePf)
	}
	return spec
}

// buildJobs enumerates one campaign job per requested workload (or one for
// the trace file), optionally colocating the -smt workload on every run.
// Workload jobs are pure data — machine spec plus workload specs — so they
// carry the canonical identity -results keys on (corpus feeding, when
// enabled, rides runner.Options.NewReader). The -trace job streams records
// from a file the workload vocabulary cannot describe, so it uses the
// NewThreads escape hatch and always executes; its SMT sibling, if any, runs
// from the live generator.
func buildJobs(workload, traceFile, smt string, spec machine.Spec, warmup, measure uint64) []runner.Job {
	var smtSpecs []workloads.Spec
	if smt != "" {
		w, ok := workloads.ByName(smt)
		if !ok {
			fatal("unknown SMT workload %q", smt)
		}
		smtSpecs = []workloads.Spec{w}
	}
	label := func(name string) string {
		if smt != "" {
			return name + "+" + smt
		}
		return name
	}
	if traceFile != "" {
		return []runner.Job{{
			Workload: label(traceFile),
			Machine:  spec,
			Warmup:   warmup, Measure: measure,
			NewThreads: func() []sim.ThreadSpec {
				f, err := os.Open(traceFile)
				if err != nil {
					fatal("%v", err)
				}
				r, err := trace.NewFileReader(f)
				if err != nil {
					fatal("%v", err)
				}
				out := []sim.ThreadSpec{{Reader: r}}
				for i, w := range smtSpecs {
					out = append(out, sim.ThreadSpec{Reader: w.NewReader(), VAOffset: runner.SMTVAOffset * arch.VAddr(i+1)})
				}
				return out
			},
		}}
	}
	var jobs []runner.Job
	for _, name := range strings.Split(workload, ",") {
		name = strings.TrimSpace(name)
		w, ok := workloads.ByName(name)
		if !ok {
			fatal("unknown workload %q (use -list)", name)
		}
		jobs = append(jobs, runner.Job{
			Workload:  label(name),
			Machine:   spec,
			Workloads: append([]workloads.Spec{w}, smtSpecs...),
			Warmup:    warmup, Measure: measure,
		})
	}
	return jobs
}

func printStats(label, pf string, st sim.Stats) {
	fmt.Printf("workload        %s\n", label)
	fmt.Printf("prefetcher      %s\n", pf)
	fmt.Printf("instructions    %d\n", st.Instructions)
	fmt.Printf("cycles          %d\n", st.Cycles)
	fmt.Printf("IPC             %.3f\n", st.IPC)
	fmt.Printf("L1I MPKI        %.3f\n", st.L1IMPKI)
	fmt.Printf("I-TLB MPKI      %.3f\n", st.ITLBMPKI)
	fmt.Printf("iSTLB MPKI      %.3f\n", st.ISTLBMPKI)
	fmt.Printf("dSTLB MPKI      %.3f\n", st.DSTLBMPKI)
	fmt.Printf("translation %%   %.2f%%\n", st.TranslationCyclePct)
	fmt.Printf("iSTLB misses    %d (PB hits %d)\n", st.ISTLBMisses, st.PBHits)
	fmt.Printf("demand iWalks   %d (refs %d, avg lat %.1f)\n", st.DemandIWalks, st.DemandIWalkRefs, st.AvgIWalkLatency)
	fmt.Printf("demand dWalks   %d (refs %d, avg lat %.1f)\n", st.DemandDWalks, st.DemandDWalkRefs, st.AvgDWalkLatency)
	fmt.Printf("prefetch walks  %d (refs %d, dropped %d)\n", st.PrefetchWalks, st.PrefetchRefs, st.DroppedWalks)
	fmt.Printf("refs per walk   %.2f\n", st.RefsPerWalk)
	fmt.Printf("PSC hit rate    %.3f\n", st.PSCHitRate)
	if st.PrefetchesIssued > 0 {
		fmt.Printf("prefetches      %d issued, %d discarded, %d free PTEs\n",
			st.PrefetchesIssued, st.PrefetchesDiscarded, st.FreePTEsInstalled)
	}
	if st.IRIPHits+st.SDPHits > 0 {
		fmt.Printf("module hits     IRIP %d, SDP %d\n", st.IRIPHits, st.SDPHits)
	}
	if st.ICacheXPagePrefetches > 0 {
		fmt.Printf("icache x-page   %d prefetches, %d walks, %d PB hits\n",
			st.ICacheXPagePrefetches, st.ICacheXPageWalks, st.ICachePBHits)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "morrigansim: "+format+"\n", args...)
	os.Exit(1)
}
