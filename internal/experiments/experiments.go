// Package experiments reproduces every table and figure of the paper's
// evaluation on the synthetic QMM-like workload suite. Each experiment
// returns a Table that cmd/experiments renders and EXPERIMENTS.md records;
// bench_test.go wraps each one in a testing.B benchmark.
//
// Every experiment enumerates its simulations as independent jobs and hands
// them to the internal/runner campaign orchestrator, which fans them out
// over a worker pool (Options.Jobs) and returns results in job order —
// aggregation therefore sees exactly the sequence a serial run would, and
// table output is byte-identical at any worker count.
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator and synthetic traces, not ChampSim on the Qualcomm
// traces — but each experiment preserves the paper's comparison structure:
// who is compared against whom, at what storage budget, and which metric is
// reported. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"morrigan/internal/arch"
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/spans"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// Options scales an experiment run.
type Options struct {
	// Warmup and Measure are instructions per simulation, mirroring the
	// paper's 50M/100M methodology at a laptop-friendly scale.
	Warmup, Measure uint64
	// MaxWorkloads limits how many QMM workloads run (0 = all 45).
	MaxWorkloads int
	// SMTPairs is the number of colocation pairs for Figure 20.
	SMTPairs int
	// Jobs bounds how many simulations run concurrently (0 = GOMAXPROCS;
	// 1 reproduces serial execution exactly). Results are merged in
	// deterministic job order either way, so rendered tables are identical
	// at any setting.
	Jobs int
	// Progress, when non-nil, receives one line per completed simulation
	// with campaign progress and an ETA.
	Progress io.Writer
	// Context, when non-nil, cancels in-flight campaigns early.
	Context context.Context
	// Record, when non-nil, collects every simulation result for
	// machine-readable JSON/CSV emission (see internal/runner).
	Record *runner.Recorder
	// Telemetry, when non-nil, attaches a telemetry probe to every
	// simulation and writes one JSONL file per job into Telemetry.Dir
	// (see internal/telemetry). Rendered tables are unaffected.
	Telemetry *runner.TelemetryOptions
	// Observer, when non-nil, receives campaign lifecycle notifications for
	// every campaign an experiment launches (see internal/obs for the HTTP
	// observability server built on it). Rendered tables are unaffected.
	Observer runner.Observer
	// Corpus, when non-nil, feeds simulations from materialised trace
	// containers instead of stepping generators live: each workload is built
	// once (on first use), and concurrent jobs on the same workload share
	// decoded chunks through the store's cache. Stats are bit-identical to
	// generator-backed runs — the container stores the exact generator
	// output — so rendered tables do not change.
	Corpus *tracestore.Store
	// Cache, when non-nil, is shared across every campaign the experiments
	// launch, so jobs with identical (machine, workloads, scale) identities
	// — e.g. the baseline column repeated by many figures at the same
	// Options scale — simulate exactly once. Rendered tables are unaffected.
	Cache *runner.ResultCache
	// Store, when non-nil, is the durable cross-run result layer: jobs whose
	// keys it already holds are served without simulating, and completed
	// jobs are persisted into it (see runner.ResultStore and
	// internal/resultstore). Rendered tables are unaffected — stored stats
	// are the original run's, bit for bit — so rerunning a killed campaign
	// on the same store resumes it.
	Store runner.ResultStore
	// Remote, when non-nil, delegates keyed jobs to fabric workers instead
	// of simulating them locally (see runner.RemoteExecutor and
	// internal/fabric). Rendered tables are byte-identical to local runs at
	// any worker count — jobs are merged in deterministic order and
	// simulation is deterministic.
	Remote runner.RemoteExecutor
	// DryRun, when non-nil, prints each campaign's enumerated jobs (one
	// runner.Job.Describe line each) to it instead of simulating. Every
	// result is zero-valued, so rendered tables are meaningless — dry runs
	// are for inspecting what a campaign would simulate (keys, spec hashes,
	// scale) and what a warm store or fabric would be asked for.
	DryRun io.Writer
	// Sampling, when non-nil, runs eligible jobs — single-workload,
	// non-instrumented — in representative-interval sampling mode (see
	// internal/sampling): profile, cluster, simulate only representative
	// slices, and extrapolate. Rendered tables then carry estimates with
	// 95% confidence intervals rather than exact measurements; SMT pairs
	// and instrumented jobs always simulate in full. Sampled jobs key
	// differently from full runs, so a store never serves one mode's
	// results for the other.
	Sampling *sampling.Policy
	// Profiles, when non-nil, caches sampling profile artifacts on disk so
	// repeated sampled campaigns skip the functional profiling pass (see
	// sampling.ProfileStore). Only consulted when Sampling is set.
	Profiles *sampling.ProfileStore
	// Spans, when non-nil, records every job's lifecycle phases as trace
	// spans (see internal/spans and runner.Options.Spans). Purely
	// observational: rendered tables are bit-identical with or without it.
	Spans *spans.Recorder
}

// DefaultOptions runs every workload at a scale that finishes in minutes on
// one core.
func DefaultOptions() Options {
	return Options{Warmup: 500_000, Measure: 2_000_000, SMTPairs: 20}
}

// QuickOptions is a reduced scale for benchmarks and smoke tests.
func QuickOptions() Options {
	return Options{Warmup: 100_000, Measure: 500_000, MaxWorkloads: 6, SMTPairs: 4}
}

// FullOptions approaches the paper's methodology (slow on one core).
func FullOptions() Options {
	return Options{Warmup: 2_000_000, Measure: 10_000_000, SMTPairs: 50}
}

// qmm returns the (possibly truncated) QMM workload list. When truncating,
// it samples across the suite so footprints still span the full range.
func (o Options) qmm() []workloads.Spec {
	all := workloads.QMM()
	if o.MaxWorkloads <= 0 || o.MaxWorkloads >= len(all) {
		return all
	}
	if o.MaxWorkloads == 1 {
		// One workload: take the first. The sampling formula below would
		// divide by zero (step = +Inf, 0*Inf = NaN, int(NaN) out of range).
		return all[:1]
	}
	out := make([]workloads.Spec, 0, o.MaxWorkloads)
	step := float64(len(all)-1) / float64(o.MaxWorkloads-1)
	for i := 0; i < o.MaxWorkloads; i++ {
		out = append(out, all[int(float64(i)*step+0.5)])
	}
	return out
}

// simJob is one enumerated simulation of an experiment campaign.
type simJob struct {
	// config labels the machine configuration under test ("baseline",
	// a contender name, ...).
	config string
	// specs holds one workload, or two for an SMT colocation pair.
	specs []workloads.Spec
	// machine describes the configuration under test as data; the runner
	// builds it (fresh prefetcher state and all) on the worker goroutine.
	machine machine.Spec
	// instrument, when set, mutates the built config before the run — used
	// by the miss-stream characterisation figures. Instrumented jobs are
	// excluded from reuse identity (see runner.Job.Key).
	instrument func(*sim.Config)
}

// job enumerates a single-threaded simulation.
func job(config string, w workloads.Spec, m machine.Spec) simJob {
	return simJob{config: config, specs: []workloads.Spec{w}, machine: m}
}

// pairJob enumerates an SMT colocation simulation. The second workload's
// address space is offset so the two behave as distinct processes.
func pairJob(config string, a, b workloads.Spec, m machine.Spec) simJob {
	return simJob{config: config, specs: []workloads.Spec{a, b}, machine: m}
}

// mixJob enumerates an N-way colocation simulation: every workload in the
// mix runs as its own hardware thread with a distinct address-space offset.
func mixJob(config string, mix []workloads.Spec, m machine.Spec) simJob {
	return simJob{config: config, specs: mix, machine: m}
}

// baseline is the no-prefetching Table 1 configuration.
func baseline() machine.Spec { return machine.Default() }

// campaign runs the jobs through the campaign orchestrator and returns their
// stats in job order. Aggregation code consuming the returned slice in
// enumeration order therefore produces output identical to a serial run.
func (o Options) campaign(experiment string, jobs []simJob) ([]sim.Stats, error) {
	rjobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		name := j.specs[0].Name
		for _, s := range j.specs[1:] {
			name += "+" + s.Name
		}
		rjobs[i] = runner.Job{
			Experiment: experiment,
			Config:     j.config,
			Workload:   name,
			Machine:    j.machine,
			Workloads:  j.specs,
			Warmup:     o.Warmup,
			Measure:    o.Measure,
			Instrument: j.instrument,
		}
		// Sampling applies only to jobs the runner can sample: one
		// workload-described instruction stream with no instrumentation
		// hook (a reused slice would have silently skipped the hook's
		// side effects, and SMT pairs need both streams timed).
		if o.Sampling != nil && len(j.specs) == 1 && j.instrument == nil {
			rjobs[i].Sampling = o.Sampling
		}
	}
	if o.DryRun != nil {
		for _, rj := range rjobs {
			fmt.Fprintln(o.DryRun, rj.Describe())
		}
		return make([]sim.Stats, len(rjobs)), nil
	}
	ropt := runner.Options{
		Workers:   o.Jobs,
		Progress:  runner.WriterProgress(o.Progress),
		Telemetry: o.Telemetry,
		Observer:  o.Observer,
		Cache:     o.Cache,
		Store:     o.Store,
		Remote:    o.Remote,
		Profiles:  o.Profiles,
		Spans:     o.Spans,
	}
	if o.Corpus != nil {
		ropt.NewReader = func(w workloads.Spec) (trace.Reader, error) {
			c, err := o.Corpus.Materialize(w, o.Warmup+o.Measure)
			if err != nil {
				return nil, fmt.Errorf("experiments: materialising corpus for %s: %w", w.Name, err)
			}
			return c.NewReader(), nil
		}
	}
	results, err := runner.Run(o.Context, rjobs, ropt)
	if o.Record != nil {
		o.Record.Add(results)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sts := make([]sim.Stats, len(results))
	for i := range results {
		sts[i] = results[i].Stats
	}
	return sts, nil
}

// missStreams runs one baseline simulation per spec, capturing each run's
// iSTLB miss stream; streams and stats are returned in spec order. Each
// stream slice is written only by its own job's worker and read only after
// the campaign completes. The capture hook rides the runner's Instrument
// escape hatch, which also excludes these jobs from checkpoint/reuse — a
// reused result would have silently skipped the capture.
func (o Options) missStreams(experiment string, specs []workloads.Spec) ([][]uint64, []sim.Stats, error) {
	streams := make([][]uint64, len(specs))
	jobs := make([]simJob, len(specs))
	for i, w := range specs {
		i := i
		jobs[i] = job("baseline", w, baseline())
		jobs[i].instrument = func(cfg *sim.Config) {
			cfg.OnISTLBMiss = func(_ arch.ThreadID, vpn arch.VPN) {
				streams[i] = append(streams[i], uint64(vpn))
			}
		}
	}
	sts, err := o.campaign(experiment, jobs)
	if err != nil {
		return nil, nil, err
	}
	return streams, sts, nil
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "fig15").
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the measurements.
	Rows [][]string
	// Notes carry paper-vs-measured commentary.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// pct formats a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Registry maps experiment IDs to their implementations.
var Registry = map[string]func(Options) (*Table, error){
	"table1":        Table1,
	"fig2":          Fig2,
	"fig3":          Fig3,
	"fig4":          Fig4,
	"fig5":          Fig5,
	"fig6":          Fig6,
	"fig7":          Fig7,
	"fig8":          Fig8,
	"fig9":          Fig9,
	"fig10":         Fig10,
	"fig13":         Fig13,
	"fig14":         Fig14,
	"sec613":        Sec613,
	"fig15":         Fig15,
	"fig16":         Fig16,
	"fig17":         Fig17,
	"fig18":         Fig18,
	"fig19":         Fig19,
	"fig20":         Fig20,
	"ablations":     Ablations,
	"pagetables":    PageTables,
	"contextswitch": ContextSwitch,
	"hugepages":     HugePages,
	"icacheselect":  ICacheSelection,
	"colocation":    Colocation,
}

// Run regenerates one of the paper's tables or figures by its ID.
func Run(id string, o Options) (*Table, error) {
	fn, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
	}
	return fn(o)
}

// Order lists the experiments in paper order.
var Order = []string{
	"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig13", "fig14", "sec613", "fig15", "fig16",
	"fig17", "fig18", "fig19", "fig20", "ablations", "pagetables",
	"contextswitch", "hugepages", "icacheselect", "colocation",
}
