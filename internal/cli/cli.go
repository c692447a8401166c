// Package cli is the campaign front end that cmd/morrigansim and
// cmd/experiments share: one registration of the campaign flags both
// commands take (Flags), and the one place that wires what those flags
// select — it opens the corpus, result and profile stores, builds the
// sampling policy, starts the -serve observability server and the -fabric
// coordinator, and writes the -json, -csv and -trace-out outputs.
// cmd/service takes the store flags (Stores) from here too.
//
// A command registers Flags, parses, calls Start, runs its campaign with
// the wired Options (or Apply for experiment options), then calls Finish
// and Close.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"morrigan/internal/experiments"
	"morrigan/internal/fabric"
	"morrigan/internal/obs"
	"morrigan/internal/profile"
	"morrigan/internal/resultstore"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/spans"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// Stores holds the durable-layer flags every campaign front end takes.
type Stores struct {
	Corpus   string
	CorpusMB int64
	Results  string
}

// Register adds -corpus, -corpus-cache-mb and -results to fs.
func (s *Stores) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Corpus, "corpus", "", "feed workloads from materialised trace corpora in this directory (built on first use)")
	fs.Int64Var(&s.CorpusMB, "corpus-cache-mb", 0, "decoded-chunk cache budget in MiB shared by all jobs (0 = default 512)")
	fs.StringVar(&s.Results, "results", "", "durable result store directory: reuse stored results across runs and persist new ones (rerunning a killed campaign on it resumes the campaign)")
}

// OpenCorpus opens the -corpus store; nil when the flag is unset.
func (s *Stores) OpenCorpus() (*tracestore.Store, error) {
	if s.Corpus == "" {
		return nil, nil
	}
	return tracestore.Open(tracestore.Options{Dir: s.Corpus, CacheBytes: s.CorpusMB << 20})
}

// OpenResults opens the -results store, announcing a non-empty one on
// stderr under prog; nil when the flag is unset.
func (s *Stores) OpenResults(prog string) (*resultstore.Store, error) {
	if s.Results == "" {
		return nil, nil
	}
	rs, err := resultstore.Open(s.Results)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if rs.Len() > 0 || rs.Skipped() > 0 {
		fmt.Fprintf(os.Stderr, "%s: result store holds %d reusable results (%d unverifiable skipped)\n",
			prog, rs.Len(), rs.Skipped())
	}
	return rs, nil
}

// Flags are the campaign flags cmd/morrigansim and cmd/experiments share.
type Flags struct {
	Stores
	Jobs                   int
	Verbose, DryRun        bool
	JSON, CSV, TraceOut    string
	Telemetry              string
	Serve, Fabric          string
	LeaseTTL               time.Duration
	Sample                 bool
	SampleInterval         uint64
	SampleClusters         int
	SampleWarmup           int64
	CPUProfile, MemProfile string
}

// Register adds the shared campaign flags to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.Stores.Register(fs)
	fs.IntVar(&f.Jobs, "jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&f.Verbose, "v", false, "print per-simulation progress with ETA")
	fs.BoolVar(&f.DryRun, "dry-run", false, "print enumerated jobs (key, machine and workload hashes, scale) without simulating")
	fs.StringVar(&f.JSON, "json", "", "write per-simulation results as JSON to a file ('-' for stdout)")
	fs.StringVar(&f.CSV, "csv", "", "write per-simulation results as CSV to a file ('-' for stdout)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a distributed trace of every job's lifecycle phases to this file (.jsonl for JSONL, otherwise Chrome trace-event JSON for Perfetto)")
	fs.StringVar(&f.Telemetry, "telemetry", "", "write per-simulation telemetry JSONL files into this directory")
	fs.StringVar(&f.Serve, "serve", "", "serve live observability HTTP on this address (e.g. :8080): /metrics, /campaign, /events, /healthz, /debug/pprof")
	fs.StringVar(&f.Fabric, "fabric", "", "serve a distributed-campaign coordinator on this address (e.g. :9090) and delegate jobs to fabric workers")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 0, "with -fabric: worker lease TTL before a silent worker's job is reassigned (0 = 30s)")
	fs.BoolVar(&f.Sample, "sample", false, "representative-interval sampling for eligible jobs: time only clustered representative slices and report extrapolated stats with 95% CIs")
	fs.Uint64Var(&f.SampleInterval, "sample-interval", 0, "sampling interval length in instructions (0 = default 100000; the measured window must be a multiple)")
	fs.IntVar(&f.SampleClusters, "sample-clusters", 0, "sampling cluster count / representative slices per run (0 = default 8)")
	fs.Int64Var(&f.SampleWarmup, "sample-warmup", -1, "timed slice warmup instructions before each representative (-1 = default 25000, 0 = none)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the campaign to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file when the campaign completes")
}

// Policy builds the -sample policy, validated against the measured window;
// nil without -sample.
func (f *Flags) Policy(measure uint64) (*sampling.Policy, error) {
	if !f.Sample {
		return nil, nil
	}
	p := sampling.DefaultPolicy()
	if f.SampleInterval != 0 {
		p.Interval = f.SampleInterval
	}
	if f.SampleClusters != 0 {
		p.Clusters = f.SampleClusters
	}
	if f.SampleWarmup >= 0 {
		p.SliceWarmup = uint64(f.SampleWarmup)
	}
	if err := p.Validate(measure); err != nil {
		return nil, err
	}
	return &p, nil
}

// Campaign is a campaign front end wired from Flags. Nil fields are layers
// the flags did not select.
type Campaign struct {
	Corpus    *tracestore.Store
	Results   *resultstore.Store
	Sampling  *sampling.Policy
	Profiles  *sampling.ProfileStore
	Spans     *spans.Recorder
	Observer  *obs.Server
	Remote    *fabric.Coordinator
	Telemetry *runner.TelemetryOptions
	// Record collects every result written to -json and -csv.
	Record runner.Recorder

	prog     string
	flags    *Flags
	stopProf func() error
}

// Start wires the campaign the flags select for a run measuring measure
// instructions per job; prog prefixes its stderr lines. Call Close when
// done, also after an error.
func (f *Flags) Start(prog string, measure uint64) (*Campaign, error) {
	c := &Campaign{prog: prog, flags: f, stopProf: func() error { return nil }}
	stop, err := profile.Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return c, err
	}
	c.stopProf = stop
	if c.Corpus, err = f.OpenCorpus(); err != nil {
		return c, err
	}
	if c.Sampling, err = f.Policy(measure); err != nil {
		return c, err
	}
	if c.Sampling != nil && c.Corpus != nil {
		// Profile artifacts live beside the trace corpus so repeated
		// sampled campaigns skip the functional profiling pass.
		if c.Profiles, err = sampling.OpenProfileStore(filepath.Join(f.Corpus, "profiles")); err != nil {
			return c, fmt.Errorf("profiles: %w", err)
		}
	}
	if c.Results, err = f.OpenResults(prog); err != nil {
		return c, err
	}
	if f.Telemetry != "" {
		c.Telemetry = &runner.TelemetryOptions{Dir: f.Telemetry}
	}
	if f.TraceOut != "" {
		c.Spans = spans.NewRecorder("")
	}
	if f.Serve != "" {
		c.Observer = obs.New()
		addr, err := c.Observer.Start(f.Serve)
		if err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: observability on http://%s/metrics\n", prog, addr)
		if c.Sampling != nil {
			c.Observer.AddGaugeSource(samplingGauges(c.Profiles))
		}
	}
	if f.Fabric != "" {
		c.Remote = fabric.NewCoordinator(fabric.CoordinatorOptions{
			LeaseTTL: f.LeaseTTL,
			Corpus:   c.Corpus,
			Log:      os.Stderr,
			Spans:    c.Spans,
		})
		addr, err := c.Remote.Start(f.Fabric)
		if err != nil {
			return c, fmt.Errorf("fabric: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: fabric coordinator on http://%s/fabric/status — start workers with: fabric work -coordinator http://%s\n", prog, addr, addr)
		if c.Observer != nil {
			c.Observer.AddGaugeSource(c.Remote.Gauges)
		}
	}
	return c, nil
}

// Options returns the runner options for a campaign whose jobs run window
// (warmup + measure) instructions each.
func (c *Campaign) Options(window uint64) runner.Options {
	opt := runner.Options{
		Workers:   c.flags.Jobs,
		Telemetry: c.Telemetry,
		Profiles:  c.Profiles,
		Spans:     c.Spans,
	}
	if c.flags.Verbose {
		opt.Progress = runner.WriterProgress(os.Stderr)
	}
	if c.Corpus != nil {
		opt.NewReader = func(w workloads.Spec) (trace.Reader, error) {
			cp, err := c.Corpus.Materialize(w, window)
			if err != nil {
				return nil, fmt.Errorf("corpus %s: %w", w.Name, err)
			}
			return cp.NewReader(), nil
		}
	}
	// Interfaces are set only from non-nil stores: a typed nil would read
	// as an attached layer.
	if c.Results != nil {
		opt.Store = c.Results
	}
	if c.Observer != nil {
		opt.Observer = c.Observer
	}
	if c.Remote != nil {
		opt.Remote = c.Remote
	}
	return opt
}

// Apply wires the campaign into experiment options.
func (c *Campaign) Apply(o *experiments.Options) {
	// The experiments size their own corpus readers (o.Corpus) to their
	// scale, so the window passed here is unused.
	ropt := c.Options(0)
	o.Jobs = ropt.Workers
	if c.flags.Verbose {
		o.Progress = os.Stderr
	}
	o.Record = &c.Record
	o.Telemetry, o.Profiles, o.Spans = ropt.Telemetry, ropt.Profiles, ropt.Spans
	o.Store, o.Observer, o.Remote = ropt.Store, ropt.Observer, ropt.Remote
	o.Corpus = c.Corpus
	o.Sampling = c.Sampling
	if c.flags.DryRun {
		o.DryRun = os.Stdout
	}
}

// Finish writes what the campaign produced — on an interrupted or failed
// campaign, every job that completed. When ctx was cancelled it first stops
// fabric lease grants and lets outstanding worker leases resolve, so their
// results and spans make it into the outputs.
func (c *Campaign) Finish(ctx context.Context) error {
	if c.Remote != nil && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted; draining outstanding fabric leases\n", c.prog)
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := c.Remote.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
		}
		cancel()
	}
	camp := c.Record.Campaign()
	if err := writeOut(c.flags.JSON, camp.WriteJSON); err != nil {
		return err
	}
	if err := writeOut(c.flags.CSV, camp.WriteCSV); err != nil {
		return err
	}
	if c.flags.TraceOut != "" {
		if err := spans.WriteFile(c.flags.TraceOut, c.Spans.Spans()); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d trace spans to %s\n", c.prog, c.Spans.Len(), c.flags.TraceOut)
	}
	return nil
}

// Close releases everything Start opened and flushes the profiles.
func (c *Campaign) Close() {
	if c.Remote != nil {
		c.Remote.Close()
	}
	if c.Observer != nil {
		c.Observer.Close()
	}
	if c.Corpus != nil {
		c.Corpus.Close()
	}
	if err := c.stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
	}
}

// writeOut emits to path ('-' for stdout); an empty path is a no-op.
func writeOut(path string, emit func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samplingGauges exposes the process's sampling counters (and, when a
// profile store is attached, its build/reuse counts) as /metrics gauges.
func samplingGauges(profiles *sampling.ProfileStore) func() []obs.Gauge {
	return func() []obs.Gauge {
		t := sampling.Totals()
		gs := []obs.Gauge{
			{Name: "morrigan_sampling_runs_total", Help: "Sampled simulations completed by this process.", Value: float64(t.SampledRuns)},
			{Name: "morrigan_sampling_timed_instructions_total", Help: "Instructions timing-simulated inside measured slices of sampled runs.", Value: float64(t.TimedInstructions)},
			{Name: "morrigan_sampling_fastforwarded_instructions_total", Help: "Instructions fast-forwarded functionally between slices of sampled runs.", Value: float64(t.FastForwarded)},
		}
		if profiles != nil {
			gs = append(gs,
				obs.Gauge{Name: "morrigan_sampling_profiles_built_total", Help: "Sampling profile artifacts built by this process.", Value: float64(profiles.Built())},
				obs.Gauge{Name: "morrigan_sampling_profiles_reused_total", Help: "Sampling profile requests served from the profile store (memory or disk).", Value: float64(profiles.Reused())},
			)
		}
		return gs
	}
}
