package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/spans"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

const (
	// workers matches the two CPUs the benchmark is sized for.
	workers = 2
	// cacheBytes bounds the shared decoded-chunk cache. Experiments run a
	// workload's jobs back to back, so a small budget still lets them share
	// decoded chunks, and peak memory stays far below the 512 MiB default.
	cacheBytes = 64 << 20
)

// bench is one set-up campaign, ready to run rounds.
type bench struct {
	campaign
	jobs []runner.Job
	// corpusDir holds the corpus built during set-up; empty when the jobs
	// read the live generators.
	corpusDir string
	records   uint64 // records per corpus container
	setupTime time.Duration
	buildTime time.Duration // corpus build part of setupTime
	log       io.Writer     // progress lines, or nil
}

// setUp enumerates the jobs and, for corpus-fed campaigns, builds a fresh
// corpus for them in dir.
func setUp(c campaign, seed int64, dir string) (*bench, error) {
	start := time.Now()
	jobs, err := c.enumerate(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{campaign: c, jobs: jobs}
	if c.corpus {
		b.corpusDir = dir
		b.records = c.opts.Warmup + c.opts.Measure
		st, err := tracestore.Open(tracestore.Options{Dir: dir, CacheBytes: cacheBytes})
		if err != nil {
			return nil, err
		}
		buildStart := time.Now()
		for _, w := range distinctSpecs(jobs) {
			if _, err := st.Materialize(w, b.records); err != nil {
				st.Close()
				return nil, fmt.Errorf("building corpus for %s: %w", w.Name, err)
			}
		}
		b.buildTime = time.Since(buildStart)
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	b.setupTime = time.Since(start)
	return b, nil
}

// setUpMedian repeats set-up c.setupReps times, each from an empty corpus
// directory under workdir, keeps the last set-up for the run and returns it
// with the median set-up and corpus build times.
func setUpMedian(c campaign, seed int64, workdir string) (*bench, error) {
	var setups, builds []float64
	var b *bench
	dir := filepath.Join(workdir, "corpus")
	for i := 0; i < c.setupReps; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if b, err = setUp(c, seed, dir); err != nil {
			return nil, err
		}
		setups = append(setups, b.setupTime.Seconds())
		builds = append(builds, b.buildTime.Seconds())
	}
	b.setupTime = time.Duration(median(setups) * float64(time.Second))
	b.buildTime = time.Duration(median(builds) * float64(time.Second))
	return b, nil
}

// hooks are the traced run's instruments; the zero value runs untraced.
type hooks struct {
	spans *spans.Recorder
	// wait accumulates time spent inside trace reader refills.
	wait *atomic.Int64
}

// window is the outcome of one timed measurement.
type window struct {
	rounds [][]runner.Result
	wall   time.Duration
	// decoded-chunk cache lookups and hits, summed over rounds
	cacheGets, cacheHits uint64
}

// represented counts the instructions one round represents: warmup plus
// measure of every job, whether it was simulated in full or sampled.
func (b *bench) represented() uint64 {
	var n uint64
	for _, j := range b.jobs {
		n += j.Warmup + j.Measure
	}
	return n
}

// measure runs whole campaign rounds for about seconds: at least one, and
// another only while it would end nearer to seconds than stopping now.
func (b *bench) measure(ctx context.Context, seconds float64, h hooks) (window, error) {
	var w window
	start := time.Now()
	for len(w.rounds) == 0 || nextRoundFits(time.Since(start).Seconds(), len(w.rounds), seconds) {
		res, cs, err := b.round(ctx, b.jobs, h, true)
		if err != nil {
			return w, err
		}
		w.rounds = append(w.rounds, res)
		if b.log != nil {
			fmt.Fprintf(b.log, "round %d done at %.3fs\n", len(w.rounds), time.Since(start).Seconds())
		}
		w.cacheGets += cs.Gets
		w.cacheHits += cs.Hits
	}
	w.wall = time.Since(start)
	return w, nil
}

// nextRoundFits reports whether, after rounds rounds in elapsed seconds,
// one more round of the mean length would end within half a round of the
// target.
func nextRoundFits(elapsed float64, rounds int, target float64) bool {
	return elapsed+elapsed/float64(rounds)/2 < target
}

// round runs jobs once as one campaign, the way a user runs an experiment:
// corpus-fed rounds open the store afresh, so each pays its own chunk
// decoding. Job failures are reported in the results, not as an error.
func (b *bench) round(ctx context.Context, jobs []runner.Job, h hooks, useCorpus bool) ([]runner.Result, tracestore.CacheStats, error) {
	opt := runner.Options{Workers: workers, Spans: h.spans}
	wrap := func(r trace.Reader) trace.Reader { return r }
	if h.wait != nil {
		wrap = func(r trace.Reader) trace.Reader { return newTimedReader(r, h.wait) }
	}
	var store *tracestore.Store
	if useCorpus && b.corpusDir != "" {
		var err error
		store, err = tracestore.Open(tracestore.Options{Dir: b.corpusDir, CacheBytes: cacheBytes})
		if err != nil {
			return nil, tracestore.CacheStats{}, err
		}
		defer store.Close()
		opt.NewReader = func(w workloads.Spec) (trace.Reader, error) {
			c, err := store.Materialize(w, b.records)
			if err != nil {
				return nil, err
			}
			return wrap(c.NewReader()), nil
		}
	} else if h.wait != nil {
		opt.NewReader = func(w workloads.Spec) (trace.Reader, error) { return wrap(w.NewReader()), nil }
	}
	res, err := runner.Run(ctx, jobs, opt)
	if err != nil && ctx.Err() != nil {
		return nil, tracestore.CacheStats{}, err
	}
	var cs tracestore.CacheStats
	if store != nil {
		cs = store.CacheStats()
	}
	return res, cs, nil
}

// timedReader adds the time spent refilling from the wrapped stream to a
// shared counter. It is itself a BatchReader: a source with a bulk path
// keeps it, and a per-record source is read in the same per-record loop
// trace.Fill would run, so the simulated stream does not change.
type timedReader struct {
	r    trace.Reader
	br   trace.BatchReader // nil when r has no bulk path
	wait *atomic.Int64
	err  error // per-record error held back until its preceding records are returned
}

func newTimedReader(r trace.Reader, wait *atomic.Int64) *timedReader {
	br, _ := r.(trace.BatchReader)
	return &timedReader{r: r, br: br, wait: wait}
}

func (t *timedReader) Next(rec *trace.Record) error {
	start := time.Now()
	err := t.r.Next(rec)
	t.wait.Add(int64(time.Since(start)))
	return err
}

func (t *timedReader) NextBatch(dst []trace.Record) (int, error) {
	start := time.Now()
	n, err := t.fill(dst)
	t.wait.Add(int64(time.Since(start)))
	return n, err
}

func (t *timedReader) fill(dst []trace.Record) (int, error) {
	if t.br != nil {
		return t.br.NextBatch(dst)
	}
	if t.err != nil {
		return 0, t.err
	}
	for i := range dst {
		if err := t.r.Next(&dst[i]); err != nil {
			if i == 0 {
				return 0, err
			}
			t.err = err
			return i, nil
		}
	}
	return len(dst), nil
}

// Close releases the wrapped stream; corpus readers pin decoded chunks
// until closed.
func (t *timedReader) Close() error {
	if c, ok := t.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}
