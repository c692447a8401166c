// Command tracegen materialises a synthetic workload into a replayable
// artifact: either a flat trace file (-o) that morrigansim and any
// trace.Reader consumer can execute, or a chunked corpus container inside a
// corpus store directory (-corpus) that simulations stream with parallel
// decode and cross-job chunk sharing.
//
// Examples:
//
//	tracegen -workload qmm-srv-07 -n 10000000 -o srv07.mgt.gz -compress
//	tracegen -workload qmm-srv-07 -n 10000000 -corpus corpus/
//	tracegen -workload qmm-srv-01 -n 2000000 -corpus corpus/ -bench BENCH_trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"morrigan/internal/runner"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "qmm-srv-01", "built-in workload name")
		params    = flag.String("params", "", "JSON file defining a custom workload (overrides -workload)")
		n         = flag.Uint64("n", 10_000_000, "instructions to emit")
		out       = flag.String("o", "", "output trace file (this or -corpus is required)")
		compress  = flag.Bool("compress", false, "gzip the trace (-o mode)")
		corpusDir = flag.String("corpus", "", "materialise into a corpus store directory instead of a flat trace file")
		chunkRecs = flag.Int("chunk-records", 0, "records per corpus chunk (0 = default 65536)")
		workers   = flag.Int("workers", 0, "parallel chunk encoders for corpus builds (0 = GOMAXPROCS)")
		benchOut  = flag.String("bench", "", "measure generator-vs-corpus read throughput and write a BENCH_*.json summary ('-' for stdout; requires -corpus)")
	)
	flag.Parse()
	if (*out == "") == (*corpusDir == "") {
		fatal("exactly one of -o and -corpus is required")
	}
	if *benchOut != "" && *corpusDir == "" {
		fatal("-bench requires -corpus")
	}
	var w workloads.Spec
	if *params != "" {
		pf, err := os.Open(*params)
		if err != nil {
			fatal("%v", err)
		}
		w, err = workloads.LoadSpec(pf)
		pf.Close()
		if err != nil {
			fatal("%v", err)
		}
	} else {
		var ok bool
		w, ok = workloads.ByName(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
	}

	if *corpusDir != "" {
		buildCorpus(w, *n, *corpusDir, *chunkRecs, *workers, *benchOut)
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, *compress)
	if err != nil {
		fatal("%v", err)
	}
	gen := w.NewReader()
	var rec trace.Record
	for i := uint64(0); i < *n; i++ {
		if err := gen.Next(&rec); err != nil {
			fatal("generating: %v", err)
		}
		if err := tw.Write(&rec); err != nil {
			fatal("writing: %v", err)
		}
	}
	if err := tw.Close(); err != nil {
		fatal("%v", err)
	}
	info, err := f.Stat()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %d instructions of %s to %s (%.1f MB, %.2f bytes/instr)\n",
		*n, w.Name, *out, float64(info.Size())/1e6, float64(info.Size())/float64(*n))
}

// buildCorpus materialises the workload into a corpus store and optionally
// benchmarks reading it back against live generation.
func buildCorpus(w workloads.Spec, n uint64, dir string, chunkRecs, workers int, benchOut string) {
	store, err := tracestore.Open(tracestore.Options{
		Dir:          dir,
		ChunkRecords: chunkRecs,
		BuildWorkers: workers,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer store.Close()
	start := time.Now()
	c, err := store.Materialize(w, n)
	if err != nil {
		fatal("%v", err)
	}
	elapsed := time.Since(start)
	entry, ok := store.Manifest().Entries[w.Hash()]
	if !ok {
		fatal("corpus for %s missing from manifest after build", w.Name)
	}
	size := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, entry.File)); err == nil {
		size = fi.Size()
	}
	fmt.Printf("materialised %d instructions of %s into %s (%d chunks of %d, %.1f MB, %.2f bytes/instr, %s)\n",
		c.Records(), w.Name, filepath.Join(dir, entry.File), c.Chunks(), c.ChunkRecords(),
		float64(size)/1e6, float64(size)/float64(c.Records()), elapsed.Round(time.Millisecond))

	if benchOut != "" {
		writeBench(benchOut, w, c, store)
	}
}

// writeBench times four full passes over the corpus's record stream — the
// live generator, a cold corpus read that pays the one-time chunk decode,
// then the corpus reader record-at-a-time and in batches against the now
// resident cache — and emits a BENCH_*.json summary whose per-entry rate is
// records (instructions) per second. The warm corpus entries are the
// artifact's headline: they are the regime campaign jobs run in, where the
// shared chunk cache has amortised decoding across jobs, and they must beat
// regenerating the trace live. The cold entry records what the first reader
// of each chunk pays.
func writeBench(path string, w workloads.Spec, c *tracestore.Corpus, store *tracestore.Store) {
	records := c.Records()
	b := runner.Bench{
		Schema:     runner.BenchSchemaVersion,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	add := func(key string, pass func() error) {
		start := time.Now()
		if err := pass(); err != nil {
			fatal("bench %s: %v", key, err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		e := runner.BenchEntry{
			Key:          key,
			Instructions: records,
			ElapsedMS:    ms,
		}
		if ms > 0 {
			e.InstrPerSec = float64(records) / (ms / 1000)
		}
		b.Jobs++
		b.TotalInstructions += records
		b.TotalElapsedMS += ms
		b.Entries = append(b.Entries, e)
	}
	var rec trace.Record
	add("trace/generator/"+w.Name, func() error {
		r := trace.Limit(w.NewReader(), records)
		for {
			if err := r.Next(&rec); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	drainBatches := func() error {
		r := c.NewReader()
		defer r.Close()
		buf := make([]trace.Record, 4096)
		for {
			if _, err := r.NextBatch(buf); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	add("trace/corpus-cold/"+w.Name, drainBatches)
	add("trace/corpus/"+w.Name, func() error {
		r := c.NewReader()
		defer r.Close()
		for {
			if err := r.Next(&rec); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	add("trace/corpus-batch/"+w.Name, drainBatches)
	if b.TotalElapsedMS > 0 {
		b.InstrPerSec = float64(b.TotalInstructions) / (b.TotalElapsedMS / 1000)
	}
	cs := store.CacheStats()
	b.TraceSupply = &runner.TraceSupply{
		CorpusDir:      store.Dir(),
		CacheGets:      cs.Gets,
		CacheHits:      cs.Hits,
		CacheDecodes:   cs.Decodes,
		CacheEvictions: cs.Evictions,
		ResidentBytes:  cs.ResidentBytes,
	}
	var out io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		out = f
	}
	if err := b.WriteJSON(out); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
