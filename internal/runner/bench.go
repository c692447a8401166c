package runner

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"

	"morrigan/internal/spans"
)

// BenchSchemaVersion identifies the BENCH_*.json throughput-summary schema.
const BenchSchemaVersion = 1

// Bench is the campaign throughput summary stamped into BENCH_*.json files:
// the perf-trajectory artifact that makes simulation speed comparable across
// machines, worker counts and PRs. It aggregates the per-job throughput
// accounting (Result.InstrPerSec) into campaign-level figures plus a
// per-workload breakdown.
type Bench struct {
	// Schema is BenchSchemaVersion at emission time.
	Schema int `json:"schema"`
	// GoMaxProcs and NumCPU describe the machine the numbers came from.
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Jobs and Failed count campaign jobs; failed jobs still contribute
	// their partial instruction counts and elapsed time.
	Jobs   int `json:"jobs"`
	Failed int `json:"failed"`
	// ReusedJobs counts jobs served from the result cache or result store
	// instead of simulating — the campaign's dedup win. Always
	// emitted, so a sweep that should have deduplicated but did not shows
	// an explicit zero.
	ReusedJobs int `json:"reused_jobs"`
	// SampledJobs counts jobs executed in sampled mode; their instruction
	// counts cover only timing-simulated work, so sampled-mode throughput
	// figures are not comparable to full-run ones job-for-job.
	SampledJobs int `json:"sampled_jobs"`
	// TotalInstructions is the sum of every job's executed instructions
	// (warmup included).
	TotalInstructions uint64 `json:"total_instructions"`
	// TotalElapsedMS is the sum of per-job wall-clock times — CPU-seconds of
	// simulation, not campaign wall time, so it is worker-count independent.
	TotalElapsedMS float64 `json:"total_elapsed_ms"`
	// InstrPerSec is the aggregate per-core simulation throughput:
	// TotalInstructions over TotalElapsed.
	InstrPerSec float64 `json:"instr_per_sec"`
	// PeakHeapBytes is the largest per-job heap high-water mark.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Entries break throughput down per job, in deterministic key order.
	Entries []BenchEntry `json:"entries"`
	// TraceSupply, when present, records how job instruction streams were fed
	// (corpus store + shared decode-cache accounting instead of live
	// generation). Set by the caller after the campaign; nil for
	// generator-backed runs.
	TraceSupply *TraceSupply `json:"trace_supply,omitempty"`
	// Phases, when present, is the campaign's per-phase wall-clock breakdown
	// aggregated from the distributed-tracing span stream (internal/spans):
	// where the campaign's CPU-seconds actually went — lookups, corpus
	// ingest, fast-forward, timed simulation, persistence. Set by the caller
	// after the campaign when tracing was enabled; nil otherwise.
	Phases []spans.PhaseTotal `json:"phases,omitempty"`
}

// TraceSupply summarises a campaign's corpus-backed trace supply: where the
// containers live and what the shared decoded-chunk LRU did across all jobs.
// CacheDecodes < CacheGets is the amortisation win — chunks decoded once and
// served to multiple jobs.
type TraceSupply struct {
	CorpusDir      string `json:"corpus_dir"`
	CacheGets      uint64 `json:"cache_gets"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheDecodes   uint64 `json:"cache_decodes"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// ResidentBytes is the decoded-record memory still cached at snapshot time.
	ResidentBytes int64 `json:"resident_bytes"`
}

// BenchEntry is one job's line in the throughput summary.
type BenchEntry struct {
	// Key is the job's "experiment/config/workload" identity.
	Key string `json:"key"`
	// Instructions, ElapsedMS and InstrPerSec echo the job's accounting.
	Instructions uint64  `json:"instructions"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	InstrPerSec  float64 `json:"instr_per_sec"`
	// IPC is the job's simulated IPC (zero for failed jobs).
	IPC float64 `json:"ipc"`
	// Failed marks jobs that did not complete.
	Failed bool `json:"failed,omitempty"`
}

// NewBench summarises a campaign's records into the throughput artifact.
func NewBench(c Campaign) Bench {
	b := Bench{
		Schema:     BenchSchemaVersion,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Jobs:       len(c.Records),
	}
	for _, r := range c.Records {
		key := recordKey(r)
		e := BenchEntry{
			Key:          key,
			Instructions: r.SimInstructions,
			ElapsedMS:    r.ElapsedMS,
			InstrPerSec:  r.InstrPerSec,
			Failed:       r.Error != "",
		}
		if r.Stats != nil {
			e.IPC = r.Stats.IPC
		}
		if e.Failed {
			b.Failed++
		}
		if r.Reused != "" {
			b.ReusedJobs++
		}
		if r.Sampling != nil {
			b.SampledJobs++
		}
		b.TotalInstructions += r.SimInstructions
		b.TotalElapsedMS += r.ElapsedMS
		b.PeakHeapBytes = max(b.PeakHeapBytes, r.PeakHeapBytes)
		b.Entries = append(b.Entries, e)
	}
	sort.SliceStable(b.Entries, func(i, j int) bool { return b.Entries[i].Key < b.Entries[j].Key })
	if b.TotalElapsedMS > 0 {
		b.InstrPerSec = float64(b.TotalInstructions) / (b.TotalElapsedMS / 1000)
	}
	return b
}

// recordKey is a record's "experiment/config/workload" identity, eliding
// empty parts — the same shape Job.Name produces.
func recordKey(r Record) string {
	return Job{Experiment: r.Experiment, Config: r.Config, Workload: r.Workload}.Name()
}

// WriteJSON emits the summary as indented JSON.
func (b Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
