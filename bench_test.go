// Benchmarks regenerating each of the paper's tables and figures at a
// reduced (benchmark-friendly) scale, plus microbenchmarks of the core
// components. Run the full-scale experiments with cmd/experiments.
package morrigan_test

import (
	"strconv"
	"strings"
	"testing"

	"morrigan"
	"morrigan/internal/experiments"
	"morrigan/internal/telemetry"
)

// benchExperiment runs one experiment at quick scale per iteration and
// reports the first numeric cell of the last row as a metric when present.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := experiments.QuickOptions()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	if tab != nil && len(tab.Rows) > 0 {
		last := tab.Rows[len(tab.Rows)-1]
		for _, cell := range last[1:] {
			v, perr := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if perr == nil {
				b.ReportMetric(v, "result")
				break
			}
		}
	}
}

// One benchmark per reproduced table/figure (see DESIGN.md experiment
// index).

func BenchmarkTable1Baseline(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig2JavaMPKI(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkFig3FrontEndMPKI(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4TranslationCycles(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5DeltaCDF(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6PageSkew(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7Successors(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8SuccessorProb(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9DSTLBPrefetchers(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10ICachePrefetch(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig13CoverageBudget(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14Replacement(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkSec613PBSize(b *testing.B)          { benchExperiment(b, "sec613") }
func BenchmarkFig15ISOComparison(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16WalkReferences(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17Mono(b *testing.B)             { benchExperiment(b, "fig17") }
func BenchmarkFig18OtherApproaches(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19Synergy(b *testing.B)          { benchExperiment(b, "fig19") }
func BenchmarkFig20SMT(b *testing.B)              { benchExperiment(b, "fig20") }
func BenchmarkAblations(b *testing.B)             { benchExperiment(b, "ablations") }
func BenchmarkPageTables(b *testing.B)            { benchExperiment(b, "pagetables") }
func BenchmarkContextSwitch(b *testing.B)         { benchExperiment(b, "contextswitch") }
func BenchmarkHugePages(b *testing.B)             { benchExperiment(b, "hugepages") }
func BenchmarkICacheSelection(b *testing.B)       { benchExperiment(b, "icacheselect") }

// Component microbenchmarks.

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second with Morrigan attached.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := morrigan.QMMWorkloads()[10]
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(100_000, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := s.Run(0, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N), "instructions")
}

// BenchmarkSimulatorTelemetry is BenchmarkSimulatorThroughput with a
// telemetry probe attached — comparing the two bounds the observability
// overhead on the enabled path (the disabled path is a nil check).
func BenchmarkSimulatorTelemetry(b *testing.B) {
	w := morrigan.QMMWorkloads()[10]
	cfg := morrigan.DefaultConfig()
	cfg.Prefetcher = morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	cfg.Probe = telemetry.NewProbe(telemetry.DefaultConfig())
	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(100_000, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := s.Run(0, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N), "instructions")
}

// BenchmarkTraceGeneration measures synthetic trace production speed.
func BenchmarkTraceGeneration(b *testing.B) {
	gen := morrigan.NewServerTrace(morrigan.QMMWorkloads()[0].Params)
	var rec morrigan.TraceRecord
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.Next(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMorriganOnMiss measures the prefetcher's per-miss cost on a
// recorded miss stream.
func BenchmarkMorriganOnMiss(b *testing.B) {
	m := morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
	// A synthetic miss stream with warm-page structure.
	stream := make([]morrigan.VPN, 4096)
	for i := range stream {
		stream[i] = morrigan.VPN(0x400 + (i*37)%600)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := stream[i%len(stream)]
		m.OnMiss(0, 0, vpn)
	}
}

// BenchmarkTraceFileWrite measures trace serialisation throughput.
func BenchmarkTraceFileWrite(b *testing.B) {
	gen := morrigan.NewServerTrace(morrigan.QMMWorkloads()[0].Params)
	recs := make([]morrigan.TraceRecord, 10000)
	for i := range recs {
		if err := gen.Next(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	w, err := morrigan.NewTraceWriter(discard{}, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
