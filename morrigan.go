// Package morrigan is a from-scratch reproduction of "Morrigan: A Composite
// Instruction TLB Prefetcher" (Vavouliotis, Alvarez, Grot, Jiménez, Casas —
// MICRO 2021). It provides:
//
//   - the Morrigan prefetcher itself: the IRIP ensemble of table-based
//     Markov prefetchers with the RLFU replacement policy, plus the Small
//     Delta Prefetcher (SDP), both exploiting page table locality;
//   - every baseline the paper compares against: the Sequential, Arbitrary
//     Stride, Distance and Markov dSTLB prefetchers, idealized unbounded
//     Markov variants, ASAP-style walk acceleration, prefetching directly
//     into the STLB, enlarged STLBs, and an FNL+MMA-style instruction cache
//     prefetcher;
//   - the simulation substrate they need: a trace-driven timing simulator
//     with an x86-64 radix page table, page-structure caches, a page table
//     walker, multi-level TLBs, a cache hierarchy and an interval-analysis
//     core model with SMT colocation support;
//   - a synthetic server-workload generator calibrated to the paper's
//     measured iSTLB miss-stream properties, a binary trace file format,
//     and the 45-workload "QMM-like" evaluation suite.
//
// The campaign machinery that regenerates the paper's tables and figures
// (experiments, result stores, trace corpora, sampling, the distributed
// fabric and the job service) is not part of this package: it lives under
// internal/ and is driven by the commands in cmd/ (see DESIGN.md and
// EXPERIMENTS.md).
//
// # Quick start
//
//	w, _ := morrigan.WorkloadByName("qmm-srv-07")
//	cfg := morrigan.DefaultConfig()
//	cfg.Prefetcher = morrigan.NewMorrigan(morrigan.DefaultPrefetcherConfig())
//	s, err := morrigan.NewSimulator(cfg, []morrigan.ThreadSpec{{Reader: w.NewReader()}})
//	if err != nil { ... }
//	stats, err := s.Run(1_000_000, 5_000_000) // warmup, measure
//	fmt.Println(stats.IPC, stats.ISTLBMPKI, stats.PBHits)
//
// The package root re-exports the simulation library's stable surface; the
// implementation lives under internal/.
package morrigan

import (
	"io"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/icache"
	"morrigan/internal/sim"
	"morrigan/internal/tlbprefetch"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// Architectural types.
type (
	// VPN is a virtual page number.
	VPN = arch.VPN
	// VAddr is a virtual address.
	VAddr = arch.VAddr
	// ThreadID identifies a hardware (SMT) thread.
	ThreadID = arch.ThreadID
	// Cycle is a simulation timestamp in core clock cycles.
	Cycle = arch.Cycle
)

// Simulator types.
type (
	// Config describes one simulated machine (Table 1 of the paper).
	Config = sim.Config
	// Stats is the measurement snapshot of a simulation interval.
	Stats = sim.Stats
	// Simulator drives instruction traces through the simulated machine.
	Simulator = sim.Simulator
	// ThreadSpec binds a hardware thread to an instruction stream.
	ThreadSpec = sim.ThreadSpec
	// PageTableKind selects the page-table organisation (Section 4.3).
	PageTableKind = sim.PageTableKind
)

// Page table organisations.
const (
	// PageTableRadix4 is the default x86-64 4-level radix tree.
	PageTableRadix4 = sim.PageTableRadix4
	// PageTableRadix5 adds the PML5 level (5-level paging).
	PageTableRadix5 = sim.PageTableRadix5
	// PageTableHashed is a clustered hashed page table.
	PageTableHashed = sim.PageTableHashed
)

// Prefetcher types.
type (
	// Prefetcher is the STLB prefetch engine interface.
	Prefetcher = tlbprefetch.Prefetcher
	// Request is one prefetch candidate.
	Request = tlbprefetch.Request
	// MorriganPrefetcher is the paper's composite prefetcher (IRIP + SDP).
	MorriganPrefetcher = core.Morrigan
	// PrefetcherConfig parameterises Morrigan.
	PrefetcherConfig = core.Config
	// TableConfig sizes one IRIP prediction table.
	TableConfig = core.TableConfig
	// Policy selects the prediction tables' replacement policy.
	Policy = core.Policy
)

// Replacement policies for the IRIP prediction tables.
const (
	PolicyRLFU   = core.PolicyRLFU
	PolicyLFU    = core.PolicyLFU
	PolicyLRU    = core.PolicyLRU
	PolicyRandom = core.PolicyRandom
)

// Workload and trace types.
type (
	// Workload names a benchmark and its generator parameters.
	Workload = workloads.Spec
	// TraceReader produces instruction records.
	TraceReader = trace.Reader
	// TraceRecord is one executed instruction.
	TraceRecord = trace.Record
	// TraceParams configures the synthetic server-workload generator.
	TraceParams = trace.ServerParams
)

// DefaultConfig returns the paper's Table 1 system configuration with no
// STLB prefetching and a next-line I-cache prefetcher.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewSimulator builds a simulator over one or two threads.
func NewSimulator(cfg Config, threads []ThreadSpec) (*Simulator, error) {
	return sim.New(cfg, threads)
}

// NewMorrigan builds the composite prefetcher from cfg.
func NewMorrigan(cfg PrefetcherConfig) *MorriganPrefetcher { return core.New(cfg) }

// DefaultPrefetcherConfig returns the paper's selected 3.76 KB Morrigan
// configuration (Section 6.1.3).
func DefaultPrefetcherConfig() PrefetcherConfig { return core.DefaultConfig() }

// MonoPrefetcherConfig returns the single-table Morrigan-mono ablation of
// Section 6.3.
func MonoPrefetcherConfig() PrefetcherConfig { return core.MonoConfig() }

// ScaledPrefetcherConfig scales the default table sizes by factor (the
// storage-budget sweeps of Figures 13/14 and the SMT doubling of Section
// 6.6).
func ScaledPrefetcherConfig(factor float64) PrefetcherConfig { return core.ScaledConfig(factor) }

// Baseline dSTLB prefetchers (Section 2.1).

// NewSP returns the Sequential Prefetcher.
func NewSP() Prefetcher { return &tlbprefetch.SP{} }

// NewASP returns the Arbitrary Stride Prefetcher with the given table size.
func NewASP(entries int) Prefetcher { return tlbprefetch.NewASP(entries) }

// NewDP returns the Distance Prefetcher with the given table size.
func NewDP(entries int) Prefetcher { return tlbprefetch.NewDP(entries) }

// NewMP returns the Markov Prefetcher with the given geometry.
func NewMP(entries, ways int) Prefetcher { return tlbprefetch.NewMP(entries, ways) }

// NewUnboundedMP returns the Section 3.4 idealization; maxSucc <= 0 means
// unlimited successors per entry.
func NewUnboundedMP(maxSucc int) Prefetcher { return tlbprefetch.NewUnboundedMP(maxSucc) }

// I-cache prefetchers (Sections 3.5 and 6.5).
type (
	// ICachePrefetcher produces instruction-cache prefetch candidates.
	ICachePrefetcher = icache.Prefetcher
)

// NewNextLinePrefetcher returns the baseline next-line I-cache prefetcher,
// which never crosses page boundaries.
func NewNextLinePrefetcher() ICachePrefetcher { return icache.NextLine{} }

// NewFNLMMA returns the FNL+MMA-style page-crossing I-cache prefetcher (the
// IPC-1 winner the paper carries into Sections 6.5/6.6).
func NewFNLMMA() ICachePrefetcher { return icache.DefaultFNLMMA() }

// NewEPI returns the entangling-style I-cache prefetcher, one of the IPC-1
// top performers of the Section 3.5 selection study.
func NewEPI() ICachePrefetcher { return icache.DefaultEPI() }

// NewDJolt returns the D-Jolt-style I-cache prefetcher, one of the IPC-1
// top performers of the Section 3.5 selection study.
func NewDJolt() ICachePrefetcher { return icache.DefaultDJolt() }

// Workload suites (Section 5).

// QMMWorkloads returns the 45 QMM-like server workloads of the evaluation.
func QMMWorkloads() []Workload { return workloads.QMM() }

// SPECWorkloads returns the SPEC-CPU-like small-footprint workloads.
func SPECWorkloads() []Workload { return workloads.SPEC() }

// JavaWorkloads returns the Java-server-like workloads of Figure 2.
func JavaWorkloads() []Workload { return workloads.Java() }

// SMTWorkloadPairs draws n deterministic colocation pairs (Section 6.6).
func SMTWorkloadPairs(n int, seed int64) [][2]Workload { return workloads.SMTPairs(n, seed) }

// WorkloadByName finds a workload in any built-in suite.
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// NewServerTrace builds a synthetic server instruction stream from params;
// the stream is infinite and deterministic for a fixed seed.
func NewServerTrace(params TraceParams) TraceReader { return trace.NewServerGenerator(params) }

// Trace file I/O.

// NewTraceWriter serialises records to the binary trace format; Close must
// be called to flush. Set compress for gzip output.
func NewTraceWriter(w io.Writer, compress bool) (*trace.Writer, error) {
	return trace.NewWriter(w, compress)
}

// NewTraceFileReader decodes a trace file written by NewTraceWriter,
// transparently handling gzip.
func NewTraceFileReader(r io.Reader) (TraceReader, error) {
	return trace.NewFileReader(r)
}

// LimitTrace caps a trace at n records (it then reports io.EOF).
func LimitTrace(r TraceReader, n uint64) TraceReader { return trace.Limit(r, n) }
