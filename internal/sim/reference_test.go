package sim

import (
	"fmt"
	"io"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/icache"
	"morrigan/internal/tlbprefetch"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// This file is the test reference the production run loop and the
// devirtualized prefetcher dispatch are checked against. It shares neither:
// records are read one at a time straight from each thread's reader (no
// record buffer, no block slicing), and the prefetchers are hidden behind
// wrappers the dispatch switch cannot resolve, so every call takes the
// interface path.

// ifacePrefetcher hides an iSTLB prefetcher's concrete type, forcing
// pfIface dispatch. It forwards the optional ResetStats and IRIPHits/SDPHits
// methods the dispatch probes for.
type ifacePrefetcher struct{ tlbprefetch.Prefetcher }

func (w ifacePrefetcher) ResetStats() {
	if m, ok := w.Prefetcher.(interface{ ResetStats() }); ok {
		m.ResetStats()
	}
}

func (w ifacePrefetcher) IRIPHits() uint64 {
	if m, ok := w.Prefetcher.(interface{ IRIPHits() uint64 }); ok {
		return m.IRIPHits()
	}
	return 0
}

func (w ifacePrefetcher) SDPHits() uint64 {
	if m, ok := w.Prefetcher.(interface{ SDPHits() uint64 }); ok {
		return m.SDPHits()
	}
	return 0
}

// ifaceICache hides an I-cache prefetcher's concrete type, forcing icIface
// dispatch.
type ifaceICache struct{ icache.Prefetcher }

// referenceRun mirrors RunContext — warmup, stats reset, measure — driving
// the simulator through the per-record reference loop. cfg's prefetchers are
// wrapped for interface dispatch; nil ones become their explicit defaults.
func referenceRun(t *testing.T, cfg Config, threads []ThreadSpec, warmup, measure uint64) Stats {
	t.Helper()
	if cfg.Prefetcher == nil {
		cfg.Prefetcher = tlbprefetch.None{}
	}
	if cfg.ICachePrefetcher == nil {
		cfg.ICachePrefetcher = icache.NextLine{}
	}
	cfg.Prefetcher = ifacePrefetcher{cfg.Prefetcher}
	cfg.ICachePrefetcher = ifaceICache{cfg.ICachePrefetcher}
	s := mustNew(t, cfg, threads)
	if pf, ic := s.Devirtualized(); pf || ic {
		t.Fatalf("reference simulator devirtualized: pf=%v icache=%v", pf, ic)
	}
	if err := perRecordLoop(s, warmup); err != nil {
		t.Fatal(err)
	}
	s.resetStats()
	if err := perRecordLoop(s, measure); err != nil {
		t.Fatal(err)
	}
	return s.Snapshot()
}

// perRecordLoop steps n instructions one record at a time, rotating threads
// in SMTBlock-sized groups from thread 0, and stops early when every trace
// has ended.
func perRecordLoop(s *Simulator, n uint64) error {
	var rec trace.Record
	ti := 0
	for executed := uint64(0); executed < n && !s.allDone(); ti = (ti + 1) % len(s.threads) {
		th := s.threads[ti]
		for b := 0; b < s.cfg.SMTBlock && !th.done && executed < n; b++ {
			switch err := th.reader.Next(&rec); {
			case err == io.EOF:
				th.done = true
			case err != nil:
				return err
			default:
				s.step(arch.ThreadID(ti), th, &rec)
				executed++
			}
		}
	}
	return nil
}

// productionRun runs cfg through the production Run and requires the
// prefetcher call sites to have devirtualized.
func productionRun(t *testing.T, cfg Config, threads []ThreadSpec, warmup, measure uint64) Stats {
	t.Helper()
	s := mustNew(t, cfg, threads)
	if pf, ic := s.Devirtualized(); !pf || !ic {
		t.Fatalf("production simulator not devirtualized: pf=%v icache=%v", pf, ic)
	}
	st, err := s.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireMatchesReference runs the configuration mk builds (fresh prefetcher
// instances per call) on the workloads threads builds, through production
// and through the reference, and requires bit-identical Stats.
func requireMatchesReference(t *testing.T, mk func() Config, threads func() []ThreadSpec, warmup, measure uint64) {
	t.Helper()
	prod := productionRun(t, mk(), threads(), warmup, measure)
	ref := referenceRun(t, mk(), threads(), warmup, measure)
	if prod != ref {
		t.Fatalf("production diverged from the per-record reference:\nproduction: %+v\nreference:  %+v", prod, ref)
	}
}

// qmmThreads returns a function that makes n threads running consecutive QMM
// workloads from index first, each in its own 2^40-byte address window.
func qmmThreads(first, n int) func() []ThreadSpec {
	return func() []ThreadSpec {
		qmm := workloads.QMM()
		var ts []ThreadSpec
		for i := 0; i < n; i++ {
			ts = append(ts, ThreadSpec{
				Reader:   qmm[(first+i)%len(qmm)].NewReader(),
				VAOffset: arch.VAddr(i) << 40,
			})
		}
		return ts
	}
}

// TestPerRecordReferenceAcrossKinds runs every iSTLB prefetcher × I-cache
// prefetcher × page-table kind against the reference, with page-crossing
// I-cache translation cost enabled whenever a non-baseline I-cache
// prefetcher is in play so the TokenICache PB path is exercised too.
func TestPerRecordReferenceAcrossKinds(t *testing.T) {
	for pfK := uint8(0); pfK < 7; pfK++ {
		for icK := uint8(0); icK < 4; icK++ {
			for pt := PageTableRadix4; pt <= PageTableHashed; pt++ {
				t.Run(fmt.Sprintf("pf%d/ic%d/%v", pfK, icK, pt), func(t *testing.T) {
					requireMatchesReference(t, func() Config {
						cfg := DefaultConfig()
						cfg.Prefetcher = fuzzPrefetcher(pfK)
						cfg.ICachePrefetcher = fuzzICache(icK)
						cfg.ICacheTLBCost = icK != 0
						cfg.PageTable = pt
						return cfg
					}, qmmThreads(3, 1), 2_000, 10_000)
				})
			}
		}
	}
}

// TestPerRecordReferenceStressShapes covers the run-loop shapes the kind
// matrix holds fixed: SMT colocation, context switches, correcting walks,
// huge data pages and prefetch-into-STLB.
func TestPerRecordReferenceStressShapes(t *testing.T) {
	morrigan := func(mut func(*Config)) func() Config {
		return func() Config {
			cfg := DefaultConfig()
			cfg.Prefetcher = fuzzPrefetcher(6)
			mut(&cfg)
			return cfg
		}
	}
	shapes := []struct {
		name    string
		cfg     func() Config
		threads int
	}{
		{"smt-morrigan", morrigan(func(*Config) {}), 2},
		{"smt-4way-block3", morrigan(func(c *Config) { c.SMTBlock = 3 }), 4},
		{"context-switches", morrigan(func(c *Config) { c.ContextSwitchInterval = 3_000 }), 1},
		{"correcting-walks", morrigan(func(c *Config) { c.CorrectingWalks = true }), 1},
		{"huge-data-pages", func() Config {
			cfg := DefaultConfig()
			cfg.Prefetcher = fuzzPrefetcher(1)
			cfg.HugeDataPages = true
			return cfg
		}, 1},
		{"prefetch-into-stlb", morrigan(func(c *Config) { c.PrefetchIntoSTLB = true }), 1},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			requireMatchesReference(t, sh.cfg, qmmThreads(1, sh.threads), 3_000, 15_000)
		})
	}
}

// TestPerRecordReferenceTraceEnd runs past the end of finite traces of
// different lengths: the production loop must retire exactly the records the
// reference does and rotate the surviving thread identically.
func TestPerRecordReferenceTraceEnd(t *testing.T) {
	a, err := trace.Slice(workloads.QMM()[1].NewReader(), 7_003)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.Slice(workloads.QMM()[2].NewReader(), 12_345)
	if err != nil {
		t.Fatal(err)
	}
	threads := func() []ThreadSpec {
		return []ThreadSpec{
			{Reader: &trace.SliceReader{Records: a}},
			{Reader: &trace.SliceReader{Records: b}, VAOffset: 1 << 40},
		}
	}
	requireMatchesReference(t, func() Config {
		cfg := DefaultConfig()
		cfg.Prefetcher = fuzzPrefetcher(6)
		return cfg
	}, threads, 5_000, 50_000)
}
