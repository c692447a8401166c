package machine

import (
	"fmt"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/core"
	"morrigan/internal/icache"
	"morrigan/internal/sim"
	"morrigan/internal/tlbprefetch"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// batchedKindMatrix enumerates every prefetcher, I-cache prefetcher and
// page-table kind a Spec can name. The equivalence suite runs the full cross
// product.
var (
	batchedPFSpecs = []struct {
		name string
		spec func() PrefetcherSpec
	}{
		{"none", func() PrefetcherSpec { return PrefetcherSpec{} }},
		{"sp", SP},
		{"asp", func() PrefetcherSpec { return ASP(256) }},
		{"dp", func() PrefetcherSpec { return DP(256) }},
		{"mp", func() PrefetcherSpec { return MP(128, 4) }},
		{"mp-unbounded", func() PrefetcherSpec { return UnboundedMP(2) }},
		{"morrigan", func() PrefetcherSpec { return Morrigan(core.DefaultConfig()) }},
	}
	batchedICSpecs = []struct {
		name string
		spec func() ICacheSpec
	}{
		{"next-line", func() ICacheSpec { return ICacheSpec{} }},
		{"fnl-mma", FNLMMA},
		{"epi", EPI},
		{"djolt", DJolt},
	}
	batchedPTKinds = []string{"radix-4", "radix-5", "hashed"}
)

// ifacePrefetcher hides a spec-built iSTLB prefetcher's concrete type so the
// simulator cannot devirtualize it, forwarding the optional ResetStats and
// IRIPHits/SDPHits methods the interface path probes for.
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

// ifaceICache hides a spec-built I-cache prefetcher's concrete type.
type ifaceICache struct{ icache.Prefetcher }

// onePerFill hides a reader's bulk interface so every record reaches the run
// loop through its own Next call.
type onePerFill struct{ r trace.Reader }

func (p onePerFill) Next(rec *trace.Record) error { return p.r.Next(rec) }

// runSpecPair builds the spec twice (fresh prefetcher instances each time)
// and runs the same threads twice: as built, where every prefetcher a Spec
// can name must devirtualize, and as the reference — prefetchers wrapped for
// interface dispatch, records supplied one Next call at a time. The
// simulator package checks the run loop itself against a per-record test
// reference; this pins the spec-built parameterizations.
func runSpecPair(t *testing.T, s Spec, threads func() []sim.ThreadSpec, warmup, measure uint64) (production, reference sim.Stats) {
	t.Helper()
	run := func(ref bool) sim.Stats {
		cfg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		ts := threads()
		if ref {
			if cfg.Prefetcher == nil {
				cfg.Prefetcher = tlbprefetch.None{}
			}
			if cfg.ICachePrefetcher == nil {
				cfg.ICachePrefetcher = icache.NextLine{}
			}
			cfg.Prefetcher = ifacePrefetcher{cfg.Prefetcher}
			cfg.ICachePrefetcher = ifaceICache{cfg.ICachePrefetcher}
			for i := range ts {
				ts[i].Reader = onePerFill{ts[i].Reader}
			}
		}
		m, err := sim.New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		if pfOK, icOK := m.Devirtualized(); pfOK == ref || icOK == ref {
			t.Fatalf("reference=%v simulator: devirtualized pf=%v icache=%v", ref, pfOK, icOK)
		}
		st, err := m.Run(warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return run(false), run(true)
}

// qmmThreads returns a function that makes n threads running consecutive QMM
// workloads from index first, each in its own 2^40-byte address window.
func qmmThreads(first, n int) func() []sim.ThreadSpec {
	return func() []sim.ThreadSpec {
		var ts []sim.ThreadSpec
		for i := 0; i < n; i++ {
			ts = append(ts, sim.ThreadSpec{
				Reader:   workloads.QMM()[first+i].NewReader(),
				VAOffset: arch.VAddr(i) << 40,
			})
		}
		return ts
	}
}

// TestBatchedEquivalenceAcrossKinds asserts that for every prefetcher ×
// I-cache prefetcher × page-table kind a machine.Spec can describe, the
// production simulator devirtualizes both prefetcher call sites and produces
// Stats bit-identical to the interface-dispatched reference.
// Page-crossing I-cache translation cost is enabled so the TokenICache PB
// path is exercised too.
func TestBatchedEquivalenceAcrossKinds(t *testing.T) {
	for _, pf := range batchedPFSpecs {
		for _, ic := range batchedICSpecs {
			for _, pt := range batchedPTKinds {
				name := fmt.Sprintf("%s/%s/%s", pf.name, ic.name, pt)
				t.Run(name, func(t *testing.T) {
					s := Default()
					s.Prefetcher = pf.spec()
					s.ICachePrefetcher = ic.spec()
					s.PageTable = pt
					s.ICacheTLBCost = ic.name != "next-line"
					production, reference := runSpecPair(t, s, qmmThreads(3, 1), 2_000, 10_000)
					if production != reference {
						t.Fatalf("production diverged from reference:\nproduction: %+v\nreference:  %+v", production, reference)
					}
				})
			}
		}
	}
}

// TestBatchedEquivalenceStressShapes covers the run-loop shapes the kind
// matrix holds fixed: SMT colocation, context switches, correcting walks,
// huge data pages and prefetch-into-STLB, each against the reference.
func TestBatchedEquivalenceStressShapes(t *testing.T) {
	shapes := []struct {
		name    string
		spec    func() Spec
		threads int
	}{
		{"smt-morrigan", func() Spec {
			s := Default()
			s.Prefetcher = Morrigan(core.DefaultConfig())
			return s
		}, 2},
		{"context-switches", func() Spec {
			s := Default()
			s.Prefetcher = Morrigan(core.DefaultConfig())
			s.ContextSwitchInterval = 3_000
			return s
		}, 1},
		{"correcting-walks", func() Spec {
			s := Default()
			s.Prefetcher = Morrigan(core.DefaultConfig())
			s.CorrectingWalks = true
			return s
		}, 1},
		{"huge-data-pages", func() Spec {
			s := Default()
			s.Prefetcher = SP()
			s.HugeDataPages = true
			return s
		}, 1},
		{"prefetch-into-stlb", func() Spec {
			s := Default()
			s.Prefetcher = Morrigan(core.DefaultConfig())
			s.PrefetchIntoSTLB = true
			return s
		}, 1},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			production, reference := runSpecPair(t, sh.spec(), qmmThreads(1, sh.threads), 3_000, 15_000)
			if production != reference {
				t.Fatalf("production diverged from reference:\nproduction: %+v\nreference:  %+v", production, reference)
			}
		})
	}
}
