package sim

import (
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/icache"
	"morrigan/internal/tlbprefetch"
)

// fuzzPrefetcher constructs a fresh iSTLB prefetcher for kind index k.
func fuzzPrefetcher(k uint8) tlbprefetch.Prefetcher {
	switch k % 7 {
	case 1:
		return &tlbprefetch.SP{}
	case 2:
		return tlbprefetch.NewASP(128)
	case 3:
		return tlbprefetch.NewDP(128)
	case 4:
		return tlbprefetch.NewMP(64, 4)
	case 5:
		return tlbprefetch.NewUnboundedMP(2)
	case 6:
		return core.New(core.DefaultConfig())
	}
	return nil
}

// fuzzICache constructs a fresh I-cache prefetcher for kind index k.
func fuzzICache(k uint8) icache.Prefetcher {
	switch k % 4 {
	case 1:
		return icache.DefaultFNLMMA()
	case 2:
		return icache.DefaultEPI()
	case 3:
		return icache.DefaultDJolt()
	}
	return nil
}

// FuzzBatchedLoopEquivalence drives randomly shaped workloads and machine
// configurations through the production run loop and the per-record,
// interface-dispatched test reference (reference_test.go) and requires
// bit-identical Stats. The seed corpus covers every prefetcher, I-cache
// prefetcher and page-table kind, SMT, context switches and the
// page-crossing I-cache translation path, so a plain `go test` run already
// sweeps the production pipeline's interesting shapes.
func FuzzBatchedLoopEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(8_000), false, uint32(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint16(12_000), true, uint32(0))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(4), uint16(10_000), false, uint32(5_000))
	f.Add(uint8(3), uint8(3), uint8(0), uint8(6), uint16(9_000), true, uint32(0))
	f.Add(uint8(4), uint8(1), uint8(2), uint8(8), uint16(11_000), true, uint32(3_000))
	f.Add(uint8(5), uint8(2), uint8(1), uint8(10), uint16(7_000), false, uint32(0))
	f.Add(uint8(6), uint8(3), uint8(0), uint8(1), uint16(15_000), true, uint32(7_000))
	f.Add(uint8(6), uint8(0), uint8(0), uint8(3), uint16(20_000), false, uint32(0))
	f.Fuzz(func(t *testing.T, pfK, icK, ptK, wlK uint8, measure uint16, smt bool, ctxSwitch uint32) {
		n := uint64(measure)
		if n < 1_000 {
			n = 1_000
		}
		mk := func() Config {
			cfg := DefaultConfig()
			cfg.Prefetcher = fuzzPrefetcher(pfK)
			cfg.ICachePrefetcher = fuzzICache(icK)
			cfg.ICacheTLBCost = icK%4 != 0
			cfg.PageTable = PageTableKind(ptK % 3)
			cfg.ContextSwitchInterval = uint64(ctxSwitch)
			return cfg
		}
		threads := 1
		if smt {
			threads = 2
		}
		requireMatchesReference(t, mk, qmmThreads(int(wlK), threads), n/4, n)
	})
}
