package cache

import (
	"testing"

	"morrigan/internal/arch"
)

// BenchmarkHierarchyAccess measures one Access on the Table 1 hierarchy at
// the two ends of the hot path: a fetch loop that always hits the L1I, and
// a data stream that misses every level and fills all three.
func BenchmarkHierarchyAccess(b *testing.B) {
	b.Run("l1-fetch-hits", func(b *testing.B) {
		h := NewHierarchy(DefaultConfig())
		const lines = 256 // 16 KB, half the L1I
		for i := range lines {
			h.Access(KindFetch, arch.PAddr(i<<arch.LineShift))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(KindFetch, arch.PAddr(i%lines<<arch.LineShift))
		}
		b.StopTimer()
		if n := h.Served(KindFetch, arch.LevelL1); n < uint64(b.N) {
			b.Fatalf("L1 served %d of %d timed fetches", n, b.N)
		}
	})
	b.Run("stream-misses", func(b *testing.B) {
		cfg := DefaultConfig()
		h := NewHierarchy(cfg)
		// Four times the LLC's lines, cycled in LRU order, so no level
		// ever hits. The stride is a page plus a line: every access
		// lands in a new page, so the L2 stride prefetcher never
		// confirms a stride, and an odd line stride walks every set.
		lines := 4 * cfg.LLCSets * cfg.LLCWays
		const stride = arch.PageSize + arch.LineSize
		for i := 0; i < b.N; i++ {
			h.Access(KindLoad, arch.PAddr(i%lines*stride))
		}
		if n := h.Served(KindLoad, arch.LevelDRAM); n != uint64(b.N) {
			b.Fatalf("DRAM served %d of %d streamed loads", n, b.N)
		}
	})
}
