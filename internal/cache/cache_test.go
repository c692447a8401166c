package cache

import (
	"testing"
	"testing/quick"

	"morrigan/internal/arch"
)

// contains reports whether the line is resident, changing nothing.
func (c *Cache) contains(lineAddr uint64) bool {
	_, hit := c.find(lineAddr)
	return hit
}

// insert fills the line through find and fill, refreshing it if present,
// and returns the line it evicted.
func (c *Cache) insert(lineAddr uint64) (evicted uint64, wasEviction bool) {
	way, hit := c.find(lineAddr)
	if k := c.set(lineAddr)[way]; !hit && k != 0 {
		evicted, wasEviction = k-1, true
	}
	c.fill(lineAddr, way)
	return evicted, wasEviction
}

// servedTotal sums the stream's accesses over every serving level.
func servedTotal(h *Hierarchy, kind Kind) uint64 {
	var n uint64
	for l := range arch.NumLevels {
		n += h.Served(kind, arch.Level(l))
	}
	return n
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache("t", 4, 2)
	if c.access(0x100) {
		t.Fatal("cold cache hit")
	}
	c.insert(0x100)
	if !c.access(0x100) {
		t.Fatal("miss after insert")
	}
	if c.Accesses() != 2 || c.Misses() != 1 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 1, 2) // one set, two ways
	c.insert(1)
	c.insert(2)
	c.access(1) // promote 1; 2 becomes LRU
	evicted, was := c.insert(3)
	if !was || evicted != 2 {
		t.Fatalf("evicted %d (eviction=%v), want 2", evicted, was)
	}
	if !c.contains(1) || !c.contains(3) || c.contains(2) {
		t.Fatal("wrong contents after eviction")
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := NewCache("t", 1, 2)
	c.insert(1)
	c.insert(2)
	c.insert(1) // refresh, not duplicate
	if _, was := c.insert(3); !was {
		t.Fatal("expected eviction")
	}
	if c.contains(2) {
		t.Fatal("2 should have been the LRU victim after 1 was refreshed")
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := NewCache("t", 4, 1)
	// Addresses differing in set bits don't evict each other.
	c.insert(0)
	c.insert(1)
	c.insert(2)
	c.insert(3)
	for i := uint64(0); i < 4; i++ {
		if !c.contains(i) {
			t.Fatalf("line %d missing", i)
		}
	}
	// Same set (stride 4) does evict.
	c.insert(4)
	if c.contains(0) {
		t.Fatal("line 0 should be evicted by line 4")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {3, 2}, {-4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", bad)
				}
			}()
			NewCache("bad", bad[0], bad[1])
		}()
	}
}

func TestCacheContentsNeverExceedCapacity(t *testing.T) {
	c := NewCache("t", 2, 2)
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			c.insert(uint64(a))
		}
		// Count resident lines by probing everything inserted.
		resident := 0
		seen := map[uint64]bool{}
		for _, a := range addrs {
			la := uint64(a)
			if !seen[la] && c.contains(la) {
				resident++
			}
			seen[la] = true
		}
		return resident <= c.sets*c.ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatenciesAndLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2StridePrefetch = false
	h := NewHierarchy(cfg)
	addr := arch.PAddr(0x10000)

	r := h.Access(KindLoad, addr)
	if r.Level != arch.LevelDRAM {
		t.Fatalf("cold access level = %v", r.Level)
	}
	wantDRAM := cfg.L1Latency + cfg.L2Latency + cfg.LLCLatency + cfg.DRAMLatency
	if r.Latency != wantDRAM {
		t.Fatalf("DRAM latency = %d, want %d", r.Latency, wantDRAM)
	}

	r = h.Access(KindLoad, addr)
	if r.Level != arch.LevelL1 || r.Latency != cfg.L1Latency {
		t.Fatalf("second access: %+v", r)
	}
	if h.Served(KindLoad, arch.LevelDRAM) != 1 || h.Served(KindLoad, arch.LevelL1) != 1 {
		t.Fatal("served counters wrong")
	}
	if n := servedTotal(h, KindLoad); n != 2 {
		t.Fatalf("served total = %d", n)
	}
}

func TestHierarchyFetchUsesL1I(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2StridePrefetch = false
	h := NewHierarchy(cfg)
	addr := arch.PAddr(0x40000)
	h.Access(KindFetch, addr)
	if !h.L1I.contains(addr.Line()) {
		t.Fatal("fetch did not fill L1I")
	}
	if h.L1D.contains(addr.Line()) {
		t.Fatal("fetch filled L1D")
	}
	// A data access to the same line finds it in L2 (shared), not L1D.
	r := h.Access(KindLoad, addr)
	if r.Level != arch.LevelL2 {
		t.Fatalf("load after fetch served by %v, want L2", r.Level)
	}
}

func TestHierarchyPTWPathAndStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2StridePrefetch = false
	h := NewHierarchy(cfg)
	addr := arch.PAddr(0x99000)
	h.Access(KindPTWDemand, addr)
	if h.Served(KindPTWDemand, arch.LevelDRAM) != 1 {
		t.Fatal("demand walk ref not counted")
	}
	r := h.Access(KindPTWPrefetch, addr)
	if r.Level != arch.LevelL1 {
		t.Fatalf("walker should reuse L1D-cached PTE line, got %v", r.Level)
	}
	if h.Served(KindPTWPrefetch, arch.LevelL1) != 1 {
		t.Fatal("prefetch walk ref not counted")
	}
}

func TestPrefetchInto(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2StridePrefetch = false
	h := NewHierarchy(cfg)
	addr := arch.PAddr(0x123440)
	h.PrefetchInto(arch.LevelL2, addr)
	if !h.L2.contains(addr.Line()) || !h.LLC.contains(addr.Line()) {
		t.Fatal("prefetch did not fill L2+LLC")
	}
	if h.L1I.contains(addr.Line()) {
		t.Fatal("L2 prefetch must not fill L1I")
	}
	h.PrefetchInto(arch.LevelL1, arch.PAddr(0x555000))
	if !h.L1I.contains(arch.PAddr(0x555000).Line()) {
		t.Fatal("L1 prefetch did not fill L1I")
	}
	if !h.L2.contains(addr.Line()) && !h.LLC.contains(addr.Line()) {
		t.Fatal("the L2+LLC should still hold the prefetched line")
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Access(KindLoad, 0x1000)
	h.ResetStats()
	if servedTotal(h, KindLoad) != 0 || h.L1D.Accesses() != 0 {
		t.Fatal("stats not cleared")
	}
	// Contents survive the reset.
	if r := h.Access(KindLoad, 0x1000); r.Level != arch.LevelL1 {
		t.Fatalf("contents lost on ResetStats: %v", r.Level)
	}
}

func TestStridePrefetcherDetectsStride(t *testing.T) {
	p := newStridePrefetcher(16)
	base := arch.PAddr(0x7000_0000)
	var fired bool
	for i := 0; i < 6; i++ {
		addr := base + arch.PAddr(i*arch.LineSize)
		if next, ok := p.observe(addr); ok {
			fired = true
			want := addr + arch.LineSize
			if next.Line() != want.Line() {
				t.Fatalf("prefetch %#x, want %#x", next, want)
			}
		}
	}
	if !fired {
		t.Fatal("stride never detected")
	}
	// Random pattern should not fire.
	p2 := newStridePrefetcher(16)
	addrs := []arch.PAddr{0x1000, 0x9000, 0x2000, 0xF000, 0x3000}
	for _, a := range addrs {
		if _, ok := p2.observe(a); ok {
			t.Fatal("prefetch fired on random pattern")
		}
	}
}

func TestStridePrefetcherCapacityReset(t *testing.T) {
	p := newStridePrefetcher(4)
	for i := 0; i < 100; i++ {
		p.observe(arch.PAddr(i) << arch.PageShift << 4) // distinct pages
	}
	if p.n > 4 {
		t.Fatalf("live entries = %d, cap 4", p.n)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindFetch: "fetch", KindLoad: "load", KindStore: "store",
		KindPTWDemand: "ptw-demand", KindPTWPrefetch: "ptw-prefetch",
		KindPrefetch: "prefetch", Kind(99): "invalid",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
