// Package cache models the processor's cache hierarchy: set-associative
// L1I/L1D/L2/LLC caches with LRU replacement and a fixed-latency DRAM behind
// them, per Table 1 of the paper.
//
// The model is functional-plus-latency: an access updates cache state (fills
// on miss at every level, LRU promotion on hit) and returns the total
// latency and the level that served the request. There is no bandwidth or
// MSHR-contention model; page-walker concurrency is modelled in the ptw
// package and core-visible overlap in the cpu package. What matters for the
// paper's results — where page-walk references are served, and how prefetch
// walks perturb cache contents — is captured.
//
// Cache state carries no timing, and the levels are distinct caches, so a
// level that misses can be filled in the same pass that probed it: the
// hierarchy scans each level's set at most once per access.
package cache

// Cache is one set-associative cache with LRU replacement, addressed by
// physical line number.
//
// Each set keeps its keys in recency order, most recent first, so the keys
// are the whole replacement state: there are no LRU stamps and no tick. A
// hit moves its way to the front; a fill shifts the ways in front of its
// slot down by one and writes the line at the front. The victim is the
// first invalid way or, in a full set, the last way. Valid ways always form
// a prefix of the set, since nothing invalidates a line, so a scan stops at
// the first invalid way. This gives exactly the victims per-way LRU stamps
// would: each probe or fill would stamp at most one valid way with a fresh
// tick, so valid ways never tie. A key is the line address plus one, with zero marking an
// invalid way — line addresses are physical-address bits above LineShift,
// so the +1 cannot wrap.
type Cache struct {
	name     string
	sets     int
	ways     int
	mask     uint64   // sets-1; sets is always a power of two
	keys     []uint64 // sets*ways, row-major by set, each set most recent first; lineAddr+1, 0 = invalid
	accesses uint64
	misses   uint64
}

// NewCache constructs a cache of the given geometry. Sets must be a power of
// two.
func NewCache(name string, sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("cache: geometry must be positive with power-of-two sets")
	}
	return &Cache{
		name: name,
		sets: sets,
		ways: ways,
		mask: uint64(sets - 1),
		keys: make([]uint64, sets*ways),
	}
}

// set returns the keys of the line's set, most recent first.
func (c *Cache) set(lineAddr uint64) []uint64 {
	base := (lineAddr & c.mask) * uint64(c.ways)
	return c.keys[base : base+uint64(c.ways)]
}

// find scans the line's set once, changing nothing. On a hit it returns the
// way holding the line; on a miss, the way a fill replaces: the first
// invalid way, or else the last (least recently used) way.
func (c *Cache) find(lineAddr uint64) (way int, hit bool) {
	keys := c.set(lineAddr)
	k := lineAddr + 1
	for i, key := range keys {
		if key == k {
			return i, true
		}
		if key == 0 {
			return i, false
		}
	}
	return len(keys) - 1, false
}

// access is the counted probe of a demand access. In the same pass over the
// set it moves a hit to the front, or on a miss fills the line at the front
// in place of the victim, and it reports whether the line hit.
func (c *Cache) access(lineAddr uint64) bool {
	c.accesses++
	if c.touch(lineAddr) {
		return true
	}
	c.misses++
	return false
}

// touch moves the line to the front of its set, filling it there if it is
// absent, in one pass that shifts each way it scans down by one, and
// reports whether the line was present. It does what find followed by fill
// of the way find returns does, fused into one loop: the hierarchy's hot
// path is mostly these calls, and the two-pass form costs about half as
// much again per hit or miss (BenchmarkHierarchyAccess).
func (c *Cache) touch(lineAddr uint64) bool {
	keys := c.set(lineAddr)
	k := lineAddr + 1
	carry := k
	for i, key := range keys {
		keys[i] = carry
		if key == k || key == 0 {
			return key == k
		}
		carry = key
	}
	return false
}

// fill writes the line at the front of its set, shifting ways 0..way-1 down
// by one. way is what find returned for the line, with the set unchanged
// since: the line's own way refreshes it, and a victim way drops the line
// it held.
func (c *Cache) fill(lineAddr uint64, way int) {
	// A plain loop, not copy: on 1-16 words a memmove call costs more than
	// the moves.
	keys := c.set(lineAddr)[:way+1]
	carry := lineAddr + 1
	for i, key := range keys {
		keys[i], carry = carry, key
	}
}

// Accesses returns the number of demand probes since the last ResetStats.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of demand probes that missed since the last
// ResetStats.
func (c *Cache) Misses() uint64 { return c.misses }

// ResetStats clears the access counters without touching contents (used at
// the warmup/measurement boundary).
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }
