package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"morrigan/internal/arch"
)

// lruModel is an independent model of one set-associative LRU cache: a map
// from line to list element, and per set a container/list ordered most
// recent first. It shares no code with Cache.
type lruModel struct {
	sets, ways       int
	order            []*list.List // per set; values are line addresses
	where            map[uint64]*list.Element
	accesses, misses uint64
}

func newLRUModel(sets, ways int) *lruModel {
	m := &lruModel{sets: sets, ways: ways, where: map[uint64]*list.Element{}}
	for range sets {
		m.order = append(m.order, list.New())
	}
	return m
}

func (m *lruModel) setOf(lineAddr uint64) *list.List {
	return m.order[lineAddr%uint64(m.sets)]
}

// Lookup counts an access and promotes the line on a hit.
func (m *lruModel) Lookup(lineAddr uint64) bool {
	m.accesses++
	if e, ok := m.where[lineAddr]; ok {
		m.setOf(lineAddr).MoveToFront(e)
		return true
	}
	m.misses++
	return false
}

// Contains reports residency without touching recency or counters.
func (m *lruModel) Contains(lineAddr uint64) bool {
	_, ok := m.where[lineAddr]
	return ok
}

// Insert refreshes a present line, or adds it and evicts the least recently
// used line of a full set.
func (m *lruModel) Insert(lineAddr uint64) (evicted uint64, wasEviction bool) {
	l := m.setOf(lineAddr)
	if e, ok := m.where[lineAddr]; ok {
		l.MoveToFront(e)
		return 0, false
	}
	if l.Len() == m.ways {
		evicted = l.Remove(l.Back()).(uint64)
		delete(m.where, evicted)
		wasEviction = true
	}
	m.where[lineAddr] = l.PushFront(lineAddr)
	return evicted, wasEviction
}

// contents returns set s's lines, most recent first.
func (m *lruModel) contents(s int) []uint64 {
	var out []uint64
	for e := m.order[s].Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(uint64))
	}
	return out
}

// contents returns set s's resident lines, most recent first.
func (c *Cache) contents(s int) []uint64 {
	var out []uint64
	for _, k := range c.keys[s*c.ways : (s+1)*c.ways] {
		if k != 0 {
			out = append(out, k-1)
		}
	}
	return out
}

// cacheOps are the operations the cache oracle drives, named for failures.
const (
	opAccess   = iota // counted probe that promotes a hit or fills a miss: Hierarchy.Access's use
	opContains        // uncounted probe
	opFill            // uncounted probe, then a fill of the probed way: PrefetchInto's L2 use
	opTouch           // uncounted one-pass refresh or fill: PrefetchInto's L1I and LLC use
	numCacheOps
)

var cacheOpNames = [numCacheOps]string{"access", "contains", "fill", "touch"}

// cacheOp is one operation on one line.
type cacheOp struct {
	op   int
	line uint64
}

// dropped returns the line in before that is missing from after.
func dropped(before, after []uint64) (line uint64, ok bool) {
	for _, l := range before {
		if !slices.Contains(after, l) {
			return l, true
		}
	}
	return 0, false
}

// checkCacheStream applies ops to a Cache and an lruModel of the same
// geometry, and fails at the first op whose hit, evicted line, counters or
// set contents (in recency order) differ.
func checkCacheStream(t *testing.T, sets, ways int, ops []cacheOp) {
	t.Helper()
	c, m := NewCache("t", sets, ways), newLRUModel(sets, ways)
	for i, o := range ops {
		s := int(o.line % uint64(sets))
		before := c.contents(s)
		var got, want bool
		var wantEv uint64
		var wantWas bool
		switch o.op {
		case opAccess:
			got = c.access(o.line)
			if want = m.Lookup(o.line); !want {
				wantEv, wantWas = m.Insert(o.line)
			}
		case opContains:
			_, got = c.find(o.line)
			want = m.Contains(o.line)
		case opFill:
			var way int
			way, got = c.find(o.line)
			c.fill(o.line, way)
			want = m.Contains(o.line)
			wantEv, wantWas = m.Insert(o.line)
		case opTouch:
			got = c.touch(o.line)
			want = m.Contains(o.line)
			wantEv, wantWas = m.Insert(o.line)
		}
		gotEv, gotWas := dropped(before, c.contents(s))
		if got != want || gotEv != wantEv || gotWas != wantWas ||
			c.Accesses() != m.accesses || c.Misses() != m.misses ||
			!slices.Equal(c.contents(s), m.contents(s)) {
			t.Fatalf("op %d %s(%d): hit %v evicted (%d,%v) accesses %d misses %d set %v; "+
				"model hit %v evicted (%d,%v) accesses %d misses %d set %v",
				i, cacheOpNames[o.op], o.line, got, gotEv, gotWas, c.Accesses(), c.Misses(), c.contents(s),
				want, wantEv, wantWas, m.accesses, m.misses, m.contents(s))
		}
	}
	for s := range sets {
		if !slices.Equal(c.contents(s), m.contents(s)) {
			t.Fatalf("end of stream: set %d = %v, model %v", s, c.contents(s), m.contents(s))
		}
	}
}

// adversarialOps are hand-built streams on set 0 that reach the LRU corner
// cases directly.
func adversarialOps(sets, ways int) map[string][]cacheOp {
	line := func(j int) uint64 { return uint64(j * sets) } // the j-th line of set 0
	streams := map[string][]cacheOp{}
	var ops []cacheOp

	// A partly valid set: each fill lands in the next invalid way, and
	// probes hit and miss around the valid prefix.
	for j := 0; j < ways; j++ {
		ops = append(ops, cacheOp{opFill, line(j)}, cacheOp{opContains, line(0)},
			cacheOp{opAccess, line(j)}, cacheOp{opContains, line(j + 1)})
	}
	streams["partly-valid"] = ops

	// The same by one-pass fills, with misses that fill the next way.
	ops = nil
	for j := 0; j < ways; j += 2 {
		ops = append(ops, cacheOp{opTouch, line(j)}, cacheOp{opAccess, line(0)},
			cacheOp{opAccess, line(j + 1)}, cacheOp{opTouch, line(j + 1)})
	}
	streams["partly-valid-touch"] = ops

	// Hits at every recency depth: refilling lines 0..ways-1 in order
	// leaves line(j) at depth ways-1-j, so round d hits depth d, and a new
	// line then evicts whatever that hit left least recent.
	ops = nil
	for d := 0; d < ways; d++ {
		for j := 0; j < ways; j++ {
			ops = append(ops, cacheOp{opFill, line(j)})
		}
		ops = append(ops, cacheOp{opAccess, line(ways - 1 - d)}, cacheOp{opAccess, line(ways + d)})
	}
	streams["hit-every-depth"] = ops

	// Refreshing a present line at every depth, by each kind of fill,
	// then evicting: the refreshed line must survive and the true LRU line
	// must go.
	for _, refresh := range []int{opFill, opTouch} {
		ops = nil
		for j := 0; j < ways; j++ {
			ops = append(ops, cacheOp{opFill, line(j)})
		}
		for j := 0; j < ways; j++ {
			ops = append(ops, cacheOp{refresh, line(j)}, cacheOp{refresh, line(ways + j)},
				cacheOp{opContains, line(j)})
		}
		streams["refresh-present-"+cacheOpNames[refresh]] = ops
	}

	// Evict a line, then reinsert it at once: it comes back at the front
	// and evicts the next LRU line.
	ops = nil
	for j := 0; j < ways; j++ {
		ops = append(ops, cacheOp{opAccess, line(j)})
	}
	for j := ways; j < 3*ways; j++ {
		ops = append(ops, cacheOp{opAccess, line(j)}, cacheOp{opAccess, line(j - ways)},
			cacheOp{opFill, line(j - ways)}, cacheOp{opTouch, line(j)})
	}
	streams["evict-reinsert"] = ops
	return streams
}

// randomOps draws n ops over a pool of lines about twice the cache's
// capacity, so sets fill, evict and hit at every depth.
func randomOps(rng *rand.Rand, sets, ways, n int) []cacheOp {
	pool := 2*sets*ways + 1
	ops := make([]cacheOp, n)
	for i := range ops {
		ops[i] = cacheOp{rng.Intn(numCacheOps), uint64(rng.Intn(pool))}
	}
	return ops
}

// TestCacheMatchesListLRU checks Cache, op by op, against the list-LRU
// model on adversarial and random streams, for one-way, two-way and the
// Table 1 way counts over power-of-two set counts.
func TestCacheMatchesListLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 16} {
		for _, sets := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%dx%d", sets, ways), func(t *testing.T) {
				for name, ops := range adversarialOps(sets, ways) {
					t.Run(name, func(t *testing.T) { checkCacheStream(t, sets, ways, ops) })
				}
				rng := rand.New(rand.NewSource(int64(sets*100 + ways)))
				checkCacheStream(t, sets, ways, randomOps(rng, sets, ways, 20000))
			})
		}
	}
}

// refHierarchy is the hierarchy composed from lruModel caches exactly as
// Hierarchy was before each level's probe and fill shared one scan: a
// Lookup at each level down to the one that serves, then an Insert at every
// level that missed, and Contains then Insert in PrefetchInto.
type refHierarchy struct {
	l1i, l1d, l2, llc *lruModel
	cfg               Config
	l2pf              *stridePrefetcher
	served            [numKinds][arch.NumLevels]uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	r := &refHierarchy{
		l1i: newLRUModel(cfg.L1ISets, cfg.L1IWays),
		l1d: newLRUModel(cfg.L1DSets, cfg.L1DWays),
		l2:  newLRUModel(cfg.L2Sets, cfg.L2Ways),
		llc: newLRUModel(cfg.LLCSets, cfg.LLCWays),
		cfg: cfg,
	}
	if cfg.L2StridePrefetch {
		r.l2pf = newStridePrefetcher(256)
	}
	return r
}

func (r *refHierarchy) Access(kind Kind, addr arch.PAddr) Result {
	lineAddr := addr.Line()
	l1 := r.l1d
	if kind == KindFetch {
		l1 = r.l1i
	}
	res := Result{Latency: r.cfg.L1Latency, Level: arch.LevelL1}
	switch {
	case l1.Lookup(lineAddr):
	case r.l2.Lookup(lineAddr):
		res = Result{Latency: r.cfg.L1Latency + r.cfg.L2Latency, Level: arch.LevelL2}
		l1.Insert(lineAddr)
	case r.llc.Lookup(lineAddr):
		res = Result{
			Latency: r.cfg.L1Latency + r.cfg.L2Latency + r.cfg.LLCLatency,
			Level:   arch.LevelLLC,
		}
		r.l2.Insert(lineAddr)
		l1.Insert(lineAddr)
	default:
		res = Result{
			Latency: r.cfg.L1Latency + r.cfg.L2Latency + r.cfg.LLCLatency + r.cfg.DRAMLatency,
			Level:   arch.LevelDRAM,
		}
		r.llc.Insert(lineAddr)
		r.l2.Insert(lineAddr)
		l1.Insert(lineAddr)
	}
	r.served[kind][res.Level]++
	if r.l2pf != nil && (kind == KindLoad || kind == KindStore) {
		if next, ok := r.l2pf.observe(addr); ok {
			r.PrefetchInto(arch.LevelL2, next)
		}
	}
	return res
}

func (r *refHierarchy) PrefetchInto(level arch.Level, addr arch.PAddr) arch.Level {
	lineAddr := addr.Line()
	served := arch.LevelDRAM
	if r.l2.Contains(lineAddr) {
		served = arch.LevelL2
	} else if r.llc.Contains(lineAddr) {
		served = arch.LevelLLC
	}
	if served == arch.LevelL2 && level >= arch.LevelL2 {
		return served
	}
	r.served[KindPrefetch][served]++
	switch level {
	case arch.LevelL1:
		r.l1i.Insert(lineAddr)
		fallthrough
	case arch.LevelL2:
		r.l2.Insert(lineAddr)
		fallthrough
	default:
		r.llc.Insert(lineAddr)
	}
	return served
}

// diffHierarchies returns the first difference between the two hierarchies'
// served counters, per-level counters or per-level contents, or "".
func diffHierarchies(h *Hierarchy, r *refHierarchy) string {
	for k := range NumKinds {
		for l := range arch.NumLevels {
			if got, want := h.Served(Kind(k), arch.Level(l)), r.served[k][l]; got != want {
				return fmt.Sprintf("Served(%v, %v) = %d, reference %d", Kind(k), arch.Level(l), got, want)
			}
		}
	}
	for _, lv := range []struct {
		c *Cache
		m *lruModel
	}{{h.L1I, r.l1i}, {h.L1D, r.l1d}, {h.L2, r.l2}, {h.LLC, r.llc}} {
		if lv.c.Accesses() != lv.m.accesses || lv.c.Misses() != lv.m.misses {
			return fmt.Sprintf("%s accesses/misses %d/%d, reference %d/%d",
				lv.c.Name(), lv.c.Accesses(), lv.c.Misses(), lv.m.accesses, lv.m.misses)
		}
		for s := range lv.c.sets {
			if got, want := lv.c.contents(s), lv.m.contents(s); !slices.Equal(got, want) {
				return fmt.Sprintf("%s set %d = %v, reference %v", lv.c.Name(), s, got, want)
			}
		}
	}
	return ""
}

// TestHierarchyMatchesReference drives the hierarchy and the reference
// composition with the same random Access and PrefetchInto streams over a
// geometry small enough to evict at every level, and compares them after
// every op.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, stride := range []bool{false, true} {
		t.Run(fmt.Sprintf("stride=%v", stride), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.L1ISets, cfg.L1IWays = 2, 2
			cfg.L1DSets, cfg.L1DWays = 2, 2
			cfg.L2Sets, cfg.L2Ways = 4, 2
			cfg.LLCSets, cfg.LLCWays = 4, 4
			cfg.L2StridePrefetch = stride
			h, r := NewHierarchy(cfg), newRefHierarchy(cfg)
			rng := rand.New(rand.NewSource(7))

			// 4 pages of 64 lines: a few times the 40-line total
			// capacity, so every level misses and evicts.
			const pages, linesPerPage = 4, arch.PageSize / arch.LineSize
			randomLine := func() uint64 { return uint64(rng.Intn(pages * linesPerPage)) }
			var recent [8]uint64
			var strideNext uint64
			var strideDelta int64
			for i := 0; i < 50000; i++ {
				var line uint64
				switch p := rng.Intn(10); {
				case p < 3 && strideDelta != 0:
					// Continue a run so the stride prefetcher fires,
					// also across pages and below line 0.
					line = strideNext
				case p < 4:
					strideDelta = int64(rng.Intn(5)) - 2
					line = randomLine()
				case p < 7:
					// Reuse a recent line so every level, the L1I
					// under PrefetchInto included, also hits.
					line = recent[rng.Intn(len(recent))]
				default:
					line = randomLine()
				}
				recent[i%len(recent)] = line
				strideNext = uint64(int64(line) + strideDelta)
				addr := arch.PAddr(line<<arch.LineShift | uint64(rng.Intn(arch.LineSize)))

				var op string
				if rng.Intn(4) == 0 {
					level := arch.Level(rng.Intn(arch.NumLevels))
					op = fmt.Sprintf("PrefetchInto(%v, %#x)", level, addr)
					if got, want := h.PrefetchInto(level, addr), r.PrefetchInto(level, addr); got != want {
						t.Fatalf("op %d %s = %v, reference %v", i, op, got, want)
					}
				} else {
					kind := Kind(rng.Intn(NumKinds))
					op = fmt.Sprintf("Access(%v, %#x)", kind, addr)
					if got, want := h.Access(kind, addr), r.Access(kind, addr); got != want {
						t.Fatalf("op %d %s = %+v, reference %+v", i, op, got, want)
					}
				}
				if d := diffHierarchies(h, r); d != "" {
					t.Fatalf("op %d %s: %s", i, op, d)
				}
			}
		})
	}
}
