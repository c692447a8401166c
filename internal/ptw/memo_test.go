package ptw

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/cache"
	"morrigan/internal/pagetable"
)

// TestWalkMemoMatchesUnmemoized drives two identical walker stacks with one
// operation stream — demand and prefetch walks over mapped and unmapped
// pages, accessed-bit corrections, and explicit new mappings that advance
// the table epoch between walks — clearing one walker's memo before every
// walk. Walk results, PSC hit rate, walker counters and the hierarchy's
// per-level service counts must match exactly: the memo only skips the
// pointer chase, never a timing effect.
func TestWalkMemoMatchesUnmemoized(t *testing.T) {
	tables := map[string]func() pagetable.Translator{
		"radix-4": func() pagetable.Translator { return pagetable.New(7) },
		"radix-5": func() pagetable.Translator { return pagetable.NewWithLevels(7, 5) },
		"hashed":  func() pagetable.Translator { return pagetable.NewHashed(7, pagetable.DefaultHashedBuckets) },
	}
	for name, newTable := range tables {
		t.Run(name, func(t *testing.T) {
			type stack struct {
				pt  pagetable.Translator
				mem *cache.Hierarchy
				w   *Walker
			}
			build := func() stack {
				pt := newTable()
				mem := cache.NewHierarchy(cache.DefaultConfig())
				return stack{pt, mem, New(pt, mem, DefaultConfig())}
			}
			memo, plain := build(), build()
			rng := rand.New(rand.NewSource(3))
			// A small page pool, so walks repeat and the memo is hit, plus
			// rare far pages that allocate new interior nodes.
			page := func() arch.VPN {
				if rng.Intn(50) == 0 {
					return arch.VPN(rng.Int63n(1 << 30))
				}
				return arch.VPN(0x10000 + rng.Intn(600))
			}
			var now arch.Cycle
			for op := 0; op < 20_000; op++ {
				now += arch.Cycle(rng.Intn(40))
				vpn := page()
				tid := arch.ThreadID(rng.Intn(2))
				switch r := rng.Intn(20); {
				case r == 0:
					memo.pt.EnsureMapped(vpn)
					plain.pt.EnsureMapped(vpn)
				case r == 1:
					a := memo.w.CorrectAccessed(tid, vpn, now)
					b := plain.w.CorrectAccessed(tid, vpn, now)
					if a != b {
						t.Fatalf("op %d: CorrectAccessed(%#x) = %v memoized, %v unmemoized", op, vpn, a, b)
					}
				default:
					demand := r < 12
					clear(plain.w.memo)
					a := memo.w.Walk(tid, vpn, now, demand)
					a.FreeVPNs = slices.Clone(a.FreeVPNs)
					b := plain.w.Walk(tid, vpn, now, demand)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("op %d: Walk(%#x, demand=%v):\nmemoized:   %+v\nunmemoized: %+v", op, vpn, demand, a, b)
					}
				}
			}
			if memo.pt.Epoch() != plain.pt.Epoch() {
				t.Fatalf("table epochs diverged: %d vs %d", memo.pt.Epoch(), plain.pt.Epoch())
			}
			if a, b := memo.w.PSC().HitRate(), plain.w.PSC().HitRate(); a != b {
				t.Errorf("PSC hit rate %v memoized, %v unmemoized", a, b)
			}
			counters := func(w *Walker) string {
				return fmt.Sprint(w.DemandWalks(), w.DemandRefs(), w.PrefetchWalks(), w.PrefetchRefs(),
					w.DroppedWalks(), w.accessedMarked, w.CorrectingWalks())
			}
			if a, b := counters(memo.w), counters(plain.w); a != b {
				t.Errorf("walker counters %s memoized, %s unmemoized", a, b)
			}
			for k := cache.Kind(0); int(k) < cache.NumKinds; k++ {
				for l := arch.Level(0); int(l) < arch.NumLevels; l++ {
					if a, b := memo.mem.Served(k, l), plain.mem.Served(k, l); a != b {
						t.Errorf("kind %d served at level %v: %d memoized, %d unmemoized", k, l, a, b)
					}
				}
			}
		})
	}
}
