package sim

import (
	"math/rand"
	"testing"

	"morrigan/internal/arch"
)

// TestPendingTableMatchesMap checks the open-addressed pending table against
// a plain map that never retires entries early: over a long random stream of
// inserts (refreshing some lines, growing the table past its initial size)
// and demand takes, every take must charge the same wait, max(0, ready−now).
// Stats-reset boundaries drop both and rebase the clock to zero.
func TestPendingTableMatchesMap(t *testing.T) {
	p := newPendingTable()
	ref := map[uint64]arch.Cycle{}
	wait := func(ready arch.Cycle, ok bool, now arch.Cycle) arch.Cycle {
		if ok && ready > now {
			return ready - now
		}
		return 0
	}
	rng := rand.New(rand.NewSource(11))
	var now arch.Cycle
	for op := 0; op < 200_000; op++ {
		now += arch.Cycle(rng.Intn(4))
		// Mostly a working set that fits the initial table; bursts of a
		// wider one force growth and long probe chains.
		span := 200
		if op%50_000 > 40_000 {
			span = 5_000
		}
		line := uint64(rng.Intn(span)) * 61
		switch r := rng.Intn(1000); {
		case r < 500:
			ready := now + arch.Cycle(rng.Intn(3_000))
			p.insert(line, ready, now)
			ref[line] = ready
		case r < 999:
			gr, gok := p.take(line)
			wr, wok := ref[line]
			delete(ref, line)
			if got, want := wait(gr, gok, now), wait(wr, wok, now); got != want {
				t.Fatalf("op %d: take(%d) at %d charged %d, map reference %d", op, line, now, got, want)
			}
		default:
			p.reset()
			clear(ref)
			now = 0
		}
	}
	if len(p.keys) == pendingMinSlots {
		t.Errorf("table never grew past %d slots; the stream does not exercise growth", pendingMinSlots)
	}
	if p.n > len(ref) {
		t.Errorf("table holds %d entries, more than the reference's %d", p.n, len(ref))
	}
}
