package sim

import "morrigan/internal/arch"

// pendingTable tracks in-flight instruction-line prefetches — physical line
// number to fill-completion cycle — replacing a Go map on the fetch hot path
// with an open-addressed table (linear probing, backward-shift deletion).
// Completed fills are retired by a bounded sweep amortized over inserts, so
// the table tracks the true in-flight population instead of accumulating
// stale entries between the former threshold-triggered full-map prunes.
//
// Retiring a completed entry early cannot change simulation results: a
// demand fetch hitting an entry whose ready time has passed waits zero
// cycles and removes it, which is indistinguishable from the entry being
// absent (TestPendingTableMatchesMap). That holds because every entry shares
// the current clock epoch: the stats reset that rebases the clock drops the
// whole table (TestResetStatsSettlesInFlightTiming).
type pendingTable struct {
	keys   []uint64 // line+1 so a zero slot means empty
	readys []arch.Cycle
	mask   uint64
	n      int
	sweep  uint64 // next slot the amortized expiry sweep visits
}

// pendingMinSlots is the initial table size (a power of two).
const pendingMinSlots = 256

func newPendingTable() pendingTable {
	return pendingTable{
		keys:   make([]uint64, pendingMinSlots),
		readys: make([]arch.Cycle, pendingMinSlots),
		mask:   pendingMinSlots - 1,
	}
}

// home is the key's preferred slot (Fibonacci hashing, folded so sequential
// line numbers still scatter).
func (p *pendingTable) home(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return (h ^ h>>32) & p.mask
}

// take looks up line and, when present, removes its entry and returns the
// recorded ready cycle — the combined lookup-plus-delete the demand-fetch
// path performs.
func (p *pendingTable) take(line uint64) (arch.Cycle, bool) {
	k := line + 1
	i := p.home(k)
	for p.keys[i] != 0 {
		if p.keys[i] == k {
			r := p.readys[i]
			p.remove(i)
			return r, true
		}
		i = (i + 1) & p.mask
	}
	return 0, false
}

// remove empties slot i and backward-shifts any displaced entries so every
// remaining key stays reachable from its home slot.
func (p *pendingTable) remove(i uint64) {
	p.n--
	j := i
	for {
		p.keys[i] = 0
		for {
			j = (j + 1) & p.mask
			if p.keys[j] == 0 {
				return
			}
			// The entry at j can fill the hole at i only if i lies on its
			// probe path, i.e. cyclically between its home slot and j.
			h := p.home(p.keys[j])
			if (i-h)&p.mask <= (j-h)&p.mask {
				break
			}
		}
		p.keys[i], p.readys[i] = p.keys[j], p.readys[j]
		i = j
	}
}

// insert records (or refreshes) line's fill-completion cycle, first sweeping
// a couple of slots for entries that completed before now.
func (p *pendingTable) insert(line uint64, ready, now arch.Cycle) {
	p.expire(now, 2)
	if uint64(p.n+1)*4 > uint64(len(p.keys))*3 {
		p.grow()
	}
	k := line + 1
	i := p.home(k)
	for p.keys[i] != 0 {
		if p.keys[i] == k {
			p.readys[i] = ready
			return
		}
		i = (i + 1) & p.mask
	}
	p.keys[i] = k
	p.readys[i] = ready
	p.n++
}

// expire retires up to slots entries whose fills completed at or before now.
// Backward-shift removal may pull a live entry into the just-visited slot;
// it is simply picked up on a later pass.
func (p *pendingTable) expire(now arch.Cycle, slots int) {
	for s := 0; s < slots && p.n > 0; s++ {
		i := p.sweep & p.mask
		p.sweep++
		if p.keys[i] != 0 && p.readys[i] <= now {
			p.remove(i)
		}
	}
}

// grow doubles the table and rehashes the live entries.
func (p *pendingTable) grow() {
	oldKeys, oldReadys := p.keys, p.readys
	p.keys = make([]uint64, len(oldKeys)*2)
	p.readys = make([]arch.Cycle, len(oldReadys)*2)
	p.mask = uint64(len(p.keys) - 1)
	p.n = 0
	for idx, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := p.home(k)
		for p.keys[i] != 0 {
			i = (i + 1) & p.mask
		}
		p.keys[i], p.readys[i] = k, oldReadys[idx]
		p.n++
	}
}

// reset drops every entry, keeping the allocation.
func (p *pendingTable) reset() {
	clear(p.keys)
	p.n = 0
}
