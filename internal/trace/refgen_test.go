package trace_test

import (
	"math/rand"
	"sort"

	"morrigan/internal/arch"
	"morrigan/internal/trace"
)

// This file is the synthetic server generator as it was written against
// math/rand: rand.Rand draws and a rand.Zipf. It is the oracle the
// production generator, which replays those draws inline, must match
// record for record.

// refEdge is a successor of a routine in the call graph.
type refEdge struct {
	target int     // routine index
	cum    float64 // cumulative probability within the edge list
}

// refGenerator is an infinite synthetic instruction stream; it implements
// Reader and never returns io.EOF.
type refGenerator struct {
	p   trace.ServerParams
	rng *rand.Rand
	dz  *rand.Zipf // samples popularity ranks for data pages

	nHot, nWarm int // tier sizes, in routines

	routines [][]int // routine -> ordered page list
	redges   [][]refEdge
	perm     []int      // popularity rank -> routine index
	entry    [][]uint64 // per page: entry offsets (bytes)

	curR    int // current routine
	curIdx  int // position within the routine's page list
	curPage int
	curOff  uint64
	runLeft int

	dataPtr   int    // streaming data cursor (page index)
	streamOff uint64 // streaming cursor's offset within the page
	emitted   uint64
	nextPhase uint64
}

// newRefGenerator builds a generator for the given parameters. It panics
// if the parameters are invalid; use Validate to check first.
func newRefGenerator(p trace.ServerParams) *refGenerator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &refGenerator{
		p:   p,
		rng: rand.New(rand.NewSource(p.Seed)),
	}
	dzS := p.DataZipfS
	if dzS <= 1 {
		dzS = 1.2
	}
	g.dz = rand.NewZipf(g.rng, dzS, 1, uint64(p.DataPages-1))
	g.buildRoutines()
	g.nHot = int(float64(len(g.routines)) * p.HotFrac)
	g.nWarm = int(float64(len(g.routines)) * p.WarmFrac)
	if g.nHot < 1 {
		g.nHot = 1
	}
	if g.nWarm < 1 {
		g.nWarm = 1
	}
	if g.nHot+g.nWarm >= len(g.routines) {
		g.nWarm = len(g.routines) - g.nHot - 1
		if g.nWarm < 1 {
			g.nHot, g.nWarm = 1, 1
		}
	}
	g.perm = g.rng.Perm(len(g.routines))
	g.redges = make([][]refEdge, len(g.routines))
	for r := range g.redges {
		g.redges[r] = g.buildEdges(r)
	}
	g.entry = make([][]uint64, p.CodePages)
	for i := range g.entry {
		offs := make([]uint64, p.EntryPoints)
		limit := arch.PageSize - uint64(p.RunLenMax*4)
		for j := range offs {
			if limit > 0 {
				offs[j] = uint64(g.rng.Int63n(int64(limit)+1)) &^ 3
			}
		}
		g.entry[i] = offs
	}
	g.enterRoutine(g.perm[0])
	if p.PhaseLen > 0 {
		g.nextPhase = p.PhaseLen
	}
	return g
}

// buildRoutines partitions the code pages into routines. The first page of
// a routine is placed anywhere in the binary; each subsequent page is laid
// out sequentially (SeqFrac), nearby (SmallDeltaFrac) or anywhere else,
// reproducing the paper's measured delta distribution on the miss stream.
func (g *refGenerator) buildRoutines() {
	unassigned := g.rng.Perm(g.p.CodePages)
	taken := make([]bool, g.p.CodePages)
	pos := 0
	nextFree := func() int {
		for pos < len(unassigned) && taken[unassigned[pos]] {
			pos++
		}
		if pos >= len(unassigned) {
			return -1
		}
		pg := unassigned[pos]
		return pg
	}
	for {
		first := nextFree()
		if first < 0 {
			break
		}
		taken[first] = true
		want := g.p.RoutineLenMin
		if g.p.RoutineLenMax > g.p.RoutineLenMin {
			want += g.rng.Intn(g.p.RoutineLenMax - g.p.RoutineLenMin + 1)
		}
		pages := []int{first}
		prev := first
		for len(pages) < want {
			var cand int
			x := g.rng.Float64()
			switch {
			case x < g.p.SeqFrac:
				cand = prev + 1
			case x < g.p.SeqFrac+g.p.SmallDeltaFrac:
				d := 2 + g.rng.Intn(9)
				if g.rng.Intn(2) == 0 {
					d = -d
				}
				cand = prev + d
			default:
				cand = g.rng.Intn(g.p.CodePages)
			}
			if cand < 0 || cand >= g.p.CodePages || taken[cand] {
				cand = nextFree()
				if cand < 0 {
					break
				}
			}
			taken[cand] = true
			pages = append(pages, cand)
			prev = cand
		}
		g.routines = append(g.routines, pages)
	}
}

// routineBySample draws a routine index by tier: hot routines with
// probability PHot (STLB-resident working set), the warm band with
// probability PWarm (the recurring-miss band), and the cold tail otherwise.
// Within a tier, members near the front are mildly favoured so the miss
// distribution has the paper's skewed head rather than a flat plateau.
func (g *refGenerator) routineBySample() int {
	u := g.rng.Float64()
	var lo, n int
	switch {
	case u < g.p.PHot:
		lo, n = 0, g.nHot
	case u < g.p.PHot+g.p.PWarm:
		lo, n = g.nHot, g.nWarm
	default:
		lo, n = g.nHot+g.nWarm, len(g.routines)-g.nHot-g.nWarm
	}
	if n <= 0 {
		return g.perm[0]
	}
	// Power-law bias toward the front of the tier, giving the strongly
	// concave page-frequency curve of Figure 6 (a few tens of pages carry
	// a large share of the misses, a few hundred carry 90%).
	u = g.rng.Float64()
	idx := int(u * u * u * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return g.perm[lo+idx]
}

// succProbWeight returns the relative probability weight of the i-th most
// likely successor, shaped to match Figure 8's measured 51/21/11/17 split.
func succProbWeight(i int) float64 {
	switch i {
	case 0:
		return 0.51
	case 1:
		return 0.21
	case 2:
		return 0.11
	default:
		// Remaining mass decays geometrically across the tail.
		w := 0.085
		for j := 3; j < i; j++ {
			w *= 0.5
		}
		return w
	}
}

// buildEdges constructs the successor edge list of routine r.
func (g *refGenerator) buildEdges(r int) []refEdge {
	var totalW float64
	for _, w := range g.p.SuccWeights {
		totalW += w
	}
	x := g.rng.Float64() * totalW
	bucket := 0
	for b, w := range g.p.SuccWeights {
		if x < w {
			bucket = b
			break
		}
		x -= w
	}
	var k int
	switch bucket {
	case 0:
		k = 1
	case 1:
		k = 2
	case 2:
		k = 3 + g.rng.Intn(2) // 3-4
	case 3:
		k = 5 + g.rng.Intn(4) // 5-8
	default:
		k = 9 + g.rng.Intn(8) // 9-16
	}
	if k >= len(g.routines) {
		k = len(g.routines) - 1
	}
	if k < 1 {
		k = 1
	}
	seen := map[int]bool{r: true}
	targets := make([]int, 0, k)
	for len(targets) < k {
		t := g.routineBySample()
		if seen[t] {
			t = g.rng.Intn(len(g.routines))
			if seen[t] {
				continue
			}
		}
		seen[t] = true
		targets = append(targets, t)
	}
	weights := make([]float64, len(targets))
	var sum float64
	for j := range weights {
		weights[j] = succProbWeight(j)
		sum += weights[j]
	}
	edges := make([]refEdge, len(targets))
	cum := 0.0
	for j, t := range targets {
		cum += weights[j] / sum
		edges[j] = refEdge{target: t, cum: cum}
	}
	edges[len(edges)-1].cum = 1 // guard against rounding
	return edges
}

// enterRoutine begins executing routine r from its first page.
func (g *refGenerator) enterRoutine(r int) {
	g.curR = r
	g.curIdx = 0
	g.curPage = g.routines[r][0]
	g.startRun()
}

// startRun begins a new sequential run inside the current page.
func (g *refGenerator) startRun() {
	offs := g.entry[g.curPage]
	g.curOff = offs[g.rng.Intn(len(offs))]
	g.runLeft = g.p.RunLenMin
	if g.p.RunLenMax > g.p.RunLenMin {
		g.runLeft += g.rng.Intn(g.p.RunLenMax - g.p.RunLenMin + 1)
	}
}

// transition moves control to the next page: the next page of the current
// routine (possibly skipping one on a branch), or — at routine end — the
// first page of a successor routine.
func (g *refGenerator) transition() {
	pages := g.routines[g.curR]
	next := g.curIdx + 1
	if g.p.BranchSkipFrac > 0 && next+1 < len(pages) && g.rng.Float64() < g.p.BranchSkipFrac {
		next++
	}
	if next < len(pages) {
		g.curIdx = next
		g.curPage = pages[next]
		g.startRun()
		return
	}
	// Routine end: call a successor routine.
	var target int
	if g.rng.Float64() < g.p.RandomCallFrac {
		target = g.rng.Intn(len(g.routines))
	} else {
		es := g.redges[g.curR]
		x := g.rng.Float64()
		target = es[len(es)-1].target
		for _, e := range es {
			if x < e.cum {
				target = e.target
				break
			}
		}
	}
	g.enterRoutine(target)
}

// phaseChange reshuffles part of the routine popularity permutation and
// rebuilds the successor edges of the affected routines, modelling
// application phases.
func (g *refGenerator) phaseChange() {
	n := int(float64(len(g.routines)) * g.p.PhaseShuffleFrac)
	if n < 2 {
		n = 2
	}
	if n > len(g.routines) {
		n = len(g.routines)
	}
	// Most phase shuffles rotate popularity within the hot+warm region
	// (the same request mix shifting emphasis); a quarter promote a cold
	// routine, slowly renewing the working set. Swapping arbitrary cold
	// routines into the hot ranks every phase would spread the misses
	// uniformly over the whole footprint, which is not what the paper
	// measures (Finding 2).
	active := g.nHot + g.nWarm
	touched := make(map[int]bool, 2*n)
	for r := 0; r < n; r++ {
		pos := g.rng.Intn(active)
		var other int
		if g.rng.Intn(8) == 0 {
			other = g.rng.Intn(len(g.routines))
		} else {
			other = g.rng.Intn(active)
		}
		g.perm[pos], g.perm[other] = g.perm[other], g.perm[pos]
		touched[g.perm[pos]] = true
		touched[g.perm[other]] = true
	}
	// Rebuild in sorted order: map iteration order would consume the RNG
	// nondeterministically and break trace reproducibility.
	order := make([]int, 0, len(touched))
	for r := range touched {
		order = append(order, r)
	}
	sort.Ints(order)
	for _, r := range order {
		g.redges[r] = g.buildEdges(r)
	}
}

// dataAddr produces a data operand address. Streaming accesses advance a
// sequential cursor one cache line at a time (touching each page ~64 times
// before moving on, like a memcpy or scan); the rest hit the Zipf-skewed hot
// set with line-granular offsets.
func (g *refGenerator) dataAddr() arch.VAddr {
	if g.rng.Float64() < g.p.DataStreamFrac {
		g.streamOff += arch.LineSize
		if g.streamOff >= arch.PageSize {
			g.streamOff = 0
			g.dataPtr = (g.dataPtr + 1) % g.p.DataPages
		}
		return (trace.DataBaseVPN + arch.VPN(g.dataPtr)).Addr() + arch.VAddr(g.streamOff)
	}
	page := int(g.dz.Uint64())
	off := uint64(g.rng.Int63n(arch.PageSize/arch.LineSize)) << arch.LineShift
	return (trace.DataBaseVPN + arch.VPN(page)).Addr() + arch.VAddr(off)
}

// Next implements Reader; it never returns an error.
func (g *refGenerator) Next(rec *trace.Record) error {
	if g.nextPhase != 0 && g.emitted >= g.nextPhase {
		g.phaseChange()
		g.nextPhase += g.p.PhaseLen
	}
	rec.PC = (trace.CodeBaseVPN + arch.VPN(g.curPage)).Addr() + arch.VAddr(g.curOff)
	rec.Load, rec.Store = 0, 0
	if g.rng.Float64() < g.p.LoadFrac {
		rec.Load = g.dataAddr()
	}
	if g.rng.Float64() < g.p.StoreFrac {
		if g.rng.Float64() < 0.3 {
			// Some stores hit a small stack region.
			rec.Store = trace.StackVPN.Addr() + arch.VAddr(uint64(g.rng.Int63n(8*arch.PageSize))&^7)
		} else {
			rec.Store = g.dataAddr()
		}
	}
	g.emitted++
	g.curOff += 4
	g.runLeft--
	if g.runLeft <= 0 || g.curOff+4 > arch.PageSize {
		g.transition()
	}
	return nil
}
