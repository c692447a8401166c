package trace

import "math"

// zipf replays math/rand's Zipf draw for draw: the same ranks from the same
// stream, consuming the same values. The fields up to hx0minusHxm and the
// methods h, hinv and try are math/rand's Hörmann–Derflinger
// rejection-inversion sampler, copied verbatim ("Rejection-Inversion to
// Generate Variates from Monotone Discrete Distributions", 1996).
//
// Each iteration of that sampler turns one Float64 draw r = v / 2^63 into a
// rank through Exp and Log, then accepts it or draws again. next decides
// most draws from a table over v instead. Along v the sampler's continuous
// variate x = hinv(hxm + r*hx0minusHxm) falls monotonically, so every head
// rank k < zipfHeadRanks owns one run of v values, split by two kinds of
// boundary:
//
//   - rank boundaries x = k ± 0.5, where floor(x+0.5) changes;
//   - the first-test boundary x = k − s: above it k−x <= s accepts, and
//     below it the second test ur >= h(k+0.5) − (k+v)^−q decides.
//
// The table places these boundaries analytically and covers each with a
// guard band reaching zipfGuard either side in x, in which (like in the tail beyond the
// head ranks) next runs the verbatim iteration. Outside the bands, the
// computed x differs from the exact one by a few ulps (about 1e-13 at rank
// 1000), far less than the 1e-6 distance to any boundary, so the rank and
// the first test come out as the table says. The second test is decided
// exactly: ur is a correctly rounded, monotone function of v, so
// ur >= C(k), with C(k) computed by the sampler's own expression, holds for
// exactly the v at or below a threshold found by bisection.
type zipf struct {
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// Cell i is the run of Int63 values [starts[i], starts[i+1]) and
	// outcome[i] its outcome: a rank, zipfVerbatim or zipfReject. The cells
	// partition [0, float64Redraw); starts ends with a sentinel.
	// index[v>>zipfIndexShift] is the cell holding the first v of that
	// bucket.
	starts  []int64
	outcome []int16
	index   []uint16
}

const (
	// zipfHeadRanks bounds the tabled ranks. Beyond rank 1024 the QMM data
	// distributions (s 1.5-1.7, 4K-12K pages) have 0.3-1.7% of their mass
	// left; the guard bands hold about 3 draws in a million.
	zipfHeadRanks = 1024
	// zipfGuard is the half-width, in x, of each guard band.
	zipfGuard = 1e-6
	// zipfIndexBits sizes the bucket index over the top bits of v.
	zipfIndexBits  = 12
	zipfIndexShift = 63 - zipfIndexBits

	// Cell outcomes other than a rank: run the verbatim iteration, or
	// reject the draw (the second test fails) and draw again.
	zipfVerbatim = -1
	zipfReject   = -2
)

// Cell numbers and ranks fit the index's uint16 and outcome's int16: at
// most 5 cells per head rank, plus the tail cell and the sentinel.
const _ = uint16(5*zipfHeadRanks + 2)

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// newZipf is rand.NewZipf over the generator's stream: ranks k ∈ [0, imax]
// with P(k) proportional to (v + k) ** (-s). It requires s > 1 and v >= 1.
func newZipf(s float64, v float64, imax uint64) zipf {
	var z zipf
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	z.buildTable()
	return z
}

// try is one iteration of math/rand's Zipf.Uint64 loop for the draw r: the
// rank it computes and whether it accepts it.
func (z *zipf) try(r float64) (k float64, ok bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k = math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return k, true
	}
	return k, false
}

// next is rand.(*Zipf).Uint64 on r's stream.
func (z *zipf) next(r *rng) uint64 {
	for {
		v := r.unitInt63()
		i := int(z.index[v>>zipfIndexShift])
		for v >= z.starts[i+1] {
			i++
		}
		switch o := z.outcome[i]; o {
		case zipfReject:
		case zipfVerbatim:
			if k, ok := z.try(float64(v) / (1 << 63)); ok {
				return uint64(k)
			}
		default:
			return uint64(o)
		}
	}
}

// buildTable lays out the cells and the index; see zipf.
func (z *zipf) buildTable() {
	// Rank imax's upper boundary is the domain's end, where floor(x+0.5)
	// can round up to imax+1, so rank imax is never tabled.
	head := int64(zipfHeadRanks)
	if z.imax < float64(head) {
		head = int64(z.imax)
	}
	z.starts = append(make([]int64, 0, 5*head+2), 0)
	z.outcome = append(make([]int16, 0, 5*head+1), zipfVerbatim)
	// Walk the head ranks upward in v, that is downward in x: for rank k
	// the accept zone [k−s, k+0.5), then the second-test zone [k−0.5, k−s),
	// each between guard bands. The second-test zone splits at its exact
	// threshold into an accepting and a rejecting cell.
	for k := head - 1; k >= 0; k-- {
		kf := float64(k)
		second, lower := z.vOf(kf-z.s-zipfGuard), z.vOf(kf-0.5+zipfGuard)
		z.addCell(z.vOf(kf+0.5-zipfGuard), int16(k))
		z.addCell(z.vOf(kf-z.s+zipfGuard), zipfVerbatim)
		if second < lower {
			z.addCell(second, int16(k))
			z.addCell(z.secondTestMax(kf, second, lower)+1, zipfReject)
		}
		z.addCell(lower, zipfVerbatim)
	}
	z.starts = append(z.starts, math.MaxInt64)
	z.index = make([]uint16, 1<<zipfIndexBits)
	i := 0
	for b := range z.index {
		for z.starts[i+1] <= int64(b)<<zipfIndexShift {
			i++
		}
		z.index[b] = uint16(i)
	}
}

// addCell starts a cell with outcome o at v. A cell starting where the
// previous one does replaces it, as that one is empty: a second-test zone
// that accepts nothing or everything, or a start vOf clamped to
// float64Redraw, past every reachable v. Otherwise boundaries lie at least
// 0.5−s−2·zipfGuard apart in x, and s < 0.49 whenever the sampler's
// constants are finite; when they overflow, every start clamps to 0 and
// the verbatim first cell stays alone.
func (z *zipf) addCell(v int64, o int16) {
	last := len(z.starts) - 1
	switch {
	case v > z.starts[last]:
		z.starts = append(z.starts, v)
		z.outcome = append(z.outcome, o)
	case last > 0:
		z.outcome[last] = o
	}
}

// vOf maps x to the Int63 value where the sampler's variate crosses it,
// clamped to [0, float64Redraw]: r solves h(x) = hxm + r*hx0minusHxm.
func (z *zipf) vOf(x float64) int64 {
	r := (z.h(x) - z.hxm) / z.hx0minusHxm
	switch {
	case !(r > 0):
		return 0
	case r >= 1:
		return float64Redraw
	}
	return min(int64(r*(1<<63)), float64Redraw)
}

// secondTestMax returns the largest v in [lo, hi) whose draw passes rank
// k's second test, or lo−1 when none does. The test is
// hxm + r*hx0minusHxm >= C(k), both sides computed as in try; the left
// side does not increase with v.
func (z *zipf) secondTestMax(k float64, lo, hi int64) int64 {
	c := z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
	pass := func(v int64) bool {
		r := float64(v) / (1 << 63)
		return z.hxm+r*z.hx0minusHxm >= c
	}
	// Find the first failing v in [lo, hi), hi if none.
	a, b := lo, hi
	for a < b {
		mid := a + (b-a)/2
		if pass(mid) {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a - 1
}
