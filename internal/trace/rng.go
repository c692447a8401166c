package trace

import "math/rand"

// math/rand's source is an additive lagged-Fibonacci generator: its n-th
// Uint64 output is x[n] = x[n-rngLen] + x[n-rngTap] (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// float64Redraw is the smallest Int63 value v for which math/rand's
// Float64, float64(v) / (1<<63), rounds to 1.0; Float64 draws again for v
// at or above it.
const float64Redraw = 1<<63 - 512

// rng replays, value for value, the stream of rand.New(rand.NewSource(seed))
// and its v1 draw methods, with every draw an inlinable method call instead
// of math/rand's interface dispatch.
//
// buf is a ring holding the last rngLen outputs, buf[n mod rngLen] = x[n],
// and each draw steps the recurrence once, in place. seed takes the first
// rngLen outputs from math/rand itself and runs the recurrence backwards to
// the rngLen values before them, x[n-607] = x[n] - x[n-273], so the ring
// starts one lap early and even the first draw steps it: no copy of
// math/rand's seeding table is needed.
type rng struct {
	pos uint // n mod rngLen for the next output x[n]
	buf [rngLen]uint64
}

// seed positions r at the start of rand.NewSource(seed)'s stream.
func (r *rng) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var x [rngLen]uint64 // x[0..606]
	for i := range x {
		x[i] = src.Uint64()
	}
	// buf[j] = x[j-607] = x[j] - x[j-273]; for j < rngTap, x[j-273] is
	// x[(j+334)-607] = buf[j+334], which the first loop has filled.
	for j := rngTap; j < rngLen; j++ {
		r.buf[j] = x[j] - x[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		r.buf[j] = x[j] - r.buf[j+rngLen-rngTap]
	}
	r.pos = 0
}

// Int63 is rand.(*Rand).Int63: it steps x[n] = x[n-607] + x[n-273], where
// x[n-607] is the slot x[n] replaces and x[n-273] sits rngLen-rngTap slots
// ahead of it.
func (r *rng) Int63() int64 {
	i := r.pos
	j := i + rngLen - rngTap
	if j >= rngLen {
		j -= rngLen
	}
	x := r.buf[i] + r.buf[j]
	r.buf[i] = x
	if i++; i == rngLen {
		i = 0
	}
	r.pos = i
	return int64(x & (1<<63 - 1))
}

// Int31 is rand.(*Rand).Int31.
func (r *rng) Int31() int32 { return int32(r.Int63() >> 32) }

// unitInt63 draws exactly what Float64 draws and returns the Int63 value
// behind the result, which is float64(v) / (1<<63). Comparing v instead of
// the float keeps hot draws in integer arithmetic.
func (r *rng) unitInt63() int64 {
	for {
		if v := r.Int63(); v < float64Redraw {
			return v
		}
	}
}

// Float64 is rand.(*Rand).Float64, including its redraw of values that
// round to 1.0.
func (r *rng) Float64() float64 { return float64(r.unitInt63()) / (1 << 63) }

// Int63n is rand.(*Rand).Int63n (math/rand v1's modulo rejection) for n > 0.
func (r *rng) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n is rand.(*Rand).Int31n (math/rand v1's modulo rejection) for n > 0.
func (r *rng) Int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn is rand.(*Rand).Intn for n > 0.
func (r *rng) Intn(n int) int {
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Perm is rand.(*Rand).Perm.
func (r *rng) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// chance is a Bernoulli draw with a fixed probability p, precomputed so
// that r.hit(c) returns exactly r.Float64() < p and consumes the same
// values. Float64 is float64(v)/(1<<63) for an Int63 value v below
// float64Redraw and is monotone in v, so the draws below p are exactly
// those with v < c.
type chance int64

// chanceOf finds, by bisection, the smallest v whose Float64 is not below
// p (float64Redraw if there is none).
func chanceOf(p float64) chance {
	lo, hi := int64(0), int64(float64Redraw)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return chance(lo)
}

// hit reports r.Float64() < p for c = chanceOf(p).
func (r *rng) hit(c chance) bool { return r.unitInt63() < int64(c) }
