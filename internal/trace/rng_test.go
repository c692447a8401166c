package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand: the replica stream answers every draw method
// exactly as rand.New(rand.NewSource(seed)) does, over 10^8 draws (10^6
// under the race detector) spread across seeds, each run crossing many
// laps of the 607-value ring. Methods and arguments are picked at random,
// with arguments that make the rejection loops of Int31n and Int63n retry
// often and that take both of Intn's branches.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{1, 0, -1, 7000, 89482311, 1<<31 - 1, 1 << 31, -(1 << 62), math.MaxInt64}
	draws := 100_000_000
	if raceEnabled {
		draws = 1_000_000
	}
	per := draws / len(seeds)
	probs := []float64{0, 1, 0.5, 0.3, 0.24, 1e-300, math.Nextafter(1, 0), 1.5, -1, math.NaN()}
	for i := 0; i < 54; i++ {
		probs = append(probs, float64(i*i)/2916+1e-3*float64(i%7))
	}
	chances := make([]chance, len(probs))
	for i, p := range probs {
		chances[i] = chanceOf(p)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			rngMatchesMathRand(t, seed, per, probs, chances)
		})
	}
}

func rngMatchesMathRand(t *testing.T, seed int64, per int, probs []float64, chances []chance) {
	var got rng
	got.seed(seed)
	want := rand.New(rand.NewSource(seed))
	pick := uint64(seed) | 1 // xorshift picks methods and arguments
	for n := 0; n < per; {
		pick ^= pick << 13
		pick ^= pick >> 7
		pick ^= pick << 17
		arg := pick >> 8
		var g, w int64
		switch pick % 10 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = int64(got.Int31()), int64(want.Int31())
		case 2:
			gf, wf := got.Float64(), want.Float64()
			g, w = int64(math.Float64bits(gf)), int64(math.Float64bits(wf))
		case 3:
			m := int32(arg%(1<<31-1)) + 1
			if arg&1 == 0 {
				m = 1<<30 + int32(arg%(1<<20)) // rejects up to half the draws
			}
			g, w = int64(got.Int31n(m)), int64(want.Int31n(m))
		case 4:
			m := int64(arg>>1) + 1
			if arg&1 == 0 {
				m = 1<<62 + int64(arg%(1<<40))
			}
			g, w = got.Int63n(m), want.Int63n(m)
		case 5:
			m := int(arg%4096) + 1
			g, w = int64(got.Intn(m)), int64(want.Intn(m))
		case 6:
			m := int(arg>>1) + 1 // mostly above 1<<31-1: the Int63n branch
			g, w = int64(got.Intn(m)), int64(want.Intn(m))
		case 7:
			m := int(arg % 40)
			gp, wp := got.Perm(m), want.Perm(m)
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d draw %d: Perm(%d) = %v, math/rand gives %v", seed, n, m, gp, wp)
				}
			}
			n += m
		case 8:
			i := arg % uint64(len(probs))
			b2i := func(b bool) int64 {
				if b {
					return 1
				}
				return 0
			}
			g, w = b2i(got.hit(chances[i])), b2i(want.Float64() < probs[i])
		default:
			g, w = int64(got.unitInt63()), int64(math.Float64bits(want.Float64()))
			g = int64(math.Float64bits(float64(g) / (1 << 63)))
		}
		if g != w {
			t.Fatalf("seed %d draw %d: method %d gives %d, math/rand gives %d", seed, n, pick%10, g, w)
		}
		n++
	}
	// Both streams must be in the same place afterwards.
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d: streams diverged after the run: %d vs %d", seed, g, w)
	}
}

// TestFloat64Redraw: Float64 redraws exactly the Int63 values at or above
// float64Redraw, which round to 1.0, and both the replica and math/rand
// skip them, consuming the same values.
func TestFloat64Redraw(t *testing.T) {
	if f := float64(float64Redraw) / (1 << 63); f != 1 {
		t.Fatalf("float64Redraw maps to %v, want 1", f)
	}
	if f := float64(float64Redraw-1) / (1 << 63); f >= 1 {
		t.Fatalf("float64Redraw-1 maps to %v, want < 1", f)
	}
	script := []uint64{float64Redraw, 1<<63 - 1, 1<<64 - 1, float64Redraw - 1, 12345}
	r := scriptedRNG(script)
	want := rand.New(&sliceSource{vals: script})
	for i := 0; i < 2; i++ {
		if g, w := r.Float64(), want.Float64(); g != w {
			t.Fatalf("Float64 #%d = %v, math/rand gives %v", i, g, w)
		}
	}
	if r.pos != 5 {
		t.Fatalf("consumed %d values, want 5", r.pos)
	}
	r = scriptedRNG(script)
	if !r.hit(chanceOf(1)) || r.pos != 4 {
		t.Fatalf("hit(1) consumed %d values, want 4", r.pos)
	}
}

// TestChanceOf: the precomputed threshold is the exact boundary of
// Float64() < p along the Int63 values.
func TestChanceOf(t *testing.T) {
	for _, p := range []float64{0, 1e-300, 0.1, 0.3, 0.5, math.Nextafter(1, 0), 1, 2, -1} {
		c := int64(chanceOf(p))
		below := c == 0 || float64(c-1)/(1<<63) < p
		atOrAbove := c == float64Redraw || !(float64(c)/(1<<63) < p)
		if !below || !atOrAbove {
			t.Errorf("chanceOf(%v) = %d is not the boundary", p, c)
		}
	}
	if chanceOf(math.NaN()) != 0 {
		t.Error("chanceOf(NaN) must never hit, as Float64() < NaN never holds")
	}
}

// sliceSource is a rand.Source replaying fixed values.
type sliceSource struct {
	vals []uint64
	n    int
}

func (s *sliceSource) Int63() int64 {
	v := s.vals[s.n]
	s.n++
	return int64(v & (1<<63 - 1))
}

func (s *sliceSource) Seed(int64) {}
