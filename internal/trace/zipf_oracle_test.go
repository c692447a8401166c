package trace_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// zipfParams is one Zipf distribution the generator samples: exponent s
// over ranks [0, imax].
type zipfParams struct {
	s    float64
	imax uint64
}

// suiteZipfs lists every distinct data-page Zipf of the QMM, SPEC and Java
// suites, as NewServerGenerator derives it from the workload parameters.
func suiteZipfs() []zipfParams {
	seen := map[zipfParams]bool{}
	var out []zipfParams
	for _, w := range workloads.All() {
		s := w.Params.DataZipfS
		if s <= 1 {
			s = 1.2
		}
		zp := zipfParams{s, uint64(w.Params.DataPages - 1)}
		if !seen[zp] {
			seen[zp] = true
			out = append(out, zp)
		}
	}
	return out
}

// cornerZipfs are distributions outside the suite: too few ranks for the
// head table, exponents near 1 and steep ones, up to one so steep that the
// sampler's constants overflow and nothing is tabled.
var cornerZipfs = []zipfParams{{1.2, 0}, {1.2, 1}, {1.5, 7}, {1.0001, 299}, {1.05, 100_000}, {3.5, 4095}, {1.3, 1024}, {1.3, 1025}, {60, 4095}, {1e308, 10}}

// scriptSource is a rand.Source that replays fixed Int63 values.
type scriptSource struct {
	vals []uint64
	n    int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.n]
	s.n++
	return int64(v & (1<<63 - 1))
}

func (s *scriptSource) Seed(int64) {}

// TestZipfMatchesMathRand: the generator's table-driven Zipf returns
// rand.Zipf's variates, draw for draw, on one seeded stream per
// distribution. The suite distributions share 10^8 draws; under the race
// detector 10^6.
func TestZipfMatchesMathRand(t *testing.T) {
	dists := append(suiteZipfs(), cornerZipfs...)
	total := 100_000_000
	if trace.RaceEnabled {
		total = 1_000_000
	}
	per := total/len(suiteZipfs()) + 1
	for i, zp := range dists {
		t.Run(fmt.Sprintf("s=%v/imax=%d", zp.s, zp.imax), func(t *testing.T) {
			t.Parallel()
			seed := int64(1000 + i)
			got := trace.NewZipfReplica(seed, zp.s, zp.imax)
			want := rand.NewZipf(rand.New(rand.NewSource(seed)), zp.s, 1, zp.imax)
			for n := 0; n < per; n++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("draw %d = %d, rand.Zipf gives %d", n, g, w)
				}
			}
		})
	}
}

// TestZipfTableBoundaries: draws landing within a few units and a few
// float64 ulps of every table cell boundary (second-test thresholds
// included) give rand.Zipf's variate and consume as many values. Each draw
// is scripted: the probe, then values that rand.Zipf accepts at rank 0.
func TestZipfTableBoundaries(t *testing.T) {
	const top = trace.Float64Redraw - 1 // r just below 1: rank 0, accepted
	suite := suiteZipfs()
	for i, zp := range append(suite, cornerZipfs...) {
		replica := trace.NewZipfReplica(1, zp.s, zp.imax)
		starts := replica.Boundaries()
		if i < len(suite) && len(starts) == 0 {
			t.Fatalf("s=%v imax=%d: no table", zp.s, zp.imax)
		}
		script := []uint64{0, top, top, top}
		src := &scriptSource{vals: script}
		want := rand.NewZipf(rand.New(src), zp.s, 1, zp.imax)
		check := func(v int64) {
			if v < 0 || v >= trace.Float64Redraw {
				return
			}
			script[0], src.n = uint64(v), 0
			gk, gn := replica.Scripted(script)
			wk := want.Uint64()
			if gk != wk || gn != src.n {
				t.Fatalf("s=%v imax=%d: draw v=%d gives rank %d after %d values, rand.Zipf rank %d after %d",
					zp.s, zp.imax, v, gk, gn, wk, src.n)
			}
		}
		for _, b := range starts {
			for d := int64(-3); d <= 3; d++ {
				check(b + d)
			}
			// Neighbouring Float64 values: r and the v that produce them.
			r := float64(b) / (1 << 63)
			up, down := r, r
			for d := 0; d < 8; d++ {
				up, down = math.Nextafter(up, 2), math.Nextafter(down, -1)
				check(int64(up * (1 << 63)))
				check(int64(down * (1 << 63)))
			}
		}
	}
}

// BenchmarkZipf compares the generator's Zipf against rand.Zipf over the
// QMM data distributions' exponent and rank range.
func BenchmarkZipf(b *testing.B) {
	for _, zp := range []zipfParams{{1.5, 4095}, {1.6, 8191}, {1.7, 12095}} {
		name := fmt.Sprintf("s=%v/imax=%d", zp.s, zp.imax)
		b.Run("replica/"+name, func(b *testing.B) {
			z := trace.NewZipfReplica(1, zp.s, zp.imax)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Uint64()
			}
			sink = sum
		})
		b.Run("mathrand/"+name, func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), zp.s, 1, zp.imax)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Uint64()
			}
			sink = sum
		})
	}
}

var sink uint64

// BenchmarkZipfBuild is the table's construction, paid once per generator.
func BenchmarkZipfBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace.NewZipfReplica(1, 1.6, 8191)
	}
}
