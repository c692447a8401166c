package trace_test

import (
	"fmt"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// TestGeneratorMatchesMathRand: the production generator, which replays
// math/rand's draws inline, emits record for record what the same
// generator written against rand.Rand and rand.Zipf emits, on every suite
// workload, with its own phase length and with phases short enough that
// every run crosses many phase changes, and on parameter corners: one or
// two data pages, Zipf exponents at and below the 1.2 fallback, and the
// smallest code footprint.
func TestGeneratorMatchesMathRand(t *testing.T) {
	n := 200_000
	if trace.RaceEnabled {
		n = 10_000
	}
	type tc struct {
		name string
		p    trace.ServerParams
	}
	var cases []tc
	for _, w := range workloads.All() {
		cases = append(cases, tc{w.Name, w.Params})
		short := w.Params
		short.PhaseLen = 15_000
		short.PhaseShuffleFrac = 0.2
		cases = append(cases, tc{w.Name + "/short-phases", short})
	}
	base := workloads.QMM()[0].Params
	for i, mutate := range []func(*trace.ServerParams){
		func(p *trace.ServerParams) { p.DataPages = 1 },
		func(p *trace.ServerParams) { p.DataPages = 2 },
		func(p *trace.ServerParams) { p.DataZipfS = 1 },
		func(p *trace.ServerParams) { p.DataZipfS = 0.5 },
		func(p *trace.ServerParams) { p.DataZipfS = 1.0001; p.DataPages = 300 },
		func(p *trace.ServerParams) { p.DataZipfS = 3.5 },
		func(p *trace.ServerParams) {
			p.CodePages, p.RoutineLenMin, p.RoutineLenMax = 4, 1, 2
			p.HotFrac, p.WarmFrac, p.EntryPoints = 0.25, 0.25, 1
		},
		func(p *trace.ServerParams) { p.Seed = -1; p.BranchSkipFrac = 0; p.RandomCallFrac = 1 },
	} {
		p := base
		p.Seed += int64(i)
		mutate(&p)
		cases = append(cases, tc{fmt.Sprintf("corner-%d", i), p})
	}
	for _, c := range cases {
		got := trace.NewServerGenerator(c.p)
		want := newRefGenerator(c.p)
		// Mix Next and NextBatch, with batch sizes that straddle each other.
		batch := make([]trace.Record, 0, 700)
		var w trace.Record
		for i := 0; i < n; {
			size := 1 + (i*7919)%len(batch[:cap(batch)])
			if size > n-i {
				size = n - i
			}
			batch = batch[:size]
			if size == 1 {
				if err := got.Next(&batch[0]); err != nil {
					t.Fatal(err)
				}
			} else if k, err := got.NextBatch(batch); k != size || err != nil {
				t.Fatalf("%s: NextBatch(%d) = %d, %v", c.name, size, k, err)
			}
			for j := range batch {
				want.Next(&w)
				if batch[j] != w {
					t.Fatalf("%s: record %d = %+v, math/rand generator gives %+v", c.name, i+j, batch[j], w)
				}
			}
			i += size
		}
		if got.Emitted() != uint64(n) {
			t.Fatalf("%s: Emitted = %d, want %d", c.name, got.Emitted(), n)
		}
	}
}
