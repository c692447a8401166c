package main

import (
	"fmt"
	"math"

	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
)

// checkResult returns the invariants a job's result violates. They hold for
// any correct model, so the benchmark stores no golden numbers and a later
// model change does not fail it.
func checkResult(r runner.Result) []string {
	if r.Err != nil {
		return []string{r.Err.Error()}
	}
	j, st := r.Job, r.Stats
	var bad []string
	var threads uint64
	for _, n := range st.ThreadInstructions {
		threads += n
	}
	if threads != st.Instructions {
		bad = append(bad, fmt.Sprintf("sum of ThreadInstructions %d != Instructions %d", threads, st.Instructions))
	}
	if j.Machine.Prefetcher.Kind == machine.PrefetcherMorrigan {
		// PB entries installed for page-crossing I-cache prefetches carry
		// no Morrigan token, so their hits are counted in ICachePBServed.
		// A sampled result rounds each extrapolated counter on its own, so
		// the three-term sum may differ from PBHits by up to 2.
		attributed := st.IRIPHits + st.SDPHits + st.ICachePBServed
		slack := uint64(0)
		if r.Sampling != nil {
			slack = 2
		}
		if diff(attributed, st.PBHits) > slack {
			bad = append(bad, fmt.Sprintf("IRIPHits+SDPHits+ICachePBServed %d != PBHits %d", attributed, st.PBHits))
		}
	}
	if isBaseline(j.Machine) && st.PBHits != 0 {
		bad = append(bad, fmt.Sprintf("baseline without a prefetcher has %d PB hits", st.PBHits))
	}
	if r.Sampling == nil && st.Instructions != j.Measure {
		bad = append(bad, fmt.Sprintf("full run measured %d instructions, want %d", st.Instructions, j.Measure))
	}
	if r.Sampling != nil {
		bad = append(bad, checkCI(r.Sampling.CI95)...)
	}
	return bad
}

func checkCI(ci sampling.CI) []string {
	var bad []string
	for name, v := range map[string]float64{
		"ipc": ci.IPC, "l1i_mpki": ci.L1IMPKI, "itlb_mpki": ci.ITLBMPKI,
		"istlb_mpki": ci.ISTLBMPKI, "dstlb_mpki": ci.DSTLBMPKI,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad = append(bad, fmt.Sprintf("sampled ci95 %s is %v", name, v))
		}
	}
	return bad
}

// isBaseline reports whether m has neither an iSTLB prefetcher nor an
// I-cache prefetcher that translates, so nothing can fill its PB.
func isBaseline(m machine.Spec) bool {
	pf := m.Prefetcher.Kind == "" || m.Prefetcher.Kind == machine.PrefetcherNone
	ic := m.ICachePrefetcher.Kind == "" || m.ICachePrefetcher.Kind == machine.ICacheNextLine
	return pf && ic && !m.PrefetchIntoSTLB
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// sameResult reports whether two runs of a job produced bit-identical
// output, sampling outcome included.
func sameResult(a, b runner.Result) bool {
	if (a.Sampling == nil) != (b.Sampling == nil) {
		return false
	}
	if a.Sampling != nil && *a.Sampling != *b.Sampling {
		return false
	}
	return a.Stats == b.Stats
}

// tally counts checked jobs and failures over a window's rounds: every job
// must pass checkResult, and every later round must reproduce the first
// round's output bit for bit.
func tally(rounds [][]runner.Result, report func(string)) (attempted, failed int) {
	for ri, round := range rounds {
		for i, r := range round {
			attempted++
			bad := checkResult(r)
			if ri > 0 && r.Err == nil && rounds[0][i].Err == nil && !sameResult(r, rounds[0][i]) {
				bad = append(bad, fmt.Sprintf("round %d differs from round 1", ri+1))
			}
			if len(bad) > 0 {
				failed++
				for _, b := range bad {
					report(fmt.Sprintf("%s: %s", r.Job.Name(), b))
				}
			}
		}
	}
	return attempted, failed
}

// compareReruns compares corpus-fed results with generator-fed reruns of the
// same jobs: the corpus stores the generator's exact output, so Stats must
// match bit for bit.
func compareReruns(corpusFed, generatorFed []runner.Result, report func(string)) (attempted, failed int) {
	for i, g := range generatorFed {
		attempted++
		if g.Err != nil || !sameResult(g, corpusFed[i]) {
			failed++
			report(fmt.Sprintf("%s: generator-fed rerun differs from corpus-fed result", g.Job.Name()))
		}
	}
	return attempted, failed
}
