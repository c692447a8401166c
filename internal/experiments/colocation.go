package experiments

import (
	"fmt"
	"math"

	"morrigan/internal/sim"
	"morrigan/internal/stats"
	"morrigan/internal/workloads"
)

// colocationWays are the mix widths of the shared-STLB contention study.
var colocationWays = []int{4, 8, 16}

// Colocation extends the paper's 2-way SMT study (Figure 20) to 4/8/16-way
// shared-STLB workload mixes, reporting contention and prefetcher fairness
// against isolated runs of the same workloads. Per (way, configuration) it
// reports the mean shared-machine IPC and iSTLB MPKI, walk-MPKI inflation
// (shared effective-miss MPKI — misses that paid a demand walk rather than
// being served by the prefetch buffer — over the mean isolated effective
// MPKI of the mix), and a fairness index: the min/max ratio across threads
// of each thread's effective-MPKI inflation over its own isolated run
// (1.0 = contention and prefetch coverage degrade every tenant equally;
// lower = some tenants absorb the contention).
func Colocation(o Options) (*Table, error) {
	nMixes := o.SMTPairs / 2
	if nMixes < 1 {
		nMixes = 1
	}
	configs := []contender{
		{"baseline", baseline()},
		{"Morrigan", morrigan()},
	}

	// Draw the mixes for every way, then collect the distinct workloads
	// involved so each gets exactly one isolated run per configuration
	// (the shared cache/result store dedups across experiments too).
	mixes := make(map[int][][]workloads.Spec, len(colocationWays))
	var isolated []workloads.Spec
	seen := map[string]bool{}
	for _, way := range colocationWays {
		ms := workloads.Mixes(nMixes, way, 2021+int64(way))
		mixes[way] = ms
		for _, mix := range ms {
			for _, w := range mix {
				if !seen[w.Name] {
					seen[w.Name] = true
					isolated = append(isolated, w)
				}
			}
		}
	}

	var jobs []simJob
	for _, c := range configs {
		for _, w := range isolated {
			jobs = append(jobs, job(c.name, w, c.spec))
		}
	}
	for _, way := range colocationWays {
		for _, mix := range mixes[way] {
			for _, c := range configs {
				jobs = append(jobs, mixJob(fmt.Sprintf("%s/%d-way", c.name, way), mix, c.spec))
			}
		}
	}
	sts, err := o.campaign("colocation", jobs)
	if err != nil {
		return nil, err
	}

	iso := make(map[string]map[string]sim.Stats, len(configs))
	k := 0
	for _, c := range configs {
		iso[c.name] = make(map[string]sim.Stats, len(isolated))
		for _, w := range isolated {
			iso[c.name][w.Name] = sts[k]
			k++
		}
	}

	t := &Table{
		ID:    "colocation",
		Title: fmt.Sprintf("shared-STLB contention and fairness over %d mixes per way", nMixes),
		Header: []string{"mix", "configuration", "IPC", "iSTLB MPKI",
			"walk-MPKI inflation", "fairness"},
		Notes: []string{
			"walk MPKI: iSTLB misses that paid a demand page walk (not served by the PB), per kilo-instruction",
			"inflation: shared walk MPKI over the mean isolated walk MPKI of the mix's workloads",
			"fairness: min/max across threads of per-thread walk-MPKI inflation vs. that workload alone (1.0 = even degradation)",
		},
	}
	for _, way := range colocationWays {
		type agg struct{ ipc, mpki, infl, fair []float64 }
		accs := make(map[string]*agg, len(configs))
		for _, mix := range mixes[way] {
			for _, c := range configs {
				st := sts[k]
				k++
				a := accs[c.name]
				if a == nil {
					a = &agg{}
					accs[c.name] = a
				}
				a.ipc = append(a.ipc, st.IPC)
				a.mpki = append(a.mpki, st.ISTLBMPKI)

				minInfl, maxInfl := math.Inf(1), math.Inf(-1)
				isoMean := 0.0
				for i, w := range mix {
					isoSt := iso[c.name][w.Name]
					isoMPKI := stats.MPKI(isoSt.ISTLBMisses-isoSt.PBHits, isoSt.Instructions)
					isoMean += isoMPKI
					if isoMPKI == 0 {
						continue // inflation undefined for a walk-free isolated run
					}
					thrMPKI := stats.MPKI(st.ThreadISTLBMisses[i]-st.ThreadPBHits[i], st.ThreadInstructions[i])
					infl := thrMPKI / isoMPKI
					minInfl = math.Min(minInfl, infl)
					maxInfl = math.Max(maxInfl, infl)
				}
				isoMean /= float64(len(mix))
				if isoMean > 0 {
					a.infl = append(a.infl, stats.MPKI(st.ISTLBMisses-st.PBHits, st.Instructions)/isoMean)
				}
				if maxInfl > 0 && !math.IsInf(maxInfl, 1) {
					a.fair = append(a.fair, minInfl/maxInfl)
				}
			}
		}
		for _, c := range configs {
			a := accs[c.name]
			t.AddRow(fmt.Sprintf("%d-way", way), c.name,
				f2(stats.Mean(a.ipc)), f2(stats.Mean(a.mpki)), f2(stats.Mean(a.infl)), f2(stats.Mean(a.fair)))
		}
	}
	return t, nil
}
