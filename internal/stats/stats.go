// Package stats provides the measurement helpers shared by the simulator and
// the experiment harness: rate metrics (MPKI, coverage, speedup, geometric
// mean) and the instruction-TLB miss-stream characterisation tools used to
// reproduce the paper's Findings 1-3 (delta distributions, page-frequency
// skew, and successor-page statistics).
package stats

import (
	"math"
	"sort"
)

// MPKI returns misses per kilo-instruction.
func MPKI(misses, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(instructions)
}

// Speedup returns the relative performance improvement, in percent, of a run
// that took cycles over a baseline that took baseCycles executing the same
// instruction count. Positive means faster than baseline.
func Speedup(baseCycles, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return (float64(baseCycles)/float64(cycles) - 1) * 100
}

// Coverage returns the fraction, in percent, of baseline misses eliminated.
func Coverage(baseMisses, misses uint64) float64 {
	if baseMisses == 0 {
		return 0
	}
	if misses > baseMisses {
		return 0
	}
	return float64(baseMisses-misses) / float64(baseMisses) * 100
}

// GeoMeanSpeedup returns the geometric mean of per-workload speedups given in
// percent (e.g. 7.6 means +7.6%). It averages the speedup ratios, not the
// percentages, matching how architecture papers report "geomean speedup".
// An entry at or below -100% (a non-positive ratio, only possible from
// degenerate measurements) clamps the whole mean to -100% rather than
// propagating NaN through the table.
func GeoMeanSpeedup(pcts []float64) float64 {
	if len(pcts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pcts {
		r := 1 + p/100
		if r <= 0 {
			return -100
		}
		sum += math.Log(r)
	}
	return (math.Exp(sum/float64(len(pcts))) - 1) * 100
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percent returns part/whole in percent, or 0 when whole is zero.
func Percent(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

// Ratio returns part/whole, or 0 when whole is zero.
func Ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// DeltaDistribution accumulates the distribution of deltas between pages
// that produce consecutive misses (paper Figure 5). Deltas are recorded by
// absolute value.
type DeltaDistribution struct {
	counts map[uint64]uint64
	total  uint64
	prev   uint64
	seeded bool
}

// NewDeltaDistribution returns an empty distribution.
func NewDeltaDistribution() *DeltaDistribution {
	return &DeltaDistribution{counts: make(map[uint64]uint64)}
}

// Observe records the next page in the miss stream.
func (d *DeltaDistribution) Observe(page uint64) {
	if d.seeded {
		delta := page - d.prev
		if page < d.prev {
			delta = d.prev - page
		}
		d.counts[delta]++
		d.total++
	}
	d.prev = page
	d.seeded = true
}

// Total returns the number of recorded deltas.
func (d *DeltaDistribution) Total() uint64 { return d.total }

// CumulativeUpTo returns the fraction, in percent, of deltas whose absolute
// value is at most limit.
func (d *DeltaDistribution) CumulativeUpTo(limit uint64) float64 {
	if d.total == 0 {
		return 0
	}
	var n uint64
	for delta, c := range d.counts {
		if delta <= limit {
			n += c
		}
	}
	return float64(n) / float64(d.total) * 100
}

// PageFrequency accumulates per-page miss counts (paper Figure 6).
type PageFrequency struct {
	counts map[uint64]uint64
	total  uint64
}

// NewPageFrequency returns an empty frequency tracker.
func NewPageFrequency() *PageFrequency {
	return &PageFrequency{counts: make(map[uint64]uint64)}
}

// Observe records one miss on the given page.
func (p *PageFrequency) Observe(page uint64) {
	p.counts[page]++
	p.total++
}

// Total returns the number of observed misses.
func (p *PageFrequency) Total() uint64 { return p.total }

// Pages returns the number of distinct pages observed.
func (p *PageFrequency) Pages() int { return len(p.counts) }

// sorted returns per-page counts in decreasing order.
func (p *PageFrequency) sorted() []uint64 {
	out := make([]uint64, 0, len(p.counts))
	for _, c := range p.counts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// PagesForCoverage returns how many of the hottest pages are needed to cover
// the given percentage of all misses (e.g. 90 for the paper's "400-800 pages
// cause 90% of the iSTLB misses").
func (p *PageFrequency) PagesForCoverage(percent float64) int {
	if p.total == 0 {
		return 0
	}
	target := percent / 100 * float64(p.total)
	var cum uint64
	for i, c := range p.sorted() {
		cum += c
		if float64(cum) >= target {
			return i + 1
		}
	}
	return len(p.counts)
}

// SuccessorStats accumulates the successor-page structure of a miss stream
// (paper Figures 7 and 8). Page Y is a successor of page X when a miss on X
// is immediately followed by a miss on Y.
type SuccessorStats struct {
	succ   map[uint64]map[uint64]uint64
	misses map[uint64]uint64
	prev   uint64
	seeded bool
}

// NewSuccessorStats returns an empty successor tracker.
func NewSuccessorStats() *SuccessorStats {
	return &SuccessorStats{
		succ:   make(map[uint64]map[uint64]uint64),
		misses: make(map[uint64]uint64),
	}
}

// Observe records the next page in the miss stream.
func (s *SuccessorStats) Observe(page uint64) {
	s.misses[page]++
	if s.seeded {
		m := s.succ[s.prev]
		if m == nil {
			m = make(map[uint64]uint64)
			s.succ[s.prev] = m
		}
		m[page]++
	}
	s.prev = page
	s.seeded = true
}

// SuccessorHistogram buckets pages by their number of distinct successors
// using the paper's Figure 7 buckets: exactly 1, exactly 2, 3-4, 5-8, and
// more than 8. Returned values are percentages of pages that have at least
// one successor.
func (s *SuccessorStats) SuccessorHistogram() (one, two, upTo4, upTo8, more float64) {
	var counts [5]int
	total := 0
	for _, m := range s.succ {
		n := len(m)
		if n == 0 {
			continue
		}
		total++
		switch {
		case n == 1:
			counts[0]++
		case n == 2:
			counts[1]++
		case n <= 4:
			counts[2]++
		case n <= 8:
			counts[3]++
		default:
			counts[4]++
		}
	}
	if total == 0 {
		return 0, 0, 0, 0, 0
	}
	f := func(i int) float64 { return float64(counts[i]) / float64(total) * 100 }
	return f(0), f(1), f(2), f(3), f(4)
}

// TopPageSuccessorProbabilities considers the topN pages with the most
// misses and returns the average probability that, after a miss on one of
// those pages, the next miss is on its most frequent, second most frequent,
// and third most frequent successor; rest is the remaining probability mass
// (paper Figure 8 reports roughly 51/21/11/17).
func (s *SuccessorStats) TopPageSuccessorProbabilities(topN int) (first, second, third, rest float64) {
	type pc struct {
		page, count uint64
	}
	pages := make([]pc, 0, len(s.misses))
	for pg, c := range s.misses {
		if len(s.succ[pg]) > 0 {
			pages = append(pages, pc{pg, c})
		}
	}
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].count != pages[j].count {
			return pages[i].count > pages[j].count
		}
		return pages[i].page < pages[j].page
	})
	if topN > len(pages) {
		topN = len(pages)
	}
	if topN == 0 {
		return 0, 0, 0, 0
	}
	var sums [3]float64
	for _, p := range pages[:topN] {
		freqs := make([]uint64, 0, len(s.succ[p.page]))
		var total uint64
		for _, c := range s.succ[p.page] {
			freqs = append(freqs, c)
			total += c
		}
		sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
		for i := 0; i < 3 && i < len(freqs); i++ {
			sums[i] += float64(freqs[i]) / float64(total)
		}
	}
	n := float64(topN)
	first, second, third = sums[0]/n*100, sums[1]/n*100, sums[2]/n*100
	rest = 100 - first - second - third
	if rest < 0 {
		rest = 0
	}
	return first, second, third, rest
}
