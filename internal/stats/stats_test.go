package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMPKI(t *testing.T) {
	if got := MPKI(500, 1_000_000); !almost(got, 0.5) {
		t.Errorf("MPKI = %v, want 0.5", got)
	}
	if got := MPKI(10, 0); got != 0 {
		t.Errorf("MPKI with zero instructions = %v, want 0", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(110, 100); !almost(got, 10) {
		t.Errorf("Speedup = %v, want 10", got)
	}
	if got := Speedup(100, 110); got >= 0 {
		t.Errorf("slowdown should be negative, got %v", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Errorf("Speedup with zero cycles = %v, want 0", got)
	}
}

func TestCoverage(t *testing.T) {
	if got := Coverage(1000, 310); !almost(got, 69) {
		t.Errorf("Coverage = %v, want 69", got)
	}
	if got := Coverage(0, 10); got != 0 {
		t.Errorf("Coverage with zero baseline = %v", got)
	}
	if got := Coverage(10, 20); got != 0 {
		t.Errorf("negative coverage should clamp to 0, got %v", got)
	}
}

func TestGeoMeanSpeedup(t *testing.T) {
	// Geomean of identical values is that value.
	if got := GeoMeanSpeedup([]float64{7.6, 7.6, 7.6}); !almost(got, 7.6) {
		t.Errorf("GeoMeanSpeedup = %v, want 7.6", got)
	}
	// +100% and -50% cancel: ratios 2.0 and 0.5 have geomean 1.0.
	if got := GeoMeanSpeedup([]float64{100, -50}); !almost(got, 0) {
		t.Errorf("GeoMeanSpeedup = %v, want 0", got)
	}
	if got := GeoMeanSpeedup(nil); got != 0 {
		t.Errorf("GeoMeanSpeedup(nil) = %v, want 0", got)
	}
}

// TestGeoMeanSpeedupDegenerate: an entry at or below -100% used to feed
// log(0) or log(negative) into the mean and turn the whole result into NaN;
// it must instead clamp to -100% and stay finite.
func TestGeoMeanSpeedupDegenerate(t *testing.T) {
	for _, pcts := range [][]float64{
		{-100},
		{-100, 10, 20},
		{-150, 5},
	} {
		got := GeoMeanSpeedup(pcts)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("GeoMeanSpeedup(%v) = %v, want finite", pcts, got)
		}
		if !almost(got, -100) {
			t.Errorf("GeoMeanSpeedup(%v) = %v, want -100", pcts, got)
		}
	}
	// Entries just above -100% still go through the real geomean.
	if got := GeoMeanSpeedup([]float64{-99.9}); !almost(got, -99.9) {
		t.Errorf("GeoMeanSpeedup([-99.9]) = %v, want -99.9", got)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a) / 4, float64(b) / 4, float64(c) / 4}
		g := GeoMeanSpeedup(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndPercent(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Percent(25, 100); !almost(got, 25) {
		t.Errorf("Percent = %v", got)
	}
	if got := Percent(1, 0); got != 0 {
		t.Errorf("Percent(1,0) = %v", got)
	}
	if got := Ratio(3, 4); !almost(got, 0.75) {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio(3,0) = %v", got)
	}
}

func TestDeltaDistribution(t *testing.T) {
	d := NewDeltaDistribution()
	for _, p := range []uint64{100, 101, 103, 100, 200} {
		d.Observe(p)
	}
	// Deltas: 1, 2, 3, 100.
	if d.Total() != 4 {
		t.Fatalf("Total = %d, want 4", d.Total())
	}
	if got := d.CumulativeUpTo(2); !almost(got, 50) {
		t.Errorf("CumulativeUpTo(2) = %v, want 50", got)
	}
	if got := d.CumulativeUpTo(10); !almost(got, 75) {
		t.Errorf("CumulativeUpTo(10) = %v, want 75", got)
	}
}

func TestDeltaDistributionEmpty(t *testing.T) {
	d := NewDeltaDistribution()
	if d.CumulativeUpTo(10) != 0 {
		t.Error("empty distribution should report 0")
	}
	d.Observe(5) // single observation: still no delta
	if d.Total() != 0 {
		t.Error("one observation produces no delta")
	}
}

func TestPageFrequency(t *testing.T) {
	p := NewPageFrequency()
	// Page 1: 90 misses, page 2: 9, page 3: 1.
	for i := 0; i < 90; i++ {
		p.Observe(1)
	}
	for i := 0; i < 9; i++ {
		p.Observe(2)
	}
	p.Observe(3)
	if p.Total() != 100 || p.Pages() != 3 {
		t.Fatalf("Total=%d Pages=%d", p.Total(), p.Pages())
	}
	if got := p.PagesForCoverage(90); got != 1 {
		t.Errorf("PagesForCoverage(90) = %d, want 1", got)
	}
	if got := p.PagesForCoverage(99); got != 2 {
		t.Errorf("PagesForCoverage(99) = %d, want 2", got)
	}
}

func TestPageFrequencyEmpty(t *testing.T) {
	p := NewPageFrequency()
	if p.PagesForCoverage(90) != 0 {
		t.Error("empty frequency tracker should report zeros")
	}
}

func TestSuccessorHistogram(t *testing.T) {
	s := NewSuccessorStats()
	// Page 1 -> {2}; page 2 -> {1, 3}; page 3 -> {1}.
	stream := []uint64{1, 2, 1, 2, 3, 1, 2, 3, 1}
	for _, p := range stream {
		s.Observe(p)
	}
	one, two, upTo4, upTo8, more := s.SuccessorHistogram()
	// Pages 1 and 3 have exactly one successor; page 2 has two.
	if !almost(one, 200.0/3) || !almost(two, 100.0/3) {
		t.Errorf("histogram = %v %v %v %v %v", one, two, upTo4, upTo8, more)
	}
	if upTo4 != 0 || upTo8 != 0 || more != 0 {
		t.Errorf("unexpected large-successor buckets: %v %v %v", upTo4, upTo8, more)
	}
}

func TestSuccessorHistogramBuckets(t *testing.T) {
	s := NewSuccessorStats()
	// Give page 100 nine distinct successors -> "more than 8" bucket.
	for i := uint64(0); i < 9; i++ {
		s.Observe(100)
		s.Observe(200 + i)
	}
	_, _, _, _, more := s.SuccessorHistogram()
	if more == 0 {
		t.Error("expected a page in the >8 successors bucket")
	}
}

func TestTopPageSuccessorProbabilities(t *testing.T) {
	s := NewSuccessorStats()
	// Page 1 goes to page 2 with p=0.5, page 3 with p=0.3, page 4 with 0.2.
	stream := []uint64{}
	for i := 0; i < 5; i++ {
		stream = append(stream, 1, 2)
	}
	for i := 0; i < 3; i++ {
		stream = append(stream, 1, 3)
	}
	for i := 0; i < 2; i++ {
		stream = append(stream, 1, 4)
	}
	for _, p := range stream {
		s.Observe(p)
	}
	first, second, third, rest := s.TopPageSuccessorProbabilities(1)
	if !almost(first, 50) || !almost(second, 30) || !almost(third, 20) {
		t.Errorf("probabilities = %v %v %v (rest %v)", first, second, third, rest)
	}
	if rest > 1e-9 {
		t.Errorf("rest = %v, want 0", rest)
	}
}

func TestTopPageSuccessorProbabilitiesEmpty(t *testing.T) {
	s := NewSuccessorStats()
	f, sec, th, rest := s.TopPageSuccessorProbabilities(50)
	if f != 0 || sec != 0 || th != 0 || rest != 0 {
		t.Error("empty stats should report zeros")
	}
}
