package sampling

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"morrigan/internal/arch"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

func TestPolicyValidate(t *testing.T) {
	base := Policy{Interval: 1000, Clusters: 4, SliceWarmup: 500, Seed: 1}
	cases := []struct {
		name    string
		mutate  func(*Policy)
		measure uint64
		wantErr bool
	}{
		{"ok", func(*Policy) {}, 10_000, false},
		{"zero interval", func(p *Policy) { p.Interval = 0 }, 10_000, true},
		{"zero clusters", func(p *Policy) { p.Clusters = 0 }, 10_000, true},
		{"measure shorter than interval", func(*Policy) {}, 500, true},
		{"measure not a multiple", func(*Policy) {}, 10_500, true},
		{"warmup too long", func(p *Policy) { p.SliceWarmup = 4001 }, 10_000, true},
		{"warmup at the limit", func(p *Policy) { p.SliceWarmup = 4000 }, 10_000, false},
		{"zero warmup", func(p *Policy) { p.SliceWarmup = 0 }, 10_000, false},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		err := p.Validate(tc.measure)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate(%d) = %v, wantErr=%v", tc.name, tc.measure, err, tc.wantErr)
		}
	}
}

func TestDefaultPolicyValidates(t *testing.T) {
	if err := DefaultPolicy().Validate(10_000_000); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
}

// sliceReader is a finite trace for truncation tests.
type sliceReader struct {
	recs []trace.Record
	pos  int
}

func (r *sliceReader) Next(rec *trace.Record) error {
	if r.pos >= len(r.recs) {
		return io.EOF
	}
	*rec = r.recs[r.pos]
	r.pos++
	return nil
}

// loopTrace builds n instructions striding through `pages` instruction pages.
func loopTrace(n, pages int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		page := uint64(i%pages + 1)
		recs[i].PC = arch.VAddr(page*arch.PageSize + uint64(i%64)*8)
	}
	return recs
}

func TestBuildProfileDeterministic(t *testing.T) {
	w := workloads.QMM()[0]
	const skip, measure, interval = 2_000, 20_000, 2_000
	a, err := BuildProfile(w.NewReader(), w.Hash(), skip, measure, interval)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildProfile(w.NewReader(), w.Hash(), skip, measure, interval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two profiling passes over the same stream differ")
	}
	if len(a.Intervals) != measure/interval {
		t.Fatalf("intervals = %d, want %d", len(a.Intervals), measure/interval)
	}
	var transitions uint64
	for i, f := range a.Intervals {
		if f.Instructions != interval {
			t.Errorf("interval %d profiled %d instructions, want %d", i, f.Instructions, interval)
		}
		if f.MissPCSkew < 0 || f.MissPCSkew > 1 {
			t.Errorf("interval %d skew %g out of [0,1]", i, f.MissPCSkew)
		}
		if f.ISTLBMisses > f.ITLBMisses {
			t.Errorf("interval %d: STLB misses %d exceed ITLB misses %d", i, f.ISTLBMisses, f.ITLBMisses)
		}
		transitions += f.PageTransitions
	}
	if transitions == 0 {
		t.Error("no page transitions recorded over the whole window")
	}
}

func TestBuildProfileDropsTruncatedInterval(t *testing.T) {
	// 2.5 intervals of records: the truncated final interval is dropped.
	r := &sliceReader{recs: loopTrace(2_500, 8)}
	prof, err := BuildProfile(r, "w", 0, 10_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2 (truncated third dropped)", len(prof.Intervals))
	}
}

func TestBuildProfileErrors(t *testing.T) {
	if _, err := BuildProfile(&sliceReader{recs: loopTrace(500, 8)}, "w", 0, 10_000, 1_000); err == nil {
		t.Error("stream shorter than one interval accepted")
	}
	if _, err := BuildProfile(&sliceReader{}, "w", 0, 10_000, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := BuildProfile(&sliceReader{}, "w", 0, 500, 1_000); err == nil {
		t.Error("measure shorter than interval accepted")
	}
}

func TestClusterDeterministicWeightsAndOrder(t *testing.T) {
	w := workloads.QMM()[1]
	prof, err := BuildProfile(w.NewReader(), w.Hash(), 0, 40_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Interval: 2_000, Clusters: 4, Seed: 7}
	a, err := Cluster(prof, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(prof, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("clustering the same profile twice differs")
	}
	if a.Intervals != len(prof.Intervals) || a.Interval != prof.Interval {
		t.Errorf("plan window = (%d, %d), want (%d, %d)", a.Intervals, a.Interval, len(prof.Intervals), prof.Interval)
	}
	if len(a.Reps) == 0 || len(a.Reps) > pol.Clusters {
		t.Fatalf("reps = %d, want 1..%d", len(a.Reps), pol.Clusters)
	}
	var sum float64
	for i, rep := range a.Reps {
		if rep.Index < 0 || rep.Index >= a.Intervals {
			t.Errorf("rep %d index %d out of window", i, rep.Index)
		}
		if i > 0 && rep.Index <= a.Reps[i-1].Index {
			t.Errorf("reps not strictly ascending: %d then %d", a.Reps[i-1].Index, rep.Index)
		}
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
}

func TestClusterClampsToIntervalCount(t *testing.T) {
	r := &sliceReader{recs: loopTrace(5_000, 8)}
	prof, err := BuildProfile(r, "w", 0, 5_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Cluster(prof, Policy{Interval: 1_000, Clusters: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reps) > len(prof.Intervals) {
		t.Errorf("reps = %d exceed the %d intervals", len(plan.Reps), len(prof.Intervals))
	}
	var sum float64
	for _, rep := range plan.Reps {
		sum += rep.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	if _, err := Cluster(&Profile{}, Policy{Interval: 1_000, Clusters: 4, Seed: 1}); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestExtrapolateScalesAndRecomputesRatios(t *testing.T) {
	a := sim.Stats{Instructions: 1_000, Cycles: 2_000, IPC: 0.5, ITLBMisses: 10, ITLBMPKI: 10, ISTLBMisses: 4, DemandIWalks: 4, DemandIWalkRefs: 8}
	b := sim.Stats{Instructions: 1_000, Cycles: 1_000, IPC: 1.0, ITLBMisses: 30, ITLBMPKI: 30, ISTLBMisses: 8, DemandIWalks: 2, DemandIWalkRefs: 2}
	a.PrefetchRefsByLevel[0], b.PrefetchRefsByLevel[0] = 100, 200

	est, ci := Extrapolate([]sim.Stats{a, b}, []float64{0.5, 0.5}, 10)
	if est.Instructions != 10_000 {
		t.Errorf("Instructions = %d, want 10000", est.Instructions)
	}
	if est.Cycles != 15_000 {
		t.Errorf("Cycles = %d, want 15000", est.Cycles)
	}
	// IPC is recomputed from the extrapolated counters, not averaged
	// (weighted-mean IPC would be 0.75; the counter ratio is 2/3).
	if want := 10_000.0 / 15_000.0; math.Abs(est.IPC-want) > 1e-9 {
		t.Errorf("IPC = %g, want %g", est.IPC, want)
	}
	if est.ITLBMisses != 200 {
		t.Errorf("ITLBMisses = %d, want 200", est.ITLBMisses)
	}
	if math.Abs(est.ITLBMPKI-20) > 1e-9 {
		t.Errorf("ITLBMPKI = %g, want 20", est.ITLBMPKI)
	}
	if est.PrefetchRefsByLevel[0] != 1_500 {
		t.Errorf("PrefetchRefsByLevel[0] = %d, want 1500", est.PrefetchRefsByLevel[0])
	}
	if want := 10.0 / 6.0; math.Abs(est.RefsPerWalk-want) > 1e-9 {
		t.Errorf("RefsPerWalk = %g, want %g", est.RefsPerWalk, want)
	}
	if ci.IPC <= 0 || ci.ITLBMPKI <= 0 {
		t.Errorf("CI half-widths must be positive with differing slices: %+v", ci)
	}
	// The weighted-mean IPC (0.75) must fall inside the recomputed value's
	// sampling spread: the half-width covers between-slice variance.
	if math.Abs(est.IPC-0.75) > ci.IPC {
		t.Errorf("weighted mean 0.75 outside IPC CI %g ± %g", est.IPC, ci.IPC)
	}
}

func TestExtrapolateIdenticalSlicesBiasGuardOnly(t *testing.T) {
	s := sim.Stats{Instructions: 1_000, Cycles: 2_000, IPC: 0.5}
	_, ci := Extrapolate([]sim.Stats{s, s, s}, []float64{0.5, 0.25, 0.25}, 12)
	// Zero between-slice variance leaves exactly the systematic bias guard.
	if want := biasGuardPct * 0.5; math.Abs(ci.IPC-want) > 1e-12 {
		t.Errorf("identical-slice IPC half-width = %g, want bias guard %g", ci.IPC, want)
	}
}

func TestProfileKeySensitivity(t *testing.T) {
	base := ProfileKey("w", 1, 100, 10)
	keys := map[string]string{
		"workload": ProfileKey("w2", 1, 100, 10),
		"skip":     ProfileKey("w", 2, 100, 10),
		"measure":  ProfileKey("w", 1, 200, 10),
		"interval": ProfileKey("w", 1, 100, 20),
	}
	for dim, k := range keys {
		if k == base {
			t.Errorf("changing %s did not change the profile key", dim)
		}
	}
	if ProfileKey("w", 1, 100, 10) != base {
		t.Error("profile key not deterministic")
	}
}

func TestProfileStoreBuildReuseAndCorruption(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	newReader := func() (trace.Reader, error) {
		builds++
		return &sliceReader{recs: loopTrace(5_000, 8)}, nil
	}

	a, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("functional pass ran %d times, want 1", builds)
	}
	if ps.Built() != 1 || ps.Reused() != 1 {
		t.Errorf("built=%d reused=%d, want 1/1", ps.Built(), ps.Reused())
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached profile differs from built profile")
	}

	// A second store instance over the same directory reuses the artifact.
	ps2, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps2.Profile("w", 0, 5_000, 1_000, newReader); err != nil {
		t.Fatal(err)
	}
	if builds != 1 || ps2.Built() != 0 || ps2.Reused() != 1 {
		t.Errorf("disk reuse: builds=%d built=%d reused=%d, want 1/0/1", builds, ps2.Built(), ps2.Reused())
	}

	// Corrupting the artifact triggers a silent rebuild, not an error.
	key := ProfileKey("w", 0, 5_000, 1_000)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ps3, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ps3.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if ps3.Built() != 1 {
		t.Errorf("corrupt artifact not rebuilt: built=%d", ps3.Built())
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("rebuilt profile differs from original")
	}

	// A mismatched window must never serve another window's artifact.
	if _, err := ps3.Profile("w", 0, 4_000, 1_000, newReader); err != nil {
		t.Fatal(err)
	}
	if ps3.Built() != 2 {
		t.Errorf("distinct window served from cache: built=%d, want 2", ps3.Built())
	}
}

func TestRecordOutcomeTotals(t *testing.T) {
	before := Totals()
	RecordOutcome(nil) // no-op
	RecordOutcome(&Outcome{TimedInstructions: 100, FastForwarded: 900})
	after := Totals()
	if d := after.SampledRuns - before.SampledRuns; d != 1 {
		t.Errorf("sampled runs advanced by %d, want 1", d)
	}
	if d := after.TimedInstructions - before.TimedInstructions; d != 100 {
		t.Errorf("timed instructions advanced by %d, want 100", d)
	}
	if d := after.FastForwarded - before.FastForwarded; d != 900 {
		t.Errorf("fast-forwarded advanced by %d, want 900", d)
	}
}

// memStore opens a memory-only profile store.
func memStore(t *testing.T) *ProfileStore {
	t.Helper()
	ps, err := OpenProfileStore("")
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestMemProfileCacheSharesAcrossConfigs(t *testing.T) {
	mc := memStore(t)
	builds := 0
	newReader := func() (trace.Reader, error) {
		builds++
		return &sliceReader{recs: loopTrace(5_000, 8)}, nil
	}

	// Six "configs" of the same workload and window — the fig15 shape.
	var first *Profile
	for i := 0; i < 6; i++ {
		p, err := mc.Profile("w", 0, 5_000, 1_000, newReader)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Error("cache returned a different profile instance")
		}
	}
	if builds != 1 {
		t.Errorf("functional pass ran %d times, want 1", builds)
	}
	if mc.Built() != 1 || mc.Reused() != 5 {
		t.Errorf("built=%d reused=%d, want 1/5", mc.Built(), mc.Reused())
	}

	// A different window is a different key.
	if _, err := mc.Profile("w", 0, 5_000, 500, newReader); err != nil {
		t.Fatal(err)
	}
	if mc.Built() != 2 {
		t.Errorf("built=%d after new window, want 2", mc.Built())
	}

	// The cached profile matches a direct build bit for bit.
	direct, err := BuildProfile(&sliceReader{recs: loopTrace(5_000, 8)}, "w", 0, 5_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, direct) {
		t.Error("cached profile differs from a direct build")
	}
}

func TestMemProfileCacheErrorNotCached(t *testing.T) {
	mc := memStore(t)
	fail := true
	newReader := func() (trace.Reader, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return &sliceReader{recs: loopTrace(5_000, 8)}, nil
	}
	if _, err := mc.Profile("w", 0, 5_000, 1_000, newReader); err == nil {
		t.Fatal("reader error not surfaced")
	}
	fail = false
	if _, err := mc.Profile("w", 0, 5_000, 1_000, newReader); err != nil {
		t.Fatalf("failed build poisoned the key: %v", err)
	}
	if mc.Built() != 1 {
		t.Errorf("built=%d, want 1", mc.Built())
	}
}

// TestProfileStoreServesFromMemory: a disk store keeps what it built in
// memory, so a second request needs neither the functional pass nor the file.
func TestProfileStoreServesFromMemory(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenProfileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	newReader := func() (trace.Reader, error) {
		builds++
		return &sliceReader{recs: loopTrace(5_000, 8)}, nil
	}
	a, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ProfileKey("w", 0, 5_000, 1_000)+".json")); err != nil {
		t.Fatal(err)
	}
	b, err := ps.Profile("w", 0, 5_000, 1_000, newReader)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 || ps.Built() != 1 || ps.Reused() != 1 {
		t.Errorf("builds=%d built=%d reused=%d, want 1/1/1", builds, ps.Built(), ps.Reused())
	}
	if a != b {
		t.Error("second request did not return the in-memory profile")
	}
}
