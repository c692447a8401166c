package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"morrigan/internal/arch"
	"morrigan/internal/experiments"
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/trace"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

func TestMetricNamesMatchContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for layer, name := range layerMetric {
		if !seen[name] {
			t.Errorf("layer %s reports %s, which is not a defined metric", layer, name)
		}
	}

	// BENCHMARK.json sits at the repository root and must list the same
	// metrics with the same units.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		got  []struct{ Name, Unit string }
	}{{"end_to_end", endToEndMetrics, spec.EndToEnd}, {"per_layer", perLayerMetrics, spec.PerLayer}} {
		if len(c.got) != len(c.defs) {
			t.Fatalf("BENCHMARK.json %s lists %d metrics, the program %d", c.what, len(c.got), len(c.defs))
		}
		for i, d := range c.defs {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), program has %s (%s)", c.what, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// protoWriter encodes just enough profile.proto for synthetic profiles.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(field int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *protoWriter) bytes(field int, p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *protoWriter) packed(field int, vs []uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(field, p)
}

// syntheticProfile builds a gzipped CPU profile with one sample per stack.
// Each stack is a list of locations from the leaf outwards; each location
// lists its functions innermost first (more than one means inlining).
func syntheticProfile(t *testing.T, stacks [][][]string, cpuNS []int64) []byte {
	t.Helper()
	var p protoWriter
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m protoWriter
		m.varint(fValueTypeType, str(vt[0]))
		m.varint(fValueTypeUnit, str(vt[1]))
		p.bytes(fProfileSampleType, m.b)
	}
	funcs := map[string]uint64{}
	var nextLoc uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, frames := range stack {
			nextLoc++
			var loc protoWriter
			loc.varint(fLocationID, nextLoc)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f protoWriter
					f.varint(fFunctionID, id)
					f.varint(fFunctionName, str(fn))
					p.bytes(fProfileFunction, f.b)
				}
				var line protoWriter
				line.varint(fLineFunction, id)
				loc.bytes(fLocationLine, line.b)
			}
			p.bytes(fProfileLocation, loc.b)
			locs = append(locs, nextLoc)
		}
		var s protoWriter
		if si%2 == 0 {
			s.packed(fSampleLocation, locs)
		} else {
			for _, l := range locs {
				s.varint(fSampleLocation, l)
			}
		}
		s.packed(fSampleValue, []uint64{1, uint64(cpuNS[si])})
		p.bytes(fProfileSample, s.b)
	}
	p.varint(fProfilePeriod, 10_000_000)
	// The string table goes last, after the functions that index it.
	for _, s := range strs {
		p.bytes(fProfileString, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldAttributesSyntheticProfile(t *testing.T) {
	const (
		cacheInsert = "morrigan/internal/cache.(*Cache).Insert"
		simStep     = "morrigan/internal/sim.(*Simulator).stepBlock"
		ff          = "morrigan/internal/sim.(*Simulator).FastForward"
	)
	cases := []struct {
		stack [][]string
		layer string
	}{
		// Stdlib leaf: charged to the nearest morrigan caller.
		{[][]string{{"runtime.memmove"}, {cacheInsert}, {simStep}}, "cache"},
		// Inlined frames: the innermost inlined function decides.
		{[][]string{{"morrigan/internal/tlb.(*TLB).Lookup", simStep}}, "tlb"},
		{[][]string{{"morrigan/internal/tracestore.(*Reader).NextBatch"}, {"morrigan/internal/trace.Fill"}, {simStep}}, "trace"},
		{[][]string{{"morrigan/internal/core.(*Morrigan).OnMiss"}, {simStep}}, "tlbprefetch"},
		{[][]string{{"morrigan/internal/pagetable.(*Table).Translate"}, {"morrigan/internal/ptw.(*Walker).Walk"}}, "ptw"},
		// Helper packages defer to their caller.
		{[][]string{{"morrigan/internal/arch.VAddr.Page"}, {"morrigan/internal/icache.(*FNLMMA).OnAccess"}}, "icache"},
		// GC counts as runtime wherever it runs, assists included.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, "runtime"},
		{[][]string{{"runtime.gcAssistAlloc"}, {"runtime.mallocgc"}, {cacheInsert}}, "runtime"},
		// Sim glue under FastForward is split out; other layers are not.
		{[][]string{{"morrigan/internal/sim.(*Simulator).ffStep"}, {ff}, {"morrigan/internal/sampling.ExecuteTraced"}}, "sim.ff"},
		{[][]string{{"morrigan/internal/tlb.(*TLB).Insert"}, {ff}}, "tlb"},
		{[][]string{{simStep}, {"morrigan/internal/sim.(*Simulator).RunContext"}}, "sim"},
		{[][]string{{"morrigan/internal/sampling.BuildProfile"}}, "sampling"},
		{[][]string{{"morrigan/internal/cpu.(*Core).Retire"}}, "cpu"},
		// Unlisted packages and non-morrigan stacks are "other".
		{[][]string{{"morrigan/internal/runner.execute"}}, "other"},
		{[][]string{{"runtime.schedule"}, {"main.main"}}, "other"},
	}
	var stacks [][][]string
	var cpu []int64
	want := map[string]int64{}
	var wantTotal int64
	for i, c := range cases {
		ns := int64(1_000_000 * (i + 1))
		stacks = append(stacks, c.stack)
		cpu = append(cpu, ns)
		want[c.layer] += ns
		wantTotal += ns
	}
	layers, total, err := fold(syntheticProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Errorf("total = %d, want %d", total, wantTotal)
	}
	for layer, ns := range want {
		if layers[layer] != ns {
			t.Errorf("layer %s = %d ns, want %d", layer, layers[layer], ns)
		}
	}
	for layer := range layers {
		if _, ok := layerMetric[layer]; !ok {
			t.Errorf("fold produced unknown layer %q", layer)
		}
	}
}

func TestFoldReadsRuntimeProfile(t *testing.T) {
	jobs := shortJobs(t, experiments.Fig15, "Morrigan")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	layers, total, err := fold(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || layers["cache"] <= 0 || layers["sim"] <= 0 {
		t.Errorf("fold of a real profile: total %d, layers %v", total, layers)
	}
}

func TestFoldRejectsCorruptProfile(t *testing.T) {
	good := syntheticProfile(t, [][][]string{{{"main.main"}}}, []int64{1})
	raw, err := io.ReadAll(mustGzip(t, good))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw[:len(raw)-3]) // cut inside the string table
	zw.Close()
	if _, _, err := fold(buf.Bytes()); err == nil {
		t.Error("fold accepted a truncated profile")
	}
}

func mustGzip(t *testing.T, b []byte) io.Reader {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return zr
}

// shortJobs returns the experiment's jobs for one workload group, keeping
// the baseline and the given configurations, at a test-sized scale.
func shortJobs(t *testing.T, exp func(experiments.Options) (*experiments.Table, error), configs ...string) []runner.Job {
	t.Helper()
	all, err := captureJobs(exp, experiments.Options{Warmup: 20_000, Measure: 50_000, MaxWorkloads: 1, SMTPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{"baseline": true}
	for _, c := range configs {
		keep[c] = true
	}
	var jobs []runner.Job
	for _, j := range groupByWorkload(all)[0] {
		if keep[j.Config] {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) != len(keep) {
		t.Fatalf("found %d of the configs %v", len(jobs), configs)
	}
	return jobs
}

func TestCheckFlagsTamperedStats(t *testing.T) {
	jobs := shortJobs(t, experiments.Fig20, "Morrigan(2x)+FNL+MMA")
	sampled := shortJobs(t, experiments.Fig15, "Morrigan")
	for i := range sampled {
		sampled[i].Warmup, sampled[i].Measure, sampled[i].Sampling = 50_000, 200_000, defaultPolicy()
	}
	res, err := runner.Run(context.Background(), append(jobs, sampled...), runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if bad := checkResult(r); len(bad) > 0 {
			t.Fatalf("%s fails its checks untampered: %v", r.Job.Name(), bad)
		}
	}
	base, mor, smor := res[0], res[1], res[3]
	if !isBaseline(base.Job.Machine) || mor.Job.Machine.Prefetcher.Kind != machine.PrefetcherMorrigan || smor.Sampling == nil {
		t.Fatal("unexpected job order")
	}

	tampers := []struct {
		name   string
		result runner.Result
		tamper func(*runner.Result)
	}{
		{"failed job", mor, func(r *runner.Result) { r.Err = context.Canceled }},
		{"thread instructions", mor, func(r *runner.Result) { r.Stats.ThreadInstructions[1]++ }},
		{"PB hit attribution", mor, func(r *runner.Result) { r.Stats.PBHits++ }},
		{"baseline PB hit", base, func(r *runner.Result) { r.Stats.PBHits = 1 }},
		{"full-run length", base, func(r *runner.Result) {
			r.Stats.Instructions++
			r.Stats.ThreadInstructions[0]++
		}},
		{"sampled PB hit attribution", smor, func(r *runner.Result) { r.Stats.PBHits += 3 }},
		{"sampled CI", smor, func(r *runner.Result) {
			o := *r.Sampling
			o.CI95.IPC = math.NaN()
			r.Sampling = &o
		}},
	}
	for _, c := range tampers {
		r := c.result
		c.tamper(&r)
		if len(checkResult(r)) == 0 {
			t.Errorf("tampered %s passed the checks", c.name)
		}
	}

	// A later round that differs from the first fails the tally.
	later := append([]runner.Result(nil), res...)
	later[1].Stats.Cycles++
	if _, failed := tally([][]runner.Result{res, later}, func(string) {}); failed != 1 {
		t.Errorf("tally flagged %d results, want the one changed between rounds", failed)
	}
}

func TestTimedReaderKeepsStats(t *testing.T) {
	full := shortJobs(t, experiments.Fig20, "Morrigan(2x)+FNL+MMA")
	sampled := shortJobs(t, experiments.Fig15, "Morrigan")
	for i := range sampled {
		sampled[i].Warmup, sampled[i].Measure, sampled[i].Sampling = 50_000, 200_000, defaultPolicy()
	}
	jobs := append(full, sampled...)
	ctx := context.Background()
	plain, err := runner.Run(ctx, jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	store, err := tracestore.Open(tracestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var wait atomic.Int64
	fromCorpus := func(w workloads.Spec) (trace.Reader, error) {
		c, err := store.Materialize(w, 300_000)
		if err != nil {
			return nil, err
		}
		r := newTimedReader(c.NewReader(), &wait)
		var _ trace.BatchReader = r
		var _ io.Closer = r
		return r, nil
	}
	fromGenerator := func(w workloads.Spec) (trace.Reader, error) { return newTimedReader(w.NewReader(), &wait), nil }
	for name, nr := range map[string]func(workloads.Spec) (trace.Reader, error){"corpus": fromCorpus, "generator": fromGenerator} {
		wrapped, err := runner.Run(ctx, jobs, runner.Options{Workers: 2, NewReader: nr})
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if !sameResult(plain[i], wrapped[i]) {
				t.Errorf("%s: %s differs when its %s reader is timed", name, jobs[i].Name(), name)
			}
		}
	}
	if wait.Load() <= 0 {
		t.Error("timed readers recorded no wait")
	}
	if store.CacheStats().Gets == 0 {
		t.Error("no job read the corpus")
	}
}

func TestTimedReaderDefersPerRecordError(t *testing.T) {
	recs := make([]trace.Record, 3)
	for i := range recs {
		recs[i].PC = arch.VAddr(i + 1)
	}
	var wait atomic.Int64
	r := newTimedReader(&perRecord{recs: recs}, &wait)
	dst := make([]trace.Record, 5)
	n, err := r.NextBatch(dst)
	if n != 3 || err != nil {
		t.Fatalf("first batch = %d, %v; want 3 records and no error", n, err)
	}
	if n, err := r.NextBatch(dst); n != 0 || err != io.EOF {
		t.Fatalf("second batch = %d, %v; want 0, EOF", n, err)
	}
}

// perRecord is a Reader without a bulk path.
type perRecord struct {
	recs []trace.Record
	pos  int
}

func (p *perRecord) Next(rec *trace.Record) error {
	if p.pos == len(p.recs) {
		return io.EOF
	}
	*rec = p.recs[p.pos]
	p.pos++
	return nil
}

func TestEnumerateDrawsFromSeed(t *testing.T) {
	c, _ := campaignByName("fig15-sampled")
	a, err := c.enumerate(1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := c.enumerate(1)
	other, _ := c.enumerate(2)
	if len(a) != 6*c.pick || len(groupByWorkload(a)) != c.pick {
		t.Fatalf("fig15-sampled enumerated %d jobs in %d groups, want %d groups of 6", len(a), len(groupByWorkload(a)), c.pick)
	}
	names := func(jobs []runner.Job) (s []string) {
		for _, j := range jobs {
			s = append(s, j.Name())
		}
		return s
	}
	if !equal(names(a), names(again)) {
		t.Error("the same seed drew different jobs")
	}
	if equal(names(a), names(other)) {
		t.Error("different seeds drew the same jobs")
	}
	for _, j := range a {
		if j.Sampling == nil || j.Warmup != c.opts.Warmup || j.Measure != c.opts.Measure {
			t.Fatalf("%s is not a sampled job at the campaign's scale", j.Name())
		}
	}

	corpus, _ := campaignByName("fig15-corpus")
	all, err := corpus.enumerate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6*workloads.QMMCount {
		t.Errorf("fig15-corpus enumerated %d jobs, want the whole suite", len(all))
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "fig15-corpus", "-seconds", "0"},
		{"-workload", "fig15-corpus", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}
