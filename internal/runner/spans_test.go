package runner

import (
	"context"
	"reflect"
	"testing"

	"morrigan/internal/sampling"
	"morrigan/internal/spans"
)

// TestTracingDoesNotChangeStats is the tracing purity check: attaching a span
// recorder must leave every job's statistics bit-identical. Tracing is an
// inert observer, exactly like Options.Observer.
func TestTracingDoesNotChangeStats(t *testing.T) {
	jobs := testJobs(4)
	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := spans.NewRecorder("")
	traced, err := Run(context.Background(), jobs, Options{Workers: 2, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(plain[i].Stats, traced[i].Stats) {
			t.Errorf("job %d: stats differ with tracing attached", i)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTraceSpansCoverLifecycle runs a traced campaign and checks every job
// contributes an execute span (keyed by its canonical JobKey) plus the
// phase spans underneath it, all with sane clocks.
func TestTraceSpansCoverLifecycle(t *testing.T) {
	jobs := testJobs(3)
	rec := spans.NewRecorder("local")
	if _, err := Run(context.Background(), jobs, Options{Workers: 2, Spans: rec}); err != nil {
		t.Fatal(err)
	}

	byTrace := map[string]map[string]spans.Span{}
	for _, sp := range rec.Spans() {
		if sp.StartNS < 0 || sp.DurNS < 0 {
			t.Errorf("span %s/%s has negative clock: start=%d dur=%d", sp.TraceID, sp.Name, sp.StartNS, sp.DurNS)
		}
		if sp.Worker != "local" {
			t.Errorf("span %s/%s worker = %q, want recorder's", sp.TraceID, sp.Name, sp.Worker)
		}
		m := byTrace[sp.TraceID]
		if m == nil {
			m = map[string]spans.Span{}
			byTrace[sp.TraceID] = m
		}
		m[sp.Name] = sp
	}

	for i, j := range jobs {
		key, keyed := j.Key()
		if !keyed {
			t.Fatalf("job %d unexpectedly unkeyed", i)
		}
		phases, ok := byTrace[key]
		if !ok {
			t.Errorf("job %d: no spans under trace id %s", i, key)
			continue
		}
		for _, name := range []string{"execute", "build", "threads", "simulate"} {
			if _, ok := phases[name]; !ok {
				t.Errorf("job %d: missing %q span (have %v)", i, name, spanNames(phases))
			}
		}
		exec := phases["execute"]
		if exec.Attrs["ok"] != "true" {
			t.Errorf("job %d: execute span ok attr = %q", i, exec.Attrs["ok"])
		}
		for _, name := range []string{"build", "simulate"} {
			sp := phases[name]
			if sp.StartNS < exec.StartNS || sp.End() > exec.End() {
				t.Errorf("job %d: %s span [%d,%d] escapes execute [%d,%d]",
					i, name, sp.StartNS, sp.End(), exec.StartNS, exec.End())
			}
		}
	}
}

// TestTraceSampledJob checks sampled executions carry the sample.* phase
// spans, the execute span reports the sampled slice count, and each
// sample.profile span says how its profile was served: two machines on one
// workload build it once and then reuse it from memory, and a rerun on the
// same on-disk profile store loads it from disk.
func TestTraceSampledJob(t *testing.T) {
	jobs := testJobs(2) // cfg0 and cfg1: two machines
	jobs[1].Workload, jobs[1].Workloads = jobs[0].Workload, jobs[0].Workloads
	for i := range jobs {
		jobs[i].Measure = 200_000
		jobs[i].Sampling = &sampling.Policy{Interval: 50_000, Clusters: 2, SliceWarmup: 10_000, Seed: 1}
	}
	dir := t.TempDir()
	run := func() *spans.Recorder {
		t.Helper()
		profiles, err := sampling.OpenProfileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := spans.NewRecorder("")
		if _, err := Run(context.Background(), jobs, Options{Workers: 1, Spans: rec, Profiles: profiles}); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	reuse := func(rec *spans.Recorder) []string {
		var out []string
		for _, sp := range rec.Spans() {
			if sp.Name == "sample.profile" {
				out = append(out, sp.Attrs["reuse"])
			}
		}
		return out
	}

	rec := run()
	var execs, measures int
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case "execute":
			execs++
			if sp.Attrs["sampled_slices"] == "" || sp.Attrs["sampled_slices"] == "0" {
				t.Errorf("execute span sampled_slices = %q, want > 0", sp.Attrs["sampled_slices"])
			}
		case "sample.measure":
			measures++
		}
	}
	if execs != 2 {
		t.Errorf("%d execute spans in sampled run, want 2", execs)
	}
	if measures == 0 {
		t.Errorf("no sample.measure span in sampled run (have %v)", allNames(rec))
	}
	if got := reuse(rec); !reflect.DeepEqual(got, []string{"built", "memory"}) {
		t.Errorf("sample.profile reuse = %q, want [built memory]", got)
	}
	if got := reuse(run()); !reflect.DeepEqual(got, []string{"disk", "memory"}) {
		t.Errorf("rerun sample.profile reuse = %q, want [disk memory]", got)
	}
}

func spanNames(m map[string]spans.Span) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	return names
}

func allNames(rec *spans.Recorder) []string {
	var names []string
	for _, sp := range rec.Spans() {
		names = append(names, sp.Name)
	}
	return names
}
