package cli

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"morrigan/internal/experiments"
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/spans"
	"morrigan/internal/workloads"
)

// TestBenchCarriesPhases: -trace-out alone records the campaign's spans,
// and their per-phase breakdown (spans.Breakdown, the split the repo
// benchmark reports) is non-empty; and the results the campaign recorded
// reach -json.
func TestBenchCarriesPhases(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Jobs: 1, TraceOut: filepath.Join(dir, "trace.jsonl"), JSON: filepath.Join(dir, "res.json")}
	c, err := f.Start("test", 20_000)
	defer c.Close()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.QMM()[0]
	jobs := []runner.Job{{Workload: w.Name, Machine: machine.Default(), Workloads: []workloads.Spec{w}, Warmup: 5_000, Measure: 20_000}}
	ctx := context.Background()
	res, err := runner.Run(ctx, jobs, c.Options(25_000))
	if err != nil {
		t.Fatal(err)
	}
	c.Record.Add(res)
	if err := c.Finish(ctx); err != nil {
		t.Fatal(err)
	}

	tf, err := os.Open(f.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	ss, err := spans.ReadJSONL(tf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) == 0 || len(spans.Breakdown(ss)) == 0 {
		t.Fatalf("-trace-out holds %d spans, want a non-empty phase breakdown", len(ss))
	}
	var camp runner.Campaign
	readJSON(t, f.JSON, &camp)
	if len(camp.Records) != 1 || camp.Records[0].Stats == nil || *camp.Records[0].Stats != res[0].Stats {
		t.Fatalf("-json holds %d records, want the campaign's one result", len(camp.Records))
	}
}

// TestUnselectedLayersStayNil: layers the flags did not select reach the
// runner and experiment options as nil interfaces, not typed nils that
// would read as attached.
func TestUnselectedLayersStayNil(t *testing.T) {
	var f Flags
	f.Register(flag.NewFlagSet("test", flag.ContinueOnError))
	c, err := f.Start("test", 20_000)
	defer c.Close()
	if err != nil {
		t.Fatal(err)
	}
	opt := c.Options(25_000)
	if opt.Store != nil || opt.Observer != nil || opt.Remote != nil || opt.NewReader != nil || opt.Spans != nil {
		t.Errorf("runner options carry unselected layers: %+v", opt)
	}
	var eo experiments.Options
	c.Apply(&eo)
	if eo.Store != nil || eo.Observer != nil || eo.Remote != nil || eo.Corpus != nil || eo.Sampling != nil {
		t.Errorf("experiment options carry unselected layers: %+v", eo)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}
