package runner

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// updateGolden regenerates testdata/golden_stats.json from the current
// simulator. The committed file was last regenerated when full runs began
// settling in-flight timing at the warmup/measure boundary, so a passing
// TestFullRunStatsGolden proves full (non-sampled) runs still produce
// bit-identical Stats.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenJob is the fixed job both golden tests pin: the default Table 1
// machine on qmm-srv-01 at a small, fast scale.
func goldenJob(t *testing.T) Job {
	t.Helper()
	w, ok := workloads.ByName("qmm-srv-01")
	if !ok {
		t.Fatal("workload qmm-srv-01 not found")
	}
	return Job{
		Workload:  "qmm-srv-01",
		Machine:   machine.Default(),
		Workloads: []workloads.Spec{w},
		Warmup:    50_000,
		Measure:   200_000,
	}
}

// goldenJobKey is goldenJob's canonical key. Job.Key for full (non-sampled)
// jobs must never drift except by a deliberate jobKeyVersion bump: every
// persisted result store and fabric campaign identifies results by it.
const goldenJobKey = "42107162765a99f233c19e5de810ec000633fa12007167036aac009174f004d6"

func TestJobKeyGolden(t *testing.T) {
	key, keyed := goldenJob(t).Key()
	if !keyed {
		t.Fatal("golden job is unkeyed")
	}
	if key != goldenJobKey {
		t.Errorf("canonical job key drifted:\n got  %s\n want %s\n"+
			"full-run keys change only with jobKeyVersion (persisted result stores depend on them)",
			key, goldenJobKey)
	}
}

// TestFullRunStatsGolden locks the full (non-sampled) execution path to the
// golden Stats, bit for bit.
func TestFullRunStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats.json")
	results, err := Run(context.Background(), []Job{goldenJob(t)}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].Stats

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want sim.Stats
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("full-run Stats drifted from the golden:\n got  %+v\n want %+v", got, want)
	}
}
