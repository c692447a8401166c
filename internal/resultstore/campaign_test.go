package resultstore

import (
	"context"
	"reflect"
	"testing"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/workloads"
)

// campaignJobs builds n small keyed jobs alternating the baseline and
// Morrigan machines, so a campaign's records differ job to job.
func campaignJobs(n int) []runner.Job {
	qmm := workloads.QMM()
	jobs := make([]runner.Job, n)
	for i := range jobs {
		m := machine.Default()
		if i%2 == 1 {
			m.Prefetcher = machine.Morrigan(core.DefaultConfig())
		}
		jobs[i] = runner.Job{
			Experiment: "itest",
			Workload:   qmm[i].Name,
			Machine:    m,
			Workloads:  []workloads.Spec{qmm[i]},
			Warmup:     5_000,
			Measure:    20_000,
		}
	}
	return jobs
}

// runOnStore reopens the store at dir — a fresh process — and runs jobs on it.
func runOnStore(t *testing.T, dir string, jobs []runner.Job, workers int) []runner.Result {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), jobs, runner.Options{Workers: workers, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoreRerunsKilledCampaign is kill-and-rerun: a store holding only a
// prefix of a campaign (the run was killed after two jobs) serves exactly
// that prefix on a rerun of the full campaign, simulates the rest, and the
// merged results are bit-identical to an uninterrupted run's.
func TestStoreRerunsKilledCampaign(t *testing.T) {
	jobs := campaignJobs(4)
	uninterrupted, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	runOnStore(t, dir, jobs[:2], 1) // the killed run
	rerun := runOnStore(t, dir, jobs, 2)
	for i := range jobs {
		want := ""
		if i < 2 {
			want = runner.ReusedStore
		}
		if rerun[i].Reused != want {
			t.Errorf("job %d: Reused = %q, want %q", i, rerun[i].Reused, want)
		}
		if rerun[i].Stats != uninterrupted[i].Stats || rerun[i].Sampling != nil {
			t.Errorf("job %d: rerun result differs from the uninterrupted run", i)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(jobs) {
		t.Fatalf("store after the rerun holds %d results, want %d", s.Len(), len(jobs))
	}
}

// TestStoreSampledRoundTrip: a sampled result survives the store with its
// sampling outcome intact, keyed by the sampled identity — so it is never
// served to the same job run unsampled.
func TestStoreSampledRoundTrip(t *testing.T) {
	job := campaignJobs(1)[0]
	job.Sampling = &sampling.Policy{Interval: 2_000, Clusters: 4, SliceWarmup: 500, Seed: 1}
	dir := t.TempDir()

	first := runOnStore(t, dir, []runner.Job{job}, 1)
	if first[0].Sampling == nil {
		t.Fatal("sampled run carries no sampling outcome")
	}
	second := runOnStore(t, dir, []runner.Job{job}, 1)
	if second[0].Reused != runner.ReusedStore {
		t.Fatalf("Reused = %q, want %q", second[0].Reused, runner.ReusedStore)
	}
	if second[0].Stats != first[0].Stats || !reflect.DeepEqual(second[0].Sampling, first[0].Sampling) {
		t.Error("sampled stats or outcome changed across the store round trip")
	}

	full := job
	full.Sampling = nil
	fullRes := runOnStore(t, dir, []runner.Job{full}, 1)
	if fullRes[0].Reused != "" || fullRes[0].Sampling != nil {
		t.Errorf("full-run job: Reused = %q, sampled = %v; want a fresh full simulation",
			fullRes[0].Reused, fullRes[0].Sampling != nil)
	}
}
