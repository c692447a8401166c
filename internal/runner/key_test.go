package runner

import (
	"testing"

	"morrigan/internal/machine"
	"morrigan/internal/sim"
	"morrigan/internal/workloads"
)

// keyedJob returns a minimal data-identified job.
func keyedJob() Job {
	qmm := workloads.QMM()
	return Job{
		Experiment: "exp",
		Config:     "cfg",
		Workload:   qmm[0].Name,
		Machine:    machine.Default(),
		Workloads:  []workloads.Spec{qmm[0]},
		Warmup:     1_000,
		Measure:    5_000,
	}
}

// TestJobKeyIdentity: the key depends on machine, workloads and scale — and
// on nothing else. Display fields must not influence it.
func TestJobKeyIdentity(t *testing.T) {
	base := keyedJob()
	k0, ok := base.Key()
	if !ok || k0 == "" {
		t.Fatalf("Key() = %q, %v; want a keyed job", k0, ok)
	}

	renamed := base
	renamed.Experiment, renamed.Config, renamed.Workload = "other", "other", "other"
	if k, _ := renamed.Key(); k != k0 {
		t.Error("display fields changed the key")
	}

	qmm := workloads.QMM()
	for name, mutate := range map[string]func(*Job){
		"machine":        func(j *Job) { j.Machine.STLBEntries *= 2 },
		"workload":       func(j *Job) { j.Workloads = []workloads.Spec{qmm[1]} },
		"workload-count": func(j *Job) { j.Workloads = append(j.Workloads, qmm[1]) },
		"warmup":         func(j *Job) { j.Warmup++ },
		"measure":        func(j *Job) { j.Measure++ },
	} {
		j := keyedJob()
		mutate(&j)
		if k, ok := j.Key(); !ok || k == k0 {
			t.Errorf("mutating %s did not change the key (ok=%v)", name, ok)
		}
	}

	// Thread order matters: an SMT pair (a,b) is not the pair (b,a).
	ab, ba := keyedJob(), keyedJob()
	ab.Workloads = []workloads.Spec{qmm[0], qmm[1]}
	ba.Workloads = []workloads.Spec{qmm[1], qmm[0]}
	ka, _ := ab.Key()
	kb, _ := ba.Key()
	if ka == kb {
		t.Error("workload order did not change the key")
	}
}

// TestJobKeyEscapeHatches: jobs with run-observing or stream-overriding
// closures have no data identity and must never be stored or cached.
func TestJobKeyEscapeHatches(t *testing.T) {
	instrumented := keyedJob()
	instrumented.Instrument = func(*sim.Config) {}
	if _, ok := instrumented.Key(); ok {
		t.Error("instrumented job should not be keyed")
	}

	threaded := keyedJob()
	threaded.NewThreads = func() []sim.ThreadSpec { return nil }
	if _, ok := threaded.Key(); ok {
		t.Error("NewThreads job should not be keyed")
	}

	empty := keyedJob()
	empty.Workloads = nil
	if _, ok := empty.Key(); ok {
		t.Error("job without workloads should not be keyed")
	}
}
