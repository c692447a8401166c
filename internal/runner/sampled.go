package runner

import (
	"context"
	"fmt"

	"morrigan/internal/sampling"
	"morrigan/internal/sim"
	"morrigan/internal/trace"
)

// executeSampled runs one job in sampled-execution mode: a functional
// profiling pass (served from Options.Profiles, which Run installs for
// sampled jobs), deterministic clustering into representative intervals,
// then fast-forward-and-measure over each representative on a fresh
// simulator, extrapolating the weighted Stats with confidence intervals.
//
// The built simulator is published through sp so the caller's deferred
// accounting (SimInstructions via Executed, which fast-forwarded
// instructions never enter) sees it even on a mid-run failure.
func executeSampled(ctx context.Context, sp **sim.Simulator, cfg sim.Config, j Job, opt Options, traceID string) (sim.Stats, *sampling.Outcome, error) {
	if j.NewThreads != nil {
		return sim.Stats{}, nil, fmt.Errorf("sampled execution requires workload-described threads (NewThreads is set)")
	}
	if len(j.Workloads) != 1 {
		return sim.Stats{}, nil, fmt.Errorf("sampled execution supports exactly one thread, got %d workloads", len(j.Workloads))
	}
	pol := *j.Sampling
	if err := pol.Validate(j.Measure); err != nil {
		return sim.Stats{}, nil, err
	}

	w := j.Workloads[0]
	newReader := func() (trace.Reader, error) {
		if opt.NewReader != nil {
			return opt.NewReader(w)
		}
		return w.NewReader(), nil
	}

	profSpan := opt.Spans.Start(traceID, "sample.profile")
	prof, err := opt.Profiles.Profile(w.Hash(), j.Warmup, j.Measure, pol.Interval, newReader)
	profSpan.End()
	if err != nil {
		return sim.Stats{}, nil, err
	}
	plan, err := sampling.Cluster(prof, pol)
	if err != nil {
		return sim.Stats{}, nil, err
	}

	// Fresh readers for the execution pass — the profiling pass consumed its
	// own stream.
	threadSpan := opt.Spans.Start(traceID, "threads")
	threads, err := buildThreads(j, opt)
	threadSpan.End()
	if err != nil {
		return sim.Stats{}, nil, err
	}
	defer closeThreadReaders(threads)
	s, err := sim.New(cfg, threads)
	if err != nil {
		return sim.Stats{}, nil, err
	}
	*sp = s

	var hook sampling.SpanHook
	if opt.Spans != nil {
		hook = func(phase string) func() {
			a := opt.Spans.Start(traceID, "sample."+phase)
			return a.End
		}
	}
	st, outcome, err := sampling.ExecuteTraced(ctx, s, j.Warmup, plan, pol, hook)
	if err != nil {
		return sim.Stats{}, nil, err
	}
	sampling.RecordOutcome(outcome)
	return st, outcome, nil
}
