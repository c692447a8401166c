package sampling

import (
	"context"
	"fmt"

	"morrigan/internal/sim"
)

// Outcome summarises how a sampled run was produced. It travels with the
// extrapolated Stats through the runner's result schema, the result store
// and the fabric wire format, so a sampled result is never
// mistaken for a full one.
type Outcome struct {
	// Policy is the sampling policy the run used.
	Policy Policy `json:"policy"`
	// Intervals is how many fixed-length intervals the measurement window
	// was split into.
	Intervals int `json:"intervals"`
	// Slices is how many representative intervals were simulated in timing
	// detail (≤ Policy.Clusters).
	Slices int `json:"slices"`
	// TimedInstructions counts instructions simulated in full timing detail,
	// slice warmups included — the cost figure the ≥10x speedup criterion
	// is measured against.
	TimedInstructions uint64 `json:"timed_instructions"`
	// FastForwarded counts instructions consumed by functional warmup only.
	FastForwarded uint64 `json:"fast_forwarded"`
	// CI95 holds the per-metric 95% confidence half-widths of the
	// extrapolated Stats.
	CI95 CI `json:"ci95"`
}

// SpanHook observes sampled-execution phases for distributed tracing: it is
// called at the start of each phase — "fastforward", "slicewarmup",
// "measure" — and returns a func ending that phase. A nil hook is ignored, so
// the untraced path pays one nil check per phase and nothing else; the hook
// must not perturb execution (asserted by the runner's trace-purity test).
type SpanHook func(phase string) func()

// Execute runs the sampled-execution mode over a freshly constructed
// simulator: for each representative in the plan it fast-forwards with
// functional TLB/page-table warmup, optionally simulates a timed slice
// warmup, simulates the representative interval in full timing detail, and
// finally extrapolates the weighted full-window Stats with confidence
// intervals. hook, when non-nil, observes each phase (see SpanHook).
//
// warmup is the job's (functional, under sampling) warmup prefix; the plan's
// interval indices are relative to the measurement window that follows it.
// The simulator must be fresh — its trace readers positioned at the stream
// start — and is consumed by the call.
func Execute(ctx context.Context, s *sim.Simulator, warmup uint64, plan *Plan, pol Policy, hook SpanHook) (sim.Stats, *Outcome, error) {
	if len(plan.Reps) == 0 {
		return sim.Stats{}, nil, fmt.Errorf("sampling: plan has no representatives")
	}
	slices := make([]sim.Stats, 0, len(plan.Reps))
	weights := make([]float64, 0, len(plan.Reps))

	var pos uint64 // stream position in instructions
	for _, rep := range plan.Reps {
		start := warmup + uint64(rep.Index)*plan.Interval
		if start < pos {
			return sim.Stats{}, nil, fmt.Errorf("sampling: representative %d overlaps the previous slice", rep.Index)
		}
		// Timed slice warmup eats into the fast-forward gap; when the gap is
		// shorter than the configured warmup (adjacent representatives), the
		// warmup shrinks to the gap.
		ffTarget := start
		if gap := start - pos; gap > pol.SliceWarmup {
			ffTarget = start - pol.SliceWarmup
		} else {
			ffTarget = pos
		}
		if ffTarget > pos {
			end := phase(hook, "fastforward")
			err := s.FastForward(ctx, ffTarget-pos)
			end()
			if err != nil {
				return sim.Stats{}, nil, err
			}
		}
		// Each RunContext call rebases the simulation clock and settles
		// in-flight timing at its stats reset, so the slice warmup and the
		// measurement are separate clock epochs.
		if start > ffTarget {
			end := phase(hook, "slicewarmup")
			_, err := s.RunContext(ctx, 0, start-ffTarget)
			end()
			if err != nil {
				return sim.Stats{}, nil, err
			}
		}
		end := phase(hook, "measure")
		st, err := s.RunContext(ctx, 0, plan.Interval)
		end()
		if err != nil {
			return sim.Stats{}, nil, err
		}
		if st.Instructions < plan.Interval {
			return sim.Stats{}, nil, fmt.Errorf("sampling: representative %d got %d of %d instructions — trace ended early",
				rep.Index, st.Instructions, plan.Interval)
		}
		slices = append(slices, st)
		weights = append(weights, rep.Weight)
		pos = start + plan.Interval
	}

	est, ci := Extrapolate(slices, weights, plan.Intervals)
	out := &Outcome{
		Policy:            pol,
		Intervals:         plan.Intervals,
		Slices:            len(slices),
		TimedInstructions: s.Executed(),
		FastForwarded:     s.FastForwarded(),
		CI95:              ci,
	}
	return est, out, nil
}

// phase invokes the hook for one phase, returning the closer; on a nil hook
// both halves are no-ops.
func phase(hook SpanHook, name string) func() {
	if hook == nil {
		return func() {}
	}
	return hook(name)
}
