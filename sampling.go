package morrigan

import "morrigan/internal/sampling"

// Representative-interval sampling (see internal/sampling). A sampled
// campaign job profiles its workload through a cheap functional model, picks
// representative intervals with deterministic k-means clustering, simulates
// only those slices in the timing model (fast-forwarding between them with
// functional TLB/page-table warmup), and extrapolates whole-run statistics
// with per-metric 95% confidence intervals. Attach a SamplingPolicy to
// CampaignJob.Sampling (or ExperimentOptions.Sampling) to enable it.
type (
	// SamplingPolicy parameterises representative-interval sampling.
	SamplingPolicy = sampling.Policy
	// SamplingOutcome describes how a sampled estimate was produced: the
	// policy, the slice set, the instruction budget actually timed, and
	// the 95% confidence intervals around the extrapolated stats.
	SamplingOutcome = sampling.Outcome
	// SamplingCI holds per-metric 95% confidence half-widths.
	SamplingCI = sampling.CI
	// SamplingProfileStore caches workload profiling artifacts on disk so
	// repeated sampled campaigns skip the functional profiling pass.
	SamplingProfileStore = sampling.ProfileStore
)

// DefaultSamplingPolicy returns a policy suited to the experiment harness's
// default scales: 100k-instruction intervals, 8 clusters, 25k slice warmup.
func DefaultSamplingPolicy() SamplingPolicy { return sampling.DefaultPolicy() }

// OpenSamplingProfileStore opens (creating if needed) a profile-artifact
// store rooted at dir; pass it via CampaignOptions.Profiles (or
// ExperimentOptions.Profiles).
func OpenSamplingProfileStore(dir string) (*SamplingProfileStore, error) {
	return sampling.OpenProfileStore(dir)
}
