package runner

import (
	"sync"

	"morrigan/internal/sampling"
)

// claims hands jobs to workers. A worker takes the lowest-index unclaimed
// job, except that it passes over sampled jobs whose profile another worker
// is building right now: the first unclaimed job whose profile is ready or
// not yet started goes instead, and only when there is none does the
// worker take the lowest job and wait for the build. Without the rule, the
// machines of one workload sit next to each other in a campaign, and a
// second worker would block in ProfileStore.Profile behind the first job's
// profiling pass instead of building the next workload's profile.
//
// A claimed job marks its profile key as building under the claim lock, so
// two workers claiming together never pick the same unbuilt profile. The
// mark clears when the job's profile request returns (the profile is then
// ready unless it failed) or when the job ends without one (a reused or
// failed job). A job whose profile is already ready marks it only for the
// moment its request takes to return. Claim order never changes a result:
// every job's result is a function of the job alone.
type claims struct {
	mu       sync.Mutex
	next     int            // every job below next is claimed
	claimed  []bool         // per job
	keys     []string       // per job: its profile key, "" when it builds none here
	building map[string]int // profile key -> the job that marked it
}

func newClaims(jobs []Job, opt Options) *claims {
	c := &claims{
		claimed:  make([]bool, len(jobs)),
		keys:     make([]string, len(jobs)),
		building: make(map[string]int),
	}
	for i, j := range jobs {
		c.keys[i] = localProfileKey(j, opt)
	}
	return c
}

// localProfileKey is the key of the profile job j requests from
// Options.Profiles, or "" when it requests none in this process: it is not
// sampled, cannot be (executeSampled rejects it), or runs remotely.
func localProfileKey(j Job, opt Options) string {
	if j.Sampling == nil || j.NewThreads != nil || len(j.Workloads) != 1 {
		return ""
	}
	if j.keyed() && opt.Remote != nil {
		return ""
	}
	return sampling.ProfileKey(j.Workloads[0].Hash(), j.Warmup, j.Measure, j.Sampling.Interval)
}

// claim returns the job a worker should run next, or -1 when every job is
// claimed.
func (c *claims) claim() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.next < len(c.claimed) && c.claimed[c.next] {
		c.next++
	}
	if c.next == len(c.claimed) {
		return -1
	}
	pick := c.next
	if c.inFlight(pick) {
		for i := pick + 1; i < len(c.claimed); i++ {
			if !c.claimed[i] && !c.inFlight(i) {
				pick = i
				break
			}
		}
	}
	c.claimed[pick] = true
	if k := c.keys[pick]; k != "" && !c.inFlight(pick) {
		c.building[k] = pick
	}
	return pick
}

// inFlight reports whether job i's profile is marked as building ("" never
// is).
func (c *claims) inFlight(i int) bool {
	_, ok := c.building[c.keys[i]]
	return ok
}

// release clears job i's building mark, if it holds one.
func (c *claims) release(i int) {
	k := c.keys[i]
	if k == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if owner, ok := c.building[k]; ok && owner == i {
		delete(c.building, k)
	}
}
