package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"morrigan/internal/sampling"
)

// jobKeyVersion is folded into every job key so a deliberate change to the
// key derivation (or to either underlying spec hash version), or a simulator
// fix that changes the Stats a key maps to, invalidates persisted result
// stores instead of silently matching stale results. v2: full runs settle
// in-flight timing at the warmup/measure boundary, so every v1 full-run
// result carries phantom stalls.
const jobKeyVersion = "morrigan/runner.JobKey/v2"

// samplingKeyTag separates the sampled-key domain. It is appended — together
// with the policy fields — only for sampled jobs, so the sampling subsystem
// left every full-run key unchanged.
const samplingKeyTag = "sampled"

// Key returns the job's canonical identity: the SHA-256 (as lowercase hex)
// of the machine spec hash, the workload spec hashes in thread order, the
// warmup/measure scale, and — for sampled jobs only — the sampling policy:
// H(machine ‖ workloads ‖ scale [‖ policy]). Two jobs with equal keys
// simulate the identical (config, workload, scale, policy) tuple and produce
// bit-identical Stats, which is what the result store and the
// cross-experiment result cache rely on. A sampled job measures different
// instruction slices than its full-run twin, so the two hash differently.
//
// The second return is false for jobs that have no data-only identity:
// jobs with an Instrument hook (the capture closure observes the run, so a
// cached result would silently skip it) or a NewThreads factory (the
// instruction streams are not described by workload specs), and jobs with
// no Workloads at all. Such jobs always execute.
func (j Job) Key() (string, bool) {
	if !j.keyed() {
		return "", false
	}
	hashes := make([]string, len(j.Workloads))
	for i, w := range j.Workloads {
		hashes[i] = w.Hash()
	}
	return jobKey(j.Machine.Hash(), hashes, j.Warmup, j.Measure, j.Sampling), true
}

// keyed reports whether the job has a data-only identity, without hashing.
func (j Job) keyed() bool {
	return j.Instrument == nil && j.NewThreads == nil && len(j.Workloads) > 0
}

// DeriveSampledJobKey derives the canonical job key from already-computed
// component hashes — the same derivation Job.Key performs; pol nil gives the
// full-run key. Persistence layers that store keys next to their components
// (the on-disk result store) re-derive keys through this function on load to
// verify that a stored record still matches what its components hash to
// today; a mismatch (stale hash version, hand-edited record) means the record
// must be discarded so the job re-runs rather than reusing a wrong result.
func DeriveSampledJobKey(machineHash string, workloadHashes []string, warmup, measure uint64, pol *sampling.Policy) string {
	return jobKey(machineHash, workloadHashes, warmup, measure, pol)
}

// Describe renders the job's enumeration line for -dry-run output: display
// name, canonical key (or "unkeyed" with the reason), machine hash, workload
// hashes and scale — everything the result store and fabric coordinator
// would identify the job by, without simulating it.
func (j Job) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  ", j.Name())
	if key, ok := j.Key(); ok {
		fmt.Fprintf(&b, "key=%s", key)
	} else {
		reason := "no-workloads"
		switch {
		case j.Instrument != nil:
			reason = "instrumented"
		case j.NewThreads != nil:
			reason = "newthreads"
		}
		fmt.Fprintf(&b, "key=unkeyed(%s)", reason)
	}
	fmt.Fprintf(&b, " machine=%s workloads=", j.Machine.Hash())
	for i, w := range j.Workloads {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(w.Hash())
	}
	if len(j.Workloads) == 0 {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, " warmup=%d measure=%d", j.Warmup, j.Measure)
	if j.Sampling != nil {
		fmt.Fprintf(&b, " sampled=interval:%d,clusters:%d,slicewarmup:%d,seed:%d",
			j.Sampling.Interval, j.Sampling.Clusters, j.Sampling.SliceWarmup, j.Sampling.Seed)
	}
	return b.String()
}

// jobKey derives the canonical key from already-computed component hashes.
// Result-store loading re-derives keys through this same function to verify
// that a stored record still matches what its components hash to today. The
// sampling policy is folded in only when present — full-run keys are
// unchanged from every prior release.
func jobKey(machineHash string, workloadHashes []string, warmup, measure uint64, pol *sampling.Policy) string {
	h := sha256.New()
	h.Write([]byte(jobKeyVersion))
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	ws(machineHash)
	wu(uint64(len(workloadHashes)))
	for _, wh := range workloadHashes {
		ws(wh)
	}
	wu(warmup)
	wu(measure)
	if pol != nil {
		ws(samplingKeyTag)
		wu(pol.Interval)
		wu(uint64(pol.Clusters))
		wu(pol.SliceWarmup)
		wu(pol.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}
