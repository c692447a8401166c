package runner

// JobsForTest exposes testJobs to the external runner_test package.
var JobsForTest = testJobs
