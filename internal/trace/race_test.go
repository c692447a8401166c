//go:build race

package trace

// raceEnabled scales the oracle tests' draw counts down under the race
// detector, which slows the draw loops about tenfold and finds nothing in
// these single-goroutine tests.
const raceEnabled = true
