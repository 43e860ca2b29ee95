// Package testenv holds small helpers shared by the repo's tests.
package testenv

import (
	"testing"
	"time"
)

// raceSlowdown is how much longer a wait lasts under the race detector,
// whose instrumentation slows simulation-heavy code by up to an order of
// magnitude.
const raceSlowdown = 10

// SkipIfRace skips allocation-count assertions under the race detector,
// whose instrumentation perturbs the allocation behavior being pinned.
func SkipIfRace(t *testing.T) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
}

// Timeout scales a test's wall-clock wait for the build: d as given,
// raceSlowdown times d under -race. It bounds how long a test waits
// before declaring failure, never what it asserts.
func Timeout(d time.Duration) time.Duration {
	if RaceEnabled {
		return raceSlowdown * d
	}
	return d
}
