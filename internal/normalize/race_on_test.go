//go:build race

package normalize

// raceEnabled reports whether the race detector is active: its runtime
// perturbs allocation counts, so testing.AllocsPerRun assertions skip
// themselves and are enforced race-free by `make alloc` instead.
const raceEnabled = true
