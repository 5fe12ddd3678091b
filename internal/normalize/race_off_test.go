//go:build !race

package normalize

// See race_on_test.go.
const raceEnabled = false
