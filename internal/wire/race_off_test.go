//go:build !race

package wire

// See race_on_test.go.
const raceEnabled = false
