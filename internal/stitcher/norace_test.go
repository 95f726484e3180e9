//go:build !race

package stitcher

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
