//go:build race

package core_test

// raceEnabled reports a race-detector build, under which allocation
// counts are not the production ones.
const raceEnabled = true
