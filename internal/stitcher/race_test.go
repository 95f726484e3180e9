//go:build race

package stitcher

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// pooled items at random, so allocation budgets that rely on warm pooled
// scratch do not hold.
const raceEnabled = true
