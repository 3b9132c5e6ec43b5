//go:build race

package peer

// raceDetector reports whether the tests run under the race detector,
// whose slowdown moves every timing-calibrated bound.
const raceDetector = true
