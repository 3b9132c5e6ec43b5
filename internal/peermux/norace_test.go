//go:build !race

package peermux

// raceDetector reports whether the tests run under the race detector,
// which sheds pooled buffers.
const raceDetector = false
