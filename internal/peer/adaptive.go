package peer

// adaptive.go is the adaptive SUMMARY_REFRESH cadence controller: a
// session measures the duplicate-symbol rate of each request batch
// (symbols received that taught the working set nothing) and steers how
// many batches pass between refresh checks around a target duplicate
// budget, instead of the fixed RefreshBatches cadence. High duplicate
// rates mean the sender's picture of our working set is stale — refresh
// sooner; low rates mean refreshes (and the summaries they carry) are
// pure overhead — stretch the cadence.

import "math"

// RefreshController turns observed duplicate-symbol rates into a
// refresh-check cadence (batches between checks). The policy is
// deliberately boring and safe: multiplicative steering toward a target
// duplicate rate, with the per-observation step bounded to one
// halving/doubling so a single noisy batch cannot whipsaw the cadence,
// and the result clamped to [Min, Max] so the controller can neither
// starve refreshes nor spam one per batch forever. Observe is monotone
// in the duplicate rate: a dirtier batch never yields a longer cadence
// than a cleaner one from the same state.
type RefreshController struct {
	target  float64
	min     int
	max     int
	cadence float64
}

// Cadence bounds of a RefreshController: a cadence never tightens below
// one batch and never stretches past MaxRefreshCadence batches.
const (
	MinRefreshCadence = 1
	MaxRefreshCadence = 64
)

// DefaultRefreshDupTarget is the duplicate-rate budget adaptive refresh
// (FetchOptions.AdaptiveRefresh) steers toward: up to 15% of a batch
// may be duplicates before the cadence tightens.
const DefaultRefreshDupTarget = 0.15

// NewRefreshController creates a controller steering toward the given
// duplicate-rate target, starting from the initial cadence. Out-of-range
// arguments are clamped: target into (0, 1], initial into
// [MinRefreshCadence, MaxRefreshCadence].
func NewRefreshController(target float64, initial int) *RefreshController {
	if target <= 0 || target > 1 {
		target = DefaultRefreshDupTarget
	}
	c := &RefreshController{target: target, min: MinRefreshCadence, max: MaxRefreshCadence}
	c.cadence = float64(clampInt(initial, c.min, c.max))
	return c
}

// Cadence returns the current batches-between-refresh-checks value.
func (c *RefreshController) Cadence() int {
	return clampInt(int(math.Round(c.cadence)), c.min, c.max)
}

// Observe folds one batch's duplicate rate (duplicates / received, in
// [0, 1]) into the cadence and returns the updated Cadence. The update
// multiplies the cadence by target/rate, bounded to [½, 2] per call and
// clamped to [MinRefreshCadence, MaxRefreshCadence] overall.
func (c *RefreshController) Observe(dupRate float64) int {
	if math.IsNaN(dupRate) {
		return c.Cadence()
	}
	if dupRate < 0 {
		dupRate = 0
	}
	if dupRate > 1 {
		dupRate = 1
	}
	factor := 2.0 // a clean batch earns the maximum stretch
	if dupRate > 0 {
		factor = c.target / dupRate
		if factor > 2 {
			factor = 2
		}
		if factor < 0.5 {
			factor = 0.5
		}
	}
	c.cadence *= factor
	if c.cadence < float64(c.min) {
		c.cadence = float64(c.min)
	}
	if c.cadence > float64(c.max) {
		c.cadence = float64(c.max)
	}
	return c.Cadence()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
