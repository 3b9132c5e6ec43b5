package peer

// pipeline.go is the request ramp of the connection fabric: how many
// symbol batches a session keeps outstanding on its channel.
// Stop-and-wait — write REQUEST, drain to DONE, repeat — idles the link
// for a full RTT per batch. A fabric subchannel has an asynchronous
// reader under it (the wire's demux loop), so a session can pipeline:
// keep K requests in flight so the server's symbol stream never drains
// between batches, and adapt K the way AIMD congestion control adapts a
// window — grow by one while batches deliver useful symbols, halve when
// the stream turns useless or the duplicate rate says the receiver's
// summary has gone stale faster than refreshes can catch up. Depth 1
// degrades to exactly stop-and-wait.

import (
	"errors"
	"fmt"
	"math"
)

// DefaultMaxPipelineDepth caps the adaptive request ramp.
const DefaultMaxPipelineDepth = 16

// DefaultPipelineDupHigh is the duplicate-rate threshold past which the
// ramp backs off multiplicatively.
const DefaultPipelineDupHigh = 0.5

// ErrPipelineDepth marks a pipeline misconfiguration: a fixed
// PipelineDepth larger than the MaxPipelineDepth cap. The old behavior
// silently clamped the fixed depth down, which made the knob lie — a
// caller pinning depth 99 under cap 16 ran at 16 and never knew.
// Sessions treat it as terminal (no redial can fix an option).
var ErrPipelineDepth = errors.New("peer: fixed PipelineDepth exceeds MaxPipelineDepth")

// PipelineController adapts a session's in-flight request depth
// AIMD-style. It is driven from a single session goroutine; no locking.
type PipelineController struct {
	depth   int
	max     int
	fixed   bool
	dupHigh float64
}

// NewPipelineController builds a controller. depth >= 1 fixes the ramp
// at that depth (1 = stop-and-wait); depth <= 0 selects the adaptive
// ramp, starting at 1 and bounded by max. A fixed depth past max is
// rejected with ErrPipelineDepth rather than silently clamped.
func NewPipelineController(depth, max int, dupHigh float64) (*PipelineController, error) {
	if max <= 0 {
		max = DefaultMaxPipelineDepth
	}
	if dupHigh <= 0 {
		dupHigh = DefaultPipelineDupHigh
	}
	if depth > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrPipelineDepth, depth, max)
	}
	c := &PipelineController{max: max, dupHigh: dupHigh}
	if depth >= 1 {
		c.fixed = true
		c.depth = depth
	} else {
		c.depth = 1
	}
	return c, nil
}

// Depth returns the current target for in-flight request batches.
func (c *PipelineController) Depth() int { return c.depth }

// Max returns the ramp's current cap (the fixed depth when pinned).
func (c *PipelineController) Max() int {
	if c.fixed {
		return c.depth
	}
	return c.max
}

// SetMax re-caps the adaptive ramp mid-session — the hook a
// credit-denominated scheduler uses to bound a session's in-flight
// batches to the worth of its channel's window. Lowering the cap pulls
// the current depth down with it; raising it lets the ramp grow again.
// A fixed controller ignores the cap: the caller pinned the depth
// explicitly. Like Observe, it must be called from the session
// goroutine that owns the controller.
func (c *PipelineController) SetMax(max int) {
	if c.fixed || max < 1 {
		return
	}
	c.max = max
	if c.depth > max {
		c.depth = max
	}
}

// Observe feeds one completed batch's outcome into the ramp: additive
// increase on a useful batch, multiplicative back-off when the batch
// was useless or its duplicate rate crossed the threshold. A NaN
// duplicate rate (a 0-symbol batch's 0/0) compares false against any
// threshold, which used to read as "below threshold, grow" — an empty
// batch is no evidence of a healthy stream, so NaN backs off like a
// useless batch instead.
func (c *PipelineController) Observe(dupRate float64, useful bool) {
	if c.fixed {
		return
	}
	if !useful || math.IsNaN(dupRate) || dupRate > c.dupHigh {
		c.depth /= 2
		if c.depth < 1 {
			c.depth = 1
		}
		return
	}
	if c.depth < c.max {
		c.depth++
	}
}
