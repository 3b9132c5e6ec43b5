package peer

// pipeline.go is the request ramp of the connection fabric: how many
// symbol batches a session keeps outstanding on its channel.
// Stop-and-wait — write REQUEST, drain to DONE, repeat — idles the link
// for a full RTT per batch. A fabric subchannel has an asynchronous
// reader under it (the wire's demux loop), so a session can pipeline:
// keep K requests in flight so the server's symbol stream never drains
// between batches.
//
// What a fetch asks for is bounded first by what its decode still needs.
// A decode of k blocks takes about decodeNeed(k) symbols from any mix of
// senders, so the symbols a fetch has requested and not yet received,
// over all its sessions (Orchestrator.asked), stay within need: a
// session writes a REQUEST only while it has nothing in flight (every
// session keeps a batch) or while the fetch's budget has a batch left.
// Below that bound K has one cap: what the channel's granted credit
// window admits (depthCap), read at every batch boundary, so a scheduler
// that resizes the window (Orchestrator.SetChannelWindow) moves the depth
// with it and nothing else has to. The window is a ceiling: large enough
// that the need, not the window, sizes a fetch's first flight. Below the
// cap the depth depends on the sender. A full sender streams fresh
// fountain symbols — nothing it sends can be stale or a duplicate — so
// there is nothing to probe for and the session asks up to the cap from
// its OPEN, which carries the first round (a full sender answers it
// behind its ACCEPT, clamped to the need). A partial sender sends what a
// summary left missing, and the summary ages while requests are in
// flight (other senders deliver meanwhile), so its depth adapts the way
// AIMD congestion control adapts a window: from 1, grow by one while
// batches deliver useful symbols, halve when the stream turns useless or
// the duplicate rate says the summary has gone stale faster than
// refreshes can catch up. Stop-and-wait is not a mode: it is what a
// window no larger than one batch admits (depthCap = 1).

import "math"

// DefaultPipelineDupHigh is the duplicate-rate threshold past which the
// ramp backs off multiplicatively.
const DefaultPipelineDupHigh = 0.5

// decodeNeed is about how many symbols a decode of k blocks takes, from
// any mix of senders: k + ⌈4√k⌉. For the default code that sits near the
// median of what decodes take — an overhead of 0.25 / 0.125 / 0.0625 /
// 0.031 at k = 256 / 1024 / 4096 / 16384, where 200 streams each took
// medians of 0.188 / 0.104 / 0.062 / 0.034 and p90s of 0.383 / 0.207 /
// 0.105 / 0.053 (TestDecodeNeedCalibration keeps it between the p25 and
// the p90).
func decodeNeed(k int) int {
	return k + int(math.Ceil(4*math.Sqrt(float64(k))))
}

// need is how many symbols a fetch of k blocks whose working set holds p
// may have requested and not yet received: what the decode still needs,
// but never less than one batch, nor less than the overshoot past k — a
// stream that missed the median asks in growing rounds, so an unlucky
// one takes two rounds, not many.
func need(k, p, batch int) int {
	return max(batch, decodeNeed(k)-p, p-k)
}

// depthCap is the pipeline depth a credit window admits: the number of
// `batch`-sized requests needed to cover `window` symbol frames, rounded
// up (a truncated cap would leave part of the window permanently idle)
// and never below 1. Requests beyond it would solicit symbols the window
// cannot admit — the sender would only park them behind its credit wait.
func depthCap(window, batch int) int {
	if batch < 1 {
		batch = 1
	}
	d := (window + batch - 1) / batch
	if d < 1 {
		d = 1
	}
	return d
}

// PipelineController holds a session's in-flight request depth. It is
// driven from a single session goroutine; no locking.
type PipelineController struct {
	depth   int
	max     int
	full    bool // full sender: the depth is the cap
	dupHigh float64
}

// NewPipelineController builds a controller under the cap max (what the
// channel window admits; SetMax moves it): a full sender's depth is the
// cap (the fetch's need bounds what it actually asks) and a partial one
// adapts AIMD-style from depth 1.
func NewPipelineController(max int, full bool, dupHigh float64) *PipelineController {
	if max < 1 {
		max = 1
	}
	if dupHigh <= 0 {
		dupHigh = DefaultPipelineDupHigh
	}
	c := &PipelineController{depth: 1, max: max, full: full, dupHigh: dupHigh}
	if full {
		c.depth = max
	}
	return c
}

// Depth returns the current target for in-flight request batches.
func (c *PipelineController) Depth() int { return c.depth }

// Max returns the current cap.
func (c *PipelineController) Max() int { return c.max }

// SetMax re-caps the controller — the session calls it at every batch
// boundary with what its channel window admits at that moment. A full
// sender's depth follows the cap both ways; an adaptive depth is pulled
// down with a lowered cap and may grow again under a raised one. Like
// Observe, it must be called from the session goroutine that owns the
// controller.
func (c *PipelineController) SetMax(max int) {
	if max < 1 {
		return
	}
	c.max = max
	if c.full || c.depth > max {
		c.depth = max
	}
}

// Observe feeds one completed batch's outcome into the adaptive ramp:
// additive increase on a useful batch, multiplicative back-off when the
// batch was useless or its duplicate rate crossed the threshold. A NaN
// duplicate rate (a 0-symbol batch's 0/0) compares false against any
// threshold, which used to read as "below threshold, grow" — an empty
// batch is no evidence of a healthy stream, so NaN backs off like a
// useless batch instead. A full-sender controller does not adapt.
func (c *PipelineController) Observe(dupRate float64, useful bool) {
	if c.full {
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
