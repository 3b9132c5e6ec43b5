package peer

// pipeline.go is the request depth of the connection fabric: how many
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
// Below that bound K has a cap: what the channel's granted credit window
// admits (depthCap), read at every batch boundary, so a scheduler that
// resizes the window (Orchestrator.SetChannelWindow) moves the depth
// with it. The window is a ceiling: large enough that the need, not the
// window, sizes a fetch's first flight; the OPEN carries that first
// round, which a full sender answers behind its ACCEPT (clamped to the
// need) and a partial one answers one batch of.
//
// Below the cap K is measured, the same way for every sender: the
// batches one round trip holds at the rate a batch arrives
// (requestDepth), from 1 until a batch has been timed. Deeper buys
// nothing, and costs a partial sender freshness: every batch in flight
// is aimed from an older summary (other senders deliver meanwhile). A
// batch is timed only when it was asked for over an idle channel — a
// REQUEST written with nothing in flight, or the OPEN's round, timed
// from the OPEN's issue — so nothing queued ahead of it stretches its
// round trip, and only when it came back full: a sender running dry
// answers short batches fast, which says nothing of the path.
// Stop-and-wait is not a mode: it is what a window no larger than one
// batch admits (depthCap = 1).

import (
	"math"
	"time"
)

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

// requestDepth is the depth target after a timed batch of got symbols,
// asked for as a batch of batch: 1 + ⌈rtt/service⌉, where rtt ran from
// the request to the batch's first symbol and service from there to its
// DONE (floored at 1 µs) — the batches one round trip holds at the rate
// a batch arrives, plus the one arriving. A short batch is a sender
// running dry, not a measure of the path: it leaves target as it was.
func requestDepth(target, got, batch int, rtt, service time.Duration) int {
	if got < batch {
		return target
	}
	service = max(service, time.Microsecond)
	return 1 + int((rtt+service-1)/service)
}
