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
// session keeps a request) or while the fetch's budget has room for it
// and what the session owes stays within its even share of the need
// (Orchestrator.share), so how the need splits among senders does not
// depend on which session the scheduler runs first.
// Below that bound the channel's window caps what is in flight, read at
// every batch boundary, so a scheduler that resizes the window
// (Orchestrator.SetChannelWindow) moves the depth with it. The window is
// the only flow control there is: a sender sends what it was asked for
// and nothing more, so a session never has more than the window's
// symbols requested and not yet received. A request asks for a batch, or
// for what the window has left when that is less (asks): a window smaller
// than a batch, or not a multiple of one, is asked for in smaller
// requests, and depthCap requests cover it. The window is a ceiling:
// large enough that the need, not the window, sizes a fetch's first
// flight; the OPEN carries that first round, as many whole batches as
// the window holds, which a full sender answers behind its ACCEPT
// (clamped to the need) and a partial one answers one batch of.
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

// depthCap is the pipeline depth a window admits: the number of requests
// needed to cover `window` symbol frames, `batch` each and the last for
// the remainder, rounded up (a truncated cap would leave part of the
// window permanently idle) and never below 1.
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

// asks holds the sizes of a session's requests in flight, oldest first,
// and their sum. A sender answers requests in order, each ending in its
// DONE, so a DONE retires the oldest; the rest shift down, no more than
// depthCap of them (64 at the defaults). A session sizes it for the
// window it opens at, so a steady pipeline allocates nothing.
type asks struct {
	sizes []int
	sum   int
}

func (a *asks) push(size int) {
	a.sizes = append(a.sizes, size)
	a.sum += size
}

// pop retires the oldest request and returns its size: 0 when none is in
// flight (a DONE nothing asked for retires nothing).
func (a *asks) pop() int {
	if len(a.sizes) == 0 {
		return 0
	}
	size := a.sizes[0]
	a.sizes = append(a.sizes[:0], a.sizes[1:]...)
	a.sum -= size
	return size
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
