package faultnet

// delay.go is ShapedNet's delivery-time propagation mode. The default
// shaping model (shaped.go) charges each connection direction its
// propagation latency once — time to first byte — and thereafter only
// serialization delay, which is the right fidelity/cost trade-off for
// thousand-node swarm runs but invisible to request/response protocols:
// a stop-and-wait exchange over it pays the RTT once, not per turn, so
// pipelining experiments measure nothing.
//
// Delivery mode instead stamps every chunk with the wall-clock instant
// it would surface at the far end of the path and holds it until then:
//
//	arrive_k = max(arrive_{k-1}, enqueue_k + latency) + serialization_k
//
// A chunk that starts a new burst (its earliest arrival is past the
// direction's current delivery horizon) pays full propagation latency
// plus a fresh jitter draw; chunks inside a burst queue behind the
// horizon and pay only serialization, exactly like packets pacing out
// of a busy link. Loss events push the horizon by the retransmission
// penalty. A request/response protocol therefore pays the RTT on every
// turn, while a pipelined sender overlaps its bursts — the distinction
// the fabric experiment exists to measure.
//
// The decoupling needs pump goroutines because PipeNet is synchronous
// net.Pipe: a writer must be able to return immediately while its bytes
// are still "in flight". Writes queue locally and a pump copies them
// into the pipe at their due time; a second pump eagerly drains the
// pipe and Read releases each chunk at its stamped arrival. Delivery
// mode therefore runs on the real clock only — SetClock virtual clocks
// are not honored here — and is opt-in via SetDeliveryLatency so the
// scenario lab's default cost model (and its calibrated numbers) is
// untouched.

import (
	"net"
	"os"
	"sync"
	"time"
)

// delayChunk bounds a single read-ahead chunk from the inner pipe.
const delayChunk = 32 << 10

// delayWriteBuf is the smallest buffer a queued write is copied into:
// large enough for a symbol frame, so the recycled write buffers of a
// connection fit one another's payloads whatever order they come in.
const delayWriteBuf = 2 << 10

// delayQueueDepth bounds each direction's in-flight chunk queue — the
// simulated device queue. A writer that outruns the link by more than
// this blocks until the pump drains, which is the backpressure a real
// send buffer applies.
const delayQueueDepth = 256

// SetDeliveryLatency switches the network between the default
// charge-once cost model and per-chunk delivery-time propagation.
// Affects connections dialed after the call; delivery mode uses the
// real clock regardless of SetClock.
func (s *ShapedNet) SetDeliveryLatency(on bool) {
	s.mu.Lock()
	s.delivery = on
	s.mu.Unlock()
}

// deliveryDue stamps n bytes enqueued now with their arrival time at
// the far end, advancing the direction's delivery horizon.
func (d *shapedDir) deliveryDue(now time.Time, n int) time.Time {
	d.mu.Lock()
	earliest := now.Add(d.latency)
	due := d.horizon
	if earliest.After(due) {
		// New burst: full propagation delay plus a fresh jitter draw.
		due = earliest
		if d.jitter > 0 {
			due = due.Add(time.Duration(d.rng.Float64() * float64(d.jitter)))
		}
	}
	if d.rate > 0 {
		due = due.Add(time.Duration(float64(n) / d.rate * float64(time.Second)))
	}
	lost := d.loss > 0 && d.rng.Float64() < d.loss
	if lost {
		due = due.Add(d.lossPenalty)
		d.stats.Losses++
	}
	delay := due.Sub(now)
	d.stats.Bytes += int64(n)
	d.stats.Chunks++
	d.stats.ShapedDelay += delay
	d.horizon = due
	d.mu.Unlock()
	// The same three class-wide handles shape feeds in charge-once mode.
	d.met.bytes.Add(int64(n))
	if lost {
		d.met.losses.Add(1)
	}
	d.met.delay.Observe(float64(delay) / float64(time.Millisecond))
	return due
}

// timedChunk is one in-flight unit: data due at a delivery instant, or
// a terminal read error delivered after all preceding data. data is a
// prefix of a buffer the connection recycles (chunkBufs): the chunk owns
// it while queued, whoever takes the chunk off the queue owns it next.
type timedChunk struct {
	data []byte
	due  time.Time
	err  error
}

// chunkBufs is one direction's free list of chunk buffers. A buffer has
// a single owner at every moment — the producer filling it, the queue,
// the consumer draining it — and comes back here only once the consumer
// is done with its last byte, so the producer can refill it without a
// fresh (and freshly cleared) allocation per chunk. Sized to the queue
// it feeds, it never blocks: an empty list allocates, a full one drops
// the buffer to the collector.
type chunkBufs chan []byte

func newChunkBufs() chunkBufs { return make(chunkBufs, delayQueueDepth+2) }

// get returns a buffer of length n with capacity at least min.
func (f chunkBufs) get(n, min int) []byte {
	select {
	case b := <-f:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	if min < n {
		min = n
	}
	return make([]byte, n, min)
}

func (f chunkBufs) put(b []byte) {
	select {
	case f <- b:
	default:
	}
}

// deadlineVar is a settable deadline observable by blocked waiters: set
// closes the notify channel so selects re-evaluate.
type deadlineVar struct {
	mu     sync.Mutex
	t      time.Time
	notify chan struct{}
}

func newDeadlineVar() *deadlineVar { return &deadlineVar{notify: make(chan struct{})} }

func (v *deadlineVar) get() (time.Time, <-chan struct{}) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t, v.notify
}

func (v *deadlineVar) set(t time.Time) {
	v.mu.Lock()
	v.t = t
	close(v.notify)
	v.notify = make(chan struct{})
	v.mu.Unlock()
}

// delayConn is a dialer-side connection in delivery mode: writes pace
// onto the uplink at their stamped due times, reads surface downlink
// bytes no earlier than their stamped arrivals. As with ShapedConn, the
// accepted half is unwrapped — each direction is shaped exactly once.
type delayConn struct {
	inner    net.Conn
	up, down *shapedDir

	wq chan timedChunk
	rq chan timedChunk

	rmu    sync.Mutex // serializes Read
	rbuf   []byte     // the chunk buffer rpend is the undrained tail of
	rpend  []byte
	rdue   time.Time
	rerr   error
	rtimer *time.Timer // Read's one timer, re-armed per wait (under rmu)

	rfree, wfree chunkBufs

	wmu  sync.Mutex
	werr error

	rdl, wdl *deadlineVar

	done chan struct{}
	once sync.Once
}

func newDelayConn(inner net.Conn, up, down *shapedDir) *delayConn {
	c := &delayConn{
		inner: inner,
		up:    up,
		down:  down,
		wq:    make(chan timedChunk, delayQueueDepth),
		rq:    make(chan timedChunk, delayQueueDepth),
		rfree: newChunkBufs(),
		wfree: newChunkBufs(),
		rdl:   newDeadlineVar(),
		wdl:   newDeadlineVar(),
		done:  make(chan struct{}),
	}
	go c.pumpUp()
	go c.pumpDown()
	return c
}

// pumpUp drains queued writes into the inner pipe at their due times.
// Close flushes rather than drops: chunks already queued still deliver
// at their stamped times (a socket's send buffer drains after close),
// bounded by a write deadline so a wedged peer cannot pin the pump.
// The pump owns closing the inner conn — on flush completion or on the
// first write error — which is what finally wakes the down pump.
func (c *delayConn) pumpUp() {
	defer c.inner.Close()
	closing := false
	for {
		var ch timedChunk
		if closing {
			select {
			case ch = <-c.wq:
			default:
				return
			}
		} else {
			select {
			case ch = <-c.wq:
			case <-c.done:
				closing = true
				c.inner.SetWriteDeadline(time.Now().Add(5 * time.Second))
				continue
			}
		}
		if d := time.Until(ch.due); d > 0 {
			if closing {
				time.Sleep(d)
			} else {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-c.done:
					closing = true
					c.inner.SetWriteDeadline(time.Now().Add(5 * time.Second))
					time.Sleep(time.Until(ch.due))
				}
				t.Stop()
			}
		}
		if _, err := c.inner.Write(ch.data); err != nil {
			c.wmu.Lock()
			if c.werr == nil {
				c.werr = err
			}
			c.wmu.Unlock()
			return
		}
		c.wfree.put(ch.data)
	}
}

// pumpDown eagerly reads the inner pipe, stamping each chunk's arrival.
func (c *delayConn) pumpDown() {
	for {
		buf := c.rfree.get(delayChunk, delayChunk)
		n, err := c.inner.Read(buf)
		if n > 0 {
			due := c.down.deliveryDue(time.Now(), n)
			select {
			case c.rq <- timedChunk{data: buf[:n], due: due}:
			case <-c.done:
				return
			}
		}
		if err != nil {
			select {
			case c.rq <- timedChunk{err: err}:
			case <-c.done:
			}
			return
		}
	}
}

// Write stamps p's delivery time and queues it; it blocks only when the
// simulated send buffer is full (or a write deadline cuts the wait).
func (c *delayConn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	err := c.werr
	c.wmu.Unlock()
	if err != nil {
		return 0, err
	}
	select {
	case <-c.done:
		return 0, net.ErrClosed
	default:
	}
	data := c.wfree.get(len(p), delayWriteBuf)
	copy(data, p)
	chunk := timedChunk{data: data, due: c.up.deliveryDue(time.Now(), len(p))}
	for {
		dl, dn := c.wdl.get()
		var timech <-chan time.Time
		var timer *time.Timer
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			timer = time.NewTimer(d)
			timech = timer.C
		}
		select {
		case c.wq <- chunk:
			stopDelayTimer(timer)
			return len(p), nil
		case <-c.done:
			stopDelayTimer(timer)
			return 0, net.ErrClosed
		case <-dn:
		case <-timech:
			return 0, os.ErrDeadlineExceeded
		}
		stopDelayTimer(timer)
	}
}

// Read surfaces downlink bytes at their stamped arrival times. In-order
// delivery is preserved across deadline interruptions: an undelivered
// chunk stays pending for the next call.
func (c *delayConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		if len(c.rpend) > 0 {
			if err := c.waitUntil(c.rdue); err != nil {
				return 0, err
			}
			n := copy(p, c.rpend)
			c.rpend = c.rpend[n:]
			if len(c.rpend) == 0 {
				c.rfree.put(c.rbuf)
				c.rbuf = nil
			}
			return n, nil
		}
		if c.rerr != nil {
			return 0, c.rerr
		}
		dl, dn := c.rdl.get()
		var timech <-chan time.Time
		var timer *time.Timer
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			timer = c.armReadTimer(d)
			timech = timer.C
		}
		select {
		case ch := <-c.rq:
			stopDelayTimer(timer)
			if ch.err != nil {
				c.rerr = ch.err
				continue
			}
			c.rbuf, c.rpend, c.rdue = ch.data, ch.data, ch.due
		case <-c.done:
			stopDelayTimer(timer)
			return 0, net.ErrClosed
		case <-dn:
			stopDelayTimer(timer)
		case <-timech:
			return 0, os.ErrDeadlineExceeded
		}
	}
}

// waitUntil sleeps until due, interruptible by read-deadline changes
// and close.
func (c *delayConn) waitUntil(due time.Time) error {
	for {
		if time.Until(due) <= 0 {
			return nil
		}
		dl, dn := c.rdl.get()
		if !dl.IsZero() && !dl.After(time.Now()) {
			return os.ErrDeadlineExceeded
		}
		wake := due
		if !dl.IsZero() && dl.Before(due) {
			wake = dl
		}
		t := c.armReadTimer(time.Until(wake))
		select {
		case <-t.C:
		case <-dn:
		case <-c.done:
			t.Stop()
			return net.ErrClosed
		}
		t.Stop()
	}
}

// armReadTimer arms the read side's timer for d: one timer per
// connection instead of one per wait — with a read deadline set, that is
// one per delivered chunk. Only Read and its waitUntil use it, under
// rmu, and each stops it (or sees it fire) before the next wait; Stop
// leaves nothing in C (go 1.23 timers), so a Reset never sees an earlier
// wait's expiry.
func (c *delayConn) armReadTimer(d time.Duration) *time.Timer {
	if c.rtimer == nil {
		c.rtimer = time.NewTimer(d)
	} else {
		c.rtimer.Reset(d)
	}
	return c.rtimer
}

func stopDelayTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// Close tears the connection down. Blocked Reads and Writes wake
// immediately; writes already queued flush at their stamped delivery
// times before the inner conn closes (pumpUp owns that), so a
// write-then-close still lands its final frames.
func (c *delayConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *delayConn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *delayConn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline bounds both blocked Reads and Writes.
func (c *delayConn) SetDeadline(t time.Time) error {
	c.rdl.set(t)
	c.wdl.set(t)
	return nil
}

// SetReadDeadline bounds blocked Reads (including delivery-time waits).
func (c *delayConn) SetReadDeadline(t time.Time) error {
	c.rdl.set(t)
	return nil
}

// SetWriteDeadline bounds Writes blocked on a full send buffer.
func (c *delayConn) SetWriteDeadline(t time.Time) error {
	c.wdl.set(t)
	return nil
}

// UpStats returns the dialer-to-listener direction's shaping record.
func (c *delayConn) UpStats() LinkStats { return c.up.snapshot() }

// DownStats returns the listener-to-dialer direction's shaping record.
func (c *delayConn) DownStats() LinkStats { return c.down.snapshot() }
