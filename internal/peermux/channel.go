package peermux

// channel.go is one content subchannel: a bounded queue of inbound
// frames (fed by the wire's reader, drained by Next), an io.Writer that
// re-frames serialized content frames into MUX envelopes and gathers
// them into batches that leave in one conn write, and the two halves of
// the credit ledger — the sender side that spends and blocks, the
// receiver side that meters arrivals and replenishes as its consumer
// drains.

import (
	"io"
	"net"
	"sync"
	"time"

	"icd/internal/protocol"
)

// slabSize is the size of a receive slab. The wire's reader copies a
// channel's inbound frames back to back into the free tail of the
// channel's current slab (a frame that does not fit the tail starts a
// fresh one), so a deep queue costs an allocation per slab, not per
// frame. Frames are consumed in order: once Next hands out a frame from a
// later slab, nothing reads or writes the earlier one any more, and it
// goes back to the pool. A frame larger than a slab gets a buffer of its
// own.
const slabSize = 64 << 10

// slab is one receive buffer: b grows at its tail as the reader copies
// frames in, and every queued frame is a view of it.
type slab struct {
	b      []byte
	pooled bool // released into slabs: owned by nobody
}

var slabs = sync.Pool{New: func() any { return &slab{b: make([]byte, 0, slabSize)} }}

func getSlab() *slab {
	s := slabs.Get().(*slab)
	s.b, s.pooled = s.b[:0], false
	return s
}

// release gives s back to the pool. A slab has one owner at a time, so a
// second release is a bug that would hand one buffer to two channels.
func (s *slab) release() {
	if s.pooled {
		panic("peermux: receive slab released twice")
	}
	s.pooled = true
	slabs.Put(s)
}

type inFrame struct {
	t protocol.Type
	p []byte // the payload: a view of s, or a buffer of its own when s is nil
	s *slab
}

// batchBytes bounds one batched conn write. Write gathers a channel's
// envelopes into a pending batch and writes it whole when a frame other
// than SYMBOL ends it (a REQUEST's answer ends in DONE), when a SYMBOL
// finds no credit, or when the next envelope would take it past this
// size — so no write is larger, unless one frame alone is.
const batchBytes = 64 << 10

// batchBufs recycles batch buffers: a channel holds one only while a
// batch is open.
var batchBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, batchBytes)
	return &b
}}

// Channel is one content subchannel on a Wire. The fetching side reads
// frames with Next and writes control frames through Write; the serving
// side does the reverse. The surface is the one a session would use
// from a net.Conn + FrameReader pair — Next for frames, Write for one
// serialized frame per call, SetDeadline to bound both — so the peer
// package's state machines drive it with the plain protocol writers.
//
// Next has one caller at a time (the channel's reader), and so do Writes
// of SYMBOL frames (the channel's symbol writer): each owns a deadline
// timer it reuses across waits. Other frames may be written from any
// goroutine.
type Channel struct {
	w           *Wire
	id          uint16
	remoteHello protocol.Hello

	in     chan inFrame
	timer  *time.Timer // Next's deadline timer (the reader's)
	wtimer *time.Timer // the credit wait's deadline timer (the symbol writer's)

	// bmu guards batch, the envelopes written but not yet on the conn (a
	// pooled buffer, nil while no batch is open). Never held across a
	// credit wait.
	bmu   sync.Mutex
	batch *[]byte

	mu       sync.Mutex
	rslab    *slab  // the slab the wire's reader copies inbound frames into
	held     *slab  // the slab of the frame Next handed out last
	drained  bool   // Close emptied the queue: nothing more is copied in or handed out
	credits  uint32 // sender side: symbol frames we may still send
	avail    uint32 // receiver side: grant the remote may still spend
	consumed uint32 // drained since the last replenishing CREDIT
	window   uint32 // receiver side: current target receive window
	deficit  uint32 // shrink debt: regrants withheld until paid down
	granted  bool   // the initial window has been opened (grantInitial ran)
	live     bool   // both ends agreed on the channel (markOpen ran)
	retired  bool   // window released from the wire's aggregate sum
	deadline time.Time
	dnotify  chan struct{} // closed+replaced when the deadline moves earlier
	err      error         // terminal error, set before rclosed closes

	creditc chan struct{} // signals credit arrival to a blocked sender
	rclosed chan struct{} // no more inbound frames (remote close / wire death)
	closed  chan struct{} // locally closed
	rcOnce  sync.Once
	clOnce  sync.Once

	onClose func() // fabric refcount hook
}

// newChannel builds a channel whose local receive window opens at
// window symbol frames (0 selects the Config.Window default; values are
// clamped to [1, Config.Window] — the inbound queue is sized for the
// configured maximum, so no window may exceed it). The queue capacity is
// the invariant bound on in-flight data frames: regrants and SetWindow
// keep the sender's outstanding allowance (window + deficit) at or
// below Config.Window at all times.
func newChannel(w *Wire, id uint16, window int) *Channel {
	return &Channel{
		w:       w,
		id:      id,
		window:  clampWindow(window, w.cfg.Window),
		in:      make(chan inFrame, w.cfg.Window+queueSlack),
		dnotify: make(chan struct{}),
		creditc: make(chan struct{}, 1),
		rclosed: make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

// clampWindow resolves a requested window against the per-channel
// maximum: 0 (unset) selects the maximum itself, everything else lands
// in [1, max].
func clampWindow(n, max int) uint32 {
	if n <= 0 || n > max {
		return uint32(max)
	}
	return uint32(n)
}

// ID returns the channel id.
func (c *Channel) ID() uint16 { return c.id }

// RemoteHello returns the peer's content HELLO for this channel: the
// OPEN_CHANNEL hello on the accepting side, the ACCEPT_CHANNEL hello on
// the opening side.
func (c *Channel) RemoteHello() protocol.Hello { return c.remoteHello }

// RemoteAddr exposes the wire's remote address (penalty attribution,
// logging).
func (c *Channel) RemoteAddr() net.Addr { return c.w.conn.RemoteAddr() }

// LocalAddr exposes the wire's local address: this end as the connection
// sees it.
func (c *Channel) LocalAddr() net.Addr { return c.w.conn.LocalAddr() }

// Accept answers a peer-opened channel with our content HELLO and
// grants the initial credit window (accepting side only).
func (c *Channel) Accept(h protocol.Hello) error {
	if err := c.w.writeFrame(protocol.EncodeAcceptChannel(c.id, h)); err != nil {
		return err
	}
	if err := c.grantInitial(); err != nil {
		return err
	}
	c.markOpen()
	return nil
}

// Reject declines a peer-opened channel with a canonical reason and
// retires it.
func (c *Channel) Reject(msg string) {
	c.w.met.rejected.Add(1)
	c.w.writeFrame(protocol.EncodeRejectChannel(c.id, msg))
	c.Close()
}

// grantInitial opens the receive window: the peer may send window
// symbol frames before our consumer has drained anything. The grant is
// registered in the wire's aggregate window sum first, so a wire-level
// budget (Config.WireWindow) can clamp it — never below one frame, or
// the channel could not move at all. The opening side grants before it
// knows the peer's answer (the CREDIT rides behind the OPEN_CHANNEL); a
// rejected or abandoned open hands the reservation back through
// retireWindow like any other channel end.
func (c *Channel) grantInitial() error {
	c.mu.Lock()
	want := int(c.window)
	c.mu.Unlock()
	n := uint32(c.w.reserveWindow(want, 1))
	c.mu.Lock()
	c.window = n
	c.avail += n
	c.granted = true
	c.mu.Unlock()
	return c.writeGrant(n)
}

// markOpen records the point a subchannel becomes live — the acceptor
// answered ACCEPT — symmetric between the two sides. A channel that
// already ended (the wire died under the open) was never live.
func (c *Channel) markOpen() {
	c.mu.Lock()
	if c.retired {
		c.mu.Unlock()
		return
	}
	c.live = true
	n := int(c.window)
	c.mu.Unlock()
	c.w.noteChanOpen(c.id, n)
}

// writeGrant sends a CREDIT frame carrying n and surfaces a write
// failure as the channel's terminal error: a grant that never reached
// the wire would strand the remote sender at zero credits, so the local
// consumer must see the failure on its next read instead of blocking
// against a silently dead replenish path.
func (c *Channel) writeGrant(n uint32) error {
	if n == 0 {
		return nil
	}
	if err := c.w.writeFrame(protocol.EncodeCredit(c.id, n)); err != nil {
		c.fail(err)
		return err
	}
	return nil
}

// Window returns the channel's current local receive-window target in
// symbol frames.
func (c *Channel) Window() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.window)
}

// SetWindow resizes the channel's local receive window to n symbol
// frames, live — the regrant path a credit-denominated scheduler uses
// to shift one wire's bandwidth between subchannels mid-transfer. n is
// clamped to [1, Config.Window] (the inbound queue is sized for the
// configured maximum) and growth further respects the wire's aggregate
// budget. Growth is granted immediately as an unsolicited CREDIT;
// credits already granted cannot be revoked, so a shrink is paid down
// by withholding replenishment grants until the sender's outstanding
// allowance has drained to the new window. Safe to call from any
// goroutine, on either side, at any point after the channel opened.
func (c *Channel) SetWindow(n int) error {
	target := int(clampWindow(n, c.w.cfg.Window))
	c.mu.Lock()
	if !c.granted {
		// Window not opened yet (pre-Accept): just move the target that
		// grantInitial will grant.
		c.window = uint32(target)
		c.mu.Unlock()
		return nil
	}
	delta := target - int(c.window)
	if delta == 0 {
		c.mu.Unlock()
		return nil
	}
	if delta < 0 {
		// Shrink: the sender keeps its in-flight allowance; future
		// regrants are withheld until the debt drains. The aggregate sum
		// tracks the target, so the freed share is immediately available
		// to siblings.
		c.deficit += uint32(-delta)
		c.window = uint32(target)
		if !c.retired {
			defer c.w.reserveWindow(delta, 0)
		}
		c.mu.Unlock()
		c.noteResize(target)
		return nil
	}
	c.mu.Unlock()
	grown := c.w.reserveWindow(delta, 0)
	if grown <= 0 {
		return nil // no aggregate headroom: keep the current window
	}
	c.mu.Lock()
	if c.retired {
		// Lost a race with Close/fail: the retire already settled the
		// aggregate sum at the old window; hand the reservation back.
		c.mu.Unlock()
		c.w.reserveWindow(-grown, 0)
		return c.finalErr()
	}
	c.window += uint32(grown)
	// Growth first cancels shrink debt (those withheld regrants now fit
	// the larger window); only the remainder is new allowance to grant.
	send := uint32(grown)
	if send <= c.deficit {
		c.deficit -= send
		send = 0
	} else {
		send -= c.deficit
		c.deficit = 0
	}
	c.avail += send
	c.mu.Unlock()
	c.noteResize(int(c.window))
	return c.writeGrant(send)
}

// deliver queues one inbound frame (called by the wire's reader; must
// never block), its payload copied into the channel's receive slab. A
// data frame beyond the granted window, or any frame past the queue
// bound, is the sender ignoring flow control: charge it, drop the frame,
// keep the wire.
func (c *Channel) deliver(inner protocol.Frame) {
	c.mu.Lock()
	if inner.Type == protocol.TypeSymbol {
		if c.avail == 0 {
			c.mu.Unlock()
			c.w.penalize(WeightViolation)
			return
		}
		c.avail--
	}
	if c.drained {
		c.mu.Unlock()
		return
	}
	f := c.copyInLocked(inner)
	c.mu.Unlock()
	select {
	case c.in <- f:
		c.w.met.queueDepth.Observe(float64(len(c.in)))
	default:
		c.w.penalize(WeightViolation)
	}
}

// copyInLocked copies a frame's payload to the free tail of the reader's
// slab, or to the start of a fresh one when the tail is too short.
// Caller holds mu.
func (c *Channel) copyInLocked(inner protocol.Frame) inFrame {
	n := len(inner.Payload)
	switch {
	case n == 0:
		return inFrame{t: inner.Type}
	case n > slabSize:
		p := make([]byte, n)
		copy(p, inner.Payload)
		return inFrame{t: inner.Type, p: p}
	}
	if c.rslab == nil || cap(c.rslab.b)-len(c.rslab.b) < n {
		c.rslab = getSlab()
	}
	s := c.rslab
	at := len(s.b)
	s.b = append(s.b, inner.Payload...)
	return inFrame{t: inner.Type, p: s.b[at:len(s.b):len(s.b)], s: s}
}

// addCredits applies a CREDIT grant from the peer (sender side). A
// cumulative balance past MaxCreditGrant is a hostile attempt to
// disable flow control: charge it and clamp.
func (c *Channel) addCredits(n uint32) {
	c.mu.Lock()
	c.credits += n
	over := c.credits > protocol.MaxCreditGrant
	if over {
		c.credits = protocol.MaxCreditGrant
	}
	c.mu.Unlock()
	if over {
		c.w.penalize(WeightViolation)
	}
	select {
	case c.creditc <- struct{}{}:
	default:
	}
}

// consumedLocked counts one drained data frame and returns the grant that
// replenishes the sender once a quantum of them has actually been drained
// by the consumer — the backpressure edge: a slow consumer stops granting,
// its sender blocks, siblings keep flowing. A window shrink's deficit is
// paid down here: drained frames cancel debt before any new grant goes
// out, which is how the sender's outstanding allowance converges onto the
// smaller window without ever revoking a credit. Caller holds mu.
func (c *Channel) consumedLocked() uint32 {
	c.consumed++
	quantum := c.window / 4
	if quantum == 0 {
		quantum = 1
	}
	if c.consumed < quantum {
		return 0
	}
	n := c.consumed
	c.consumed = 0
	if c.deficit > 0 {
		pay := c.deficit
		if pay > n {
			pay = n
		}
		c.deficit -= pay
		n -= pay
	}
	c.avail += n
	return n
}

// Next returns the next inbound frame. The frame's payload is valid
// only until the following Next call or Close (the contract of
// protocol.FrameReader.Next). After a remote close the queue drains,
// then Next returns io.EOF (or the wire's terminal error).
func (c *Channel) Next() (protocol.Frame, error) {
	for {
		select {
		case <-c.closed:
			return protocol.Frame{}, ErrClosed
		default:
		}
		// Drain queued frames even when the remote side is gone.
		select {
		case f := <-c.in:
			return c.take(f)
		default:
		}
		select {
		case <-c.rclosed:
			select {
			case f := <-c.in:
				return c.take(f)
			default:
				return protocol.Frame{}, c.finalErr()
			}
		default:
		}

		c.mu.Lock()
		dl := c.deadline
		dn := c.dnotify
		c.mu.Unlock()
		timech, ok := armTimer(&c.timer, dl)
		if !ok {
			return protocol.Frame{}, ErrDeadline
		}
		select {
		case f := <-c.in:
			stopTimer(c.timer)
			return c.take(f)
		case <-c.rclosed:
		case <-c.closed:
		case <-dn:
		case <-timech:
		}
		stopTimer(c.timer)
	}
}

// armTimer sets *t, made at its first use and reused by every wait after,
// to fire at deadline dl and returns its channel: nil for no deadline,
// and ok false for one already past. Stop leaves nothing in C (go 1.23
// timers), so a Reset never sees an earlier wait's expiry.
func armTimer(t **time.Timer, dl time.Time) (<-chan time.Time, bool) {
	if dl.IsZero() {
		return nil, true
	}
	d := time.Until(dl)
	if d <= 0 {
		return nil, false
	}
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return (*t).C, true
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// take hands f out. The slab of the frame handed out before goes back to
// the pool when f lies in a later one. A drained data frame may complete a
// quantum, whose replenishing grant is surfaced as the channel's terminal
// error if it cannot reach the wire (writeGrant), not dropped — the remote
// sender is stranded at zero credits either way, and the consumer must
// find out on its next read.
func (c *Channel) take(f inFrame) (protocol.Frame, error) {
	c.mu.Lock()
	if c.drained { // Close won a race with this Next
		c.mu.Unlock()
		return protocol.Frame{}, ErrClosed
	}
	var done *slab
	if f.s != nil && f.s != c.held {
		done, c.held = c.held, f.s
	}
	var grant uint32
	if f.t == protocol.TypeSymbol {
		grant = c.consumedLocked()
	}
	c.mu.Unlock()
	if done != nil {
		done.release()
	}
	if grant > 0 {
		select {
		case <-c.closed:
		default:
			c.writeGrant(grant)
		}
	}
	return protocol.Frame{Type: f.t, Payload: f.p}, nil
}

func (c *Channel) finalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return io.EOF
}

// Write sends one fully serialized content frame (as produced by
// protocol.WriteFrame or WriteSymbol — always one frame per Write call)
// through the channel as a MUX envelope. A SYMBOL frame first acquires a
// credit, blocking while the window is empty. The envelope joins the
// channel's pending batch (batchBytes), which leaves in one conn write,
// in order, with the next frame that is not a SYMBOL — a REQUEST's
// symbols with the DONE that ends them — or when a SYMBOL must wait for
// credit, or when the batch is full, or at Close.
func (c *Channel) Write(p []byte) (int, error) {
	t, payload, err := protocol.FrameParts(p)
	if err != nil {
		return 0, err
	}
	if t == protocol.TypeSymbol {
		if err := c.acquireCredit(); err != nil {
			return 0, err
		}
	}
	c.bmu.Lock()
	defer c.bmu.Unlock()
	select {
	case <-c.closed: // Close flushed the last batch
		return 0, ErrClosed
	default:
	}
	if c.batch != nil && len(*c.batch)+len(p)+3 > batchBytes { // the envelope adds 3 bytes to p
		if err := c.flushLocked(); err != nil {
			return 0, err
		}
	}
	if c.batch == nil {
		c.batch = batchBufs.Get().(*[]byte)
	}
	if *c.batch, err = protocol.AppendMux(*c.batch, c.id, t, payload); err != nil {
		return 0, err
	}
	if t != protocol.TypeSymbol {
		if err := c.flushLocked(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// flushLocked writes the pending batch in one conn write and gives its
// buffer back, unless one oversize frame grew it. Caller holds bmu.
func (c *Channel) flushLocked() error {
	bp := c.batch
	if bp == nil {
		return nil
	}
	c.batch = nil
	var err error
	if len(*bp) > 0 {
		err = c.w.write(*bp)
	}
	if cap(*bp) <= batchBytes {
		*bp = (*bp)[:0]
		batchBufs.Put(bp)
	}
	return err
}

func (c *Channel) flush() error {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	return c.flushLocked()
}

// acquireCredit takes one credit, blocking while the peer's receive
// window has no room. The peer grants credit for frames it has read, so
// the pending batch goes out before the wait. Each call that had to wait
// records how long in peermux.credit_stall_seconds — the sender-side
// view of a window that is the binding constraint.
func (c *Channel) acquireCredit() error {
	c.mu.Lock()
	if c.credits > 0 {
		c.credits--
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if err := c.flush(); err != nil {
		return err
	}
	start := time.Now()
	err := c.waitCredit()
	c.w.met.stall.Observe(time.Since(start).Seconds())
	return err
}

// waitCredit blocks until a credit could be taken, the deadline passes,
// or the channel dies.
func (c *Channel) waitCredit() error {
	for {
		c.mu.Lock()
		if c.credits > 0 {
			c.credits--
			c.mu.Unlock()
			return nil
		}
		dl := c.deadline
		dn := c.dnotify
		c.mu.Unlock()

		select {
		case <-c.closed:
			return ErrClosed
		case <-c.rclosed:
			return c.finalErr()
		default:
		}
		timech, ok := armTimer(&c.wtimer, dl)
		if !ok {
			return ErrDeadline
		}
		select {
		case <-c.creditc:
		case <-c.closed:
		case <-c.rclosed:
		case <-dn:
		case <-timech:
		}
		stopTimer(c.wtimer)
	}
}

// SetDeadline bounds every blocked Next and Write (credit wait) on the
// channel — the hook the session stall watchdog fires to unwedge a
// stalled channel without touching its siblings. A zero time clears it.
// Only a deadline that moves earlier wakes the blocked waiters: they
// sleep until the deadline they last read and then re-read it, so an
// extension (what a session does before every frame) or a clear needs no
// wake-up — and costs no notification channel.
func (c *Channel) SetDeadline(t time.Time) error {
	c.mu.Lock()
	earlier := !t.IsZero() && (c.deadline.IsZero() || t.Before(c.deadline))
	c.deadline = t
	if earlier {
		close(c.dnotify)
		c.dnotify = make(chan struct{})
	}
	c.mu.Unlock()
	return nil
}

// Close retires the channel: the pending batch goes out and the peer is
// told (CLOSE_CHANNEL), late frames for the id drain silently, blocked
// readers and writers wake with ErrClosed, and the fabric refcount
// drops. Idempotent.
func (c *Channel) Close() error {
	c.clOnce.Do(func() {
		close(c.closed)
		c.flush()
		c.retireWindow()
		c.w.release(c.id, true)
		c.drainQueued()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// retireWindow releases this channel's share of the wire's aggregate
// window sum, exactly once, when the channel ends (Close or fail).
func (c *Channel) retireWindow() {
	c.mu.Lock()
	n := 0
	if c.granted && !c.retired {
		c.retired = true
		n = int(c.window)
	}
	live := c.live
	c.mu.Unlock()
	if n > 0 {
		c.w.reserveWindow(-n, 0)
		if live {
			c.w.noteChanClose(c.id, n)
		}
	}
}

// remoteClosedNow marks the inbound direction finished: Next drains the
// queue then reports io.EOF.
func (c *Channel) remoteClosedNow() {
	c.rcOnce.Do(func() { close(c.rclosed) })
}

// fail terminates the channel with err (wire death, failed grant).
func (c *Channel) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.retireWindow()
	c.rcOnce.Do(func() { close(c.rclosed) })
}

// drainQueued gives the channel's receive slabs back on close, each
// once: the one Next handed out last, those of the frames still queued,
// and the reader's, in that order (the order the reader filled them in).
// The wire's reader no longer routes to this channel (release retired the
// id), and drained stops a deliver or a Next that raced the retirement.
func (c *Channel) drainQueued() {
	c.mu.Lock()
	c.drained = true
	last, reader := c.held, c.rslab
	c.held, c.rslab = nil, nil
	c.mu.Unlock()
	next := func(s *slab) {
		if s != nil && s != last {
			if last != nil {
				last.release()
			}
			last = s
		}
	}
	for empty := false; !empty; {
		select {
		case f := <-c.in:
			next(f.s)
		default:
			empty = true
		}
	}
	next(reader)
	if last != nil {
		last.release()
	}
}
