package peermux

// channel.go is one content subchannel: a bounded queue of inbound
// frames that is its receive slabs (the wire's reader appends each frame
// to the last, Next reads the first, and a channel with nothing queued
// holds none), an io.Writer that re-frames serialized content frames
// into MUX envelopes and gathers them into batches that leave in one
// conn write, and the count of symbols this end has asked for and not
// yet received, which an inbound SYMBOL spends.

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"icd/internal/protocol"
)

// slabSize is the size of a slab: a channel's receive slabs are its
// inbound queue, and a batch of envelopes on their way out is a slab too.
const slabSize = 64 << 10

// frameHeader is a queued frame's header in a receive slab: its type
// (one byte) and its payload length (four, little-endian).
const frameHeader = 5

// slab is one pooled buffer: a receive slab, whose b grows at its tail
// as the wire's reader appends frames, or a batch being gathered.
type slab struct {
	b      []byte
	pooled bool // released: owned by nobody
}

var slabs = sync.Pool{New: func() any { return &slab{b: make([]byte, 0, slabSize)} }}

// getSlab returns an empty slab that holds at least n bytes: a pooled
// one, or one of its own for anything larger.
func getSlab(n int) *slab {
	if n > slabSize {
		return &slab{b: make([]byte, 0, n)}
	}
	s := slabs.Get().(*slab)
	s.b, s.pooled = s.b[:0], false
	return s
}

// release gives s back to the pool, unless it is larger than a slab. A
// slab has one owner at a time, so a second release is a bug that would
// hand one buffer to two owners.
func (s *slab) release() {
	if s.pooled {
		panic("peermux: slab released twice")
	}
	s.pooled = true
	if cap(s.b) == slabSize {
		slabs.Put(s)
	}
}

// batchBytes bounds one batched conn write. Write gathers a channel's
// envelopes into a pending batch and writes it whole when a frame other
// than SYMBOL ends it (a REQUEST's answer ends in DONE), or when the next
// envelope would take it past this size — so no write is larger, unless
// one frame alone is.
const batchBytes = slabSize

// Channel is one content subchannel on a Wire. The fetching side reads
// frames with Next and writes control frames through Write; the serving
// side does the reverse. The surface is the one a session would use
// from a net.Conn + FrameReader pair — Next for frames, Write for one
// serialized frame per call, SetDeadline to bound both — so the peer
// package's state machines drive it with the plain protocol writers.
//
// Next has one caller at a time (the channel's reader). Frames may be
// written from any goroutine. A channel signals through two channels of
// its own: ready, a one-token wake-up, and done.
type Channel struct {
	w           *Wire
	id          uint16
	remoteHello protocol.Hello

	// ready holds one token: a frame arrived or the deadline moved earlier
	// while Next waited, or the peer answered the open.
	ready chan struct{}
	// done is closed when the channel ends: the peer closed it, the wire
	// died, or Close ran.
	done chan struct{}

	// bmu guards batch, the envelopes written but not yet on the conn (nil
	// while no batch is open), and shut.
	bmu   sync.Mutex
	batch *slab
	shut  bool // Close flushed the last batch: Write refuses

	// pending (under the wire's mu) marks a channel claimed by OpenContext
	// whose open the peer has not answered yet.
	pending bool

	mu sync.Mutex
	// q is the inbound queue: receive slabs holding the queued frames back
	// to back, each behind its header, in order. The wire's reader appends
	// to the last; Next reads the first at head.
	q        []*slab
	head     int
	queued   int    // frames in q not yet handed out
	waiting  bool   // Next found q empty and waits on ready
	drained  bool   // Close emptied the queue: nothing more is copied in or handed out
	finished bool   // no more inbound frames (remote close, wire death): Next drains q, then says why
	ended    bool   // done is closed
	avail    uint64 // symbols this end asked for (REQUESTs, the OPEN's round) and has not received
	round    uint32 // the OPEN's Batch: the unit of the ACCEPT's Depth
	live     bool   // both ends agreed on the channel (markOpen ran)
	retired  bool   // the channel ended (Close or fail ran)
	reply    openReply
	answered bool // the peer answered the open: reply holds its answer
	deadline time.Time
	err      error // terminal error, set with finished (nil: io.EOF)

	clOnce sync.Once

	onClose func() // fabric refcount hook
}

// newChannel builds a channel. Its inbound queue is empty and holds no
// slab until a frame arrives.
func newChannel(w *Wire, id uint16) *Channel {
	return &Channel{
		w:     w,
		id:    id,
		ready: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// wake puts the token in ready, unless one is there already.
func (c *Channel) wake() {
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// endLocked closes done, once. Caller holds mu.
func (c *Channel) endLocked() {
	if !c.ended {
		c.ended = true
		close(c.done)
	}
}

// resolve records the peer's answer to the open and wakes the opener
// (called by the wire's reader). An ACCEPT first lowers the OPEN's round
// to the batches its Depth says the peer answers, before the reader
// routes any frame behind it.
func (c *Channel) resolve(r openReply) {
	if r.ok {
		c.answerRound(r.hello.Depth)
	}
	c.mu.Lock()
	c.reply, c.answered = r, true
	c.mu.Unlock()
	c.wake()
}

// answer returns the peer's answer to the open, once there is one.
func (c *Channel) answer() (openReply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reply, c.answered
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

// Accept answers a peer-opened channel with our content HELLO (accepting
// side only).
func (c *Channel) Accept(h protocol.Hello) error {
	if err := c.w.writeFrame(protocol.EncodeAcceptChannel(c.id, h)); err != nil {
		return err
	}
	c.open(0, 0)
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

// open allows the symbols the OPEN's round asked for: depth batches of
// batch symbols.
func (c *Channel) open(batch uint32, depth uint16) {
	c.mu.Lock()
	c.round = batch
	c.avail += uint64(batch) * uint64(depth)
	c.mu.Unlock()
}

// answerRound lowers what the OPEN's round allows to the depth batches
// the peer's ACCEPT says it answers (called by the wire's reader, before
// it routes any frame behind the ACCEPT), so the symbols of the batches
// it does not answer are not left allowed with nothing counting them in
// flight.
func (c *Channel) answerRound(depth uint16) {
	c.mu.Lock()
	c.avail = min(c.avail, uint64(c.round)*uint64(depth))
	c.mu.Unlock()
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
	c.mu.Unlock()
	c.w.noteChanOpen(c.id)
}

// deliver queues one inbound frame (called by the wire's reader; must
// never block), copied behind its header to the tail of the channel's
// last receive slab, or to a fresh one when the tail is too short. A
// SYMBOL this end did not ask for, or any frame past the queue bound, is
// the sender ignoring what it was asked: charge it, drop the frame, keep
// the wire.
func (c *Channel) deliver(inner protocol.Frame) {
	c.mu.Lock()
	if c.finished { // a half-open channel the peer closed: its id drains
		c.mu.Unlock()
		return
	}
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
	if c.queued == DefaultWindow+queueSlack {
		c.mu.Unlock()
		c.w.penalize(WeightViolation)
		return
	}
	n := frameHeader + len(inner.Payload)
	last := len(c.q) - 1
	if last < 0 || cap(c.q[last].b)-len(c.q[last].b) < n {
		c.q = append(c.q, getSlab(n))
		last++
	}
	s := c.q[last]
	s.b = append(s.b, byte(inner.Type))
	s.b = binary.LittleEndian.AppendUint32(s.b, uint32(len(inner.Payload)))
	s.b = append(s.b, inner.Payload...)
	c.queued++
	depth, wake := c.queued, c.waiting
	c.waiting = false
	c.mu.Unlock()
	if wake {
		c.wake()
	}
	c.w.met.queueDepth.Observe(float64(depth))
}

// Next returns the next inbound frame. The frame's payload is valid
// only until the following Next call or Close (the contract of
// protocol.FrameReader.Next). After a remote close the queue drains,
// then Next returns io.EOF (or the wire's terminal error).
func (c *Channel) Next() (protocol.Frame, error) {
	for {
		c.mu.Lock()
		if c.drained { // Close ran
			c.mu.Unlock()
			return protocol.Frame{}, ErrClosed
		}
		f, ok := c.popLocked()
		// finished is set under mu after the reader's last deliver, so a
		// queue found empty holds every frame routed before the end.
		c.waiting = !ok && !c.finished
		if ok || c.finished {
			err := c.err
			c.mu.Unlock()
			if ok {
				return f, nil
			}
			if err == nil {
				err = io.EOF
			}
			return protocol.Frame{}, err
		}
		dl := c.deadline
		c.mu.Unlock()
		t, ok := startTimer(dl)
		if !ok {
			return protocol.Frame{}, ErrDeadline
		}
		var expired <-chan time.Time
		if t != nil {
			expired = t.C
		}
		select {
		case <-c.ready:
		case <-c.done:
		case <-expired:
		}
		stopTimer(t)
	}
}

// popLocked hands out the queue's next frame, if it holds one. The frame
// handed out before is dead by now (the contract of Next), so the first
// slab goes back to the pool once the reading has moved past it, and
// when the queue is empty its one slab is reset in place: a consumer
// that keeps up touches one slab. Caller holds mu.
func (c *Channel) popLocked() (protocol.Frame, bool) {
	if c.queued == 0 {
		if len(c.q) > 0 {
			c.q[0].b, c.head = c.q[0].b[:0], 0
		}
		return protocol.Frame{}, false
	}
	if c.head == len(c.q[0].b) {
		c.q[0].release()
		// Shift in place: reslicing from the front would leak the
		// slice's capacity and allocate anew once per slab.
		n := copy(c.q, c.q[1:])
		c.q[n] = nil
		c.q, c.head = c.q[:n], 0
	}
	b := c.q[0].b[c.head:]
	end := frameHeader + int(binary.LittleEndian.Uint32(b[1:frameHeader]))
	c.head += end
	c.queued--
	return protocol.Frame{Type: protocol.Type(b[0]), Payload: b[frameHeader:end:end]}, true
}

// timers holds the stopped timers of waits that ended: a blocked Next
// holds one only while it waits, so a channel owns none and one timer
// serves every wait in turn.
var timers sync.Pool

// startTimer returns a timer that fires at deadline dl: nil for no
// deadline, and ok false for one already past. Stop leaves nothing in C
// (go 1.23 timers), so a Reset never sees an earlier wait's expiry.
func startTimer(dl time.Time) (t *time.Timer, ok bool) {
	if dl.IsZero() {
		return nil, true
	}
	d := time.Until(dl)
	if d <= 0 {
		return nil, false
	}
	if t, _ := timers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t, true
	}
	return time.NewTimer(d), true
}

// stopTimer stops a wait's timer and gives it back.
func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
		timers.Put(t)
	}
}

// Write sends one fully serialized content frame (as produced by
// protocol.WriteFrame — always one frame per Write call; a
// protocol.WriteSymbol comes in through WriteSymbol instead) through the
// channel as a MUX envelope. A REQUEST first allows the
// symbols it asks for, so its answer finds them allowed however soon it
// arrives. The envelope joins the channel's pending batch (batchBytes),
// which leaves in one conn write, in order, with the next frame that is
// not a SYMBOL — a REQUEST's symbols with the DONE that ends them — or
// when the batch is full, or at Close.
func (c *Channel) Write(p []byte) (int, error) {
	t, payload, err := protocol.FrameParts(p)
	if err != nil {
		return 0, err
	}
	if t == protocol.TypeRequest {
		if n, err := protocol.DecodeRequest(protocol.Frame{Type: t, Payload: payload}); err == nil {
			c.mu.Lock()
			c.avail += uint64(n)
			c.mu.Unlock()
		}
	}
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if err := c.roomLocked(len(p) + 3); err != nil { // the envelope adds 3 bytes to p
		return 0, err
	}
	if c.batch.b, err = protocol.AppendMux(c.batch.b, c.id, t, payload); err != nil {
		return 0, err
	}
	if t != protocol.TypeSymbol {
		if err := c.flushLocked(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// WriteSymbol sends a SYMBOL frame (protocol.SymbolWriter): the envelope
// Write would send for WriteSymbol's serialization of it, byte for byte,
// framed straight from (id, data) into the pending batch — one copy of
// the payload and one CRC, where a frame handed to Write was copied and
// checksummed once to serialize it and again to re-frame it.
func (c *Channel) WriteSymbol(id uint64, data []byte) error {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if err := c.roomLocked(protocol.MuxSymbolLen(len(data))); err != nil {
		return err
	}
	var err error
	c.batch.b, err = protocol.AppendMuxSymbol(c.batch.b, c.id, id, data)
	return err
}

// roomLocked readies the pending batch for an envelope of n bytes: it
// refuses once the channel is shut, and flushes a batch the envelope
// would overfill. Caller holds bmu.
func (c *Channel) roomLocked(n int) error {
	if c.shut {
		return ErrClosed
	}
	if c.batch != nil && len(c.batch.b)+n > batchBytes {
		if err := c.flushLocked(); err != nil {
			return err
		}
	}
	if c.batch == nil {
		c.batch = getSlab(batchBytes)
	}
	return nil
}

// flushLocked writes the pending batch in one conn write and gives its
// slab back (release keeps none that one oversize frame grew). Caller
// holds bmu.
func (c *Channel) flushLocked() error {
	s := c.batch
	if s == nil {
		return nil
	}
	c.batch = nil
	var err error
	if len(s.b) > 0 {
		err = c.w.write(s.b)
	}
	s.release()
	return err
}

// flush writes the pending batch; shut makes it the last, after which
// Write refuses.
func (c *Channel) flush(shut bool) error {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	c.shut = c.shut || shut
	return c.flushLocked()
}

// SetDeadline bounds every blocked Next on the channel — the hook a
// session expires to unwedge its channel without touching its siblings.
// A zero time clears it. Only a deadline that moves earlier wakes a
// blocked Next, through ready: it sleeps until the deadline it last read
// and then re-reads it, so an extension (what a session does before every
// frame) or a clear needs no wake-up.
func (c *Channel) SetDeadline(t time.Time) error {
	c.mu.Lock()
	earlier := !t.IsZero() && (c.deadline.IsZero() || t.Before(c.deadline))
	c.deadline = t
	wake := earlier && c.waiting
	c.mu.Unlock()
	if wake {
		c.wake()
	}
	return nil
}

// Close retires the channel: a blocked Next wakes with ErrClosed, the
// queue's slabs go back, the pending batch goes out and the peer is told
// (CLOSE_CHANNEL), late frames for the id drain silently, and the fabric
// refcount drops. Idempotent.
func (c *Channel) Close() error {
	c.clOnce.Do(func() {
		c.drainQueued()
		c.flush(true)
		c.retire()
		c.w.release(c.id, true)
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// retire marks the channel ended, exactly once (Close or fail), and
// counts a live one closed.
func (c *Channel) retire() {
	c.mu.Lock()
	closed := c.live && !c.retired
	c.retired = true
	c.mu.Unlock()
	if closed {
		c.w.noteChanClose(c.id)
	}
}

// remoteClosedNow marks the inbound direction finished: Next drains the
// queue then reports io.EOF.
func (c *Channel) remoteClosedNow() {
	c.mu.Lock()
	c.finished = true
	c.endLocked()
	c.mu.Unlock()
}

// fail terminates the channel with err (wire death, an abandoned open).
func (c *Channel) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.finished = true
	c.endLocked()
	c.mu.Unlock()
	c.retire()
}

// drainQueued gives the channel's receive slabs back on close, each
// once; from then on Next returns ErrClosed, and deliver drops what the
// wire's reader still routes here until release retires the id.
func (c *Channel) drainQueued() {
	c.mu.Lock()
	c.drained = true
	c.endLocked()
	q := c.q
	c.q, c.head, c.queued = nil, 0, 0
	c.mu.Unlock()
	for _, s := range q {
		s.release()
	}
}
