package peermux

// wire.go owns the shared connection: the MUX_HELLO handshake (the
// dialer's half rides one flight with its first OPEN_CHANNEL;
// the answer is read by the demux reader like any other frame), the
// single reader goroutine that demultiplexes envelopes onto channel
// queues (reading ahead: one conn read takes in every frame that has
// arrived), serialized conn writes (a wire-level frame, or a channel's
// batch of envelopes), channel open/accept bookkeeping, and the
// containment rules for misbehaving peers (unknown ids, symbols nobody
// asked for, corrupt frames) — charge and drop, never wedge.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icd/internal/obs"
	"icd/internal/protocol"
)

// Misbehavior weights passed to Config.Penalize — aligned with the peer
// package's penalty constants (a protocol violation weighs like a
// connection reset, a corrupt stream like PenaltyCorrupt) so wire-level
// misbehavior accumulates in the same ban ledger as session-level
// misbehavior.
const (
	// WeightViolation charges a per-frame protocol violation: an
	// envelope for a channel that never existed, a SYMBOL the channel
	// did not ask for, a malformed negotiation frame.
	WeightViolation = 0.5
	// WeightCorrupt charges a corrupt frame stream (CRC/magic failure),
	// which kills the wire.
	WeightCorrupt = 3.0
)

// Default Config values.
const (
	DefaultTimeout     = 30 * time.Second
	DefaultMaxChannels = 64
	// DefaultWindow is a channel's window when nothing sets one, and the
	// ceiling of every window: how many SYMBOL frames a channel's own
	// requests may have asked for and not yet received. It is a ceiling,
	// not a target: a fetching session asks for no more than its decode
	// still needs, so the window shapes a flight only when the need is
	// larger.
	DefaultWindow = 4096
	// drainedIDs bounds the set of recently retired channel ids whose
	// in-flight frames are drained silently instead of punished.
	drainedIDs = 64
	// queueSlack is headroom on a channel's inbound queue bound beyond
	// the window, for the control frames that ride beside the symbols.
	queueSlack = 64
)

// ErrClosed marks an operation on a closed wire, channel or fabric.
var ErrClosed = errors.New("peermux: closed")

// ErrDeadline marks a channel read that ran past the deadline set with
// SetDeadline. It satisfies net.Error's Timeout contract via errors.Is on
// os.ErrDeadlineExceeded at call sites that care; the session layer only
// needs "this blocked too long".
var ErrDeadline = errors.New("peermux: deadline exceeded")

// RemoteError is a wire-level ERROR frame from the peer — the answer a
// server gives before or instead of a fabric handshake (banned, busy,
// version mismatch). The session layer classifies Msg with the
// protocol.Is* helpers.
type RemoteError struct{ Msg string }

// Error implements the error interface.
func (e *RemoteError) Error() string { return "peermux: remote error: " + e.Msg }

// RejectError is a REJECT_CHANNEL answer: the wire is healthy but the
// peer declined this channel. Msg reuses the canonical ERROR vocabulary.
type RejectError struct{ Msg string }

// Error implements the error interface.
func (e *RejectError) Error() string { return "peermux: channel rejected: " + e.Msg }

// Config parameterizes a Wire (and, via Fabric, every wire it dials).
type Config struct {
	// Timeout bounds every blocking wire operation: the handshake, one
	// frame write, and the reader's per-frame idle limit (default 30s).
	Timeout time.Duration
	// MaxChannels caps concurrently open channels accepted from the
	// peer (default 64). Announced in MUX_HELLO; openers respect the
	// peer's announcement.
	MaxChannels int
	// ListenAddr is advertised in the MUX_HELLO for gossip attribution
	// (empty: not dialable).
	ListenAddr string
	// Penalize, when non-nil, charges peer misbehavior (weights above).
	// The caller binds the address/attribution — the wire only reports
	// the weight.
	Penalize func(weight float64)
	// Obs, when non-nil, receives wire metrics (the sum of the channels'
	// windows, channel population, queue depths) and lifecycle
	// trace events (channel open/resize/close). Fabric copies it to
	// every wire it dials.
	Obs *obs.Registry

	// onDead is the fabric's teardown hook (set internally).
	onDead func()
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxChannels <= 0 {
		c.MaxChannels = DefaultMaxChannels
	}
	return c
}

// Wire is one multiplexed peer connection: a MUX_HELLO-established
// frame stream carrying numbered subchannels. A single reader goroutine
// (Dial side) or the Serve call (accept side) demultiplexes inbound
// frames; writes from any channel are serialized on the shared conn.
type Wire struct {
	conn    net.Conn
	fr      *protocol.FrameReader
	cfg     Config
	dialer  bool
	handler func(*Channel)
	met     wireMetrics
	raddr   string // cached RemoteAddr().String() for trace subjects

	// wmu serializes writes on conn. Never acquired while holding mu.
	wmu sync.Mutex
	// writeArmed (under wmu) and readArmed (the reader's own) are when
	// the conn's write and read deadlines were last set: see armWrite.
	writeArmed, readArmed time.Time

	// winSum is the sum of every open channel's window (WindowSum).
	winSum atomic.Int64

	// remote is the peer's MUX_HELLO, written once before helloc closes:
	// the acceptor is handed it, the dialer's reader finds it as the
	// first inbound frame. Read it only after established().
	remote protocol.MuxHello
	helloc chan struct{}

	mu       sync.Mutex
	chans    map[uint16]*Channel
	pend     map[uint16]chan openReply
	drain    map[uint16]struct{}
	drainq   []uint16
	nextID   uint16
	err      error
	dead     bool
	deadOnce sync.Once

	done chan struct{} // closed when the wire fails or closes
	hwg  sync.WaitGroup
}

type openReply struct {
	hello  protocol.Hello
	reject string
	ok     bool
}

// Dial starts a wire on conn from the dialing side: it starts the
// demultiplexing reader, writes our MUX_HELLO and returns without
// waiting for the peer's — the first Open's OPEN_CHANNEL follows in the
// same flight, so a lone fetch is up in one round trip,
// and a full sender's data, which it writes right behind its ACCEPT
// (the OPEN's hello asks for it), arrives in that same round trip.
// The peer's answer is the reader's first frame: a MUX_HELLO
// establishes the wire; an ERROR (version reject, refused, busy), a
// corrupt stream or any other frame kills it, and that verdict is what
// the first Open (or Err) returns — a version rejection wraps
// protocol.ErrVersion, any other ERROR is a *RemoteError.
func Dial(conn net.Conn, cfg Config) (*Wire, error) {
	cfg = cfg.withDefaults()
	w := newWire(conn, protocol.NewFrameReader(conn), cfg, true)
	go w.readLoop()
	hello := protocol.MuxHello{
		MaxChannels: uint16(cfg.MaxChannels),
		ListenAddr:  cfg.ListenAddr,
	}
	if w.writeFrame(protocol.EncodeMuxHello(hello)) != nil {
		return nil, w.Err() // the peer's answer, when it gave one
	}
	return w, nil
}

// Accept performs the acceptor side of the handshake: the caller (the
// server mux) already read the client's MUX_HELLO off fr; Accept
// answers with our own and returns the wire. handler is invoked in its
// own goroutine for every channel the peer opens; it owns the channel
// and must Accept or Reject it, then serve until error. The caller
// drives the wire by calling Serve, which returns when the connection
// dies and every handler has exited.
func Accept(conn net.Conn, fr *protocol.FrameReader, client protocol.MuxHello, cfg Config, handler func(*Channel)) (*Wire, error) {
	cfg = cfg.withDefaults()
	conn.SetWriteDeadline(time.Now().Add(cfg.Timeout))
	hello := protocol.MuxHello{
		MaxChannels: uint16(cfg.MaxChannels),
		ListenAddr:  cfg.ListenAddr,
	}
	if err := protocol.WriteFrame(conn, protocol.EncodeMuxHello(hello)); err != nil {
		conn.Close()
		return nil, err
	}
	w := newWire(conn, fr, cfg, false)
	w.handler = handler
	w.shake(client)
	return w, nil
}

func newWire(conn net.Conn, fr *protocol.FrameReader, cfg Config, dialer bool) *Wire {
	w := &Wire{
		conn:   conn,
		fr:     fr,
		cfg:    cfg,
		dialer: dialer,
		met:    newWireMetrics(cfg.Obs),
		raddr:  conn.RemoteAddr().String(),
		chans:  make(map[uint16]*Channel),
		pend:   make(map[uint16]chan openReply),
		drain:  make(map[uint16]struct{}),
		helloc: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if dialer {
		w.nextID = 1
	}
	return w
}

// shake records the peer's MUX_HELLO: the wire is established.
func (w *Wire) shake(remote protocol.MuxHello) {
	w.remote = remote
	close(w.helloc)
}

// established reports whether the peer's MUX_HELLO has been read.
func (w *Wire) established() bool {
	select {
	case <-w.helloc:
		return true
	default:
		return false
	}
}

// Serve runs the demultiplexing read loop in the calling goroutine
// (acceptor side) and returns once the wire is down and every channel
// handler has exited — the no-goroutine-leak point for a server conn.
func (w *Wire) Serve() error {
	w.readLoop()
	w.hwg.Wait()
	return w.Err()
}

// Err returns the wire's terminal error, nil while it is healthy.
func (w *Wire) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Done is closed when the wire dies.
func (w *Wire) Done() <-chan struct{} { return w.done }

// RemoteAddr exposes the underlying connection's remote address for
// penalty attribution.
func (w *Wire) RemoteAddr() net.Addr { return w.conn.RemoteAddr() }

// Channels returns the number of currently open channels.
func (w *Wire) Channels() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.chans)
}

// WindowSum returns the sum of every open channel's window, in symbol
// frames: the most symbols this end's channels may have asked the peer
// for and not yet received.
func (w *Wire) WindowSum() int { return int(w.winSum.Load()) }

// addWindow moves the window sum by delta.
func (w *Wire) addWindow(delta int) {
	w.winSum.Add(int64(delta))
	w.met.windowSum.Add(int64(delta))
}

// Close tears the wire down: the conn is closed, every channel fails
// with ErrClosed, pending opens abort.
func (w *Wire) Close() error {
	w.fail(ErrClosed)
	return nil
}

// Open is OpenWindow at DefaultWindow, bounded by timeout
// instead of a caller's context.
func (w *Wire) Open(h protocol.Hello, timeout time.Duration) (*Channel, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return w.OpenWindow(ctx, h, 0)
}

// OpenWindow negotiates a new subchannel carrying h (the opener's content
// HELLO) and blocks until the peer accepts or rejects it, the wire dies,
// or ctx ends. On accept, the channel's RemoteHello carries the peer's
// content metadata. window is the channel's window in symbol frames (0
// selects DefaultWindow; values clamp to [1, DefaultWindow]):
// a scheduler that already knows a channel's worth opens it at size
// instead of resizing after.
//
// Nothing the opener sends depends on the peer's answer, so the
// OPEN_CHANNEL goes out at once — on a fresh wire right behind Dial's
// MUX_HELLO — and only then does the call wait. The channel is registered
// before the peer can answer, and the symbols the OPEN's first round asks
// for (h.Batch × h.Depth) are allowed before the OPEN is written, so what
// the peer writes behind its ACCEPT (its answer to that round) routes to
// it like any later answer. The ACCEPT's Depth says how many of the
// round's batches the peer answers, and the reader lowers the allowance
// to those before it routes anything behind the ACCEPT. A wire that dies
// first fails the open with the wire's terminal error, typed as the reader saw
// it (protocol.ErrVersion, *RemoteError, protocol.ErrCorrupt). An open
// whose ctx ends first returns ctx's error and leaves nothing behind: the
// half-open id drains and its window leaves the wire's sum (abortOpen).
func (w *Wire) OpenWindow(ctx context.Context, h protocol.Hello, window int) (*Channel, error) {
	if !w.dialer {
		return nil, errors.New("peermux: only the dialing side opens channels")
	}
	c, reply, err := w.claimChannel(ctx, window)
	if err != nil {
		return nil, err
	}
	c.open(h.Batch, h.Depth)
	if err := w.writeFrame(protocol.EncodeOpenChannel(c.id, h)); err != nil {
		w.abortOpen(c)
		return nil, err // a failed write killed the wire: the wire's verdict
	}
	select {
	case r := <-reply:
		return w.answered(c, r)
	case <-w.done:
		// An answer the reader took before the wire died still stands: the
		// open succeeded, and what the peer wrote behind it is queued for
		// the channel ahead of the wire's error.
		select {
		case r := <-reply:
			return w.answered(c, r)
		default:
		}
		w.abortOpen(c)
		return nil, w.Err()
	case <-ctx.Done():
		w.abortOpen(c)
		return nil, ctx.Err()
	}
}

// answered completes an open with the peer's answer: an ACCEPT makes the
// channel live, a REJECT retires it.
func (w *Wire) answered(c *Channel, r openReply) (*Channel, error) {
	if !r.ok {
		w.abortOpen(c)
		return nil, &RejectError{Msg: r.reject}
	}
	c.remoteHello = r.hello
	c.markOpen()
	return c, nil
}

// claimChannel registers a half-open channel under the next id once the
// wire may carry one more: the peer's announced MaxChannels binds an
// established wire, and until its MUX_HELLO arrives — the limit is not
// known yet — exactly one channel may ride the first flight; further
// opens wait for the hello (or the wire's death, or ctx's end).
func (w *Wire) claimChannel(ctx context.Context, window int) (*Channel, chan openReply, error) {
	for {
		limit, shook := 1, w.established()
		if shook {
			limit = int(w.remote.MaxChannels)
		}
		w.mu.Lock()
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return nil, nil, err
		}
		if len(w.chans) < limit {
			id := w.nextID
			w.nextID += 2
			c := newChannel(w, id, window)
			reply := make(chan openReply, 1)
			w.chans[id] = c
			w.pend[id] = reply
			w.mu.Unlock()
			return c, reply, nil
		}
		w.mu.Unlock()
		if shook {
			return nil, nil, fmt.Errorf("peermux: peer channel limit (%d) reached", limit)
		}
		select {
		case <-w.helloc:
		case <-w.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// rejectChannel declines a peer-opened channel id and counts it. The id
// is retired into the drain set: what the opener wrote on it before it
// read the REJECT must not be charged as a frame for a channel that
// never existed.
func (w *Wire) rejectChannel(id uint16, msg string) {
	w.met.rejected.Add(1)
	w.mu.Lock()
	w.retireLocked(id)
	w.mu.Unlock()
	w.writeFrame(protocol.EncodeRejectChannel(id, msg))
}

// abortOpen retires a half-open channel: its id drains, and its window
// leaves the wire's sum (the peer's REJECT may be followed by a
// CLOSE_CHANNEL that already took the id out of the table, so the channel
// is ended directly, not looked up).
func (w *Wire) abortOpen(c *Channel) {
	w.mu.Lock()
	delete(w.chans, c.id)
	delete(w.pend, c.id)
	w.retireLocked(c.id)
	w.mu.Unlock()
	c.fail(ErrClosed)
}

// writeFrame serializes one wire-level frame onto conn.
func (w *Wire) writeFrame(f protocol.Frame) error {
	w.wmu.Lock()
	w.armWrite()
	err := protocol.WriteFrame(w.conn, f)
	w.wmu.Unlock()
	if err != nil {
		return w.failWrite(err)
	}
	return nil
}

// failWrite kills the wire over a failed write. On a dialed wire still
// in its first flight the write did not fail for a reason of its own:
// the peer answered the MUX_HELLO with an ERROR (version reject,
// refused, busy) and hung up, and the write lost the race against the
// frame the reader is about to deliver. The peer's answer must win, so
// the reader gets to fail the wire first — it will: it sees the ERROR,
// or the same dead conn, or its read deadline. A write that timed out
// says the peer is not reading, which the reader cannot outrun, and is
// terminal as it stands. (The reader itself writes nothing before the
// hello, so it never waits here for itself.) It returns the wire's
// terminal error: a write on a wire that already failed — the reader
// found a corrupt frame and closed the conn — reports why it failed, not
// the closed conn it found.
func (w *Wire) failWrite(err error) error {
	var ne net.Error
	if w.dialer && !w.established() && !(errors.As(err, &ne) && ne.Timeout()) {
		<-w.done
	}
	w.fail(err)
	return w.Err()
}

// armWrite and armRead bound the conn operation about to start by
// Config.Timeout without paying for a deadline change (a timer re-armed,
// over net.Pipe one allocated) on every frame: the deadline is pushed out
// to a full Timeout only once an eighth of it has passed since the last
// push, so every operation still fails within Timeout of starting — at
// most an eighth sooner than if it had armed its own.
func (w *Wire) armWrite() {
	if dl, due := dueDeadline(&w.writeArmed, w.cfg.Timeout); due {
		w.conn.SetWriteDeadline(dl)
	}
}

func (w *Wire) armRead() {
	if dl, due := dueDeadline(&w.readArmed, w.cfg.Timeout); due {
		w.conn.SetReadDeadline(dl)
	}
}

func dueDeadline(armed *time.Time, timeout time.Duration) (time.Time, bool) {
	now := time.Now()
	if now.Sub(*armed) < timeout/8 {
		return time.Time{}, false
	}
	*armed = now
	return now.Add(timeout), true
}

// write puts serialized frames — a channel's batch — onto conn in one
// conn write.
func (w *Wire) write(p []byte) error {
	w.wmu.Lock()
	w.armWrite()
	_, err := w.conn.Write(p)
	w.wmu.Unlock()
	if err != nil {
		return w.failWrite(err)
	}
	return nil
}

// penalize charges the peer, unless the wire is dead: fail emptied the
// channel table, so a frame the reader still held could only look like
// one for a channel that never existed.
func (w *Wire) penalize(weight float64) {
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if w.cfg.Penalize != nil && !dead {
		w.cfg.Penalize(weight)
	}
}

// fail kills the wire exactly once: conn closed, channels failed,
// fabric notified. Pending opens wake on done and return Err() — the
// typed terminal error, not a string copy of it.
func (w *Wire) fail(err error) {
	w.deadOnce.Do(func() {
		w.mu.Lock()
		w.err = err
		w.dead = true
		chans := make([]*Channel, 0, len(w.chans))
		for _, c := range w.chans {
			chans = append(chans, c)
		}
		w.chans = make(map[uint16]*Channel)
		w.pend = make(map[uint16]chan openReply)
		w.mu.Unlock()

		close(w.done)
		w.conn.Close()
		for _, c := range chans {
			c.fail(err)
		}
		if w.cfg.onDead != nil {
			w.cfg.onDead()
		}
	})
}

// retireLocked records a recently closed id so late frames drain
// silently. Caller holds w.mu.
func (w *Wire) retireLocked(id uint16) {
	if _, ok := w.drain[id]; ok {
		return
	}
	w.drain[id] = struct{}{}
	w.drainq = append(w.drainq, id)
	if len(w.drainq) > drainedIDs {
		delete(w.drain, w.drainq[0])
		w.drainq = w.drainq[1:]
	}
}

// release retires a channel id on local close and tells the peer.
func (w *Wire) release(id uint16, notify bool) {
	w.mu.Lock()
	_, open := w.chans[id]
	delete(w.chans, id)
	delete(w.pend, id)
	w.retireLocked(id)
	dead := w.dead
	w.mu.Unlock()
	if notify && open && !dead {
		w.writeFrame(protocol.EncodeCloseChannel(id))
	}
}

// readLoop is the single demultiplexer: every inbound frame is routed,
// answered, or charged here. It never blocks on a channel consumer —
// queue overflow is a protocol violation (the sender sent what nobody
// asked for), charged and dropped.
//
// On a dialed wire the loop also finishes the handshake: the first
// frame must be the peer's MUX_HELLO, or the ERROR it answered ours
// with. Anything else — an ACCEPT or a SYMBOL from a peer that never
// said hello — is charged and kills the wire rather than leaving opens
// parked behind a hello that is not coming.
func (w *Wire) readLoop() {
	shook := w.established()
	for {
		// A dead wire routes nothing: the frames still read ahead when it
		// failed were sent to channels fail has since retired.
		select {
		case <-w.done:
			return
		default:
		}
		w.armRead()
		f, err := w.fr.Next()
		if err != nil {
			if errors.Is(err, protocol.ErrCorrupt) {
				w.penalize(WeightCorrupt)
			}
			w.fail(err)
			return
		}
		if !shook {
			if !w.finishHandshake(f) {
				return
			}
			shook = true
			continue
		}
		switch f.Type {
		case protocol.TypeMux:
			id, inner, err := protocol.MuxView(f)
			if err != nil {
				w.penalize(WeightViolation)
				continue
			}
			w.route(id, inner)
		case protocol.TypeOpenChannel:
			w.handleOpen(f)
		case protocol.TypeAcceptChannel:
			id, hello, err := protocol.DecodeAcceptChannel(f)
			if err != nil {
				w.penalize(WeightViolation)
				continue
			}
			w.resolveOpen(id, openReply{hello: hello, ok: true})
		case protocol.TypeRejectChannel:
			id, msg, err := protocol.DecodeRejectChannel(f)
			if err != nil {
				w.penalize(WeightViolation)
				continue
			}
			w.resolveOpen(id, openReply{reject: msg})
		case protocol.TypeCloseChannel:
			id, err := protocol.DecodeCloseChannel(f)
			if err != nil {
				w.penalize(WeightViolation)
				continue
			}
			w.remoteClose(id)
		case protocol.TypeError:
			msg, _ := protocol.DecodeError(f)
			w.fail(&RemoteError{Msg: msg})
			return
		default:
			// A bare content frame on a multiplexed wire, or a retired
			// type (CREDIT, 18, until version 13): the peer lost the plot.
			// Charge it and drop the frame; the wire itself is still
			// framed correctly, so it survives.
			w.penalize(WeightViolation)
		}
	}
}

// finishHandshake takes the dialed peer's first frame: its MUX_HELLO
// establishes the wire; anything else fails it with the error the first
// Open will return (the return value is whether the wire lives).
func (w *Wire) finishHandshake(f protocol.Frame) bool {
	switch f.Type {
	case protocol.TypeMuxHello:
		remote, err := protocol.DecodeMuxHello(f)
		if err != nil {
			w.fail(err)
			return false
		}
		w.shake(remote)
		return true
	case protocol.TypeError:
		msg, _ := protocol.DecodeError(f)
		if protocol.IsVersionReject(msg) {
			w.fail(fmt.Errorf("peermux: %s: %w", msg, protocol.ErrVersion))
		} else {
			w.fail(&RemoteError{Msg: msg})
		}
		return false
	default:
		w.penalize(WeightViolation)
		w.fail(fmt.Errorf("peermux: handshake answered with %v, want MUX_HELLO", f.Type))
		return false
	}
}

func (w *Wire) channel(id uint16) *Channel {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chans[id]
}

func (w *Wire) draining(id uint16) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.drain[id]
	return ok
}

// route delivers an enveloped frame to its channel's queue.
func (w *Wire) route(id uint16, inner protocol.Frame) {
	c := w.channel(id)
	if c == nil {
		if !w.draining(id) {
			// An envelope for a channel that never existed.
			w.penalize(WeightViolation)
		}
		return
	}
	c.deliver(inner)
}

// handleOpen validates and spawns the handler for a peer-opened channel.
func (w *Wire) handleOpen(f protocol.Frame) {
	id, hello, err := protocol.DecodeOpenChannel(f)
	if err != nil {
		w.penalize(WeightViolation)
		return
	}
	if w.dialer || w.handler == nil {
		// We dialed this wire for fetching; the peer must not open
		// channels toward us.
		w.penalize(WeightViolation)
		w.rejectChannel(id, protocol.ReasonRefused+" (not serving)")
		return
	}
	if id%2 != 1 {
		w.penalize(WeightViolation)
		w.rejectChannel(id, "invalid channel id (dialer ids are odd)")
		return
	}
	w.mu.Lock()
	if _, dup := w.chans[id]; dup {
		w.mu.Unlock()
		w.penalize(WeightViolation)
		w.rejectChannel(id, "duplicate channel id")
		return
	}
	if len(w.chans) >= w.cfg.MaxChannels {
		w.mu.Unlock()
		w.rejectChannel(id, protocol.ReasonBusy+" (channel limit)")
		return
	}
	c := newChannel(w, id, 0)
	c.remoteHello = hello
	w.chans[id] = c
	w.mu.Unlock()
	w.hwg.Add(1)
	go func() {
		defer w.hwg.Done()
		defer c.Close()
		w.handler(c)
	}()
}

func (w *Wire) resolveOpen(id uint16, r openReply) {
	w.mu.Lock()
	reply, c := w.pend[id], w.chans[id]
	_, drained := w.drain[id]
	delete(w.pend, id)
	w.mu.Unlock()
	if reply == nil {
		if c == nil && !drained {
			w.penalize(WeightViolation)
		}
		return
	}
	if r.ok && c != nil {
		c.answerRound(r.hello.Depth)
	}
	select {
	case reply <- r:
	default:
	}
}

func (w *Wire) remoteClose(id uint16) {
	w.mu.Lock()
	c := w.chans[id]
	_, wasDraining := w.drain[id]
	delete(w.chans, id)
	w.retireLocked(id)
	w.mu.Unlock()
	if c != nil {
		c.remoteClosedNow()
	} else if !wasDraining {
		w.penalize(WeightViolation)
	}
}
