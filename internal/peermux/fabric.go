package peermux

// fabric.go shares wires across contents: the first Open toward an
// address dials and sends the MUX_HELLO with its own OPEN_CHANNEL right
// behind it, every later Open toward the same address rides the existing
// wire as another subchannel (once the peer's MUX_HELLO has arrived),
// and the last channel Close tears the wire down. This is
// what collapses a node's connection count from O(peers × contents) to
// O(peers).

import (
	"net"
	"sync"
	"time"

	"icd/internal/protocol"
)

// Fabric is a refcounted pool of dialed wires, keyed by address.
type Fabric struct {
	dial func(addr string) (net.Conn, error)
	cfg  Config

	mu       sync.Mutex
	wires    map[string]*wireRef
	penalize func(addr string, weight float64)
	closed   bool
}

type wireRef struct {
	addr  string
	ready chan struct{} // closed once wire/err is set
	conn  net.Conn      // dialed, handshake in flight (guarded by Fabric.mu)
	wire  *Wire
	err   error
	refs  int
}

// NewFabric builds a fabric dialing through dial with cfg applied to
// every wire.
func NewFabric(dial func(addr string) (net.Conn, error), cfg Config) *Fabric {
	return &Fabric{
		dial:  dial,
		cfg:   cfg.withDefaults(),
		wires: make(map[string]*wireRef),
	}
}

// SetPenalize installs a misbehavior sink for every wire dialed after
// the call: the fabric binds each wire's penalty reports to the address
// it dialed, the attribution a bare Config.Penalize cannot supply
// because one Config covers every wire. Call before the first Open.
func (f *Fabric) SetPenalize(fn func(addr string, weight float64)) {
	f.mu.Lock()
	f.penalize = fn
	f.mu.Unlock()
}

// Open returns a subchannel to addr carrying h, dialing a wire only if
// none is live. Concurrent Opens toward a fresh address share one dial:
// the first rides the handshake's flight, the rest wait for the peer's
// answer. An established wire that died between lookup and Open is
// replaced once; a wire whose handshake failed is the peer's answer, not
// a stale entry, and is returned as it is.
func (f *Fabric) Open(addr string, h protocol.Hello, timeout time.Duration) (*Channel, error) {
	return f.OpenWindow(addr, h, 0, timeout)
}

// OpenWindow is Open with an explicit initial receive window (see
// Wire.OpenWindow): the channel starts at the scheduler's size instead
// of the Config default.
func (f *Fabric) OpenWindow(addr string, h protocol.Hello, window int, timeout time.Duration) (*Channel, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		wr, err := f.wireFor(addr)
		if err != nil {
			return nil, err
		}
		// The open itself holds a reference, so a rejected or timed-out
		// first open releases the wire it dialed instead of leaving it
		// idle in the pool.
		f.mu.Lock()
		wr.refs++
		f.mu.Unlock()
		ch, err := wr.wire.OpenWindow(h, window, timeout)
		if err != nil {
			stale := wr.wire.Err() != nil && wr.wire.established()
			f.release(wr)
			if stale {
				// The shared wire is dead (stale entry or it died mid
				// open): retry once with a fresh dial.
				lastErr = err
				continue
			}
			return nil, err
		}
		ch.onClose = func() { f.release(wr) }
		return ch, nil
	}
	return nil, lastErr
}

// wireFor returns a live wireRef for addr, dialing if needed.
func (f *Fabric) wireFor(addr string) (*wireRef, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if wr := f.wires[addr]; wr != nil {
		f.mu.Unlock()
		<-wr.ready
		if wr.err != nil {
			return nil, wr.err
		}
		return wr, nil
	}
	wr := &wireRef{addr: addr, ready: make(chan struct{})}
	f.wires[addr] = wr
	f.mu.Unlock()

	conn, err := f.dial(addr)
	var w *Wire
	if err == nil {
		cfg := f.cfg
		cfg.onDead = func() { f.drop(wr) }
		f.mu.Lock()
		pen, closed := f.penalize, f.closed
		wr.conn = conn // Close interrupts a blocked MUX_HELLO write through it
		f.mu.Unlock()
		if pen != nil {
			cfg.Penalize = func(weight float64) { pen(addr, weight) }
		}
		if closed {
			conn.Close()
			err = ErrClosed
		} else {
			w, err = Dial(conn, cfg)
		}
	}
	f.mu.Lock()
	if err != nil {
		wr.err = err
		if f.wires[addr] == wr {
			delete(f.wires, addr)
		}
	} else {
		wr.wire = w
		if f.closed {
			// Close raced the dial: don't leak the wire.
			err = ErrClosed
			wr.err = err
			wr.wire = nil
			f.mu.Unlock()
			close(wr.ready)
			w.Close()
			return nil, err
		}
	}
	f.mu.Unlock()
	close(wr.ready)
	if err != nil {
		return nil, err
	}
	return wr, nil
}

// release drops one channel's reference; the last reference closes the
// wire.
func (f *Fabric) release(wr *wireRef) {
	f.mu.Lock()
	wr.refs--
	last := wr.refs <= 0
	if last && f.wires[wr.addr] == wr {
		delete(f.wires, wr.addr)
	}
	f.mu.Unlock()
	if last && wr.wire != nil {
		wr.wire.Close()
	}
}

// drop removes a dead wire from the pool (its channels already failed).
func (f *Fabric) drop(wr *wireRef) {
	f.mu.Lock()
	if f.wires[wr.addr] == wr {
		delete(f.wires, wr.addr)
	}
	f.mu.Unlock()
}

// Wires returns the number of live wires — the fabric's connection
// count toward the whole swarm.
func (f *Fabric) Wires() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.wires)
}

// TotalWindow sums every live wire's aggregate receive-window exposure
// in symbol frames — the node's total credit in flight across the
// fabric, the quantity a node-level gauge reports against the sum of
// per-wire ceilings.
func (f *Fabric) TotalWindow() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, wr := range f.wires {
		if wr.wire != nil {
			total += wr.wire.WindowSum()
		}
	}
	return total
}

// Close tears down every wire; subsequent Opens fail with ErrClosed.
func (f *Fabric) Close() error {
	f.mu.Lock()
	f.closed = true
	wrs := make([]*wireRef, 0, len(f.wires))
	for _, wr := range f.wires {
		wrs = append(wrs, wr)
	}
	f.wires = make(map[string]*wireRef)
	f.mu.Unlock()
	for _, wr := range wrs {
		select {
		case <-wr.ready:
			if wr.wire != nil {
				wr.wire.Close()
			}
		default:
			// Still dialing: cut a MUX_HELLO write in flight short (a
			// dial still connecting sees f.closed when it lands); either
			// way the dial path cleans up itself.
			f.mu.Lock()
			conn := wr.conn
			f.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
		}
	}
	return nil
}
