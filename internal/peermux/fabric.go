package peermux

// fabric.go shares wires across contents: the first open toward an
// address has the fabric dial — one goroutine per wire being brought
// up, owned by the fabric, not by that opener — and send the MUX_HELLO,
// with the opener's OPEN_CHANNEL right behind it; every later open
// toward the same address rides the existing wire as another subchannel
// (once the peer's MUX_HELLO has arrived), and the last reference given
// back — a channel's Close, or an open that failed or was cancelled —
// tears the wire down. This is what collapses a node's connection count
// from O(peers × contents) to O(peers).

import (
	"context"
	"net"
	"sync"

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

// wireRef is one pooled wire, or the dial that is bringing it up. refs
// counts the openers waiting on or inside an open plus the channels
// they got; wire and err are written once, under Fabric.mu, before
// ready closes.
type wireRef struct {
	addr  string
	ready chan struct{}
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
// because one Config covers every wire. Call before the first open.
func (f *Fabric) SetPenalize(fn func(addr string, weight float64)) {
	f.mu.Lock()
	f.penalize = fn
	f.mu.Unlock()
}

// Open returns a subchannel to addr carrying h (see Wire.OpenContext),
// dialing a wire only if none is live.
// Concurrent opens toward a fresh address share one dial: the first
// rides the handshake's flight, the rest wait for the peer's answer. An
// established wire that died between lookup and open is replaced once;
// a wire whose handshake failed is the peer's answer, not a stale
// entry, and is returned as it is.
//
// ctx bounds the whole call, the wait for the dial included. An open
// that ctx ends returns ctx's error and gives its reference back, so a
// wire nobody else rides — a wedged one above all — is closed and the
// next open dials afresh; other openers sharing the dial or the wire
// are not disturbed.
func (f *Fabric) Open(ctx context.Context, addr string, h protocol.Hello) (*Channel, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		// The open itself holds a reference, so a rejected, cancelled or
		// timed-out first open releases the wire it dialed instead of
		// leaving it idle in the pool.
		wr, err := f.acquire(addr)
		if err != nil {
			return nil, err
		}
		select {
		case <-wr.ready:
			err = wr.err
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			f.release(wr)
			return nil, err
		}
		ch, err := wr.wire.OpenContext(ctx, h)
		if err != nil {
			stale := wr.wire.Err() != nil && wr.wire.established()
			f.release(wr)
			if stale && ctx.Err() == nil {
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

// acquire takes a reference on addr's wireRef, starting its dial when
// the pool has none.
func (f *Fabric) acquire(addr string) (*wireRef, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	wr := f.wires[addr]
	if wr == nil {
		wr = &wireRef{addr: addr, ready: make(chan struct{})}
		f.wires[addr] = wr
		go f.dialWire(wr)
	}
	wr.refs++
	return wr, nil
}

// dialWire is the one goroutine per wire being brought up: it dials,
// starts the wire (Dial sends the MUX_HELLO) and publishes the outcome
// to every opener waiting on ready. The fabric owns it, not the opener
// that happened to come first, so any opener can give up without
// failing the rest; a dial that lands after the last one left (release
// already unpooled the ref), or after Close, is closed on the spot.
func (f *Fabric) dialWire(wr *wireRef) {
	conn, err := f.dial(wr.addr)
	var w *Wire
	if err == nil {
		cfg := f.cfg
		cfg.onDead = func() { f.drop(wr) }
		f.mu.Lock()
		pen, unwanted := f.penalize, f.closed || wr.refs == 0
		f.mu.Unlock()
		if pen != nil {
			cfg.Penalize = func(weight float64) { pen(wr.addr, weight) }
		}
		if unwanted {
			conn.Close()
			err = ErrClosed
		} else {
			w, err = Dial(conn, cfg)
		}
	}
	f.mu.Lock()
	if err == nil && (f.closed || wr.refs == 0) {
		err = ErrClosed // Close, or the last waiter's leaving, raced the handshake write
	}
	if err == nil {
		wr.wire = w
	} else if f.wires[wr.addr] == wr {
		delete(f.wires, wr.addr)
	}
	wr.err = err
	f.mu.Unlock()
	close(wr.ready)
	if err != nil && w != nil {
		w.Close()
	}
}

// release drops one reference; the last one unpools the ref and closes
// its wire (one still being dialed is closed by dialWire when it lands).
func (f *Fabric) release(wr *wireRef) {
	f.mu.Lock()
	wr.refs--
	last := wr.refs <= 0
	if last && f.wires[wr.addr] == wr {
		delete(f.wires, wr.addr)
	}
	w := wr.wire
	f.mu.Unlock()
	if last && w != nil {
		w.Close()
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

// Close tears down every wire; subsequent opens fail with ErrClosed. A
// dial still in flight finds the fabric closed when it lands and closes
// what it dialed.
func (f *Fabric) Close() error {
	f.mu.Lock()
	f.closed = true
	var live []*Wire
	for _, wr := range f.wires {
		if wr.wire != nil {
			live = append(live, wr.wire)
		}
	}
	f.wires = make(map[string]*wireRef)
	f.mu.Unlock()
	for _, w := range live {
		w.Close()
	}
	return nil
}
