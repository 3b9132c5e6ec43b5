package faultnet

// faults.go is the fault-injecting transport wrapper: it decorates any
// inner Transport's dialed connections with deterministic, seeded
// misbehavior. Faults act below the protocol framing, so the layers
// above see exactly what a hostile network produces: dials that fail,
// reads that crawl or hang, frames whose CRC no longer matches, and
// connections that die mid-frame — on the read or the write side.

import (
	"errors"
	"net"
	"sync"
	"time"

	"icd/internal/prng"
)

// ErrInjected is the error a fault-injected connection returns when the
// wrapper kills it (mid-frame reset or truncated write). It is
// distinguishable from real network errors so chaos harnesses can count
// injected failures exactly.
var ErrInjected = errors.New("faultnet: injected connection reset")

// Faults configures the wrapper. All probabilities are per-event in
// [0,1]; zero values inject nothing, so Faults{} is a transparent
// wrapper. Every decision draws from a PRNG derived from Seed, making a
// run reproducible.
type Faults struct {
	// Seed drives every fault decision (same seed, same faults).
	Seed uint64
	// DialFailProb is the chance a Dial fails outright — the undialable
	// gossip address of a churned swarm.
	DialFailProb float64
	// Latency is added to every Read (one-way propagation delay).
	Latency time.Duration
	// Bandwidth caps read throughput in bytes/second (0 = unlimited),
	// enforced by sleeping proportionally to bytes delivered.
	Bandwidth int
	// StallProb is the per-read chance the connection freezes for Stall
	// before proceeding — the silent peer a watchdog must catch.
	StallProb float64
	// Stall is the freeze duration of a stall (default 1s).
	Stall time.Duration
	// KillProb is the per-connection chance the conn is doomed to reset
	// mid-stream after roughly KillAfter transferred bytes.
	KillProb float64
	// KillAfter is the mean transferred-byte count before a doomed
	// connection resets (default 16KiB); the exact point is uniform in
	// [1, 2·KillAfter), so kills land mid-frame at any batch position.
	KillAfter int
	// CorruptProb is the per-connection chance a dialed conn corrupts
	// the data it delivers: a corrupting connection flips about one byte
	// in every corruptSpan it delivers, surfacing upstream as frame-CRC
	// failures until the reader gives up on it. Connection-level (rather
	// than per-read) corruption models a bad path or a hostile peer — the
	// cases a penalty box must attribute to an address.
	CorruptProb float64
}

// corruptSpan is the mean distance, in delivered bytes, between the bytes
// a corrupting connection flips (the gaps are uniform in
// [1, 2·corruptSpan]). Corruption is a property of the byte stream, not of
// how the reader sizes its reads: one that takes in a whole batch of
// frames per read sees the same bytes flipped as one that reads a frame
// header at a time.
const corruptSpan = 1 << 10

// Wrap decorates inner with fault injection. The returned transport
// shares one seeded PRNG across connections (guarded by a mutex), and
// each connection derives its own independent stream from it, so a
// single Seed fixes the whole run's behavior. Listen passes through
// unchanged: faults ride on dialed conns, which carry both directions
// of each session.
func Wrap(inner Transport, f Faults) Transport {
	if f.KillAfter <= 0 {
		f.KillAfter = 16 << 10
	}
	if f.Stall <= 0 {
		f.Stall = time.Second
	}
	return &faultTransport{inner: inner, f: f, rng: prng.New(f.Seed ^ 0x9e3779b97f4a7c15)}
}

type faultTransport struct {
	inner Transport
	f     Faults

	mu  sync.Mutex
	rng *prng.Rand
}

// Dial opens a connection through the inner transport, possibly failing
// by DialFailProb, and wraps the conn with this transport's faults.
func (t *faultTransport) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	fail := t.f.DialFailProb > 0 && t.rng.Float64() < t.f.DialFailProb
	connRng := t.rng.Split()
	t.mu.Unlock()
	if fail {
		return nil, errors.New("faultnet: injected dial failure")
	}
	conn, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: conn, f: t.f, rng: connRng, killAt: -1}
	if t.f.KillProb > 0 && connRng.Float64() < t.f.KillProb {
		fc.killAt = int64(1 + connRng.Intn(2*t.f.KillAfter))
	}
	fc.corrupt = t.f.CorruptProb > 0 && connRng.Float64() < t.f.CorruptProb
	if fc.corrupt {
		fc.flipAt = int64(connRng.Intn(2 * corruptSpan))
	}
	return fc, nil
}

// Listen delegates to the inner transport unchanged.
func (t *faultTransport) Listen(addr string) (net.Listener, error) {
	return t.inner.Listen(addr)
}

// faultConn injects the configured faults around an inner conn. killAt
// (when ≥ 0) is the transferred-byte count — reads plus writes — at
// which the connection resets; a doomed write delivers a partial prefix
// first, so the peer observes a torn frame.
type faultConn struct {
	net.Conn
	f       Faults
	killAt  int64
	corrupt bool // this conn flips a byte in every corruptSpan or so it delivers

	mu          sync.Mutex
	rng         *prng.Rand
	transferred int64
	dead        bool
	// delivered counts the bytes reads have returned; flipAt is the
	// delivered-stream offset of the next byte a corrupting conn flips.
	delivered, flipAt int64
}

// roll draws one uniform float under the conn lock (reads and writes
// run on different goroutines).
func (c *faultConn) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// account adds n transferred bytes and reports whether the kill point
// was crossed (first crossing only).
func (c *faultConn) account(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transferred += int64(n)
	if c.dead || c.killAt < 0 || c.transferred < c.killAt {
		return false
	}
	c.dead = true
	return true
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.f.Latency > 0 {
		time.Sleep(c.f.Latency)
	}
	if c.f.StallProb > 0 && c.roll() < c.f.StallProb {
		time.Sleep(c.f.Stall)
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		if c.corrupt {
			c.mu.Lock()
			for ; c.flipAt < c.delivered+int64(n); c.flipAt += 1 + int64(c.rng.Intn(2*corruptSpan)) {
				p[c.flipAt-c.delivered] ^= 0x5A
			}
			c.delivered += int64(n)
			c.mu.Unlock()
		}
		if c.f.Bandwidth > 0 {
			time.Sleep(time.Duration(float64(n) / float64(c.f.Bandwidth) * float64(time.Second)))
		}
		if c.account(n) {
			c.Conn.Close()
			return n, nil // deliver what arrived; the next op sees the reset
		}
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dead, killAt, transferred := c.dead, c.killAt, c.transferred
	c.mu.Unlock()
	if dead {
		return 0, ErrInjected
	}
	if killAt >= 0 && transferred+int64(len(p)) >= killAt {
		// Partial write: deliver the prefix up to the kill point, then
		// reset — the receiver sees a torn frame, the writer an error.
		keep := int(killAt - transferred)
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			c.Conn.Write(p[:keep])
		}
		c.mu.Lock()
		c.dead = true
		c.mu.Unlock()
		c.Conn.Close()
		return keep, ErrInjected
	}
	n, err := c.Conn.Write(p)
	c.account(n)
	return n, err
}
