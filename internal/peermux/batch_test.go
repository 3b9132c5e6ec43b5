package peermux

// batch_test.go pins the batched write path and the read-ahead reader
// under it: a REQUEST's answer leaves in one conn write, in order; no
// write is larger than batchBytes; a one-frame window streams, a symbol
// per REQUEST; and a wire that dies while its reader still holds frames
// read ahead charges the peer nothing for them.

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// writeCounter counts a conn's writes, and apart those that carry MUX
// envelopes (a write's first frame header names what it carries), and
// keeps the largest write.
type writeCounter struct {
	net.Conn
	mu      sync.Mutex
	writes  int
	muxes   int
	largest int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	if len(p) > 3 && protocol.Type(p[3]) == protocol.TypeMux {
		c.muxes++
	}
	c.largest = max(c.largest, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *writeCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

func (c *writeCounter) counts() (muxes, largest int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muxes, c.largest
}

// TestRequestAnswerIsOneWrite: the symbols a REQUEST asks for and the
// DONE behind them leave the server in one conn write when they fit in
// batchBytes, in writes of at most batchBytes when they do not, and
// arrive in the order they were written either way.
func TestRequestAnswerIsOneWrite(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	sc := &writeCounter{}
	w, shutdown := startPairConn(t, Config{}, Config{}, nil,
		func(c net.Conn) net.Conn { sc.Conn = c; return sc },
		serveSymbols(1000, payload))
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ch.SetDeadline(time.Now().Add(5 * time.Second))

	var next uint64
	request := func(n int) {
		t.Helper()
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(n))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			f, err := ch.Next()
			if err != nil {
				t.Fatalf("symbol %d of %d: %v", i, n, err)
			}
			id, data, err := protocol.SymbolView(f)
			if err != nil || id != next || !bytes.Equal(data, payload) {
				t.Fatalf("frame %d of %d: id %d (want %d), %v", i, n, id, next, err)
			}
			next++
		}
		if f, err := ch.Next(); err != nil || f.Type != protocol.TypeDone {
			t.Fatalf("after %d symbols: %v %v, want DONE", n, f.Type, err)
		}
	}

	// 40 symbol envelopes of 1423 bytes and a DONE: 57 KB, one write.
	request(40)
	if muxes, _ := sc.counts(); muxes != 1 {
		t.Fatalf("a 40-symbol answer took %d conn writes, want 1", muxes)
	}
	// 200 of them: 285 KB, five writes of at most batchBytes.
	request(200)
	muxes, largest := sc.counts()
	if muxes-1 != 5 {
		t.Fatalf("a 200-symbol answer took %d conn writes, want 5", muxes-1)
	}
	if largest > batchBytes {
		t.Fatalf("largest conn write %d bytes, over batchBytes %d", largest, batchBytes)
	}
}

// TestWindowOneStreams: a receiver that asks for one symbol at a time
// never has more than one requested and not yet received; the stream
// completes in order and nobody is charged.
func TestWindowOneStreams(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total = 1000
	var charges atomic.Int64
	penalize := func(float64) { charges.Add(1) }
	w, shutdown := startPair(t, Config{Penalize: penalize}, Config{Penalize: penalize},
		serveSymbols(total, []byte("0123456789abcdef")))
	defer shutdown()
	ch, err := w.OpenContext(timeoutCtx(t, time.Second), protocol.Hello{ContentID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ch.SetDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < total; i++ {
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(1)); err != nil {
			t.Fatal(err)
		}
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("after %d symbols: %v", i, err)
		}
		if id, _, err := protocol.SymbolView(f); err != nil || id != uint64(i) {
			t.Fatalf("frame %d: %v id %d, %v", i, f.Type, id, err)
		}
		if f, err := ch.Next(); err != nil || f.Type != protocol.TypeDone {
			t.Fatalf("after symbol %d: %v %v, want DONE", i, f.Type, err)
		}
	}
	if n := charges.Load(); n != 0 {
		t.Fatalf("%d charges on a one-frame window", n)
	}
}

// TestDeadWireChargesNothingReadAhead: frames a wire's reader read ahead
// and still holds when the wire dies are routed against no channel
// table, so they are not charged as envelopes for channels that never
// existed. The peer's MUX_HELLO and ten such envelopes arrive in one
// read; the first is charged, and the charge closes the wire.
func TestDeadWireChargesNothingReadAhead(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	stream := make([]byte, 0, 1024)
	var hello bytes.Buffer
	protocol.WriteFrame(&hello, protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4}))
	stream = append(stream, hello.Bytes()...)
	for i := 0; i < 10; i++ {
		stream, _ = protocol.AppendMux(stream, 99, protocol.TypeSymbol, []byte("unasked-for-data"))
	}
	cc, sc := net.Pipe()
	defer cc.Close()
	peer := make(chan struct{})
	go func() {
		defer close(peer)
		cc.Write(stream)
		io.Copy(io.Discard, cc)
	}()

	fr := protocol.NewFrameReader(sc)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	mh, err := protocol.DecodeMuxHello(f)
	if err != nil {
		t.Fatal(err)
	}
	var w *Wire
	var charges atomic.Int64
	cfg := Config{Penalize: func(float64) {
		if charges.Add(1) == 1 {
			w.Close()
		}
	}}
	if w, err = Accept(sc, fr, mh, cfg, nil); err != nil {
		t.Fatal(err)
	}
	w.Serve()
	<-peer
	if n := charges.Load(); n != 1 {
		t.Fatalf("%d charges, want 1: frames read ahead were routed on a dead wire", n)
	}
}

// writeRecorder keeps a copy of every conn write.
type writeRecorder struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *writeRecorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestWriteSymbolBytesMatchWrite: a SYMBOL framed straight into its
// envelope (protocol.WriteSymbol on a channel, which hands the pair to
// Channel.WriteSymbol) puts on the wire exactly the bytes that the
// serialized frame handed to Write puts there. The handler answers the
// first REQUEST through Write and the second through WriteSymbol, with
// the same ids and payloads; each answer is one conn write.
func TestWriteSymbolBytesMatchWrite(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	payload := bytes.Repeat([]byte{0x5A, 0xC3}, 700)
	const n = 3
	rec := &writeRecorder{}
	w, shutdown := startPairConn(t, Config{}, Config{}, nil,
		func(c net.Conn) net.Conn { rec.Conn = c; return rec },
		func(ch *Channel) {
			if ch.Accept(protocol.Hello{ContentID: 1, FullCopy: true, NumBlocks: 1, BlockSize: uint32(len(payload))}) != nil {
				return
			}
			var frame bytes.Buffer
			for round := 0; ; round++ {
				f, err := ch.Next()
				if err != nil || f.Type != protocol.TypeRequest {
					return
				}
				for id := uint64(0); id < n; id++ {
					if round == 0 {
						frame.Reset()
						protocol.WriteSymbol(&frame, id, payload)
						_, err = ch.Write(frame.Bytes())
					} else {
						err = protocol.WriteSymbol(ch, id, payload)
					}
					if err != nil {
						return
					}
				}
				if protocol.WriteFrame(ch, protocol.EncodeDone()) != nil {
					return
				}
			}
		})
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ch.SetDeadline(time.Now().Add(5 * time.Second))
	for round := 0; round < 2; round++ {
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(n)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= n; i++ {
			if _, err := ch.Next(); err != nil {
				t.Fatalf("round %d frame %d: %v", round, i, err)
			}
		}
	}
	rec.mu.Lock()
	writes := rec.writes
	rec.mu.Unlock()
	old, direct := writes[len(writes)-2], writes[len(writes)-1]
	if !bytes.Equal(old, direct) {
		t.Fatalf("WriteSymbol's answer differs from Write's:\n%x\n%x", direct, old)
	}
}
