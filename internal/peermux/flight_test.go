package peermux

// flight_test.go pins the order of the handshake. The dialer sends
// everything that does not depend on the peer's answer — MUX_HELLO and
// the first OPEN_CHANNEL — in one flight, and the demux reader takes the
// answer; an end that takes strict turns instead (either side) must
// interoperate. The other end of each test is scripted frame
// by frame over a synchronous net.Pipe: no clock decides anything, the
// 5 s pipe deadline only turns a would-be hang into a failure.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// rawEnd drives one end of a wire by hand.
type rawEnd struct {
	conn net.Conn
	fr   *protocol.FrameReader
}

// script runs fn against the far end of a fresh pipe on its own
// goroutine and returns the near end plus a join that reports fn's
// error. fn's conn is closed when it returns.
func script(fn func(e *rawEnd) error) (net.Conn, func() error) {
	near, far := net.Pipe()
	far.SetDeadline(time.Now().Add(5 * time.Second))
	done := make(chan error, 1)
	go func() {
		defer far.Close()
		done <- fn(&rawEnd{conn: far, fr: protocol.NewFrameReader(far)})
	}()
	return near, func() error { return <-done }
}

func (e *rawEnd) send(frames ...protocol.Frame) error {
	for _, f := range frames {
		if err := protocol.WriteFrame(e.conn, f); err != nil {
			return fmt.Errorf("script: writing %v: %w", f.Type, err)
		}
	}
	return nil
}

// expect reads the next frame, which must be of type want. The payload
// is valid until the next expect.
func (e *rawEnd) expect(want protocol.Type) (protocol.Frame, error) {
	f, err := e.fr.Next()
	if err != nil {
		return f, fmt.Errorf("script: waiting for %v: %w", want, err)
	}
	if f.Type != want {
		return f, fmt.Errorf("script: got %v, want %v", f.Type, want)
	}
	return f, nil
}

// expectInner reads the next frame, which must be an envelope on channel
// id carrying an inner frame of type want.
func (e *rawEnd) expectInner(id uint16, want protocol.Type) (protocol.Frame, error) {
	f, err := e.expect(protocol.TypeMux)
	if err != nil {
		return f, err
	}
	got, inner, err := protocol.MuxView(f)
	if err != nil {
		return inner, err
	}
	if got != id || inner.Type != want {
		return inner, fmt.Errorf("script: got %v on channel %d, want %v on %d", inner.Type, got, want, id)
	}
	return inner, nil
}

// drain reads until the peer hangs up, so the peer's synchronous writes
// never park on a script that has nothing more to say.
func (e *rawEnd) drain() {
	for {
		if _, err := e.fr.Next(); err != nil {
			return
		}
	}
}

var scriptSymbol = []byte("scripted-symbol!")

// serveScripted accepts the wire a scripted dialer brings up on conn and
// serves it on its own goroutine; the returned channel closes when Serve
// returns — the reader has then seen every frame the script sent.
func serveScripted(t *testing.T, conn net.Conn, cfg Config, handler func(*Channel)) <-chan struct{} {
	t.Helper()
	fr := protocol.NewFrameReader(conn)
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	mh, err := protocol.DecodeMuxHello(f)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Accept(conn, fr, mh, cfg, handler)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); w.Serve() }()
	return served
}

// scriptedAcceptor is an accepting end written out by hand. With
// helloFirst it takes strict turns — read MUX_HELLO, answer it, read
// OPEN_CHANNEL, answer ACCEPT. Without, it withholds every answer until
// it has read the dialer's whole first flight. Either way it then serves
// one REQUEST and waits for the CLOSE_CHANNEL.
func scriptedAcceptor(helloFirst bool) func(e *rawEnd) error {
	return func(e *rawEnd) error {
		hello := protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})
		if _, err := e.expect(protocol.TypeMuxHello); err != nil {
			return err
		}
		if helloFirst {
			if err := e.send(hello); err != nil {
				return err
			}
		}
		f, err := e.expect(protocol.TypeOpenChannel)
		if err != nil {
			return err
		}
		id, opened, err := protocol.DecodeOpenChannel(f)
		if err != nil {
			return err
		}
		answer := []protocol.Frame{
			protocol.EncodeAcceptChannel(id, protocol.Hello{ContentID: opened.ContentID, FullCopy: true, NumBlocks: 2, BlockSize: uint32(len(scriptSymbol))}),
		}
		if !helloFirst {
			answer = append([]protocol.Frame{hello}, answer...)
		}
		if err := e.send(answer...); err != nil {
			return err
		}
		req, err := e.expectInner(id, protocol.TypeRequest)
		if err != nil {
			return err
		}
		n, err := protocol.DecodeRequest(req)
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			sym := protocol.EncodeSymbol(protocol.Symbol{ID: uint64(i), Data: scriptSymbol})
			if err := e.send(protocol.EncodeMux(id, sym)); err != nil {
				return err
			}
		}
		if err := e.send(protocol.EncodeMux(id, protocol.EncodeDone())); err != nil {
			return err
		}
		_, err = e.expect(protocol.TypeCloseChannel)
		return err
	}
}

// pullScripted opens a channel on w and pulls one two-symbol batch.
func pullScripted(t *testing.T, w *Wire) {
	t.Helper()
	ch, err := w.Open(protocol.Hello{ContentID: 0xF00D, SummaryMask: protocol.AllSummaryMask}, 5*time.Second)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := ch.RemoteHello(); !got.FullCopy || got.ContentID != 0xF00D {
		t.Fatalf("accept hello = %+v", got)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(2)); err != nil {
		t.Fatalf("REQUEST: %v", err)
	}
	for i := 0; ; i++ {
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if f.Type == protocol.TypeDone {
			if i != 2 {
				t.Fatalf("DONE after %d symbols, want 2", i)
			}
			break
		}
		if id, data, err := protocol.SymbolView(f); err != nil || id != uint64(i) || string(data) != string(scriptSymbol) {
			t.Fatalf("symbol %d = (%d, %q, %v)", i, id, data, err)
		}
	}
	ch.Close()
}

// TestFirstFlightRidesAheadOfPeerHello: the acceptor says nothing until
// it has read the dialer's MUX_HELLO and OPEN_CHANNEL. A dialer that
// parks on the peer's MUX_HELLO before opening never gets there.
func TestFirstFlightRidesAheadOfPeerHello(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	conn, join := script(scriptedAcceptor(false))
	w, err := Dial(conn, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	pullScripted(t, w)
	if err := join(); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// TestStrictOrderAcceptorServesDialer is the mirror image: an acceptor
// that takes strict turns still serves a dialer whose OPEN_CHANNEL is
// already in flight behind its MUX_HELLO.
func TestStrictOrderAcceptorServesDialer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	conn, join := script(scriptedAcceptor(true))
	w, err := Dial(conn, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	pullScripted(t, w)
	if err := join(); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// TestStrictOrderDialerIsServed: a dialer that takes strict turns —
// MUX_HELLO, wait for the answer, OPEN_CHANNEL, wait for the ACCEPT, only
// then its REQUEST — is served by this acceptor without a charge.
func TestStrictOrderDialerIsServed(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	conn, join := script(func(e *rawEnd) error {
		if err := e.send(protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})); err != nil {
			return err
		}
		if _, err := e.expect(protocol.TypeMuxHello); err != nil {
			return err
		}
		if err := e.send(protocol.EncodeOpenChannel(1, protocol.Hello{ContentID: 7})); err != nil {
			return err
		}
		f, err := e.expect(protocol.TypeAcceptChannel)
		if err != nil {
			return err
		}
		if id, h, err := protocol.DecodeAcceptChannel(f); err != nil || id != 1 || h.ContentID != 7 {
			return fmt.Errorf("script: ACCEPT = (%d, %+v, %v)", id, h, err)
		}
		if err := e.send(protocol.EncodeMux(1, protocol.EncodeRequest(3))); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, err := e.expectInner(1, protocol.TypeSymbol); err != nil {
				return err
			}
		}
		if _, err := e.expectInner(1, protocol.TypeDone); err != nil {
			return err
		}
		return e.send(protocol.EncodeCloseChannel(1))
	})
	served := serveScripted(t, conn, Config{Penalize: func(float64) { charges.Add(1) }}, serveSymbols(10, scriptSymbol))
	if err := join(); err != nil { // the script hangs up when it is through
		t.Fatal(err)
	}
	<-served
	if n := charges.Load(); n != 0 {
		t.Fatalf("a strict-order dialer was charged %d violations", n)
	}
}

// TestAnswerBehindAcceptRoutes: a full sender answers the first round of
// requests an OPEN carries right behind its ACCEPT, in the same flight —
// here the whole answer is written before the dialer has read any of it.
// The half-open channel is registered (claimChannel) and the round's
// symbols allowed (open) before the OPEN could be answered, so the
// symbols route to it, uncharged, and Next hands them out in order once
// the open returns.
func TestAnswerBehindAcceptRoutes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	const symbols = 3
	conn, join := script(func(e *rawEnd) error {
		for _, want := range []protocol.Type{protocol.TypeMuxHello, protocol.TypeOpenChannel} {
			if _, err := e.expect(want); err != nil {
				return err
			}
		}
		answer := []protocol.Frame{
			protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4}),
			// The ACCEPT says it answers the round's one batch.
			protocol.EncodeAcceptChannel(1, protocol.Hello{ContentID: 1, FullCopy: true, Depth: 1}),
		}
		for i := 0; i < symbols; i++ {
			answer = append(answer, protocol.EncodeMux(1, protocol.EncodeSymbol(protocol.Symbol{ID: uint64(i), Data: scriptSymbol})))
		}
		if err := e.send(append(answer, protocol.EncodeMux(1, protocol.EncodeDone()))...); err != nil {
			return err
		}
		_, err := e.expect(protocol.TypeCloseChannel) // the dialer writes nothing else
		return err
	})
	w, err := Dial(conn, Config{Timeout: 5 * time.Second, Penalize: func(float64) { charges.Add(1) }})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer w.Close()
	ch, err := w.Open(protocol.Hello{ContentID: 1, Batch: symbols, Depth: 1}, 5*time.Second)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; ; i++ {
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if f.Type == protocol.TypeDone {
			if i != symbols {
				t.Fatalf("DONE after %d symbols, want %d", i, symbols)
			}
			break
		}
		if id, _, err := protocol.SymbolView(f); err != nil || id != uint64(i) {
			t.Fatalf("frame %d = %v (id %d, %v), want symbol %d", i, f.Type, id, err, i)
		}
	}
	ch.Close()
	if err := join(); err != nil {
		t.Fatal(err)
	}
	if n := charges.Load(); n != 0 {
		t.Fatalf("an answer behind the ACCEPT was charged %d violations", n)
	}
}

// TestAcceptTrimsRound: the ACCEPT's Depth bounds what the OPEN's round
// allows. The OPEN asks for 8 batches of 16, the ACCEPT says it answers
// 1, and the peer writes 17 symbols behind it: 16 are delivered, and the
// one past the batch — which nothing counts in flight — is charged and
// dropped.
func TestAcceptTrimsRound(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	const batch, depth = 16, 8
	conn, join := script(func(e *rawEnd) error {
		for _, want := range []protocol.Type{protocol.TypeMuxHello, protocol.TypeOpenChannel} {
			if _, err := e.expect(want); err != nil {
				return err
			}
		}
		answer := []protocol.Frame{
			protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4}),
			protocol.EncodeAcceptChannel(1, protocol.Hello{ContentID: 1, Depth: 1}),
		}
		for i := 0; i < batch+1; i++ {
			answer = append(answer, protocol.EncodeMux(1, protocol.EncodeSymbol(protocol.Symbol{ID: uint64(i), Data: scriptSymbol})))
		}
		if err := e.send(append(answer, protocol.EncodeMux(1, protocol.EncodeDone()))...); err != nil {
			return err
		}
		_, err := e.expect(protocol.TypeCloseChannel)
		return err
	})
	w, err := Dial(conn, Config{Timeout: 5 * time.Second, Penalize: func(float64) { charges.Add(1) }})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer w.Close()
	ch, err := w.Open(protocol.Hello{ContentID: 1, Batch: batch, Depth: depth}, 5*time.Second)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := 0
	for {
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("after %d symbols: %v", got, err)
		}
		if f.Type == protocol.TypeDone {
			break
		}
		got++
	}
	ch.Close()
	if err := join(); err != nil {
		t.Fatal(err)
	}
	if got != batch {
		t.Fatalf("%d symbols delivered, want %d: the ACCEPT answers one batch", got, batch)
	}
	if n := charges.Load(); n != 1 {
		t.Fatalf("%d charges, want 1: the symbol past the answered batch", n)
	}
}

// TestAnswerBeforeHelloFailsWire: a peer that answers the first flight
// with an ACCEPT, a SYMBOL or a frame of the retired type 18 (CREDIT,
// until version 13), and never a MUX_HELLO, is charged and the wire dies
// — the open must not sit parked behind a hello that is not coming.
func TestAnswerBeforeHelloFailsWire(t *testing.T) {
	answers := map[string]protocol.Frame{
		"ACCEPT": protocol.EncodeAcceptChannel(1, protocol.Hello{ContentID: 1, FullCopy: true}),
		"SYMBOL": protocol.EncodeMux(1, protocol.EncodeSymbol(protocol.Symbol{ID: 1, Data: scriptSymbol})),
		"CREDIT": retiredCredit(1, 8),
	}
	for name, answer := range answers {
		t.Run(name, func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			var charges atomic.Int64
			conn, join := script(func(e *rawEnd) error {
				if _, err := e.expect(protocol.TypeMuxHello); err != nil {
					return err
				}
				if err := e.send(answer); err != nil {
					return err
				}
				e.drain()
				return nil
			})
			w, err := Dial(conn, Config{Timeout: time.Minute, Penalize: func(float64) { charges.Add(1) }})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer w.Close()
			if _, err := w.Open(protocol.Hello{ContentID: 1}, time.Minute); err == nil {
				t.Fatal("Open succeeded on a wire whose peer never said hello")
			}
			<-w.Done()
			if n := charges.Load(); n != 1 {
				t.Fatalf("charged %d violations, want 1", n)
			}
			if err := join(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandshakeAnswerStaysTyped: the peer answers the MUX_HELLO with an
// ERROR (or garbage) and hangs up at once, so the dialer's OPEN_CHANNEL
// write fails on the closed pipe while the reader holds the real
// verdict. Every open — the one in flight and the one still waiting for
// the hello — must return the peer's answer, typed.
func TestHandshakeAnswerStaysTyped(t *testing.T) {
	cases := []struct {
		name   string
		answer func(e *rawEnd) error
		check  func(err error) bool
	}{
		{"version", func(e *rawEnd) error { return e.send(protocol.EncodeErrorBadVersion()) },
			func(err error) bool { return errors.Is(err, protocol.ErrVersion) }},
		{"refused", func(e *rawEnd) error { return e.send(protocol.EncodeErrorRefused()) },
			func(err error) bool {
				var rem *RemoteError
				return errors.As(err, &rem) && protocol.IsRefused(rem.Msg)
			}},
		{"busy", func(e *rawEnd) error { return e.send(protocol.EncodeError("busy (inbound connection limit reached)")) },
			func(err error) bool {
				var rem *RemoteError
				return errors.As(err, &rem) && rem.Msg == "busy (inbound connection limit reached)"
			}},
		{"corrupt", func(e *rawEnd) error {
			// The reader hangs up as soon as the header fails to parse,
			// so the tail of this write may find the pipe closed.
			e.conn.Write([]byte("this is not a frame header at all"))
			return nil
		}, func(err error) bool { return errors.Is(err, protocol.ErrCorrupt) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			conn, join := script(func(e *rawEnd) error {
				if _, err := e.expect(protocol.TypeMuxHello); err != nil {
					return err
				}
				return tc.answer(e) // and hang up: script closes the conn
			})
			w, err := Dial(conn, Config{Timeout: time.Minute})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer w.Close()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := w.Open(protocol.Hello{ContentID: 1}, time.Minute)
					if !tc.check(err) {
						t.Errorf("Open = %v, want the peer's %s answer", err, tc.name)
					}
				}()
			}
			wg.Wait()
			if err := w.Err(); !tc.check(err) {
				t.Errorf("Err = %v, want the peer's %s answer", err, tc.name)
			}
			if err := join(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOneChannelBeforeHello: until the peer's MUX_HELLO says how many
// channels it takes, one may ride the first flight. A second open waits
// for the hello — here it announces a limit of one, so the open fails
// locally and the acceptor, which reads every frame the dialer ever
// sent, never sees a second OPEN_CHANNEL.
func TestOneChannelBeforeHello(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	flown := make(chan struct{})
	conn, join := script(func(e *rawEnd) error {
		for _, want := range []protocol.Type{protocol.TypeMuxHello, protocol.TypeOpenChannel} {
			if _, err := e.expect(want); err != nil {
				return err
			}
		}
		<-flown // the second open is now waiting (or about to): answer
		err := e.send(protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 1}),
			protocol.EncodeAcceptChannel(1, protocol.Hello{ContentID: 1, FullCopy: true}))
		if err != nil {
			return err
		}
		_, err = e.expect(protocol.TypeCloseChannel) // not a second OPEN_CHANNEL
		return err
	})
	w, err := Dial(conn, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer w.Close()
	first := make(chan *Channel, 1)
	go func() {
		ch, err := w.Open(protocol.Hello{ContentID: 1}, 5*time.Second)
		if err != nil {
			t.Errorf("first open: %v", err)
		}
		first <- ch
	}()
	// Channels() turns 1 when the first open has claimed its id; the
	// second open then finds the flight taken.
	for w.Channels() == 0 {
		time.Sleep(time.Millisecond)
	}
	second := make(chan error, 1)
	go func() {
		_, err := w.Open(protocol.Hello{ContentID: 2}, 5*time.Second)
		second <- err
	}()
	close(flown)
	if err := <-second; err == nil {
		t.Fatal("second open succeeded past the peer's announced limit of 1")
	}
	if ch := <-first; ch != nil {
		ch.Close()
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedFirstFlightCreditNotCharged: an opener may write its first
// REQUEST — the grant its sender spends — behind its OPEN_CHANNEL, before
// it can know the open was refused. The acceptor's wire-level rejects
// (channel limit, bad id parity, duplicate id) retire the id, so that
// REQUEST drains instead of reading as a frame for a channel that never
// existed.
func TestRejectedFirstFlightCreditNotCharged(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	open := func(id uint16) []protocol.Frame {
		return []protocol.Frame{
			protocol.EncodeOpenChannel(id, protocol.Hello{ContentID: uint64(id)}),
			protocol.EncodeMux(id, protocol.EncodeRequest(8)),
		}
	}
	conn, join := script(func(e *rawEnd) error {
		if err := e.send(protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})); err != nil {
			return err
		}
		if _, err := e.expect(protocol.TypeMuxHello); err != nil {
			return err
		}
		if err := e.send(open(1)...); err != nil { // taken: fills the limit of 1
			return err
		}
		if _, err := e.expect(protocol.TypeAcceptChannel); err != nil {
			return err
		}
		// Over the limit (honest), wrong parity and a duplicate (one
		// violation each, for the OPEN): three rejects, and none of the
		// REQUESTs behind them may add a charge.
		// (The reader itself writes these rejects, so on a synchronous
		// pipe the REQUEST has to be written while the REJECT is read.)
		for _, id := range []uint16{3, 2, 1} {
			sent := make(chan error, 1)
			go func() { sent <- e.send(open(id)...) }()
			f, err := e.expect(protocol.TypeRejectChannel)
			if err != nil {
				return err
			}
			if got, _, err := protocol.DecodeRejectChannel(f); err != nil || got != id {
				return fmt.Errorf("script: REJECT for %d (%v), want %d", got, err, id)
			}
			if err := <-sent; err != nil {
				return err
			}
		}
		return nil
	})
	cfg := Config{MaxChannels: 1, Penalize: func(float64) { charges.Add(1) }}
	served := serveScripted(t, conn, cfg, func(ch *Channel) {
		ch.Accept(protocol.Hello{FullCopy: true})
		for {
			if _, err := ch.Next(); err != nil {
				return
			}
		}
	})
	if err := join(); err != nil {
		t.Fatal(err)
	}
	<-served // the reader has seen every frame the script sent
	if n := charges.Load(); n != 2 {
		t.Fatalf("charged %d violations, want 2 (bad parity, duplicate id; no REQUEST)", n)
	}
}

// retiredCredit is a frame of type 18 as a version-12 peer wrote its
// CREDIT grant: channel id and a count. Version 13 retired the type.
func retiredCredit(id uint16, n uint32) protocol.Frame {
	p := make([]byte, 6)
	binary.LittleEndian.PutUint16(p, id)
	binary.LittleEndian.PutUint32(p[2:], n)
	return protocol.Frame{Type: 18, Payload: p}
}
