package peermux

// wire_test.go exercises the fabric end to end over synchronous
// in-memory pipes: channel negotiation, symbol flow on request, the
// fairness guarantee (one slow consumer must not stall its siblings),
// deadline semantics (the stall watchdog's hook), misbehavior charging
// (symbols nobody asked for, unknown ids, a write after a corrupt frame),
// and wire sharing through the Fabric. Every swarm-running test defers the shared
// goroutine-leak gate.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// timeoutCtx bounds one open by d, as the timeout parameter it replaces
// did.
func timeoutCtx(t testing.TB, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// startPair wires a dialer and an acceptor over net.Pipe. The acceptor
// runs the server-mux front half (read MUX_HELLO, Accept, Serve);
// handler owns each peer-opened channel. shutdown closes the client
// wire and waits for the serve goroutine.
func startPair(t testing.TB, ccfg, scfg Config, handler func(*Channel)) (*Wire, func()) {
	t.Helper()
	return startPairConn(t, ccfg, scfg, nil, nil, handler)
}

// startPairConn is startPair with conn wrappers between the client and
// server wires and their pipe ends (nil: none), for fault injection and
// write accounting.
func startPairConn(t testing.TB, ccfg, scfg Config, wrapC, wrapS func(net.Conn) net.Conn, handler func(*Channel)) (*Wire, func()) {
	t.Helper()
	cc, sc := net.Pipe()
	if wrapC != nil {
		cc = wrapC(cc)
	}
	if wrapS != nil {
		sc = wrapS(sc)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fr := protocol.NewFrameReader(sc)
		sc.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := fr.Next()
		if err != nil {
			sc.Close()
			return
		}
		mh, err := protocol.DecodeMuxHello(f)
		if err != nil {
			sc.Close()
			return
		}
		w, err := Accept(sc, fr, mh, scfg, handler)
		if err != nil {
			return
		}
		w.Serve()
	}()
	w, err := Dial(cc, ccfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return w, func() {
		w.Close()
		<-done
	}
}

// serveSymbols is a handler that accepts every channel and answers each
// REQUEST with `count` symbols and a DONE.
func serveSymbols(count int, payload []byte) func(*Channel) {
	return func(ch *Channel) {
		if err := ch.Accept(protocol.Hello{
			ContentID: ch.RemoteHello().ContentID, FullCopy: true,
			NumBlocks: uint32(count), BlockSize: uint32(len(payload)),
		}); err != nil {
			return
		}
		var next uint64
		for {
			f, err := ch.Next()
			if err != nil {
				return
			}
			switch f.Type {
			case protocol.TypeRequest:
				n, err := protocol.DecodeRequest(f)
				if err != nil {
					return
				}
				for i := uint32(0); i < n; i++ {
					if err := protocol.WriteSymbol(ch, next, payload); err != nil {
						return
					}
					next++
				}
				if err := protocol.WriteFrame(ch, protocol.EncodeDone()); err != nil {
					return
				}
			case protocol.TypeDone:
				return
			}
		}
	}
}

// pull reads ch until it has received want symbols in all (got of them
// already), asking as a session does: a REQUEST for what the window
// holds, never more than it still wants, whenever the one before it has
// been answered (asked: one is outstanding now). each, when set, runs
// after every symbol. It returns the symbols received.
func pull(ch *Channel, got, want int, asked bool, each func(got int)) (int, error) {
	for got < want || asked {
		if !asked {
			if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(min(ch.Window(), want-got)))); err != nil {
				return got, err
			}
			asked = true
		}
		f, err := ch.Next()
		if err != nil {
			return got, err
		}
		if f.Type == protocol.TypeDone {
			asked = false
			continue
		}
		got++
		if each != nil {
			each(got)
		}
	}
	return got, nil
}

func TestOpenAcceptSymbolFlow(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w, shutdown := startPair(t, Config{}, Config{}, serveSymbols(1000, []byte("0123456789abcdef")))
	defer shutdown()

	ch, err := w.Open(protocol.Hello{ContentID: 0xF00D, SummaryMask: protocol.AllSummaryMask}, time.Second)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := ch.RemoteHello(); !got.FullCopy || got.ContentID != 0xF00D {
		t.Fatalf("accept hello = %+v", got)
	}
	const batch = 64
	got := 0
	for round := 0; round < 4; round++ {
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(batch)); err != nil {
			t.Fatalf("REQUEST: %v", err)
		}
		ch.SetDeadline(time.Now().Add(5 * time.Second))
		for {
			f, err := ch.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if f.Type == protocol.TypeDone {
				break
			}
			id, data, err := protocol.SymbolView(f)
			if err != nil {
				t.Fatalf("symbol: %v", err)
			}
			if id != uint64(got) || string(data) != "0123456789abcdef" {
				t.Fatalf("symbol %d = (%d, %q)", got, id, data)
			}
			got++
		}
	}
	if got != 4*batch {
		t.Fatalf("received %d symbols, want %d", got, 4*batch)
	}
	ch.Close()
	if n := w.Channels(); n != 0 {
		t.Fatalf("channels after close = %d", n)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("wire died: %v", err)
	}
}

func TestChannelReject(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w, shutdown := startPair(t, Config{}, Config{}, func(ch *Channel) {
		ch.Reject(fmt.Sprintf("%s %#x", protocol.ReasonUnknownContent, ch.RemoteHello().ContentID))
	})
	defer shutdown()

	_, err := w.Open(protocol.Hello{ContentID: 0xBAD}, time.Second)
	var rej *RejectError
	if !errors.As(err, &rej) || !protocol.IsUnknownContent(rej.Msg) {
		t.Fatalf("Open err = %v, want unknown-content RejectError", err)
	}
	// The window entered in the wire's sum before the answer was known
	// left it again.
	if n := w.WindowSum(); n != 0 {
		t.Fatalf("WindowSum = %d after a rejected open, want 0", n)
	}
	// The wire survives a rejection: a second open toward a served
	// content must still work.
	w2, shutdown2 := startPair(t, Config{}, Config{}, serveSymbols(10, []byte("x")))
	defer shutdown2()
	ch, err := w2.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatalf("Open after reject: %v", err)
	}
	ch.Close()
}

// TestSlowConsumerDoesNotStallSiblings: two channels on one wire, each
// asking a window at a time, and one consumer stops draining — the fast
// channel keeps its throughput (its full stream completes while the slow
// one is wedged) and the slow channel's sender, which has answered all
// it was asked, holds nothing up on the wire; when the slow consumer
// resumes, its stream completes too, and nobody is charged.
func TestSlowConsumerDoesNotStallSiblings(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total = 2000
	payload := []byte("payload-payload-")
	var charges atomic.Int64
	w, shutdown := startPair(t, Config{Penalize: func(float64) { charges.Add(1) }}, Config{},
		serveSymbols(total, payload))
	defer shutdown()

	// A small window so the slow channel's answer is quickly all queued.
	open := func(id uint64) *Channel {
		ch, err := w.OpenWindow(timeoutCtx(t, time.Second), protocol.Hello{ContentID: id}, 32)
		if err != nil {
			t.Fatalf("Open %d: %v", id, err)
		}
		ch.SetDeadline(time.Now().Add(10 * time.Second))
		return ch
	}
	fast, slow := open(1), open(2)
	// The slow consumer asks for a window, reads a handful of symbols
	// and then stops draining entirely.
	if err := protocol.WriteFrame(slow, protocol.EncodeRequest(uint32(slow.Window()))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := slow.Next(); err != nil {
			t.Fatalf("slow warmup: %v", err)
		}
	}

	// The fast channel must receive its entire stream — far more than
	// any window or queue bound — while the slow channel sits undrained.
	drain := func(ch *Channel, got, want int, asked bool, name string) {
		n, err := pull(ch, got, got+want, asked, nil)
		if err != nil {
			t.Fatalf("%s after %d symbols: %v", name, n-got, err)
		}
	}
	start := time.Now()
	drain(fast, 0, total, false, "fast channel")
	if time.Since(start) > 8*time.Second {
		t.Fatalf("fast channel took %v with a stalled sibling", time.Since(start))
	}
	// The slow consumer resumes: no deadlock, the remaining symbols
	// arrive.
	drain(slow, 8, total-8, true, "slow channel")
	if err := w.Err(); err != nil {
		t.Fatalf("wire died: %v", err)
	}
	if n := charges.Load(); n != 0 {
		t.Fatalf("%d charges: a sender sent past what was asked", n)
	}
	fast.Close()
	slow.Close()
}

// TestUnaskedSymbolCharged: a SYMBOL beyond what the channel asked for
// is charged once and dropped, and the channel keeps working — the
// symbols of a REQUEST and of the OPEN's round written behind the ACCEPT
// pass uncharged.
func TestUnaskedSymbolCharged(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	const round = 3 // the OPEN asks for one batch of 3
	w, shutdown := startPair(t, Config{Penalize: func(float64) { charges.Add(1) }}, Config{}, func(ch *Channel) {
		if ch.Accept(protocol.Hello{FullCopy: true, Depth: 1}) != nil {
			return
		}
		var id uint64
		send := func(n int) error {
			for i := 0; i < n; i++ {
				if err := protocol.WriteSymbol(ch, id, []byte("symbol")); err != nil {
					return err
				}
				id++
			}
			return protocol.WriteFrame(ch, protocol.EncodeDone())
		}
		// The OPEN's round behind the ACCEPT, and one symbol past it.
		if send(round+1) != nil {
			return
		}
		for {
			f, err := ch.Next()
			if err != nil || f.Type != protocol.TypeRequest {
				return
			}
			n, _ := protocol.DecodeRequest(f)
			if send(int(n)) != nil {
				return
			}
		}
	})
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1, Batch: round, Depth: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ch.SetDeadline(time.Now().Add(5 * time.Second))
	// What arrives is the round, the DONE — and then, after the dropped
	// symbol, the answer to the REQUEST.
	ids := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			f, err := ch.Next()
			if err != nil || f.Type != protocol.TypeSymbol {
				t.Fatalf("symbol %d of %d: %v %v", i, n, f.Type, err)
			}
		}
		if f, err := ch.Next(); err != nil || f.Type != protocol.TypeDone {
			t.Fatalf("after %d symbols: %v %v, want DONE", n, f.Type, err)
		}
	}
	ids(round)
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(5)); err != nil {
		t.Fatal(err)
	}
	ids(5)
	if n := charges.Load(); n != 1 {
		t.Fatalf("%d charges, want 1: the one symbol nothing asked for", n)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("wire died: %v", err)
	}
}

// TestWriteAfterCorruptFrameIsCorrupt: once the reader has failed the
// wire on a corrupt frame and closed the conn, a channel's write reports
// the corrupt frame, not the closed conn it found — a session whose
// REQUEST races the reader's verdict is charged for corruption, not a
// reset.
func TestWriteAfterCorruptFrameIsCorrupt(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	conn, join := script(func(e *rawEnd) error {
		for _, want := range []protocol.Type{protocol.TypeMuxHello, protocol.TypeOpenChannel} {
			if _, err := e.expect(want); err != nil {
				return err
			}
		}
		if err := e.send(protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4}),
			protocol.EncodeAcceptChannel(1, protocol.Hello{ContentID: 1, FullCopy: true})); err != nil {
			return err
		}
		// The first REQUEST is answered with garbage.
		if _, err := e.expectInner(1, protocol.TypeRequest); err != nil {
			return err
		}
		e.conn.Write([]byte("this is not a frame header at all"))
		e.drain()
		return nil
	})
	w, err := Dial(conn, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(4)); err != nil {
		t.Fatal(err)
	}
	<-w.Done()
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(4)); !errors.Is(err, protocol.ErrCorrupt) {
		t.Fatalf("REQUEST after a corrupt frame = %v, want protocol.ErrCorrupt", err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelDeadlineUnblocks(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w, shutdown := startPair(t, Config{}, Config{}, func(ch *Channel) {
		ch.Accept(protocol.Hello{FullCopy: true})
		for {
			if _, err := ch.Next(); err != nil {
				return
			}
		}
	})
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A future deadline expires on its own.
	ch.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := ch.Next(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Next past deadline = %v, want ErrDeadline", err)
	}
	// The watchdog pattern: a blocked Next is unwedged by SetDeadline
	// from another goroutine.
	ch.SetDeadline(time.Time{})
	unblocked := make(chan error, 1)
	go func() {
		_, err := ch.Next()
		unblocked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ch.SetDeadline(time.Now())
	select {
	case err := <-unblocked:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("unblocked Next = %v, want ErrDeadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetDeadline(now) did not unblock a pending Next")
	}
	// A session's steady state: a blocked Next under a deadline that every
	// frame pushes out. The extension wakes nobody (and allocates nothing),
	// yet the wait must not expire at the deadline it replaced — and a
	// deadline moved earlier must still wake it at once.
	ch.SetDeadline(time.Now().Add(60 * time.Millisecond))
	go func() {
		_, err := ch.Next()
		unblocked <- err
	}()
	ch.SetDeadline(time.Now().Add(time.Hour))
	select {
	case err := <-unblocked:
		t.Fatalf("Next under an extended deadline returned %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	if avg := testing.AllocsPerRun(100, func() { ch.SetDeadline(time.Now().Add(time.Hour)) }); avg != 0 {
		t.Errorf("extending the deadline allocates %.1f per call, want 0", avg)
	}
	ch.SetDeadline(time.Now())
	select {
	case err := <-unblocked:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("unblocked Next = %v, want ErrDeadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("an earlier deadline did not unblock a Next waiting on a far one")
	}
	ch.Close()
}

// TestWireDeadlineFollowsTraffic: the conn deadlines are pushed out only
// every Timeout/8 of traffic, not per frame — which must neither let a
// busy wire run into a deadline armed long ago, nor let an idle one
// outlive its Timeout.
func TestWireDeadlineFollowsTraffic(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const timeout = 300 * time.Millisecond
	dead := make(chan struct{})
	w, shutdown := startPair(t, Config{}, Config{Timeout: timeout}, func(ch *Channel) {
		defer close(dead)
		ch.Accept(protocol.Hello{FullCopy: true})
		for {
			if _, err := ch.Next(); err != nil {
				return
			}
		}
	})
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Three timeouts of steady traffic, frames far closer than Timeout/8.
	for end := time.Now().Add(3 * timeout); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(1)); err != nil {
			t.Fatalf("write on a busy wire: %v", err)
		}
	}
	select {
	case <-dead:
		t.Fatal("the serving wire timed out under steady traffic")
	default:
	}
	// Then silence: the server's idle limit ends the wire.
	select {
	case <-dead:
	case <-time.After(timeout + 2*time.Second):
		t.Fatal("an idle wire outlived its timeout")
	}
}

func TestUnknownChannelCharged(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	scfg := Config{Penalize: func(w float64) { charges.Add(1) }}
	w, shutdown := startPair(t, Config{}, scfg, serveSymbols(10, []byte("x")))
	defer shutdown()

	// An envelope for a channel that never existed: charged, dropped,
	// wire survives.
	env, err := protocol.AppendMux(nil, 4242, protocol.TypeSymbol, []byte("bogus-symbol-pay"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.write(env); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for charges.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if charges.Load() == 0 {
		t.Fatal("unknown-channel envelope was not charged")
	}
	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatalf("wire did not survive the violation: %v", err)
	}
	ch.Close()
}

func TestClosedChannelDrainsSilently(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var charges atomic.Int64
	release := make(chan struct{})
	w, shutdown := startPair(t, Config{Penalize: func(float64) { charges.Add(1) }}, Config{}, func(ch *Channel) {
		ch.Accept(protocol.Hello{FullCopy: true})
		// Wait for the peer to retire the id, then fire late frames at
		// it — in-flight traffic for a closed channel. Raw wire writes
		// bypass the channel, which already knows it is closed.
		<-release
		var late []byte
		for i := 0; i < 4; i++ {
			late, _ = protocol.AppendMux(late, ch.ID(), protocol.TypeSymbol, []byte("late-symbol-data"))
		}
		late, _ = protocol.AppendMux(late, ch.ID(), protocol.TypeDone, nil)
		ch.w.write(late)
		for {
			if _, err := ch.Next(); err != nil {
				return
			}
		}
	})
	defer func() { close(release); shutdown() }()

	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch.Close()
	release <- struct{}{}
	// Give the late frames time to arrive: they must drain without a
	// single charge and without killing the wire.
	time.Sleep(100 * time.Millisecond)
	if n := charges.Load(); n != 0 {
		t.Fatalf("late frames for a retired id charged %d violations", n)
	}
	ch2, err := w.Open(protocol.Hello{ContentID: 2}, time.Second)
	if err != nil {
		t.Fatalf("wire did not survive late frames: %v", err)
	}
	ch2.Close()
}

// acceptingDialer is a Fabric dial function whose every connection is
// accepted as a wire served by handler; dials counts the connections and
// wait joins the serving goroutines.
func acceptingDialer(handler func(*Channel)) (dial func(string) (net.Conn, error), dials *atomic.Int64, wait func()) {
	dials = new(atomic.Int64)
	var serveWG sync.WaitGroup
	dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		cc, sc := net.Pipe()
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			fr := protocol.NewFrameReader(sc)
			sc.SetReadDeadline(time.Now().Add(5 * time.Second))
			f, err := fr.Next()
			if err != nil {
				sc.Close()
				return
			}
			mh, err := protocol.DecodeMuxHello(f)
			if err != nil {
				sc.Close()
				return
			}
			w, err := Accept(sc, fr, mh, Config{}, handler)
			if err != nil {
				return
			}
			w.Serve()
		}()
		return cc, nil
	}
	return dial, dials, serveWG.Wait
}

func TestFabricSharesOneWire(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dial, dials, wait := acceptingDialer(serveSymbols(100, []byte("y")))
	fab := NewFabric(dial, Config{})
	defer fab.Close()

	var chans []*Channel
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			ch, err := fab.OpenWindow(timeoutCtx(t, 2*time.Second), "peer-a", protocol.Hello{ContentID: id}, 0)
			if err != nil {
				t.Errorf("Open %d: %v", id, err)
				return
			}
			mu.Lock()
			chans = append(chans, ch)
			mu.Unlock()
		}(uint64(i + 1))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("3 concurrent opens dialed %d times, want 1", n)
	}
	if n := fab.Wires(); n != 1 {
		t.Fatalf("fabric holds %d wires, want 1", n)
	}
	// Last close tears the wire down; the next open redials.
	for _, ch := range chans {
		ch.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for fab.Wires() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := fab.Wires(); n != 0 {
		t.Fatalf("fabric holds %d wires after last close", n)
	}
	ch, err := fab.OpenWindow(timeoutCtx(t, 2*time.Second), "peer-a", protocol.Hello{ContentID: 9}, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("reopen dialed %d times total, want 2", n)
	}
	ch.Close()
	fab.Close()
	wait()
}

// TestFabricRejectedOpenReleasesWire: a first open the peer rejects must
// not leave the wire it dialed idle in the pool (nobody would ever close
// it — the acceptor would sit on it until its read deadline).
func TestFabricRejectedOpenReleasesWire(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dial, dials, wait := acceptingDialer(func(ch *Channel) { ch.Reject("busy (try later)") })
	fab := NewFabric(dial, Config{})
	defer fab.Close()
	for i := 1; i <= 2; i++ {
		_, err := fab.OpenWindow(timeoutCtx(t, 2*time.Second), "peer-a", protocol.Hello{ContentID: 1}, 0)
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Fatalf("open %d: err = %v, want RejectError", i, err)
		}
		if n := fab.Wires(); n != 0 {
			t.Fatalf("fabric holds %d wires after a rejected lone open, want 0", n)
		}
		if n := dials.Load(); n != int64(i) {
			t.Fatalf("open %d: %d dials so far, want %d (no idle wire to reuse)", i, n, i)
		}
	}
	wait() // both wires were closed from our side, so both servers unwind
}

// TestFabricCloseInterruptsHandshake: a dial whose peer never answers
// the MUX_HELLO must not outlive the fabric — Close cuts the handshake
// short instead of leaving the Open parked for the whole Timeout.
func TestFabricCloseInterruptsHandshake(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dialed := make(chan net.Conn, 1)
	dial := func(addr string) (net.Conn, error) {
		cc, sc := net.Pipe()
		go io.Copy(io.Discard, sc) // swallow the MUX_HELLO, answer nothing
		dialed <- sc
		return cc, nil
	}
	fab := NewFabric(dial, Config{Timeout: time.Minute})
	opened := make(chan error, 1)
	go func() {
		_, err := fab.OpenWindow(timeoutCtx(t, time.Minute), "mute", protocol.Hello{ContentID: 1}, 0)
		opened <- err
	}()
	sc := <-dialed
	defer sc.Close()
	// Give the handshake a moment to park reading the answer; Close must
	// cut it either way (a Close that lands first is seen after the dial).
	time.Sleep(10 * time.Millisecond)
	fab.Close()
	select {
	case err := <-opened:
		if err == nil {
			t.Fatal("Open on a closed fabric succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Open still parked in the handshake after Fabric.Close")
	}
}

func TestDialVersionReject(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cc, sc := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sc.Close()
		sc.SetDeadline(time.Now().Add(5 * time.Second))
		// A server that cannot speak v5 answers the canonical version
		// rejection instead of a MUX_HELLO.
		fr := protocol.NewFrameReader(sc)
		if _, err := fr.Next(); err != nil {
			return
		}
		protocol.WriteFrame(sc, protocol.EncodeErrorBadVersion())
	}()
	// Dial does not wait for the answer; the first Open returns it.
	w, err := Dial(cc, Config{Timeout: 2 * time.Second})
	if err == nil {
		defer w.Close()
		_, err = w.Open(protocol.Hello{ContentID: 1}, 2*time.Second)
	}
	if !errors.Is(err, protocol.ErrVersion) {
		t.Fatalf("Dial+Open = %v, want ErrVersion in the chain", err)
	}
	wg.Wait()
}

func TestRemoteCloseDrainsThenEOF(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w, shutdown := startPair(t, Config{}, Config{}, func(ch *Channel) {
		ch.Accept(protocol.Hello{FullCopy: true, Depth: 1})
		for i := 0; i < 5; i++ {
			protocol.WriteSymbol(ch, uint64(i), []byte("tail"))
		}
		ch.Close()
	})
	defer shutdown()
	// The OPEN's round asks for the five symbols.
	ch, err := w.Open(protocol.Hello{ContentID: 1, Batch: 5, Depth: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch.SetDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for {
		f, err := ch.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("after %d symbols: %v, want io.EOF", got, err)
			}
			break
		}
		if f.Type == protocol.TypeSymbol {
			got++
		}
	}
	if got != 5 {
		t.Fatalf("drained %d in-flight symbols before EOF, want 5", got)
	}
	ch.Close()
}

// wireLifeAllocs is what TestWireLifeAllocs measures for one wire's life.
const wireLifeAllocs = 50

// TestWireLifeAllocs pins what one wire costs over its whole life, both
// ends counted: Dial and Accept over net.Pipe (startPair), one channel
// opened with a round of 16 symbols that the acceptor answers behind its
// ACCEPT, read to its DONE, then the channel and the wire closed and the
// acceptor's side unwound. The pools are warm and the collector is held
// off, so the count is the wire's own, its net.Pipe included. Skipped
// under the race detector, which sheds pooled buffers.
func TestWireLifeAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector sheds pooled buffers")
	}
	const batch = 16
	payload := make([]byte, 64)
	answer := func(ch *Channel) {
		h := ch.RemoteHello()
		if ch.Accept(protocol.Hello{FullCopy: true, Depth: h.Depth}) != nil {
			return
		}
		for id := range uint64(h.Batch) * uint64(h.Depth) {
			if protocol.WriteSymbol(ch, id, payload) != nil {
				return
			}
		}
		if protocol.WriteFrame(ch, protocol.EncodeDone()) != nil {
			return
		}
		for {
			if _, err := ch.Next(); err != nil {
				return
			}
		}
	}
	life := func() {
		w, shutdown := startPair(t, Config{}, Config{}, answer)
		defer shutdown()
		ch, err := w.OpenWindow(context.Background(), protocol.Hello{Batch: batch, Depth: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		for got := 0; ; got++ {
			f, err := ch.Next()
			if err != nil {
				t.Fatal(err)
			}
			if f.Type == protocol.TypeDone {
				if got != batch {
					t.Fatalf("the round brought %d symbols, want %d", got, batch)
				}
				return
			}
		}
	}
	life() // warm the pools
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	// Let what is ready to run — the runtime's own work after a
	// collection among it — run before the count, which is process-wide.
	runtime.Gosched()
	allocs := testing.AllocsPerRun(20, life)
	t.Logf("a wire's life allocates %.1f times", allocs)
	if allocs > wireLifeAllocs {
		t.Errorf("a wire's life allocates %.1f times, want at most %d", allocs, wireLifeAllocs)
	}
}

// BenchmarkRoute is what a routed frame costs from the wire's reader to
// its channel's consumer: finding the channel in the wire's table,
// queueing the frame and handing it out. The wire carries one channel,
// or DefaultMaxChannels with every frame going to the one the table
// holds last, which the lookup reaches after all the others.
func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{1, DefaultMaxChannels} {
		b.Run(fmt.Sprintf("channels=%d", n), func(b *testing.B) {
			w, shutdown := startPair(b, Config{}, Config{}, func(ch *Channel) {
				if ch.Accept(protocol.Hello{}) != nil {
					return
				}
				for {
					if _, err := ch.Next(); err != nil {
						return
					}
				}
			})
			defer shutdown()
			var last *Channel
			for range n {
				ch, err := w.OpenWindow(context.Background(), protocol.Hello{}, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer ch.Close()
				last = ch
			}
			f := protocol.EncodeRequest(16)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				w.route(last.id, f)
				if _, err := last.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
