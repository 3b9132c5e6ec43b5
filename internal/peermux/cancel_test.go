package peermux

// cancel_test.go pins what an open leaves behind when its context ends
// before the peer answers, and who owns the dial: the fabric, so that any
// opener can leave without failing the others. The far ends are scripted
// over net.Pipe; every wait is on an event the test can observe.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// await polls cond every millisecond; 5 s only turns a hang into a
// failure.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out awaiting %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// pooled returns addr's pooled wireRef and its reference count.
func pooled(f *Fabric, addr string) (*wireRef, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	wr := f.wires[addr]
	if wr == nil {
		return nil, 0
	}
	return wr, wr.refs
}

// TestCancelledOpenLeavesNothingBehind: the acceptor answers the
// MUX_HELLO and then never answers the OPEN_CHANNEL. Cancelling the
// opener's context must return at once with the context's error, take
// the channel out of the wire's table, retire the id, and — the opener
// being the wire's only user — close the wire and unpool it.
func TestCancelledOpenLeavesNothingBehind(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	conn, join := script(func(e *rawEnd) error {
		if _, err := e.expect(protocol.TypeMuxHello); err != nil {
			return err
		}
		if err := e.send(protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})); err != nil {
			return err
		}
		e.drain() // reads the OPEN_CHANNEL, answers nothing
		return nil
	})
	fab := NewFabric(func(string) (net.Conn, error) { return conn, nil }, Config{Timeout: time.Minute})
	defer fab.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opened := make(chan error, 1)
	go func() {
		_, err := fab.Open(ctx, "silent", protocol.Hello{ContentID: 1})
		opened <- err
	}()
	// The open is parked waiting for the ACCEPT once its channel is in the
	// wire's table.
	var w *Wire
	await(t, "the open's channel in the table", func() bool {
		if wr, _ := pooled(fab, "silent"); wr != nil {
			select {
			case <-wr.ready:
				w = wr.wire
			default:
			}
		}
		return w != nil && w.Channels() == 1
	})

	cancelled := time.Now()
	cancel()
	select {
	case err := <-opened:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled open returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("open still parked after its context was cancelled")
	}
	if took := time.Since(cancelled); took > 100*time.Millisecond {
		t.Fatalf("cancelled open took %v to return, want < 100ms", took)
	}
	if n := w.Channels(); n != 0 {
		t.Fatalf("channels = %d after the cancelled open, want 0", n)
	}
	w.mu.Lock()
	drains := w.drainingLocked(1)
	w.mu.Unlock()
	if !drains {
		t.Fatal("the abandoned channel id is not in the drain ring")
	}
	if n := w.Channels(); n != 0 {
		t.Fatalf("%d channels still registered", n)
	}
	if n := fab.Wires(); n != 0 {
		t.Fatalf("fabric still pools %d wires: the wedged one must not be reused", n)
	}
	if err := join(); err != nil { // the script saw the wire close
		t.Fatal(err)
	}
}

// TestCancelledOpenDoesNotFailSharedDial: two opens toward one fresh
// address wait on one dial; one of them giving up neither cancels the
// dial nor fails the other.
func TestCancelledOpenDoesNotFailSharedDial(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	accept, dials, wait := acceptingDialer(serveSymbols(1, []byte("z")))
	gate := make(chan struct{})
	fab := NewFabric(func(addr string) (net.Conn, error) {
		<-gate
		return accept(addr)
	}, Config{})
	defer fab.Close()

	type result struct {
		ch  *Channel
		err error
	}
	open := func(ctx context.Context, id uint64) <-chan result {
		out := make(chan result, 1)
		go func() {
			ch, err := fab.Open(ctx, "peer-a", protocol.Hello{ContentID: id})
			out <- result{ch, err}
		}()
		return out
	}
	quitter, quit := context.WithCancel(context.Background())
	defer quit()
	left := open(quitter, 1)
	stayed := open(timeoutCtx(t, 5*time.Second), 2)
	await(t, "both opens waiting on the dial", func() bool {
		_, refs := pooled(fab, "peer-a")
		return refs == 2
	})

	quit()
	if r := <-left; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled open returned %v, want context.Canceled", r.err)
	}
	close(gate)
	r := <-stayed
	if r.err != nil {
		t.Fatalf("the other opener's cancel failed this open: %v", r.err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for two concurrent opens, want 1", n)
	}
	r.ch.Close()
	fab.Close()
	wait()
}

// TestAbandonedDialIsClosed: a dial that lands after its only waiter
// cancelled belongs to nobody; the fabric closes it instead of pooling
// an idle wire.
func TestAbandonedDialIsClosed(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	near, far := net.Pipe()
	defer far.Close()
	gate := make(chan struct{})
	fab := NewFabric(func(string) (net.Conn, error) {
		<-gate
		return near, nil
	}, Config{})
	defer fab.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opened := make(chan error, 1)
	go func() {
		_, err := fab.Open(ctx, "late", protocol.Hello{ContentID: 1})
		opened <- err
	}()
	await(t, "the open waiting on the dial", func() bool {
		_, refs := pooled(fab, "late")
		return refs == 1
	})
	cancel()
	if err := <-opened; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled open returned %v, want context.Canceled", err)
	}
	if n := fab.Wires(); n != 0 {
		t.Fatalf("fabric still pools %d wires after its only waiter left", n)
	}
	close(gate) // the dial lands now
	far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := far.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("listener read %d bytes, err %v; want EOF from the closed dial", n, err)
	}
}
