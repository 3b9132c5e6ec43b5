package peermux

// window_test.go pins the channel window: SetWindow moves the window and
// the wire's sum of windows and writes nothing to the wire, and several
// contents on one wire, each asking for no more than its window, complete
// intact under live resizes without a charge.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// queuedFrames reads how many frames the channel's inbound queue holds.
func queuedFrames(ch *Channel) int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.queued
}

// waitQueued polls until the channel's inbound queue holds want frames.
func waitQueued(t *testing.T, ch *Channel, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for queuedFrames(ch) != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := queuedFrames(ch); got != want {
		t.Fatalf("queued frames = %d, want %d", got, want)
	}
}

// TestSetWindowGrowShrinkLive resizes a channel with an answer queued:
// the window and the wire's sum follow each resize at once, a resize
// writes nothing to the wire, and the peer, which sends only what was
// asked, sends nothing more.
func TestSetWindowGrowShrinkLive(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cc := &writeCounter{}
	w, shutdown := startPairConn(t, Config{}, Config{},
		func(c net.Conn) net.Conn { cc.Conn = c; return cc }, nil,
		serveSymbols(100000, []byte("0123456789abcdef")))
	defer shutdown()

	ch, err := w.OpenWindow(timeoutCtx(t, time.Second), protocol.Hello{ContentID: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, want int) {
		t.Helper()
		if got := ch.Window(); got != want {
			t.Fatalf("Window() %s = %d, want %d", what, got, want)
		}
		if got := w.WindowSum(); got != want {
			t.Fatalf("WindowSum %s = %d, want %d", what, got, want)
		}
	}
	check("after open", 4)
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(ch.Window()))); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, ch, 5) // the window's 4 symbols and the DONE
	writes := cc.total()
	for _, tc := range []struct {
		to, want int
	}{{12, 12}, {6, 6}, {1000, 1000}, {DefaultWindow + 1, DefaultWindow}, {0, DefaultWindow}, {1, 1}} {
		ch.SetWindow(tc.to)
		check(fmt.Sprintf("after SetWindow(%d)", tc.to), tc.want)
	}
	time.Sleep(20 * time.Millisecond)
	if n := cc.total() - writes; n != 0 {
		t.Fatalf("resizes wrote %d times to the wire, want 0", n)
	}
	waitQueued(t, ch, 5)
	ch.Close()
	if got := w.WindowSum(); got != 0 {
		t.Fatalf("WindowSum after close = %d, want 0", got)
	}
}

// TestMultiContentOneWireResizeFairness runs three contents over one
// wire with unequal windows and live resizes mid-transfer (a node's
// budget split's access pattern), each asking a window at a time,
// asserting every stream completes intact, nobody is charged, and the
// wire's sum of windows settles to zero. Run under -race this is the
// concurrency gate on SetWindow vs deliver vs take.
func TestMultiContentOneWireResizeFairness(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total = 600
	var charges atomic.Int64
	w, shutdown := startPair(t, Config{Penalize: func(float64) { charges.Add(1) }}, Config{},
		serveSymbols(total, []byte("0123456789abcdef")))
	defer shutdown()

	windows := []int{4, 16, 64}
	var wg sync.WaitGroup
	errs := make(chan error, len(windows))
	for i, win := range windows {
		wg.Add(1)
		go func(id uint64, win int) {
			defer wg.Done()
			ch, err := w.OpenWindow(timeoutCtx(t, 2*time.Second), protocol.Hello{ContentID: id}, win)
			if err != nil {
				errs <- fmt.Errorf("open %d: %w", id, err)
				return
			}
			defer ch.Close()
			ch.SetDeadline(time.Now().Add(15 * time.Second))
			// Resizes in both directions while frames are in flight, as
			// when a node re-splits its window budget mid-transfer.
			got, err := pull(ch, 0, total, false, func(got int) {
				switch got {
				case total / 3:
					ch.SetWindow(win * 2)
				case 2 * total / 3:
					ch.SetWindow(win / 2)
				}
			})
			if err != nil {
				errs <- fmt.Errorf("content %d after %d symbols: %w", id, got, err)
			}
		}(uint64(i+1), win)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("wire died: %v", err)
	}
	if n := charges.Load(); n != 0 {
		t.Fatalf("%d charges: a sender sent past what was asked", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.WindowSum() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := w.WindowSum(); got != 0 {
		t.Fatalf("WindowSum after all closes = %d, want 0", got)
	}
}
