package peermux

// window_test.go pins the PR 9 credit-window surface: live SetWindow
// grow/shrink regrant semantics (with frames in flight), the wire's
// aggregate window ledger and WireWindow budget, the failed-grant
// terminal path (a CREDIT that never reached the wire must surface to
// the consumer, not strand the sender silently), blocked Write racing
// SetDeadline/Close, and multi-content fairness on one wire under
// concurrent resizes.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/obs"
	"icd/internal/protocol"
	"icd/internal/testutil"
)

// errWriteBroken is the injected conn-write failure for the grant-path
// regression test.
var errWriteBroken = errors.New("injected write failure")

// flakyWriteConn passes reads through and fails writes on demand.
type flakyWriteConn struct {
	net.Conn
	broken atomic.Bool
}

func (c *flakyWriteConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, errWriteBroken
	}
	return c.Conn.Write(p)
}

// waitQueued polls until the channel's inbound queue holds want frames
// (the observable landing spot of the peer's credit-limited stream).
func waitQueued(t *testing.T, ch *Channel, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for len(ch.in) != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(ch.in); got != want {
		t.Fatalf("queued frames = %d, want %d", got, want)
	}
}

// TestCreditGrantFailureSurfaces is the satellite-1 regression: a
// replenishing CREDIT that fails to reach the wire must become the
// channel's terminal error. Before the fix, the replenish path dropped the
// write error and the consumer blocked forever against a sender
// stranded at zero credits.
func TestCreditGrantFailureSurfaces(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	fc := &flakyWriteConn{}
	w, shutdown := startPairConn(t, Config{Window: 8}, Config{Window: 8},
		func(c net.Conn) net.Conn { fc.Conn = c; return fc }, nil,
		serveSymbols(1000, []byte("0123456789abcdef")))
	defer shutdown()

	ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(64)); err != nil {
		t.Fatal(err)
	}
	// Let the sender exhaust its 8-frame window, then break the write
	// path: the next consumed quantum (window/4 = 2 frames) triggers a
	// replenish grant that cannot be sent.
	waitQueued(t, ch, 8)
	fc.broken.Store(true)
	ch.SetDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 16; i++ {
		_, err = ch.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, errWriteBroken) {
		t.Fatalf("draining past a failed grant = %v, want errWriteBroken", err)
	}
	ch.Close()
}

// TestSetWindowGrowShrinkLive drives a live resize in both directions
// with frames in flight, watching the sender's allowance converge
// through the queue itself: growth is an immediate unsolicited grant,
// shrink is paid down by withheld regrants — never a revoked credit.
func TestSetWindowGrowShrinkLive(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w, shutdown := startPair(t, Config{Window: 64}, Config{Window: 64},
		serveSymbols(100000, []byte("0123456789abcdef")))
	defer shutdown()

	ch, err := w.OpenWindow(timeoutCtx(t, time.Second), protocol.Hello{ContentID: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.Window(); got != 4 {
		t.Fatalf("initial Window() = %d, want 4", got)
	}
	if got := w.WindowSum(); got != 4 {
		t.Fatalf("WindowSum after open = %d, want 4", got)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(10000)); err != nil {
		t.Fatal(err)
	}
	// The sender stalls at exactly the 4-frame window (nothing drained,
	// so nothing is regranted).
	waitQueued(t, ch, 4)
	time.Sleep(20 * time.Millisecond)
	waitQueued(t, ch, 4)

	// Grow 4 → 12: an unsolicited 8-credit grant lets the sender push 8
	// more frames with the consumer still idle.
	if err := ch.SetWindow(12); err != nil {
		t.Fatal(err)
	}
	if got := ch.Window(); got != 12 {
		t.Fatalf("Window() after grow = %d, want 12", got)
	}
	if got := w.WindowSum(); got != 12 {
		t.Fatalf("WindowSum after grow = %d, want 12", got)
	}
	waitQueued(t, ch, 12)

	// Shrink 12 → 6 with 12 frames in flight: the sender keeps its
	// allowance, and the first 6 drained frames pay the deficit instead
	// of regranting. Draining all 12 hands the sender exactly 6 new
	// credits, so the queue refills to the new window and no further.
	if err := ch.SetWindow(6); err != nil {
		t.Fatal(err)
	}
	if got := ch.Window(); got != 6 {
		t.Fatalf("Window() after shrink = %d, want 6", got)
	}
	if got := w.WindowSum(); got != 6 {
		t.Fatalf("WindowSum after shrink = %d, want 6", got)
	}
	ch.SetDeadline(time.Now().Add(3 * time.Second))
	for i := 0; i < 12; i++ {
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if f.Type != protocol.TypeSymbol {
			t.Fatalf("drain %d: %v, want SYMBOL", i, f.Type)
		}
	}
	waitQueued(t, ch, 6)
	time.Sleep(20 * time.Millisecond)
	waitQueued(t, ch, 6)
	ch.Close()
	if got := w.WindowSum(); got != 0 {
		t.Fatalf("WindowSum after close = %d, want 0", got)
	}
}

// TestWireWindowBudget pins the aggregate ledger: a WireWindow budget
// clamps initial grants and grows to the remaining headroom (never
// below one frame), and closing a channel returns its share.
func TestWireWindowBudget(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w, shutdown := startPair(t, Config{Window: 64, WireWindow: 10}, Config{Window: 64},
		serveSymbols(1000, []byte("x")))
	defer shutdown()

	open := func(id uint64, window int) *Channel {
		ch, err := w.OpenWindow(timeoutCtx(t, time.Second), protocol.Hello{ContentID: id}, window)
		if err != nil {
			t.Fatalf("OpenWindow %d: %v", id, err)
		}
		return ch
	}
	ch1 := open(1, 8)
	if got := ch1.Window(); got != 8 {
		t.Fatalf("ch1 window = %d, want 8", got)
	}
	// 2 frames of headroom left: the second open is clamped to it.
	ch2 := open(2, 8)
	if got := ch2.Window(); got != 2 {
		t.Fatalf("ch2 window = %d, want 2 (budget clamp)", got)
	}
	if got := w.WindowSum(); got != 10 {
		t.Fatalf("WindowSum = %d, want 10", got)
	}
	// Headroom exhausted: the floor of one frame still applies, or the
	// channel could never move.
	ch3 := open(3, 8)
	if got := ch3.Window(); got != 1 {
		t.Fatalf("ch3 window = %d, want floor 1", got)
	}
	// A grow with no headroom is a no-op, not an error.
	if err := ch2.SetWindow(8); err != nil {
		t.Fatal(err)
	}
	if got := ch2.Window(); got != 2 {
		t.Fatalf("ch2 window after no-headroom grow = %d, want 2", got)
	}
	// Closing ch1 returns its 8 frames; the grow now succeeds in full.
	ch1.Close()
	if got := w.WindowSum(); got != 3 {
		t.Fatalf("WindowSum after ch1 close = %d, want 3", got)
	}
	if err := ch2.SetWindow(8); err != nil {
		t.Fatal(err)
	}
	if got := ch2.Window(); got != 8 {
		t.Fatalf("ch2 window after freed grow = %d, want 8", got)
	}
	ch2.Close()
	ch3.Close()
	if got := w.WindowSum(); got != 0 {
		t.Fatalf("WindowSum after all closes = %d, want 0", got)
	}
}

// TestBlockedWriteUnblocked covers the sender half of the watchdog
// contract: a Write parked in the credit wait is unwedged by a
// concurrent SetDeadline (ErrDeadline) or Close (ErrClosed).
func TestBlockedWriteUnblocked(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// The server grants a 2-frame window and never drains (draining
	// would regrant), so the third client symbol parks in acquireCredit.
	accept := func(ch *Channel) {
		ch.Accept(protocol.Hello{FullCopy: true})
		<-ch.w.Done()
	}
	park := func(t *testing.T, ch *Channel) chan error {
		t.Helper()
		for i := 0; i < 2; i++ {
			if err := protocol.WriteSymbol(ch, uint64(i), []byte("pay")); err != nil {
				t.Fatalf("symbol %d: %v", i, err)
			}
		}
		blocked := make(chan error, 1)
		go func() {
			blocked <- protocol.WriteSymbol(ch, 2, []byte("pay"))
		}()
		select {
		case err := <-blocked:
			t.Fatalf("third symbol did not block: %v", err)
		case <-time.After(30 * time.Millisecond):
		}
		return blocked
	}

	t.Run("SetDeadline", func(t *testing.T) {
		reg := obs.NewRegistry()
		w, shutdown := startPair(t, Config{Window: 2, Obs: reg}, Config{Window: 2}, accept)
		defer shutdown()
		ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		blocked := park(t, ch)
		ch.SetDeadline(time.Now())
		select {
		case err := <-blocked:
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("unblocked write = %v, want ErrDeadline", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("SetDeadline(now) did not unblock a credit-parked Write")
		}
		// The wait is on the record, as long as the park (the first write
		// may have found the peer's opening CREDIT still in flight: a
		// second, short one), and recording one allocates nothing.
		stall := reg.Histogram("peermux.credit_stall_seconds", nil)
		if n := stall.Count(); n < 1 || n > 2 || stall.Sum() < 0.03 {
			t.Errorf("credit_stall_seconds: %d observations summing to %.3fs, want the park's >= 0.03s",
				n, stall.Sum())
		}
		if avg := testing.AllocsPerRun(100, func() { w.met.stall.Observe(0.03) }); avg != 0 {
			t.Errorf("recording a credit stall allocates %.1f per call, want 0", avg)
		}
		ch.Close()
	})
	t.Run("Close", func(t *testing.T) {
		w, shutdown := startPair(t, Config{Window: 2}, Config{Window: 2}, accept)
		defer shutdown()
		ch, err := w.Open(protocol.Hello{ContentID: 1}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		blocked := park(t, ch)
		ch.Close()
		select {
		case err := <-blocked:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("unblocked write = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not unblock a credit-parked Write")
		}
	})
}

// TestMultiContentOneWireResizeFairness runs three contents over one
// wire with unequal windows and live resizes mid-transfer (the credit
// scheduler's actual access pattern), asserting every stream completes
// intact and the aggregate ledger settles to zero. Run under -race this
// is the concurrency gate on SetWindow vs deliver vs take.
func TestMultiContentOneWireResizeFairness(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total = 600
	w, shutdown := startPair(t, Config{Window: 64}, Config{Window: 64},
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
			if err := protocol.WriteFrame(ch, protocol.EncodeRequest(total)); err != nil {
				errs <- fmt.Errorf("request %d: %w", id, err)
				return
			}
			got := 0
			for {
				f, err := ch.Next()
				if err != nil {
					errs <- fmt.Errorf("content %d after %d symbols: %w", id, got, err)
					return
				}
				if f.Type == protocol.TypeDone {
					break
				}
				got++
				// Resizes in both directions while frames are in flight, as
				// when a node re-splits its window budget mid-transfer.
				switch got {
				case total / 3:
					ch.SetWindow(win * 2)
				case 2 * total / 3:
					ch.SetWindow(win / 2)
				}
			}
			if got != total {
				errs <- fmt.Errorf("content %d received %d symbols, want %d", id, got, total)
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
	deadline := time.Now().Add(2 * time.Second)
	for w.WindowSum() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := w.WindowSum(); got != 0 {
		t.Fatalf("WindowSum after all closes = %d, want 0", got)
	}
}
