package peermux

// window_test.go pins what a channel enforces of a receiver's asks:
// several contents on one wire, each asking unequal amounts that change
// mid-transfer, complete intact without a charge. How much a session asks
// is the receiver's policy (the peer package's window); the channel only
// counts what was asked.

import (
	"fmt"
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

// TestMultiContentOneWireResizeFairness runs three contents over one
// wire, each asking a different amount per request and changing it in
// both directions mid-transfer (a node re-splitting its window budget),
// asserting every stream completes intact and nobody is charged. Run
// under -race this is the concurrency gate on Write's asks vs deliver
// vs Next.
func TestMultiContentOneWireResizeFairness(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total = 600
	var charges atomic.Int64
	w, shutdown := startPair(t, Config{Penalize: func(float64) { charges.Add(1) }}, Config{},
		serveSymbols(total, []byte("0123456789abcdef")))
	defer shutdown()

	asks := []int{4, 16, 64}
	var wg sync.WaitGroup
	errs := make(chan error, len(asks))
	for i, size := range asks {
		wg.Add(1)
		go func(id uint64, size int) {
			defer wg.Done()
			ch, err := w.OpenContext(timeoutCtx(t, 2*time.Second), protocol.Hello{ContentID: id})
			if err != nil {
				errs <- fmt.Errorf("open %d: %w", id, err)
				return
			}
			defer ch.Close()
			ch.SetDeadline(time.Now().Add(15 * time.Second))
			got, err := pull(ch, 0, total, false, func(got int) int {
				switch {
				case got < total/3:
					return size
				case got < 2*total/3:
					return size * 2
				}
				return size / 2
			})
			if err != nil {
				errs <- fmt.Errorf("content %d after %d symbols: %w", id, got, err)
			}
		}(uint64(i+1), size)
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
	if n := w.Channels(); n != 0 {
		t.Fatalf("channels after all closes = %d, want 0", n)
	}
}
