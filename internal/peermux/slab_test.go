package peermux

// slab_test.go pins the receive slabs, which are a channel's inbound
// queue: the wire's reader copies a channel's inbound frames back to back
// into pooled 64 KiB slabs, so a deep queue costs an allocation per slab,
// not per frame, and an open channel with nothing queued holds none; a
// consumer that keeps up stays on one slab; a frame's view stays intact
// until the following Next; every slab goes back to the pool exactly
// once, on consumption or at Close; a frame past the queue bound is
// charged and dropped; and the reader filling a slab's tail while the
// consumer reads its head is race-free.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// slabChannel is a channel on a wire whose reader is not running: the
// test plays the reader by calling deliver itself. Whatever the wire
// writes is read and dropped.
func slabChannel(t *testing.T) *Channel {
	t.Helper()
	a, b := net.Pipe()
	go io.Copy(io.Discard, b)
	t.Cleanup(func() { a.Close(); b.Close() })
	c := newChannel(newWire(a, nil, Config{}.withDefaults(), true), 1, 0)
	c.avail = 1 << 30 // the test's sender sends only what was asked for
	return c
}

// lastSlab is the slab the wire's reader appends to.
func lastSlab(c *Channel) *slab { return c.q[len(c.q)-1] }

// numbered is a SYMBOL frame of size payload bytes, each holding i's low
// byte after i itself in the first eight.
func numbered(i, size int) protocol.Frame {
	p := bytes.Repeat([]byte{byte(i)}, size)
	binary.LittleEndian.PutUint64(p, uint64(i))
	return protocol.Frame{Type: protocol.TypeSymbol, Payload: p}
}

// TestReceiveSlabsAllocatePerSlab: 4096 queued 1400 B frames — a whole
// window at the default ceiling — lie in as many 64 KiB slabs as they
// need and no more, and queueing and draining them allocates at most one
// allocation per 64 KiB of payload, plus one.
func TestReceiveSlabsAllocatePerSlab(t *testing.T) {
	const frames, size = 4096, 1400
	c := slabChannel(t)
	payload := make([]byte, size)
	slabsFor := func() int {
		seen := make(map[*slab]bool)
		for i := 0; i < frames; i++ {
			c.deliver(protocol.Frame{Type: protocol.TypeSymbol, Payload: payload})
			seen[lastSlab(c)] = true
		}
		for i := 0; i < frames; i++ {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}
		return len(seen)
	}
	perSlab := slabSize / (frameHeader + size)
	if got, want := slabsFor(), (frames+perSlab-1)/perSlab; got != want {
		t.Fatalf("%d frames of %d B took %d slabs, want %d", frames, size, got, want)
	}
	bound := (frames*size+slabSize-1)/slabSize + 1
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < frames; i++ {
			c.deliver(protocol.Frame{Type: protocol.TypeSymbol, Payload: payload})
		}
		for i := 0; i < frames; i++ {
			c.Next()
		}
	})
	if allocs > float64(bound) {
		t.Fatalf("queueing and draining %d frames of %d B allocated %.0f times, want <= %d", frames, size, allocs, bound)
	}
}

// TestReceiveSlabViewStableUntilNext: a frame Next handed out stays intact
// while the reader fills its slab's tail and moves on to later slabs, and
// every frame reads back what was delivered while slabs are recycled
// through the pool underneath a queue that runs 100 frames deep.
func TestReceiveSlabViewStableUntilNext(t *testing.T) {
	const size, depth, frames = 1400, 100, 5000
	c := slabChannel(t)
	c.deliver(numbered(0, size))
	f, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= depth; i++ { // past the first slab's end: 46 frames fit one
		c.deliver(numbered(i, size))
	}
	if !bytes.Equal(f.Payload, numbered(0, size).Payload) {
		t.Fatal("a frame's view changed before the following Next")
	}
	for i := depth + 1; i < frames+depth; i++ {
		c.deliver(numbered(i, size))
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := numbered(i-depth, size).Payload; !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d read back as frame %d", i-depth, binary.LittleEndian.Uint64(f.Payload))
		}
	}
}

// TestReceiveSlabsCloseReleasesOnce: Close with a deep queue gives back
// every slab the channel filled — the one the last Next handed out from,
// those of the queued frames and the reader's — each exactly once (a
// second release panics), hands no queued frame out afterwards, and
// copies nothing that arrives later.
func TestReceiveSlabsCloseReleasesOnce(t *testing.T) {
	const frames, size = 4096, 1400
	c := slabChannel(t)
	filled := make(map[*slab]bool)
	for i := 0; i < frames; i++ {
		c.deliver(numbered(i, size))
		filled[lastSlab(c)] = true
	}
	for i := 0; i < 100; i++ { // the consumer is two slabs in
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for s := range filled {
		if !s.pooled {
			t.Fatalf("Close left one of the %d slabs the channel filled unreleased", len(filled))
		}
	}
	if _, err := c.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
	c.deliver(numbered(frames, size))
	if len(c.q) != 0 || c.queued != 0 {
		t.Fatal("a frame delivered after Close was copied in")
	}
}

// TestReceiveSlabsConcurrent runs the wire's reader and a channel's
// consumer concurrently over a real wire (under -race in CI): the sender
// streams numbered 1400 B frames, a 4096-frame window per REQUEST, while
// the consumer pauses now and then, so the reader fills slabs ahead of
// it, and every frame must read back as sent, in order.
func TestReceiveSlabsConcurrent(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total, size = 20000, 1400
	w, shutdown := startPair(t, Config{}, Config{}, func(ch *Channel) {
		if err := ch.Accept(protocol.Hello{ContentID: 1, FullCopy: true}); err != nil {
			return
		}
		for i := 0; ; {
			f, err := ch.Next()
			if err != nil || f.Type != protocol.TypeRequest {
				return // until the receiver hangs up
			}
			n, _ := protocol.DecodeRequest(f)
			for end := i + int(n); i < end; i++ {
				if err := protocol.WriteFrame(ch, numbered(i, size)); err != nil {
					return
				}
			}
			protocol.WriteFrame(ch, protocol.EncodeDone())
		}
	})
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ch.SetDeadline(time.Now().Add(20 * time.Second))
	i := 0
	check := func(f protocol.Frame) {
		if !bytes.Equal(f.Payload, numbered(i, size).Payload) {
			t.Fatalf("frame %d read back as frame %d", i, binary.LittleEndian.Uint64(f.Payload))
		}
		i++
		if i%1000 == 0 {
			time.Sleep(time.Millisecond) // let the reader run ahead
		}
	}
	for i < total {
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(min(ch.Window(), total-i)))); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := ch.Next()
			if err != nil {
				t.Fatalf("after %d frames: %v", i, err)
			}
			if f.Type == protocol.TypeDone {
				break
			}
			check(f)
		}
	}
	if i != total {
		t.Fatalf("%d frames, want %d", i, total)
	}
}

// TestOpenChannelHoldsNoQueue: an open channel holds no inbound queue
// before a frame arrives — building one allocates under 4 KiB, where a
// queue preallocated for the window ceiling cost about 166 KB.
func TestOpenChannelHoldsNoQueue(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := newWire(a, nil, Config{}.withDefaults(), true)
	chans := make([]*Channel, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range chans {
		chans[i] = newChannel(w, uint16(2*i+1), 0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(chans)); per >= 4<<10 {
		t.Fatalf("opening a channel allocated %d B before any frame arrived, want under 4 KiB", per)
	}
	runtime.KeepAlive(chans)
}

// TestReceiveSlabSteadyState: a consumer that keeps up — its next Next
// finds the queue empty — stays on one slab, reset in place, and one
// that lags up to
// 100 frames behind walks through slabs the pool hands back: 10,000
// interleaved deliver/Next calls of 1400 B frames allocate at most one
// slab per 64 KiB filled, plus one — and, where the pool keeps what it
// is given (off the race detector), next to nothing: the queue's slice
// of slabs shifts in place as its front is consumed, it does not regrow.
func TestReceiveSlabSteadyState(t *testing.T) {
	const frames, size, depth = 10000, 1400, 100
	c := slabChannel(t)
	frame := protocol.Frame{Type: protocol.TypeSymbol, Payload: make([]byte, size)}
	c.deliver(frame)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	one := c.q[0]
	c.SetDeadline(time.Now()) // a Next that finds the queue empty returns at once
	for i := 0; i < frames; i++ {
		c.deliver(frame)
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(); !errors.Is(err, ErrDeadline) {
			t.Fatalf("Next on an empty queue = %v, want ErrDeadline", err)
		}
		if len(c.q) != 1 || c.q[0] != one {
			t.Fatalf("after %d frames a consumer that keeps up holds %d slabs, not its one", i+1, len(c.q))
		}
	}
	lag := func() {
		for i := 0; i < frames; i++ {
			c.deliver(frame)
			if c.queued == depth {
				if _, err := c.Next(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for c.queued > 0 {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(3, lag)
	if bound := (frames*(frameHeader+size)+slabSize-1)/slabSize + 1; allocs > float64(bound) {
		t.Fatalf("%d frames through a queue up to %d deep allocated %.0f times, want <= %d", frames, depth, allocs, bound)
	}
	if !raceDetector && allocs > 4 {
		t.Fatalf("%d frames through a queue up to %d deep allocated %.0f times with the pool warm, want <= 4", frames, depth, allocs)
	}
}

// TestQueueBoundCharged: a channel whose consumer reads nothing queues
// DefaultWindow + queueSlack (4160) frames; frame 4161, though asked
// for, is charged and dropped, and the wire and the channel survive: the
// queued frames read back in order, and the next REQUEST is answered.
func TestQueueBoundCharged(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const bound = DefaultWindow + queueSlack
	var charges atomic.Int64
	w, shutdown := startPair(t, Config{Penalize: func(float64) { charges.Add(1) }}, Config{}, func(ch *Channel) {
		if ch.Accept(protocol.Hello{FullCopy: true}) != nil {
			return
		}
		var id uint64
		for {
			f, err := ch.Next()
			if err != nil || f.Type != protocol.TypeRequest {
				return
			}
			n, _ := protocol.DecodeRequest(f)
			for end := id + uint64(n); id < end; id++ {
				if protocol.WriteSymbol(ch, id, []byte("s")) != nil {
					return
				}
			}
			if ch.flush(false) != nil { // no DONE: the answer is symbols only
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
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(bound+1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for charges.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := charges.Load(); n != 1 {
		t.Fatalf("%d charges with %d frames asked for and none read, want 1: frame %d", n, bound+1, bound+1)
	}
	if got := queuedFrames(ch); got != bound {
		t.Fatalf("%d frames queued, want %d", got, bound)
	}
	ch.SetDeadline(time.Now().Add(5 * time.Second))
	want := func(id uint64) {
		t.Helper()
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("symbol %d: %v", id, err)
		}
		if got, _, err := protocol.SymbolView(f); err != nil || got != id {
			t.Fatalf("symbol %d read back as %d (%v)", id, got, err)
		}
	}
	for id := uint64(0); id < bound; id++ {
		want(id)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(1)); err != nil {
		t.Fatal(err)
	}
	want(bound + 1) // the dropped frame's id is gone
	if err := w.Err(); err != nil {
		t.Fatalf("wire died: %v", err)
	}
	if n := charges.Load(); n != 1 {
		t.Fatalf("%d charges, want 1", n)
	}
}
