package peermux

// slab_test.go pins the receive slabs: the wire's reader copies a
// channel's inbound frames back to back into pooled 64 KiB slabs, so a
// deep queue costs an allocation per slab, not per frame; a frame's view
// stays intact until the following Next; every slab goes back to the
// pool exactly once, on consumption or at Close; and the reader filling
// a slab's tail while the consumer reads its head is race-free.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// slabChannel is a channel on a wire whose reader is not running: the
// test plays the reader by calling deliver itself. Whatever the channel
// writes (its replenishing CREDITs) is read and dropped.
func slabChannel(t *testing.T) *Channel {
	t.Helper()
	a, b := net.Pipe()
	go io.Copy(io.Discard, b)
	t.Cleanup(func() { a.Close(); b.Close() })
	c := newChannel(newWire(a, nil, Config{}.withDefaults(), true), 1, 0)
	c.avail = 1 << 30 // the test's sender never runs out of credit
	return c
}

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
			seen[c.rslab] = true
		}
		for i := 0; i < frames; i++ {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}
		return len(seen)
	}
	perSlab := slabSize / size
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
		filled[c.rslab] = true
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
	if c.rslab != nil || len(c.in) != 0 {
		t.Fatal("a frame delivered after Close was copied in")
	}
}

// TestReceiveSlabsConcurrent runs the wire's reader and a channel's
// consumer concurrently over a real wire (under -race in CI): the sender
// streams numbered 1400 B frames through a 4096-frame window while the
// consumer pauses now and then, so the reader fills slabs ahead of it,
// and every frame must read back as sent, in order.
func TestReceiveSlabsConcurrent(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const total, size = 20000, 1400
	w, shutdown := startPair(t, Config{}, Config{}, func(ch *Channel) {
		if err := ch.Accept(protocol.Hello{ContentID: 1, FullCopy: true}); err != nil {
			return
		}
		if f, err := ch.Next(); err != nil || f.Type != protocol.TypeRequest {
			return
		}
		for i := 0; i < total; i++ {
			if err := protocol.WriteFrame(ch, numbered(i, size)); err != nil {
				return
			}
		}
		protocol.WriteFrame(ch, protocol.EncodeDone())
		ch.Next() // until the receiver hangs up
	})
	defer shutdown()
	ch, err := w.Open(protocol.Hello{ContentID: 1}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ch.SetDeadline(time.Now().Add(20 * time.Second))
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(total)); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		f, err := ch.Next()
		if err != nil {
			t.Fatalf("after %d frames: %v", i, err)
		}
		if f.Type == protocol.TypeDone {
			if i != total {
				t.Fatalf("DONE after %d frames, want %d", i, total)
			}
			return
		}
		if !bytes.Equal(f.Payload, numbered(i, size).Payload) {
			t.Fatalf("frame %d read back as frame %d", i, binary.LittleEndian.Uint64(f.Payload))
		}
		if i%1000 == 0 {
			time.Sleep(time.Millisecond) // let the reader run ahead
		}
	}
}
