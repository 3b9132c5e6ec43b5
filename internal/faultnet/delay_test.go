package faultnet

// delay_test.go exercises delivery-time propagation mode with the real
// clock and deliberately coarse assertions (half the modeled value as
// the floor, several multiples as the ceiling) so scheduler noise
// cannot flake them: a request/response exchange must pay the RTT every
// turn, a streamed burst must pay it roughly once, deadlines and Close
// must unblock delivery waits, and bytes must survive the pumps intact.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"icd/internal/testutil"
)

// delayPair builds a delivery-mode net with one-way path latency lat
// (split across the two endpoints), serves accepted conns at "b" with
// serve, and returns the dialed conn from "a" plus a cleanup to defer
// (after the goroutine check, so teardown precedes the leak scan).
func delayPair(t *testing.T, lat time.Duration, class LinkClass, serve func(net.Conn)) (net.Conn, func()) {
	t.Helper()
	net_ := NewShapedNet(7)
	net_.SetDeliveryLatency(true)
	class.Latency = lat / 2
	net_.SetDefaultClass(class)
	ln, err := net_.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	conn, err := net_.Node("a").Dial("b")
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	return conn, func() {
		conn.Close()
		ln.Close()
	}
}

// echoServe answers each received byte with one byte.
func echoServe(conn net.Conn) {
	defer conn.Close()
	buf := make([]byte, 1)
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

// TestDeliveryStopAndWaitPaysRTTPerTurn is the property the default
// cost model lacks: a one-byte request/response exchange pays the full
// RTT on every turn because each turn starts a new burst in each
// direction.
func TestDeliveryStopAndWaitPaysRTTPerTurn(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const oneWay = 20 * time.Millisecond
	const turns = 5
	conn, cleanup := delayPair(t, oneWay, LinkClass{}, echoServe)
	defer cleanup()

	start := time.Now()
	buf := make([]byte, 1)
	for i := 0; i < turns; i++ {
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("turn %d echoed %d", i, buf[0])
		}
	}
	elapsed := time.Since(start)
	// Each turn costs a full RTT (2 × oneWay); allow generous slack
	// below the modeled floor for timer coarseness.
	if floor := turns * oneWay * 2 * 8 / 10; elapsed < floor {
		t.Fatalf("stop-and-wait finished in %v, below the RTT floor %v", elapsed, floor)
	}
}

// TestDeliveryStreamingPaysRTTOnce: chunks written back-to-back ride
// one burst — total time is near a single one-way latency, nowhere near
// N × latency.
func TestDeliveryStreamingPaysRTTOnce(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const oneWay = 20 * time.Millisecond
	const chunks = 20
	done := make(chan struct{})
	conn, cleanup := delayPair(t, oneWay, LinkClass{}, func(c net.Conn) {
		defer c.Close()
		io.Copy(io.Discard, c)
		close(done)
	})
	defer cleanup()

	start := time.Now()
	payload := bytes.Repeat([]byte{0xA5}, 512)
	for i := 0; i < chunks; i++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the stream end")
	}
	elapsed := time.Since(start)
	if ceiling := chunks * oneWay / 4; elapsed > time.Duration(ceiling) {
		t.Fatalf("streaming %d chunks took %v — paying latency per chunk, not per burst (ceiling %v)",
			chunks, elapsed, ceiling)
	}
}

// TestDeliveryDeadlineUnblocksRead: a read deadline must cut both the
// wait for data and the wait for a stamped arrival.
func TestDeliveryDeadlineUnblocksRead(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	conn, cleanup := delayPair(t, 10*time.Millisecond, LinkClass{}, func(c net.Conn) {
		// Never writes; holds the conn open.
		buf := make([]byte, 1)
		c.Read(buf)
		c.Close()
	})
	defer cleanup()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := conn.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	// A deadline set while blocked (the watchdog pattern) must also wake
	// the reader.
	conn.SetReadDeadline(time.Time{})
	errc := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.SetReadDeadline(time.Now())
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("woken read err = %v, want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetReadDeadline did not wake the blocked read")
	}
}

// TestDeliveryDataIntegrity: rate caps, loss and latency reorder
// nothing — the byte stream survives the pumps exactly.
func TestDeliveryDataIntegrity(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	class := LinkClass{
		Jitter:   2 * time.Millisecond,
		UpBps:    4 << 20,
		DownBps:  4 << 20,
		LossProb: 0.05,
	}
	recv := make(chan []byte, 1)
	conn, cleanup := delayPair(t, 5*time.Millisecond, class, func(c net.Conn) {
		defer c.Close()
		data, _ := io.ReadAll(c)
		recv <- data
	})
	defer cleanup()

	want := make([]byte, 64<<10)
	for i := range want {
		want[i] = byte(i * 31)
	}
	for off := 0; off < len(want); off += 1000 {
		end := off + 1000
		if end > len(want) {
			end = len(want)
		}
		if _, err := conn.Write(want[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	select {
	case got := <-recv:
		if !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(want))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the stream end")
	}
}

// TestDeliveryCloseUnblocks: Close must wake a blocked reader with
// net.ErrClosed rather than stranding it.
func TestDeliveryCloseUnblocks(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	conn, cleanup := delayPair(t, 10*time.Millisecond, LinkClass{}, func(c net.Conn) {
		buf := make([]byte, 1)
		c.Read(buf)
		c.Close()
	})
	defer cleanup()
	errc := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after close = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the blocked read")
	}
}

// TestDeliveryChunkBuffersRecycled pins the instrument's own cost: a
// connection recycles its chunk buffers, so a frame-sized exchange in
// steady state allocates nothing — not a fresh (and freshly cleared)
// 32 KiB read-ahead buffer per delivered chunk, a copy per write, and —
// under the read deadline a wire always sets — a timer per wait for the
// next chunk. The data still has to come through intact with every
// chunk counted, and partial reads must hand a buffer back only once its
// last byte is out.
func TestDeliveryChunkBuffersRecycled(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const frame = 1400
	conn, cleanup := delayPair(t, 0, LinkClass{}, func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, frame)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	})
	defer cleanup()

	conn.SetReadDeadline(time.Now().Add(time.Minute))
	out, in := make([]byte, frame), make([]byte, frame)
	turns := 0
	turn := func() {
		turns++
		for i := range out {
			out[i] = byte(i + turns)
		}
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		// Two reads per chunk: the first leaves a tail pending in the
		// chunk's buffer, which must not be refilled under it.
		if _, err := io.ReadFull(conn, in[:100]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, in[100:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("turn %d: echoed frame corrupted", turns)
		}
	}
	for i := 0; i < 16; i++ {
		turn() // fill the free lists
	}
	if avg := testing.AllocsPerRun(200, turn); avg >= 0.5 {
		t.Errorf("%.2f allocations per exchanged chunk pair, want 0 (buffers recycled)", avg)
	}
	dc := conn.(*delayConn)
	if up, down := dc.UpStats(), dc.DownStats(); up.Chunks != int64(turns) || down.Chunks != int64(turns) ||
		up.Bytes != int64(turns*frame) || down.Bytes != int64(turns*frame) {
		t.Errorf("after %d turns: up %+v down %+v, want one chunk of %d bytes per turn each way", turns, up, down, frame)
	}
}
