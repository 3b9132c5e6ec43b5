package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoOnce serves one connection from ln: read everything, write it
// back, close.
func echoOnce(t *testing.T, ln net.Listener, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// The buffer must exceed any test message: net.Pipe writes are
		// synchronous, so echoing back a partial read while the client is
		// still mid-Write deadlocks both ends.
		buf := make([]byte, 256)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				conn.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
}

func TestPipeNetRoundTrip(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	echoOnce(t, ln, &wg)

	conn, err := pn.Dial("A")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("ping")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
	conn.Close()
	wg.Wait()

	if _, err := pn.Dial("B"); err == nil {
		t.Fatal("dial of unbound address succeeded")
	}
	if _, err := pn.Listen("A"); err == nil {
		t.Fatal("double bind succeeded")
	}
	ln.Close()
	if _, err := pn.Dial("A"); err == nil {
		t.Fatal("dial of closed listener succeeded")
	}
	if _, err := pn.Listen("A"); err != nil {
		t.Fatalf("rebinding a closed address: %v", err)
	}
}

func TestPipeNetAutoAddress(t *testing.T) {
	pn := NewPipeNet()
	ln1, err := pn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := pn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if ln1.Addr().String() == ln2.Addr().String() {
		t.Fatalf("auto addresses collide: %s", ln1.Addr())
	}
	if ln1.Addr().Network() != "pipe" {
		t.Fatalf("network = %q", ln1.Addr().Network())
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr := TCP{DialTimeout: 5 * time.Second}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind localhost: %v", err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	echoOnce(t, ln, &wg)
	conn, err := tr.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	wg.Wait()
}

func TestWrapDialFailDeterministic(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	outcomes := func(seed uint64) []bool {
		tr := Wrap(pn, Faults{Seed: seed, DialFailProb: 0.5})
		out := make([]bool, 40)
		for i := range out {
			conn, err := tr.Dial("A")
			out[i] = err == nil
			if conn != nil {
				conn.Close()
			}
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different outcome at dial %d", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("DialFailProb=0.5 produced %d/%d failures", fails, len(a))
	}
}

func TestWrapCorruptionFlipsBytes(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := bytes.Repeat([]byte{0xAA}, 4*corruptSpan) // past the first flip, wherever it falls
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(conn)
		}
	}()

	tr := Wrap(pn, Faults{Seed: 3, CorruptProb: 1})
	conn, err := tr.Dial("A")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("CorruptProb=1 delivered the stream unmodified")
	}
}

func TestWrapKillResetsMidStream(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	tr := Wrap(pn, Faults{Seed: 5, KillProb: 1, KillAfter: 64})
	conn, err := tr.Dial("A")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := make([]byte, 32)
	var wrote int
	var werr error
	for i := 0; i < 64; i++ {
		var n int
		n, werr = conn.Write(chunk)
		wrote += n
		if werr != nil {
			break
		}
	}
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("doomed conn wrote %d bytes, err=%v, want ErrInjected", wrote, werr)
	}
	if wrote >= 64*len(chunk) {
		t.Fatal("kill never fired")
	}
}

func TestWrapZeroFaultsTransparent(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	echoOnce(t, ln, &wg)
	tr := Wrap(pn, Faults{Seed: 1})
	conn, err := tr.Dial("A")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("clean")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("transparent wrapper altered data: %q", got)
	}
	conn.Close()
	wg.Wait()
}
