package peer

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"
	"time"

	"icd/internal/faultnet"
)

// connectionAttemptAllocs is what TestConnectionAttemptAllocs measures
// for one fetch over one fresh connection, both ends counted.
const connectionAttemptAllocs = 187

// TestConnectionAttemptAllocs pins what one connection attempt costs,
// both ends counted: a fetch of a 32-block content from a full Server
// behind a ServerMux over faultnet.PipeNet, on a private fabric, so the
// fetch is exactly one attempt — its session and attempt, the dial, the
// wire and its one channel at each end, the serving session, and the
// fetch's own orchestrator and decoder around them. Each run waits for
// the server's side of the connection to unwind, the pools are warm and
// the collector is held off, so the count is the connection's and the
// fetch's own. Skipped under the race detector, which sheds pooled
// buffers.
func TestConnectionAttemptAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector sheds pooled buffers")
	}
	info, data := testContent(t, 32, 256)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	mux := front(srv)
	pn := faultnet.NewPipeNet()
	ln, err := pn.Listen("provider")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served <- mux.ServeConn(conn)
		}
	}()
	opts := FetchOptions{Dial: pn.Dial, DisableGossip: true}
	attempt := func() {
		res, err := Fetch([]string{"provider"}, info.ID, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatal("content mismatch")
		}
		<-served
	}
	attempt() // warm the pools
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	settle()
	allocs := testing.AllocsPerRun(20, attempt)
	t.Logf("one connection attempt allocates %.1f times", allocs)
	if allocs > connectionAttemptAllocs {
		t.Errorf("one connection attempt allocates %.1f times, want at most %d", allocs, connectionAttemptAllocs)
	}
}

// TestOpenAnswerOrTimeout: the peer's answer to an open and the open's
// timeout each claim the open, and whichever comes second does nothing.
// An answer recorded before the timer checks is never cancelled as
// missing, and an answer that arrives after the timeout fired is not
// taken.
func TestOpenAnswerOrTimeout(t *testing.T) {
	o := NewOrchestrator(7, FetchOptions{Timeout: time.Hour})
	defer o.finish()
	s := newSession(o, "sender:1")

	answered := s.startAttempt()
	defer answered.end()
	answered.openBy = time.Now()
	if !answered.answered() {
		t.Fatal("an answer before the timeout was refused")
	}
	answered.tick()
	if err := context.Cause(answered.ctx); err != nil {
		t.Fatalf("an answered open was cancelled: %v", err)
	}

	late := s.startAttempt()
	defer late.end()
	late.openBy = time.Now()
	late.tick()
	if err := context.Cause(late.ctx); err != errOpenTimeout {
		t.Fatalf("an open past its timeout ended with %v, want %v", err, errOpenTimeout)
	}
	if late.answered() {
		t.Fatal("an answer after the timeout was taken")
	}
}
