package peer

// pipeline_test.go pins the AIMD request ramp: additive increase on
// useful batches, multiplicative back-off on useless, duplicate-heavy,
// or NaN-rate batches, the [1, max] clamp, fixed-depth (stop-and-wait)
// mode, the rejection of a fixed depth past the cap, and the live
// SetMax re-cap a credit scheduler drives. The session-level cases run
// the ramp end to end over a synchronous net.Pipe — the adversarial
// transport: a session writing REQUEST k+1 while the server still
// streams batch k would deadlock the pipe if nothing drained it, which
// is the wire's demux reader's job.

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"icd/internal/testutil"
)

func mustController(t *testing.T, depth, max int, dupHigh float64) *PipelineController {
	t.Helper()
	c, err := NewPipelineController(depth, max, dupHigh)
	if err != nil {
		t.Fatalf("NewPipelineController(%d, %d, %g): %v", depth, max, dupHigh, err)
	}
	return c
}

func TestPipelineControllerAdaptiveRamp(t *testing.T) {
	c := mustController(t, 0, 8, 0.5)
	if c.Depth() != 1 {
		t.Fatalf("adaptive ramp starts at %d, want 1", c.Depth())
	}
	// Additive increase: one per useful batch, capped at max.
	for i := 0; i < 20; i++ {
		c.Observe(0, true)
	}
	if c.Depth() != 8 {
		t.Fatalf("after 20 useful batches depth %d, want cap 8", c.Depth())
	}
	// Multiplicative back-off on a duplicate spike past the threshold.
	c.Observe(0.9, true)
	if c.Depth() != 4 {
		t.Fatalf("after dup spike depth %d, want 4", c.Depth())
	}
	// A dup rate at (not past) the threshold does not back off.
	c.Observe(0.5, true)
	if c.Depth() != 5 {
		t.Fatalf("at-threshold batch should grow: depth %d, want 5", c.Depth())
	}
	// Useless batches halve down to the floor of 1, never below.
	for i := 0; i < 5; i++ {
		c.Observe(0, false)
	}
	if c.Depth() != 1 {
		t.Fatalf("after useless run depth %d, want floor 1", c.Depth())
	}
}

func TestPipelineControllerNaNBacksOff(t *testing.T) {
	c := mustController(t, 0, 8, 0.5)
	for i := 0; i < 8; i++ {
		c.Observe(0, true)
	}
	if c.Depth() != 8 {
		t.Fatalf("setup: depth %d, want 8", c.Depth())
	}
	// A 0-symbol batch's 0/0 duplicate rate is NaN; every comparison
	// against the threshold is false, which used to read as "healthy,
	// grow". It must back off like a useless batch instead.
	c.Observe(math.NaN(), true)
	if c.Depth() != 4 {
		t.Fatalf("NaN dup rate grew the ramp: depth %d, want 4", c.Depth())
	}
}

func TestPipelineControllerFixedDepth(t *testing.T) {
	c := mustController(t, 1, 16, 0.5)
	for i := 0; i < 10; i++ {
		c.Observe(0, true)
		c.Observe(1, false)
	}
	if c.Depth() != 1 {
		t.Fatalf("fixed depth drifted to %d, want 1 (stop-and-wait)", c.Depth())
	}
	// A fixed depth above max is a configuration error, not a silent
	// clamp.
	if _, err := NewPipelineController(99, 16, 0.5); !errors.Is(err, ErrPipelineDepth) {
		t.Fatalf("fixed depth 99 over cap 16: err %v, want ErrPipelineDepth", err)
	}
	// At the cap is fine.
	if c := mustController(t, 16, 16, 0.5); c.Depth() != 16 {
		t.Fatalf("fixed depth at cap: %d, want 16", c.Depth())
	}
}

func TestPipelineControllerSetMax(t *testing.T) {
	c := mustController(t, 0, 16, 0.5)
	for i := 0; i < 20; i++ {
		c.Observe(0, true)
	}
	if c.Depth() != 16 {
		t.Fatalf("setup: depth %d, want 16", c.Depth())
	}
	// Lowering the cap pulls the current depth down with it.
	c.SetMax(4)
	if c.Depth() != 4 || c.Max() != 4 {
		t.Fatalf("after SetMax(4): depth %d max %d, want 4/4", c.Depth(), c.Max())
	}
	// Raising it lets the ramp grow again.
	c.SetMax(8)
	for i := 0; i < 10; i++ {
		c.Observe(0, true)
	}
	if c.Depth() != 8 {
		t.Fatalf("after SetMax(8) and growth: depth %d, want 8", c.Depth())
	}
	// Nonsense caps are ignored; fixed controllers ignore SetMax.
	c.SetMax(0)
	if c.Max() != 8 {
		t.Fatalf("SetMax(0) moved the cap to %d, want 8", c.Max())
	}
	f := mustController(t, 3, 16, 0.5)
	f.SetMax(1)
	if f.Depth() != 3 {
		t.Fatalf("SetMax on a fixed controller moved depth to %d, want 3", f.Depth())
	}
}

func TestPipelineControllerDefaults(t *testing.T) {
	c := mustController(t, 0, 0, 0)
	for i := 0; i < 100; i++ {
		c.Observe(0, true)
	}
	if c.Depth() != DefaultMaxPipelineDepth {
		t.Fatalf("default cap %d, want %d", c.Depth(), DefaultMaxPipelineDepth)
	}
	// The default threshold backs off a 60% duplicate batch.
	c.Observe(0.6, true)
	if c.Depth() != DefaultMaxPipelineDepth/2 {
		t.Fatalf("after 0.6 dup rate depth %d, want %d", c.Depth(), DefaultMaxPipelineDepth/2)
	}
}

// fetchPipelined fetches a fresh full sender's content over the pipe
// harness with the given pipeline options. The caller closes the net
// (before its goroutine-leak check runs).
func fetchPipelined(t *testing.T, nBlocks int, opts FetchOptions) (*pipeNet, string, []byte, *FetchResult, error) {
	t.Helper()
	info, data := testContent(t, nBlocks, 64)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	addr := pn.add("full-1", front(srv))
	opts.Dial = pn.dial
	res, err := Fetch([]string{addr}, info.ID, opts)
	return pn, addr, data, res, err
}

func TestSessionFixedDepthCompletes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	pn, _, data, res, err := fetchPipelined(t, 160, FetchOptions{
		Batch:         8,
		PipelineDepth: 4, // fixed, > 1: every batch boundary has requests in flight
		Timeout:       5 * time.Second,
	})
	defer pn.close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch over a pipelined session")
	}
	if res.Peers[0].Err != nil {
		t.Fatalf("session error: %v", res.Peers[0].Err)
	}
}

func TestSessionAdaptiveRampCompletes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// Adaptive ramp (depth 0) with a small batch so the ramp actually
	// climbs well past stop-and-wait before the transfer completes.
	pn, _, data, res, err := fetchPipelined(t, 200, FetchOptions{
		Batch:            4,
		MaxPipelineDepth: 8,
		Timeout:          5 * time.Second,
	})
	defer pn.close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch over adaptive ramp")
	}
}

func TestSessionFixedDepthOverCapIsTerminal(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	pn, addr, _, _, err := fetchPipelined(t, 40, FetchOptions{
		Batch:            8,
		PipelineDepth:    9,
		MaxPipelineDepth: 8,
		Timeout:          2 * time.Second,
		MaxReconnects:    3, // must not burn redials on a config error
	})
	defer pn.close()
	if err == nil {
		t.Fatal("fixed depth over cap fetched successfully, want ErrPipelineDepth")
	}
	if !errors.Is(err, ErrPipelineDepth) {
		t.Fatalf("err = %v, want ErrPipelineDepth", err)
	}
	if got := pn.dialCount(addr); got != 1 {
		t.Fatalf("config error burned %d dials, want 1 (terminal, no redial)", got)
	}
}
