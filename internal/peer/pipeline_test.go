package peer

// pipeline_test.go pins the request depth: the window-derived cap
// (depthCap), the partial-sender AIMD ramp under it — additive increase
// on useful batches, multiplicative back-off on useless,
// duplicate-heavy, or NaN-rate batches, the [1, max] clamp — the
// full-sender depth that sits at the cap and follows it, and the live
// SetMax re-cap a window resize drives. The session-level case runs it
// end to end — pipelined, and stop-and-wait under a one-batch window —
// over a synchronous net.Pipe, the adversarial transport: a session
// writing REQUEST k+1 while the server still streams batch k would
// deadlock the pipe if nothing drained it, which is the wire's demux
// reader's job. Above the depth sits the fetch's need: decodeNeed is
// calibrated against what decodes of the default code actually take.

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"icd/internal/fountain"
	"icd/internal/testutil"
)

// TestDecodeNeedCalibration pins the 4 in decodeNeed(k) = k + ⌈4√k⌉: over
// k = 256 … 16384, with 40 streams of the default code each, decodeNeed
// lies between the p25 and the p90 of the symbol counts the decodes took.
// Below the p25 nearly every fetch would take a second round trip; above
// the p90 nearly every fetch would be sent symbols it no longer needs.
func TestDecodeNeedCalibration(t *testing.T) {
	t.Parallel() // two seconds of decoding, beside the package's waits
	const streams = 40
	for _, k := range []int{256, 1024, 4096, 16384} {
		code, err := fountain.NewCode(k, nil, uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([][]byte, k)
		for i := range blocks {
			blocks[i] = []byte{byte(i)}
		}
		took := make([]int, 0, streams)
		for stream := range streams {
			enc, err := fountain.NewEncoder(code, blocks, uint64(stream)+1)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := fountain.NewDecoder(code, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ; !dec.Done(); n++ {
				if _, err := dec.AddSymbol(enc.Next()); err != nil {
					t.Fatal(err)
				}
			}
			took = append(took, n)
		}
		slices.Sort(took)
		p25, p50, p90 := took[streams/4], took[streams/2], took[streams*9/10]
		need := decodeNeed(k)
		t.Logf("k=%d: decodeNeed %d (+%.3f), decodes took p25 %d (+%.3f), p50 %d (+%.3f), p90 %d (+%.3f)", k,
			need, float64(need-k)/float64(k), p25, float64(p25-k)/float64(k),
			p50, float64(p50-k)/float64(k), p90, float64(p90-k)/float64(k))
		if need < p25 || need > p90 {
			t.Errorf("k=%d: decodeNeed %d outside the p25..p90 of decodes, %d..%d", k, need, p25, p90)
		}
	}
}

// mustController builds a partial-sender (adaptive) controller.
func mustController(t *testing.T, max int, dupHigh float64) *PipelineController {
	t.Helper()
	return NewPipelineController(max, false, dupHigh)
}

func TestDepthCap(t *testing.T) {
	cases := []struct {
		window, batch, want int
	}{
		{window: 512, batch: 64, want: 8}, // the shipped defaults
		{window: 256, batch: 64, want: 4},
		{window: 64, batch: 64, want: 1},
		{window: 16, batch: 64, want: 1}, // floor: never zero
		{window: 40, batch: 16, want: 3}, // rounds up: 2 would idle 8 frames
		{window: 4096, batch: 64, want: 64},
		{window: 0, batch: 64, want: 1},
		{window: 128, batch: 0, want: 128}, // degenerate batch
	}
	for _, c := range cases {
		if got := depthCap(c.window, c.batch); got != c.want {
			t.Errorf("depthCap(%d, %d) = %d, want %d", c.window, c.batch, got, c.want)
		}
	}
}

// TestPipelineControllerFullSenderRunsAtCap: a full sender has nothing
// to probe for, so its depth is the cap from the first REQUEST, follows
// the cap both ways, and no batch outcome moves it.
func TestPipelineControllerFullSenderRunsAtCap(t *testing.T) {
	c := NewPipelineController(8, true, 0)
	if c.Depth() != 8 {
		t.Fatalf("full sender starts at depth %d, want the cap 8", c.Depth())
	}
	c.Observe(1, false)
	c.Observe(math.NaN(), true)
	if c.Depth() != 8 {
		t.Fatalf("a batch outcome moved a full sender's depth to %d", c.Depth())
	}
	c.SetMax(2)
	if c.Depth() != 2 {
		t.Fatalf("after the window shrank to 2 batches: depth %d", c.Depth())
	}
	c.SetMax(6)
	if c.Depth() != 6 {
		t.Fatalf("after the window grew to 6 batches: depth %d, want 6 at once", c.Depth())
	}
}

func TestPipelineControllerAdaptiveRamp(t *testing.T) {
	c := mustController(t, 8, 0.5)
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
	c := mustController(t, 8, 0.5)
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

func TestPipelineControllerSetMax(t *testing.T) {
	c := mustController(t, 16, 0.5)
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
	// Nonsense caps are ignored.
	c.SetMax(0)
	if c.Max() != 8 {
		t.Fatalf("SetMax(0) moved the cap to %d, want 8", c.Max())
	}
}

func TestPipelineControllerDefaults(t *testing.T) {
	// A nonsense cap admits one batch: the ramp has nowhere to go.
	c := mustController(t, 0, 0)
	for i := 0; i < 100; i++ {
		c.Observe(0, true)
	}
	if c.Depth() != 1 {
		t.Fatalf("cap 0 let the ramp reach %d, want 1", c.Depth())
	}
	// The default threshold backs off a 60% duplicate batch.
	c = mustController(t, 16, 0)
	for i := 0; i < 100; i++ {
		c.Observe(0, true)
	}
	c.Observe(0.6, true)
	if c.Depth() != 8 {
		t.Fatalf("after 0.6 dup rate depth %d, want 8", c.Depth())
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

func TestSessionAdaptiveRampCompletes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// A small batch so a window of 8 batches keeps requests in flight at
	// every batch boundary; a window of one batch is stop-and-wait, the
	// same loop at depth 1.
	for _, window := range []int{32, 4} {
		pn, _, data, res, err := fetchPipelined(t, 200, FetchOptions{
			Batch:         4,
			ChannelWindow: window,
			Timeout:       5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatalf("window %d: content mismatch", window)
		}
		if res.Peers[0].Err != nil {
			t.Fatalf("window %d: session error: %v", window, res.Peers[0].Err)
		}
		pn.close()
	}
}
