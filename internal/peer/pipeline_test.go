package peer

// pipeline_test.go pins the request depth: the measured target under the
// window (requestDepth) — one round trip's worth of batches at the rate a batch arrives, its 1 µs
// service floor, and the guard that a short batch measures nothing. The
// session-level case runs the pipeline end to end — pipelined, and
// stop-and-wait under a one-batch window — over a synchronous net.Pipe,
// the adversarial transport: a session writing REQUEST k+1 while the
// server still streams batch k would deadlock the pipe if nothing
// drained it, which is the wire's demux reader's job. Above the depth
// sits the fetch's need: decodeNeed is calibrated against what decodes
// of the default code actually take.

import (
	"bytes"
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

// TestRequestDepth pins the measured depth target: one round trip's
// worth of batches at the rate a batch arrives, plus the one arriving,
// rounded up; a batch that came back short leaves the target as it was.
func TestRequestDepth(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	cases := []struct {
		name         string
		target, got  int
		rtt, service time.Duration
		want         int
	}{
		{name: "wan: a batch arrives in a fraction of the round trip", target: 1, got: 64, rtt: 20 * ms, service: 2 * ms, want: 11},
		{name: "rounds up", target: 1, got: 64, rtt: 21 * ms, service: 2 * ms, want: 12},
		{name: "a batch that takes as long as its round trip", target: 1, got: 64, rtt: 5 * ms, service: 5 * ms, want: 2},
		{name: "service past the round trip keeps two", target: 9, got: 64, rtt: 1 * ms, service: 100 * ms, want: 2},
		{name: "no round trip at all", target: 5, got: 64, rtt: 0, service: ms, want: 1},
		{name: "service floored at 1us", target: 1, got: 64, rtt: 3 * us, service: 0, want: 4},
		{name: "service just under the floor", target: 1, got: 64, rtt: 3 * us, service: 10, want: 4},
		{name: "short batch: a sender running dry", target: 3, got: 63, rtt: 20 * ms, service: us, want: 3},
		{name: "empty batch", target: 7, got: 0, rtt: 20 * ms, service: 0, want: 7},
	}
	for _, c := range cases {
		if got := requestDepth(c.target, c.got, 64, c.rtt, c.service); got != c.want {
			t.Errorf("%s: requestDepth(%d, %d, 64, %v, %v) = %d, want %d", c.name, c.target, c.got, c.rtt, c.service, got, c.want)
		}
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

func TestSessionPipelineCompletesOverPipe(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// A small batch so a window of 8 batches keeps requests in flight at
	// every batch boundary; a window of one batch is stop-and-wait, the
	// same loop at depth 1; a window of 6 asks a batch and the remainder,
	// and a window of one symbol asks a symbol at a time.
	for _, window := range []int{32, 4, 6, 1} {
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
