package icd

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd drives the whole pipeline through the facade:
// encode content, serve it from a full and a partial sender, fetch in
// parallel, and verify the bytes.
func TestPublicAPIEndToEnd(t *testing.T) {
	content := bytes.Repeat([]byte("informed content delivery "), 200)
	info, err := DescribeContent(0xABCD, content, 64)
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewFullServer(info, content)
	if err != nil {
		t.Fatal(err)
	}
	symbols, err := EncodeSymbols(info, content, info.NumBlocks/2, 99)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartialServer(info, symbols)
	if err != nil {
		t.Fatal(err)
	}

	var addrs []string
	for _, s := range []*Server{full, part} {
		mux := NewServerMux()
		if err := mux.Register(s); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mux.Serve(ln)
		}()
		t.Cleanup(func() {
			mux.Close()
			wg.Wait()
		})
		addrs = append(addrs, ln.Addr().String())
	}

	res, err := Fetch(addrs, info.ID, FetchOptions{Batch: 16, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, content) {
		t.Fatal("content mismatch through public API")
	}
}

// TestPublicAPISketchWorkflow exercises the §4 coarse estimation surface.
func TestPublicAPISketchWorkflow(t *testing.T) {
	a := RandomWorkingSet(1, 1000)
	b := a.Clone()
	for b.Len() < 1500 {
		b.Add(uint64(b.Len()) * 0x9E3779B97F4A7C15)
	}
	sa := BuildSketch(7, DefaultSketchSize, a)
	sb := BuildSketch(7, DefaultSketchSize, b)
	r, err := sa.Resemblance(sb)
	if err != nil {
		t.Fatal(err)
	}
	truth := a.Resemblance(b)
	if r < truth-0.15 || r > truth+0.15 {
		t.Fatalf("resemblance %.3f, truth %.3f", r, truth)
	}
}

// TestPublicAPIReconciliation exercises Bloom + ART through the facade.
func TestPublicAPIReconciliation(t *testing.T) {
	base := RandomWorkingSet(3, 4000)
	super := base.Clone()
	extra := RandomWorkingSet(4, 50)
	extra.Each(func(k uint64) { super.Add(k) })

	// Bloom path.
	bf := BuildBloomFilter(5, base, 8, 5)
	missing := bf.Missing(super)
	if len(missing) < 40 {
		t.Fatalf("bloom found %d of 50", len(missing))
	}
	// ART path.
	ta := BuildReconTree(DefaultReconParams, base)
	tb := BuildReconTree(DefaultReconParams, super)
	sum, err := ta.Summarize(ReconSummaryOptions{TotalBitsPerElement: 8, LeafBitsPerElement: 5})
	if err != nil {
		t.Fatal(err)
	}
	found, stats := tb.FindMissing(sum, 5)
	if len(found) < 25 {
		t.Fatalf("ART found %d of 50", len(found))
	}
	if stats.NodesVisited == 0 {
		t.Fatal("no stats")
	}
}

// TestPublicAPISimulation runs a small §6.3-style simulation through the
// facade.
func TestPublicAPISimulation(t *testing.T) {
	recv, send, err := TwoPeerScenario(11, 500, CompactStretch, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTransfer(TransferConfig{
		Receiver: recv,
		Senders:  []SenderSpec{{Set: send, Kind: RecodeMW}},
		Target:   TransferTarget(500),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("simulation did not complete")
	}
	if res.Overhead() < 1 {
		t.Fatalf("overhead %v", res.Overhead())
	}
}

// TestPublicAPICodec round-trips content through the fountain codec.
func TestPublicAPICodec(t *testing.T) {
	content := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 500)
	blocks, origLen, err := SplitIntoBlocks(content, 32)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(len(blocks), nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(code, blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(code, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !dec.Done(); i++ {
		if i > 5*len(blocks) {
			t.Fatal("stalled")
		}
		if _, err := dec.AddSymbol(enc.Next()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := JoinBlocks(dec.Blocks(), origLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("codec mismatch")
	}
}

// TestPublicAPIRecodeDegree checks the exported §5.4.2 degree helper.
func TestPublicAPIRecodeDegree(t *testing.T) {
	if OptimalRecodeDegree(1000, 0) != 1 {
		t.Fatal("d*(c=0) != 1")
	}
	if OptimalRecodeDegree(1000, 0.9) <= OptimalRecodeDegree(1000, 0.5) {
		t.Fatal("d* not increasing in c")
	}
}
