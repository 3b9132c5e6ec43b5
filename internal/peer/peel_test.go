package peer

// peel_test.go covers the fold → peel receive pipeline: the working-set
// fold never waits behind the peel stage's XOR work, the hand-off costs
// no decode overhead, and the stage settles and stops on request.

import (
	"bytes"
	"testing"
	"time"

	"icd/internal/fountain"
)

// encodedSymbols returns count fresh symbols of the content, payloads
// owned by the caller.
func encodedSymbols(t *testing.T, info ContentInfo, data []byte, count int, streamSeed uint64) []fountain.Symbol {
	t.Helper()
	blocks, _, err := fountain.SplitIntoBlocks(data, info.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	code, err := fountain.NewCode(info.NumBlocks, nil, info.CodeSeed)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := fountain.NewEncoder(code, blocks, streamSeed)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]fountain.Symbol, count)
	for i := range syms {
		syms[i] = enc.Next()
	}
	return syms
}

// within fails the test unless done closes in time: a hang reads as a
// failure with a name, not as the package timeout.
func within(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out: %s", what)
	}
}

// TestFoldAdvancesWhilePeelHeld is the staleness invariant as a unit
// test: with the peel stage held (its goroutine not running, so nothing
// pushed at it is ever decoded) the fold loop still consumes every
// arrival and the working set — what refresh summaries are built from —
// advances by each of them. A loop that decoded inline, or settled the
// stage per batch, would hang here instead.
func TestFoldAdvancesWhilePeelHeld(t *testing.T) {
	const nBlocks, blockSize, batch = 256, 32, 16
	info, data := testContent(t, nBlocks, blockSize)
	o := NewOrchestrator(info.ID, FetchOptions{Batch: batch, DisableGossip: true})
	if err := o.ensureDecoder(info); err != nil {
		t.Fatal(err)
	}
	held := newPeelStage(o.decoder()) // never started: the stage is held

	// Fewer than n symbols: completion is impossible, so nothing may wait.
	syms := encodedSymbols(t, info, data, nBlocks-1, 1)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for _, sym := range syms[1:] {
			o.symbolCh <- incoming{id: sym.ID, data: sym.Data}
		}
		close(o.symbolCh)
	}()
	folded := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		folded <- o.foldLoop(held, incoming{id: syms[0].ID, data: syms[0].Data})
	}()
	within(t, "the fold loop consuming every arrival past a held peel stage", done)
	<-fed
	if err := <-folded; err != nil {
		t.Fatal(err)
	}
	if ids, _ := o.WorkingSet(); len(ids) != len(syms) || o.Progress() != len(syms) {
		t.Fatalf("working set at %d symbols (progress %d) after %d arrivals", len(ids), o.Progress(), len(syms))
	}
	if got := held.dec.Received(); got != 0 {
		t.Fatalf("held stage decoded %d symbols", got)
	}

	// Released, the stage works its backlog off in push order.
	go held.run()
	complete, err := held.push(nil, true)
	if err != nil || complete {
		t.Fatalf("settle: complete=%v err=%v, want neither on n-1 symbols", complete, err)
	}
	held.stop()
	if got := held.dec.Received(); got != len(syms) {
		t.Fatalf("released stage decoded %d of %d symbols", got, len(syms))
	}
}

// TestPeelStageStopsAtCompletion: the stage decodes in push order and
// not one symbol past the one that completes the content, however much
// is queued behind it — so the overhead it reports is a bare decoder's.
func TestPeelStageStopsAtCompletion(t *testing.T) {
	const nBlocks, blockSize = 128, 32
	info, data := testContent(t, nBlocks, blockSize)
	syms := encodedSymbols(t, info, data, 3*nBlocks, 2)
	code, err := fountain.NewCode(nBlocks, nil, info.CodeSeed)
	if err != nil {
		t.Fatal(err)
	}
	bare, _ := fountain.NewDecoder(code, blockSize)
	for _, sym := range syms {
		if bare.AddSymbol(sym); bare.Done() {
			break
		}
	}
	if !bare.Done() {
		t.Fatal("3n symbols did not complete the bare decoder")
	}

	dec, _ := fountain.NewDecoder(code, blockSize)
	p := newPeelStage(dec)
	p.push(syms, false) // all 3n queued before the stage starts
	go p.run()
	complete, err := p.push(nil, true)
	if err != nil || !complete {
		t.Fatalf("settle: complete=%v err=%v", complete, err)
	}
	p.stop()
	if dec.Received() != bare.Received() {
		t.Fatalf("stage decoded %d symbols, the bare decoder needed %d", dec.Received(), bare.Received())
	}
	got, err := fountain.JoinBlocks(dec.Blocks(), info.OrigLen)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decoded content differs (err=%v)", err)
	}
}

// TestPeelStageReportsDecoderError: a symbol the decoder rejects ends the
// stage, and the error reaches the next push.
func TestPeelStageReportsDecoderError(t *testing.T) {
	code, err := fountain.NewCode(8, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := fountain.NewDecoder(code, 32)
	p := newPeelStage(dec)
	go p.run()
	defer p.stop()
	if _, err := p.push([]fountain.Symbol{{ID: 1, Data: make([]byte, 31)}}, true); err == nil {
		t.Fatal("a wrong-size symbol must fail the stage")
	}
	if complete, err := p.push([]fountain.Symbol{{ID: 2, Data: make([]byte, 32)}}, true); err == nil || complete {
		t.Fatalf("after a failure: complete=%v err=%v, want the first error kept", complete, err)
	}
}

// TestFetchOverheadMatchesPlainDecoder: one full sender, so the decoder
// sees exactly the sender's stream in order — and the fetch must report
// the overhead a bare fountain.Decoder reports on that id sequence:
// completion is detected at the very symbol that brings it, the
// fold → peel hand-off inflates nothing.
func TestFetchOverheadMatchesPlainDecoder(t *testing.T) {
	const nBlocks, blockSize = 600, 64
	info, data := testContent(t, nBlocks, blockSize)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	// A server's first session streams from this seed (Server.serve).
	const firstStreamSeed = 1 * 0x9e3779b97f4a7c15
	bare, _ := fountain.NewDecoder(srv.code, blockSize)
	for _, sym := range encodedSymbols(t, info, data, 3*nBlocks, firstStreamSeed) {
		if bare.AddSymbol(sym); bare.Done() {
			break
		}
	}
	if !bare.Done() {
		t.Fatal("3n symbols did not complete the bare decoder")
	}

	pn := newPipeNet()
	defer pn.close()
	pn.add("full", front(srv))
	res, err := Fetch([]string{"full"}, info.ID, FetchOptions{Dial: pn.dial, DisableGossip: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	if res.DecodeOverhead != bare.Overhead() {
		t.Fatalf("fetch decode overhead %v, bare decoder on the same stream %v",
			res.DecodeOverhead, bare.Overhead())
	}
}
