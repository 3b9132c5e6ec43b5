package peer

// peel_test.go covers the fold → peel receive path: sessions fold their
// own arrivals into the working set and never wait behind the peel
// stage's XOR work, the stage follows the log with a cursor at no decode
// overhead, and it settles, ends the fetch and stops when it should.

import (
	"bytes"
	"context"
	"slices"
	"sync"
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

// logOf is a fixed log for a bare peel stage to follow.
func logOf(syms []fountain.Symbol) func() ([]uint64, [][]byte) {
	log := new(symbolLog)
	for _, sym := range syms {
		log.add(sym.ID, sym.Data)
	}
	return log.WorkingSet
}

// TestFoldAdvancesWhilePeelHeld is the staleness invariant as a unit
// test: with the peel stage held (its goroutine not running, so nothing
// announced to it is ever decoded) every fold still returns and the
// working set — what refresh summaries are built from — advances by each
// arrival. A fold that decoded inline, or settled the stage below n
// symbols, would hang here instead.
func TestFoldAdvancesWhilePeelHeld(t *testing.T) {
	const nBlocks, blockSize = 256, 32
	info, data := testContent(t, nBlocks, blockSize)
	o := NewOrchestrator(info.ID, FetchOptions{})
	if err := o.ensureDecoder(info); err != nil {
		t.Fatal(err)
	}

	// Fewer than n symbols: completion is impossible, so nothing may wait.
	syms := encodedSymbols(t, info, data, nBlocks-1, 1)
	st := &PeerStats{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, sym := range syms {
			if a, on := o.fold(st, 0, sym.ID, sym.Data); a != arrivedNew || !on {
				t.Errorf("fold of a fresh symbol: %v, on=%v", a, on)
			}
		}
	}()
	within(t, "every fold returning past a held peel stage", done)
	if ids, _ := o.WorkingSet(); len(ids) != len(syms) || o.Progress() != len(syms) {
		t.Fatalf("working set at %d symbols (progress %d) after %d arrivals", len(ids), o.Progress(), len(syms))
	}
	if st.SymbolsReceived != len(syms) || st.UsefulSymbols != len(syms) {
		t.Fatalf("session charged %d received, %d useful, want %d of each", st.SymbolsReceived, st.UsefulSymbols, len(syms))
	}
	if got := o.peel.dec.Received(); got != 0 {
		t.Fatalf("held stage decoded %d symbols", got)
	}

	// Released, the stage works its backlog off in log order.
	go o.peel.run()
	complete, err := o.peel.announce(len(syms), true)
	if err != nil || complete {
		t.Fatalf("settle: complete=%v err=%v, want neither on n-1 symbols", complete, err)
	}
	o.peel.stop()
	if got := o.peel.dec.Received(); got != len(syms) {
		t.Fatalf("released stage decoded %d of %d symbols", got, len(syms))
	}
	if o.ctx.Err() != nil {
		t.Fatal("the stage ended a fetch it did not complete")
	}
}

// TestPeelStageStopsAtCompletion: the stage decodes in log order and not
// one symbol past the one that completes the content, however far the
// log reaches beyond it — so the overhead it reports is a bare decoder's
// — and it calls its end hook once, however often it is told more.
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
	ended := 0
	p := newPeelStage(logOf(syms), func() { ended++ })
	p.setDecoder(dec)
	p.announce(len(syms), false) // all 3n in the log before the stage starts
	go p.run()
	complete, err := p.announce(len(syms), true)
	if err != nil || !complete {
		t.Fatalf("settle: complete=%v err=%v", complete, err)
	}
	if complete, err := p.announce(len(syms), true); err != nil || !complete {
		t.Fatalf("after the end: complete=%v err=%v, want the completion kept", complete, err)
	}
	p.stop()
	if ended != 1 {
		t.Fatalf("end hook called %d times, want once", ended)
	}
	if dec.Received() != bare.Received() {
		t.Fatalf("stage decoded %d symbols, the bare decoder needed %d", dec.Received(), bare.Received())
	}
	got, err := dec.Content(info.OrigLen)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decoded content differs (err=%v)", err)
	}
}

// TestPeelStageReportsDecoderError: a symbol the decoder rejects ends the
// stage — one call of the end hook — and the error reaches every later
// announce.
func TestPeelStageReportsDecoderError(t *testing.T) {
	code, err := fountain.NewCode(8, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := fountain.NewDecoder(code, 32)
	ended := 0
	p := newPeelStage(logOf([]fountain.Symbol{
		{ID: 1, Data: make([]byte, 31)}, {ID: 2, Data: make([]byte, 32)},
	}), func() { ended++ })
	p.setDecoder(dec)
	go p.run()
	defer p.stop()
	if _, err := p.announce(1, true); err == nil {
		t.Fatal("a wrong-size symbol must fail the stage")
	}
	if complete, err := p.announce(2, true); err == nil || complete {
		t.Fatalf("after a failure: complete=%v err=%v, want the first error kept", complete, err)
	}
	if ended != 1 {
		t.Fatalf("end hook called %d times, want once", ended)
	}
}

// TestConcurrentFoldsLeaveTheUnion: two sessions' goroutines fold
// disjoint halves (and re-fold some of their own) at once. The log must
// end up holding exactly the union, each symbol charged as useful to the
// one session that brought it.
func TestConcurrentFoldsLeaveTheUnion(t *testing.T) {
	const nBlocks, blockSize, total, dups = 256, 32, 200, 20
	info, data := testContent(t, nBlocks, blockSize)
	o := NewOrchestrator(info.ID, FetchOptions{})
	if err := o.ensureDecoder(info); err != nil {
		t.Fatal(err)
	}
	go o.peel.run()
	defer o.peel.stop()

	syms := encodedSymbols(t, info, data, total, 3) // < n: the fetch stays on
	halves := [2][]fountain.Symbol{syms[:total/2], syms[total/2:]}
	var stats [2]PeerStats
	var wg sync.WaitGroup
	for i := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sym := range slices.Concat(halves[i], halves[i][:dups]) {
				o.fold(&stats[i], 0, sym.ID, sym.Data)
			}
		}()
	}
	wg.Wait()

	ids, payloads := o.WorkingSet()
	if len(ids) != total || o.Progress() != total {
		t.Fatalf("log holds %d symbols (progress %d), want the union of %d", len(ids), o.Progress(), total)
	}
	at := make(map[uint64][]byte, total)
	for i, id := range ids {
		at[id] = payloads[i]
	}
	for _, sym := range syms {
		if !bytes.Equal(at[sym.ID], sym.Data) {
			t.Fatalf("symbol %d missing from the log, or its payload differs", sym.ID)
		}
	}
	for i, st := range stats {
		if st.SymbolsReceived != total/2+dups || st.UsefulSymbols != total/2 {
			t.Fatalf("session %d charged %d received, %d useful; want %d and %d",
				i, st.SymbolsReceived, st.UsefulSymbols, total/2+dups, total/2)
		}
	}
	if _, err := o.peel.announce(total, true); err != nil {
		t.Fatal(err)
	}
	if got := o.peel.dec.Received(); got != total {
		t.Fatalf("stage decoded %d of %d symbols", got, total)
	}
}

// TestSessionBeforeRunFoldsThenDecodes: a session added before Run folds
// into the log with no Run to consume anything — it parks only where
// completion becomes possible — and Run, once started, decodes what it
// finds there.
func TestSessionBeforeRunFoldsThenDecodes(t *testing.T) {
	h := newHarness(t, 100, 48)
	full := h.addFull("full", 0)
	o := NewOrchestrator(h.info.ID, FetchOptions{Batch: 8, Timeout: 5 * time.Second, Dial: h.pn.dial})
	if err := o.AddPeer(full); err != nil {
		t.Fatal(err)
	}
	h.await("the session folding n symbols with no Run", 5*time.Second, func() bool {
		return o.Progress() >= h.info.NumBlocks
	})
	if got := o.peel.dec.Received(); got != 0 {
		t.Fatalf("%d symbols decoded before Run", got)
	}
	res, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.verify(res)
	if len(res.Peers) != 1 || res.Peers[0].UsefulSymbols != res.DistinctSymbols {
		t.Fatalf("peers %+v, %d distinct symbols", res.Peers, res.DistinctSymbols)
	}
}

// TestAllDuplicateSenderDroppedAfterMaxUselessBatches: progress is exact
// when a batch retires, so a sender whose every symbol the receiver
// already holds is given up after exactly MaxUselessBatches batches.
func TestAllDuplicateSenderDroppedAfterMaxUselessBatches(t *testing.T) {
	const batch, patience = 8, 3
	h := newHarness(t, 100, 48)
	held := partialSymbols(t, h.info, h.data, 40, 5)
	twin := h.addPartial("twin", 40, 5)
	res, err := Fetch([]string{twin}, h.info.ID, FetchOptions{
		Batch:             batch,
		MaxUselessBatches: patience,
		Initial:           held,
		Uninformed:        true, // the sender sends what it holds, which is what we hold
		Timeout:           5 * time.Second,
		Dial:              h.pn.dial,
	})
	if err == nil || res == nil || res.Completed {
		t.Fatalf("a fetch from a sender with nothing new: res=%+v err=%v", res, err)
	}
	st := res.Peers[0]
	if st.Err != nil || st.UsefulSymbols != 0 || st.SymbolsReceived != patience*batch {
		t.Fatalf("session %+v: want a clean exit after %d duplicates", st, patience*batch)
	}
	if len(res.Held) != len(held) {
		t.Fatalf("working set moved from %d to %d symbols", len(held), len(res.Held))
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
	want := firstStreamOverhead(t, srv, data, "full")

	pn := newPipeNet()
	defer pn.close()
	pn.add("full", front(srv))
	res, err := Fetch([]string{"full"}, info.ID, FetchOptions{Dial: pn.dial})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	if res.DecodeOverhead != want {
		t.Fatalf("fetch decode overhead %v, bare decoder on the same stream %v", res.DecodeOverhead, want)
	}
}

// firstStreamOverhead is the overhead a bare fountain.Decoder reports on
// the stream of srv's first session when the server's end of the
// connection reports addr as its own: the session number salted with
// that address (Server.serve) — a pipeNet listener's name, or a TCP
// listener's host:port.
func firstStreamOverhead(t *testing.T, srv *Server, data []byte, addr string) float64 {
	t.Helper()
	info := srv.Info()
	bare, _ := fountain.NewDecoder(srv.code, info.BlockSize)
	for _, sym := range encodedSymbols(t, info, data, 10*info.NumBlocks, (1^addrSeed(addr))*0x9e3779b97f4a7c15) {
		if bare.AddSymbol(sym); bare.Done() {
			return bare.Overhead()
		}
	}
	t.Fatal("10n symbols did not complete the bare decoder")
	return 0
}
