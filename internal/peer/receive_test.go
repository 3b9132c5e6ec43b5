package peer

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"icd/internal/obs"
	"icd/internal/protocol"
)

// foldStream folds every SYMBOL frame of stream the way a session does:
// read, view, fold. It reports how many were new.
func foldStream(t *testing.T, o *Orchestrator, st *PeerStats, summarized int, fr *protocol.FrameReader) (useful int) {
	t.Helper()
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return useful
		}
		if err != nil {
			t.Fatal(err)
		}
		id, data, err := protocol.SymbolView(f)
		if err != nil {
			t.Fatal(err)
		}
		a, on := o.fold(st, summarized, id, data)
		if !on {
			t.Fatalf("fold of symbol %d: the fetch is not on", id)
		}
		if a == arrivedNew {
			useful++
		}
	}
}

// settle lets every goroutine that is ready to run do so before an
// allocation count starts. testing.AllocsPerRun counts the whole process,
// and at GOMAXPROCS=1 a ready goroutine runs only once the test goroutine
// is descheduled, which can be inside the count: the runtime's cleanup of
// the unique package's maps (net/netip interns through it), readied at
// the start of every collection, allocates three objects when it runs.
func settle() { runtime.Gosched() }

// TestReceivePathZeroAlloc proves the per-frame receive hot path —
// FrameReader read, symbol view, fold — is allocation-free and copies
// nothing into the working set for arrivals it already holds: exactly
// what a session runs per duplicate frame. New symbols cost the slabs
// their copies go into and nothing per symbol, once the first handshake
// has reserved the log for the fetch. It also pins the other half of
// fold's contract: once the fetch finished, a fold counts nothing.
func TestReceivePathZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5C}, 1400)
	held := make(map[uint64][]byte)
	var buf bytes.Buffer
	for i := 0; i < 8; i++ {
		held[uint64(i)] = payload
		if err := protocol.WriteSymbol(&buf, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	fr := protocol.NewFrameReader(r)
	o := NewOrchestrator(1, FetchOptions{Initial: held, DisableGossip: true})
	s := newSession(o, "sender")
	_, before := o.WorkingSet()

	run := func() {
		r.Reset(stream)
		if useful := foldStream(t, o, s.stats, len(held), fr); useful != 0 {
			t.Fatalf("%d held symbols folded as new", useful)
		}
	}
	run() // warm the frame buffer
	settle()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("receive path allocates %.2f per loop, want 0", avg)
	}
	_, after := o.WorkingSet()
	if len(after) != len(before) {
		t.Fatalf("log grew from %d to %d symbols on duplicates", len(before), len(after))
	}
	for i := range after {
		if &after[i][0] != &before[i][0] {
			t.Fatalf("log entry %d was rewritten", i)
		}
	}
	// The warm-up above, AllocsPerRun's own and its 100 measured runs.
	const folded = 102 * 8
	if s.stats.UsefulSymbols != 0 || s.stats.SymbolsReceived != folded {
		t.Fatalf("session charged %d received, %d useful; want %d and 0", s.stats.SymbolsReceived, s.stats.UsefulSymbols, folded)
	}

	// New symbols, 1024 a run (AllocsPerRun folds two), into a log the
	// handshake reserved: by the measured run the log's slabs have doubled
	// to 1 MiB, which holds 748 of them, so ⌈1024·1400 / 1 MiB⌉ = 2.
	const batch = 1024
	if err := o.ensureDecoder(ContentInfo{ID: 1, NumBlocks: 4096, BlockSize: len(payload), OrigLen: 4096 * len(payload), CodeSeed: 1}); err != nil {
		t.Fatal(err)
	}
	var streams [2][]byte
	for run := range streams {
		var buf bytes.Buffer
		for i := 0; i < batch; i++ {
			if err := protocol.WriteSymbol(&buf, uint64(1000+run*batch+i), payload); err != nil {
				t.Fatal(err)
			}
		}
		streams[run] = buf.Bytes()
	}
	runs := 0
	fresh := func() {
		r.Reset(streams[runs])
		runs++
		if useful := foldStream(t, o, s.stats, len(held), fr); useful != batch {
			t.Fatalf("%d of %d new symbols folded as new", useful, batch)
		}
	}
	// The collector is held off while it runs: a cycle the new slabs
	// trigger allocates for the race detector's runtime, not for the fold.
	gc := debug.SetGCPercent(-1)
	settle()
	avg := testing.AllocsPerRun(1, fresh)
	debug.SetGCPercent(gc)
	if avg > 2 {
		t.Errorf("folding %d new symbols allocates %.0f times, want at most 2: 1 MiB slabs only", batch, avg)
	}
	ids, grown := o.WorkingSet()
	if len(ids) != len(held)+2*batch || !bytes.Equal(grown[len(grown)-1], payload) {
		t.Fatalf("the log holds %d symbols after two runs of %d new ones, want %d", len(ids), batch, len(held)+2*batch)
	}

	o.finish()
	received := s.stats.SymbolsReceived
	if a, on := o.fold(s.stats, len(held), 99, payload); a != arrivedLate || on {
		t.Fatalf("fold after the fetch finished: %v, on=%v", a, on)
	}
	if after, _ := o.WorkingSet(); len(after) != len(ids) || s.stats.SymbolsReceived != received {
		t.Fatal("a fold after the fetch finished was counted")
	}
}

// TestDuplicateCauses: a duplicate is charged to the one of two causes the
// session's last summary tells apart. An id sent twice on one session was
// in the log that session's summary covered by its second arrival — the
// sender ignored the summary, or sent against an older one: before_summary.
// An id two senders both deliver reaches the second session after its
// summary was built, from the other sender: since_summary, the collision
// no summary could have prevented.
func TestDuplicateCauses(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3A}, 64)
	stream := func(ids ...uint64) *protocol.FrameReader {
		var buf bytes.Buffer
		for _, id := range ids {
			if err := protocol.WriteSymbol(&buf, id, payload); err != nil {
				t.Fatal(err)
			}
		}
		return protocol.NewFrameReader(&buf)
	}
	reg := obs.NewRegistry()
	o := NewOrchestrator(1, FetchOptions{DisableGossip: true, Obs: reg})
	a, b := newSession(o, "a"), newSession(o, "b")
	counts := func() (before, since int64) {
		return o.met.dupBefore.Value(), o.met.dupSince.Value()
	}

	// Both sessions summarized an empty working set. a delivers 1..4.
	if useful := foldStream(t, o, a.stats, 0, stream(1, 2, 3, 4)); useful != 4 {
		t.Fatalf("a's first batch: %d useful, want 4", useful)
	}
	// b overlaps a on 3 and 4: learned from a since b's summary.
	if useful := foldStream(t, o, b.stats, 0, stream(3, 4, 5)); useful != 1 {
		t.Fatalf("b's batch: %d useful, want 1", useful)
	}
	if before, since := counts(); before != 0 || since != 2 {
		t.Fatalf("after two senders' overlap: before_summary=%d since_summary=%d, want 0 and 2", before, since)
	}
	// a refreshes its summary over all five, and is sent 2 again anyway.
	ids, _ := o.WorkingSet()
	if useful := foldStream(t, o, a.stats, len(ids), stream(2, 6)); useful != 1 {
		t.Fatalf("a's second batch: %d useful, want 1", useful)
	}
	if before, since := counts(); before != 1 || since != 2 {
		t.Fatalf("after a twice-sent id: before_summary=%d since_summary=%d, want 1 and 2", before, since)
	}
	if got, want := o.met.received.Value()-o.met.useful.Value(), int64(3); got != want {
		t.Fatalf("received − useful = %d, want the %d duplicates counted by cause", got, want)
	}
	for _, name := range []string{"peer.duplicates{cause=before_summary}", "peer.duplicates{cause=since_summary}"} {
		if reg.Counter(name).Value() == 0 {
			t.Fatalf("%s is not registered under that name", name)
		}
	}
}
