package peer

import (
	"bytes"
	"io"
	"testing"

	"icd/internal/protocol"
)

// TestReceivePathZeroAlloc proves the per-frame receive hot path —
// FrameReader read, symbol/recoded view, fold — is allocation-free and
// copies nothing into the working set for arrivals it already holds:
// exactly what a session runs per redundant frame. (A new regular symbol
// costs the one allocation the content requires: the buffer the log
// keeps.) It also pins the other half of fold's contract: once the fetch
// finished, a fold counts nothing.
func TestReceivePathZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5C}, 1400)
	held := make(map[uint64][]byte)
	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		held[uint64(i)], held[uint64(i+1)] = payload, payload
		if err := protocol.WriteSymbol(&buf, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
		if err := protocol.WriteRecoded(&buf, []uint64{uint64(i), uint64(i + 1)}, payload); err != nil {
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
		for {
			f, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if gained, on, err := s.foldFrame(f); err != nil || gained != 0 || !on {
				t.Fatalf("fold of a held %v: gained=%d on=%v err=%v", f.Type, gained, on, err)
			}
		}
	}
	run() // warm the frame buffer, the id scratch and the recode decoder's spare
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

	o.finish()
	received := s.stats.SymbolsReceived
	if gained, on := o.fold(s.stats, 99, nil, payload); gained != 0 || on {
		t.Fatalf("fold after the fetch finished: gained=%d on=%v", gained, on)
	}
	if ids, _ := o.WorkingSet(); len(ids) != len(before) || s.stats.SymbolsReceived != received {
		t.Fatal("a fold after the fetch finished was counted")
	}
}
