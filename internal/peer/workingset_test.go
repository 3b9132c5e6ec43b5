package peer

// workingset_test.go pins the one partial-sender path: a Server recodes
// over a WorkingSetSource's log, whether NewPartialServer laid it out
// from a map or a fetch in progress is still appending to it, and the
// log's length is the only version it has.

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
	"time"

	"icd/internal/peermux"
	"icd/internal/protocol"
	"icd/internal/strategy"
)

// openSession opens one hand-driven session on srv.
func openSession(t *testing.T, srv *Server) *peermux.Channel {
	t.Helper()
	w, _, served := dialMux(t, front(srv), nil)
	t.Cleanup(func() { w.Close(); <-served })
	ch, err := w.Open(protocol.Hello{ContentID: srv.Info().ID}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// sendBloom informs the sender that the receiver holds held.
func sendBloom(t *testing.T, ch *peermux.Channel, held []uint64, refresh bool) {
	t.Helper()
	blob, err := strategy.BuildSummary(protocol.SummaryBloom, held)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeSummary(protocol.SummaryBloom, blob, refresh)); err != nil {
		t.Fatal(err)
	}
}

// requestBatch sends one REQUEST for n symbols and returns the RECODED
// frames (payload bytes, constituent lists included) answered before DONE.
func requestBatch(t *testing.T, ch *peermux.Channel, n int) [][]byte {
	t.Helper()
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(n))); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for {
		f, err := ch.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case protocol.TypeDone:
			return frames
		case protocol.TypeRecoded:
			frames = append(frames, bytes.Clone(f.Payload))
		default:
			t.Fatalf("unexpected %v", f.Type)
		}
	}
}

// TestStaticAndLiveSendersRecodeIdentically: NewPartialServer is
// NewLiveServer over a fixed log, so for one seed and one Bloom summary
// the two emit the same RECODED frames, byte for byte.
func TestStaticAndLiveSendersRecodeIdentically(t *testing.T) {
	info, data := testContent(t, 120, 48)
	syms := orderedSymbols(t, info, data, 96, 9)
	static, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	log := &fixedLog{}
	slices.SortFunc(syms, func(a, b idSym) int { return cmp.Compare(a.id, b.id) })
	var receiver []uint64
	for i, s := range syms {
		log.ids, log.payloads = append(log.ids, s.id), append(log.payloads, s.data)
		if i%3 == 0 {
			receiver = append(receiver, s.id)
		}
	}
	live, err := NewLiveServer(info, log)
	if err != nil {
		t.Fatal(err)
	}
	var streams [2][][]byte
	for i, srv := range []*Server{static, live} {
		ch := openSession(t, srv)
		if got := ch.RemoteHello(); got.FullCopy || got.Symbols != uint64(len(syms)) {
			t.Fatalf("hello = %+v, want a partial sender holding %d", got, len(syms))
		}
		sendBloom(t, ch, receiver, false)
		streams[i] = append(requestBatch(t, ch, 40), requestBatch(t, ch, 40)...)
		protocol.WriteFrame(ch, protocol.EncodeDone())
	}
	if len(streams[0]) != 80 {
		t.Fatalf("static sender answered %d recoded frames, want 80", len(streams[0]))
	}
	if !slices.EqualFunc(streams[0], streams[1], bytes.Equal) {
		t.Fatal("a static and a live sender over the same log emitted different recoded streams")
	}
}

// TestEmptyPlanIsRememberedUntilTheLogGrows: a sender whose whole log the
// receiver's summary covers plans once and remembers the empty answer —
// the REQUESTs of a pipeline do not each re-run the O(held) pass — until
// the log grows or a new SUMMARY arrives. The test sees a re-plan by
// breaking the log contract on purpose: it swaps the contents under an
// unchanged length, which a sender that takes the length for the version
// must not notice, and one that planned again would find useful and send.
func TestEmptyPlanIsRememberedUntilTheLogGrows(t *testing.T) {
	info, data := testContent(t, 120, 48)
	syms := orderedSymbols(t, info, data, 98, 10)
	held, fresh, extra, spare := syms[:32], syms[32:64], syms[64:65], syms[65:]
	log := &fixedLog{}
	set := func(parts ...[]idSym) {
		log.ids, log.payloads = nil, nil
		for _, s := range slices.Concat(parts...) {
			log.ids, log.payloads = append(log.ids, s.id), append(log.payloads, s.data)
		}
	}
	var receiver []uint64
	holds := func(syms []idSym) {
		for _, s := range syms {
			receiver = append(receiver, s.id)
		}
	}
	set(held)
	holds(held)
	srv, err := NewLiveServer(info, log)
	if err != nil {
		t.Fatal(err)
	}
	ch := openSession(t, srv)
	sendBloom(t, ch, receiver, false)
	if got := requestBatch(t, ch, 8); len(got) != 0 {
		t.Fatalf("a sender holding only what the receiver holds sent %d symbols", len(got))
	}
	// The session goroutine is parked in its next read: each swap is
	// ordered before the REQUEST that follows it.
	set(fresh)
	for i := 0; i < 3; i++ {
		if got := requestBatch(t, ch, 8); len(got) != 0 {
			t.Fatalf("request %d re-planned an unchanged log: %d symbols", i, len(got))
		}
	}
	// Growth is a new version.
	set(fresh, extra)
	if got := requestBatch(t, ch, 8); len(got) != 8 {
		t.Fatalf("a grown log answered %d symbols, want 8", len(got))
	}
	// So is a new summary over an unchanged log: the receiver now holds
	// all of it, the answer is empty again, and is remembered again.
	holds(fresh)
	holds(extra)
	sendBloom(t, ch, receiver, true)
	if got := requestBatch(t, ch, 8); len(got) != 0 {
		t.Fatalf("a refreshed summary covering the log still drew %d symbols", len(got))
	}
	set(spare)
	if got := requestBatch(t, ch, 8); len(got) != 0 {
		t.Fatalf("re-planned after a refresh without growth: %d symbols", len(got))
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
}
