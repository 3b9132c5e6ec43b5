package peer

// workingset_test.go pins the one partial-sender path: a Server's session
// is a cursor on a WorkingSetSource's append-only log — whether
// NewPartialServer laid the log out from a map or a fetch in progress is
// still appending to it — and sends what the receiver's summary leaves
// missing as plain SYMBOL frames, each log position once. It also holds
// the log type's own contract and the tier-1 oracle for the paper's
// headline number.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"icd/internal/bloom"
	"icd/internal/peermux"
	"icd/internal/prng"
	"icd/internal/protocol"
)

// pipeAddr names one end of a test pipe.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// localConn reports local as the address of the serving end.
type localConn struct {
	net.Conn
	local net.Addr
}

func (c localConn) LocalAddr() net.Addr { return c.local }

// openSessionAt opens one hand-driven session on srv, whose end of the
// connection reports local as its own address.
func openSessionAt(t *testing.T, srv *Server, local string) *peermux.Channel {
	t.Helper()
	return openSessionOn(t, front(srv), srv.Info().ID, local)
}

// openSessionOn opens one hand-driven session on mux for content id, whose
// end of the connection reports local as its own address.
func openSessionOn(t *testing.T, mux *ServerMux, id uint64, local string) *peermux.Channel {
	t.Helper()
	return openHelloOn(t, mux, protocol.Hello{ContentID: id}, local)
}

// openHelloOn opens one hand-driven session on mux with the given OPEN,
// whose serving end reports local as its own address.
func openHelloOn(t *testing.T, mux *ServerMux, hello protocol.Hello, local string) *peermux.Channel {
	t.Helper()
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- mux.ServeConn(localConn{Conn: server, local: pipeAddr(local)})
		server.Close()
	}()
	w, err := peermux.Dial(client, peermux.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("fabric handshake: %v", err)
	}
	t.Cleanup(func() { w.Close(); <-served })
	ch, err := w.Open(hello, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// openSession opens one hand-driven session on srv.
func openSession(t *testing.T, srv *Server) *peermux.Channel {
	t.Helper()
	return openSessionAt(t, srv, "sender")
}

// filterBlob marshals a Bloom filter over held at the engine's operating
// point (8 bits per element, 5 hashes, seed 0), sized for held alone: a
// summary's blob, as a hand-driven receiver sends it.
func filterBlob(held []uint64) ([]byte, error) {
	filter := bloom.NewWithBitsPerElement(0, max(len(held), 1), 8, 5)
	for _, id := range held {
		filter.Add(id)
	}
	return filter.MarshalBinary()
}

// sendSummary informs the sender that the receiver holds held.
func sendSummary(t *testing.T, ch *peermux.Channel, held []uint64) {
	t.Helper()
	sendSlicedSummary(t, ch, held, 0, 0)
}

// sendSlicedSummary informs the sender that the receiver holds held and
// which slice of the id space it serves first.
func sendSlicedSummary(t *testing.T, ch *peermux.Channel, held []uint64, slice, of uint16) {
	t.Helper()
	blob, err := filterBlob(held)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeSummary(slice, of, blob)); err != nil {
		t.Fatal(err)
	}
}

// receiverFilter is the Bloom filter a receiver holding held sends, as
// the sender reads it.
func receiverFilter(t *testing.T, held []uint64) *bloom.Filter {
	t.Helper()
	blob, err := filterBlob(held)
	if err != nil {
		t.Fatal(err)
	}
	filter := new(bloom.Filter)
	if err := filter.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return filter
}

// requestBatch sends one REQUEST for n symbols and returns the symbols
// answered before DONE; anything but a SYMBOL or the DONE fails the test.
func requestBatch(t *testing.T, ch *peermux.Channel, n int) []idSym {
	t.Helper()
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(n))); err != nil {
		t.Fatal(err)
	}
	return readBatch(t, ch)
}

// readBatch returns the symbols read before the next DONE, passing over
// PEERS (the addresses other receivers announced, which a sender relays
// ahead of a batch); anything else fails the test.
func readBatch(t *testing.T, ch *peermux.Channel) []idSym {
	t.Helper()
	var got []idSym
	for {
		f, err := ch.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case protocol.TypeDone:
			return got
		case protocol.TypePeers:
		case protocol.TypeSymbol:
			id, data, err := protocol.SymbolView(f)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, idSym{id: id, data: bytes.Clone(data)})
		default:
			t.Fatalf("unexpected %v", f.Type)
		}
	}
}

func idsOf(syms []idSym) []uint64 {
	ids := make([]uint64, len(syms))
	for i, s := range syms {
		ids[i] = s.id
	}
	return ids
}

func logOfSyms(syms []idSym) *symbolLog {
	log := new(symbolLog)
	for _, s := range syms {
		log.add(s.id, s.data)
	}
	return log
}

// TestSymbolLogFollowsArrivalOrder: the log is the order ids were added,
// never map order — a partial sender's sessions walk it by position, so
// the same arrivals must give the same stream on every run — and an id
// it holds is not taken twice.
func TestSymbolLogFollowsArrivalOrder(t *testing.T) {
	log := new(symbolLog)
	want := make([]uint64, 0, 65)
	for i := 0; i < 64; i++ {
		id := uint64(i) * 0x9E3779B97F4A7C15 // scattered: map order would not be this
		log.add(id, []byte{byte(i)})
		want = append(want, id)
	}
	log.add(want[7], []byte{0xFF}) // held: left as it is
	got, payloads := log.WorkingSet()
	if !slices.Equal(got, want) {
		t.Fatalf("log ids = %v, want arrival order %v", got, want)
	}
	if len(payloads) != len(got) || payloads[7][0] != 7 {
		t.Fatalf("%d payloads beside %d ids, entry 7 = %v", len(payloads), len(got), payloads[7])
	}
	if pos, held := log.add(want[40], nil); !held || pos != 40 {
		t.Fatalf("adding entry 40 again = %d, %v; want its position, held", pos, held)
	}
	if _, held := log.index[12345]; held {
		t.Fatal("the log claims an id it was never given")
	}
	// Clipped to its length: appending to a view must not reach the log
	// entry written after it.
	log.add(99, nil)
	_ = append(got, 0xBAD)
	if ids, _ := log.WorkingSet(); ids[len(ids)-1] != 99 {
		t.Fatalf("an append to a view overwrote the log: last id %d", ids[len(ids)-1])
	}
}

// TestWorkingSetIsAdopted: a partial server and a fetch keep the
// payloads a caller hands them (NewPartialServer's symbols,
// FetchOptions.Initial) as they are: each held payload is a view of the
// caller's own backing array, clipped to its length, so an append to one
// cannot write past it; the log holds them in id order, as it did when it
// copied them; a payload of the wrong length is still refused; and a
// fetch's log indexes the adopted ids once the handshake reserves it, so
// an adopted id folds as held and a new one as new.
func TestWorkingSetIsAdopted(t *testing.T) {
	info, data := testContent(t, 120, 48)
	symbols := make(map[uint64][]byte)
	for _, s := range orderedSymbols(t, info, data, 64, 17) {
		p := make([]byte, len(s.data), 2*len(s.data)) // room an append must not reach
		copy(p, s.data)
		symbols[s.id] = p
	}
	check := func(who string, src WorkingSetSource) {
		t.Helper()
		ids, payloads := src.WorkingSet()
		ids, payloads = ids[:min(len(ids), len(symbols))], payloads[:min(len(ids), len(symbols))]
		if len(ids) != len(symbols) || !slices.IsSorted(ids) {
			t.Fatalf("%s holds %d ids (sorted: %v), want the %d given, in id order", who, len(ids), slices.IsSorted(ids), len(symbols))
		}
		for pos, id := range ids {
			p, given := payloads[pos], symbols[id]
			if &p[0] != &given[0] || len(p) != len(given) || cap(p) != len(given) {
				t.Fatalf("%s: payload %d is not the caller's, clipped (len %d, cap %d)", who, pos, len(p), cap(p))
			}
		}
	}
	srv, err := NewPartialServer(info, symbols)
	if err != nil {
		t.Fatal(err)
	}
	check("the partial server", srv.src)

	o := NewOrchestrator(info.ID, FetchOptions{Initial: symbols, DisableGossip: true})
	defer o.finish()
	check("the fetch", o)
	if o.log.index != nil {
		t.Fatal("the fetch indexed its working set before the handshake")
	}
	if err := o.ensureDecoder(info); err != nil {
		t.Fatal(err)
	}
	st := new(PeerStats)
	ids, _ := o.WorkingSet()
	if a, _ := o.fold(st, len(ids), ids[5], data[:info.BlockSize]); a == arrivedNew {
		t.Fatalf("adopted id %d folded as new", ids[5])
	}
	if a, _ := o.fold(st, len(ids), 1<<63, data[:info.BlockSize]); a != arrivedNew {
		t.Fatal("an id the fetch never held folded as held")
	}
	check("the fetch after a fold", o)

	for id := range symbols {
		symbols[id] = symbols[id][:info.BlockSize-1]
		break
	}
	if _, err := NewPartialServer(info, symbols); err == nil {
		t.Fatal("a partial server took a payload of the wrong length")
	}
}

// TestLogViewIsStableWhileTheLogGrows: a view taken at n symbols is a
// prefix of an append-only log — the same ids and the very same payload
// buffers after the log has grown far enough to reallocate its storage
// several times and to fill slabs — and reading it needs no lock against
// the growth (the second goroutine; run under -race). The log keeps its
// own copies, neighbours in a slab, and an append to one cannot write the
// next.
func TestLogViewIsStableWhileTheLogGrows(t *testing.T) {
	const n, more = 8, 4096
	log := new(symbolLog)
	payload := func(id uint64) []byte { return []byte{byte(id), byte(id >> 8), 0xA5, byte(id >> 4)} }
	given := payload(0)
	log.add(0, given)
	for id := uint64(1); id < n; id++ {
		log.add(id, payload(id))
	}
	ids, payloads := log.WorkingSet()
	wantIDs := slices.Clone(ids)
	wantPayloads := slices.Clone(payloads)
	if &payloads[0][0] == &given[0] {
		t.Fatal("the log keeps the caller's buffer, not a copy")
	}
	given[0] = 0xFF
	if payloads[0][0] != 0 {
		t.Fatal("a write to the caller's buffer reached the log")
	}
	if unsafe.Add(unsafe.Pointer(&payloads[0][0]), len(payloads[0])) != unsafe.Pointer(&payloads[1][0]) {
		t.Fatal("entries 0 and 1 are not neighbours in one slab")
	}
	grown := append(payloads[0], 0xEE)
	if !bytes.Equal(payloads[1], payload(1)) || &grown[0] == &payloads[0][0] {
		t.Fatalf("an append to entry 0 wrote entry 1 in place: %v", payloads[1])
	}

	read := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			for j, id := range ids {
				if id != wantIDs[j] || &payloads[j][0] != &wantPayloads[j][0] || !bytes.Equal(payloads[j], payload(id)) {
					read <- fmt.Errorf("view entry %d changed under growth: id %d", j, id)
					return
				}
			}
		}
		read <- nil
	}()
	for id := uint64(n); id < n+more; id++ {
		log.add(id, payload(id))
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if len(ids) != n || !slices.Equal(ids, wantIDs) {
		t.Fatalf("view ids = %v, want %v", ids, wantIDs)
	}
	for j := range payloads {
		if &payloads[j][0] != &wantPayloads[j][0] {
			t.Fatalf("view payload %d is no longer the buffer it was", j)
		}
	}
	all, _ := log.WorkingSet()
	if len(all) != n+more || !slices.Equal(all[:n], wantIDs) {
		t.Fatalf("the grown log (%d entries) does not start with the view", len(all))
	}
}

// TestCursorNeverWritesAPositionTwice: across growth, Bloom refreshes and
// an empty filter in between — which prunes nothing, so everything unsent
// is offered — no log position is written twice on one session, every
// payload goes out as the log holds it, and a session that was never told
// anything is sent the whole log exactly once.
func TestCursorNeverWritesAPositionTwice(t *testing.T) {
	info, data := testContent(t, 120, 48)
	syms := orderedSymbols(t, info, data, 160, 11)
	log := logOfSyms(syms[:60])
	srv, err := NewLiveServer(info, log)
	if err != nil {
		t.Fatal(err)
	}
	ch := openSession(t, srv)
	payloadOf := symbolMap(syms)
	seen := make(map[uint64]bool)
	take := func(what string, batch []idSym) {
		t.Helper()
		for _, s := range batch {
			if seen[s.id] {
				t.Fatalf("%s: symbol %d written twice on one session", what, s.id)
			}
			seen[s.id] = true
			if !bytes.Equal(s.data, payloadOf[s.id]) {
				t.Fatalf("%s: symbol %d's payload is not the log's", what, s.id)
			}
		}
	}
	grow := func(from, to int) {
		for _, s := range syms[from:to] {
			log.add(s.id, s.data)
		}
	}
	// The session goroutine is parked in its next read while the test
	// grows the log: each growth is ordered before the REQUEST behind it.
	take("no summary", requestBatch(t, ch, 25))
	sendSummary(t, ch, idsOf(syms[:10]))
	take("after a bloom", requestBatch(t, ch, 25))
	grow(60, 100)
	take("after growth", requestBatch(t, ch, 30))
	sendSummary(t, ch, nil)
	take("after an empty filter", requestBatch(t, ch, 30))
	grow(100, 160)
	sendSummary(t, ch, idsOf(syms[150:]))
	for i := 0; i < 4; i++ {
		take("draining", requestBatch(t, ch, 40))
	}
	if got := requestBatch(t, ch, 40); len(got) != 0 {
		t.Fatalf("a drained cursor still sent %d symbols", len(got))
	}
	// Every refresh re-tests all that is unsent, so only what the last
	// filter holds — syms[150:] and its few false positives — may be left.
	unsent := 0
	for _, s := range syms[:150] {
		if !seen[s.id] {
			unsent++
		}
	}
	if unsent > 10 {
		t.Fatalf("%d of the 150 symbols the last filter leaves missing were never sent", unsent)
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())

	// Told nothing, a session is sent the whole log, once.
	ch = openSession(t, srv)
	seen = make(map[uint64]bool)
	for i := 0; i < 5; i++ {
		take("uninformed", requestBatch(t, ch, 40))
	}
	if len(seen) != len(syms) {
		t.Fatalf("an uninformed session was sent %d of %d symbols", len(seen), len(syms))
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
}

// TestCursorSendsOnlyWhatTheSummaryLeavesMissing: no id the receiver's
// current Bloom filter holds is written, and an id one filter withheld —
// a false positive, as far as the sender can tell — is tested again at
// the next refresh and sent once a filter lets it through.
func TestCursorSendsOnlyWhatTheSummaryLeavesMissing(t *testing.T) {
	info, data := testContent(t, 120, 48)
	syms := orderedSymbols(t, info, data, 96, 12)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	ch := openSession(t, srv)
	held, withheld, missing := syms[:40], syms[40:48], syms[48:]
	sendSummary(t, ch, idsOf(syms[:48]))
	receiver := make(map[uint64]bool)
	for _, s := range syms[:48] {
		receiver[s.id] = true
	}
	first := requestBatch(t, ch, 30)
	if len(first) != 30 {
		t.Fatalf("first batch: %d symbols, want 30 of the %d missing", len(first), len(missing))
	}
	for _, s := range first {
		if receiver[s.id] {
			t.Fatalf("symbol %d is in the receiver's filter and was sent", s.id)
		}
	}
	// The refresh names held only: what the first filter withheld beyond
	// it is missing after all, and joins what is still pending.
	sendSummary(t, ch, idsOf(held))
	rest := append(requestBatch(t, ch, 64), requestBatch(t, ch, 64)...)
	sent := make(map[uint64]bool)
	for _, s := range slices.Concat(first, rest) {
		if sent[s.id] {
			t.Fatalf("symbol %d written twice", s.id)
		}
		sent[s.id] = true
	}
	for _, s := range held {
		if sent[s.id] {
			t.Fatalf("symbol %d is in the refreshed filter and was sent", s.id)
		}
	}
	for _, s := range withheld {
		if !sent[s.id] {
			t.Fatalf("symbol %d, withheld by the first filter only, was not re-tested at the refresh", s.id)
		}
	}
	// Bloom false positives can only withhold: at most a few of the 48.
	if len(sent) < len(withheld)+len(missing)-4 {
		t.Fatalf("%d of %d missing symbols sent", len(sent), len(withheld)+len(missing))
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
}

// TestCursorTestsOnlyAppendedIDs: a REQUEST that finds the log k longer
// asks the summary about exactly those k ids, one that finds it unchanged
// asks nothing — a dry cursor costs O(1) — and a new summary is asked
// about every unsent position, sent ones never.
func TestCursorTestsOnlyAppendedIDs(t *testing.T) {
	ids := make([]uint64, 300)
	for i := range ids {
		ids[i] = uint64(i) + 1000
	}
	var asked []uint64
	evens := func(id uint64) bool { // the receiver holds the odd ids
		asked = append(asked, id)
		return id%2 == 0
	}
	c := newCursor(1)
	c.aim(evens, 0, 0, ids[:100])
	if !slices.Equal(asked, ids[:100]) {
		t.Fatalf("the first summary was asked about %d ids, want the log's 100", len(asked))
	}
	if c.pending.len() != 50 || c.rest.len() != 0 {
		t.Fatalf("%d pending (%d rest) of 100 held, want the 50 even ids", c.pending.len(), c.rest.len())
	}
	asked = nil
	c.extend(ids[:100])
	if len(asked) != 0 {
		t.Fatalf("an unchanged log was tested again: %d ids", len(asked))
	}
	c.extend(ids[:130])
	if !slices.Equal(asked, ids[100:130]) {
		t.Fatalf("growth by 30 tested %d ids, want exactly the appended 30", len(asked))
	}
	if c.pending.len() != 65 {
		t.Fatalf("%d pending, want 65", c.pending.len())
	}
	// The appended survivors queue behind what was pending.
	for _, pos := range c.pending.pos[:50] {
		if pos >= 100 {
			t.Fatalf("appended position %d jumped the queue", pos)
		}
	}
	// Send 20, as sendHeld does; a refresh asks about the other 110.
	sentIDs := make(map[uint64]bool)
	for _, pos := range take(&c.pending, 20) {
		c.sent[pos] = true
		sentIDs[ids[pos]] = true
	}
	asked = nil
	c.aim(evens, 0, 0, ids[:130])
	if len(asked) != 110 {
		t.Fatalf("a refresh tested %d ids, want the 110 unsent", len(asked))
	}
	for _, id := range asked {
		if sentIDs[id] {
			t.Fatalf("a refresh re-tested id %d, already sent", id)
		}
	}
	if c.pending.len() != 45 {
		t.Fatalf("%d pending after the refresh, want 45", c.pending.len())
	}
	// A stretch the summary holds entirely adds nothing.
	asked = nil
	c.extend(append(slices.Clone(ids[:130]), 5001, 5003))
	if len(asked) != 2 || c.pending.len() != 45 {
		t.Fatalf("two held ids appended: asked %d, pending %d", len(asked), c.pending.len())
	}
}

// TestCursorServesItsSliceFirst: a sender told it is slice 1 of 3 sends
// every id the summary leaves missing that falls in that slice before
// any that does not, then the rest, each once — and nothing else.
func TestCursorServesItsSliceFirst(t *testing.T) {
	info, data := testContent(t, 400, 48)
	syms := orderedSymbols(t, info, data, 600, 21)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	receiver := idsOf(syms[:200])
	filter := receiverFilter(t, receiver)
	missing, inSlice := make(map[uint64]bool), 0
	for _, id := range idsOf(syms) {
		if filter.Contains(id) {
			continue
		}
		missing[id] = true
		if protocol.InSlice(id, 1, 3) {
			inSlice++
		}
	}
	if inSlice == 0 || inSlice == len(missing) {
		t.Fatalf("%d of %d missing ids in slice 1 of 3: nothing to order", inSlice, len(missing))
	}

	ch := openSession(t, srv)
	sendSlicedSummary(t, ch, receiver, 1, 3)
	var got []uint64
	for {
		batch := requestBatch(t, ch, 50)
		if len(batch) == 0 {
			break
		}
		got = append(got, idsOf(batch)...)
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
	seen := make(map[uint64]bool)
	for i, id := range got {
		if seen[id] {
			t.Fatalf("symbol %d sent twice", id)
		}
		seen[id] = true
		if !missing[id] {
			t.Fatalf("symbol %d sent, which the summary holds", id)
		}
		if protocol.InSlice(id, 1, 3) != (i < inSlice) {
			t.Fatalf("symbol %d (in slice: %v) sent %dth, with %d in slice", id, !(i < inSlice), i, inSlice)
		}
	}
	if len(got) != len(missing) {
		t.Fatalf("sent %d of the %d missing ids", len(got), len(missing))
	}
}

// take dequeues up to n positions of q.
func take(q *queue, n int) []int {
	var out []int
	for ; n > 0 && q.len() > 0; n-- {
		out = append(out, q.pop())
	}
	return out
}

// keepAll is a summary that leaves everything missing.
func keepAll(uint64) bool { return true }

// queued returns the ids at the positions q still holds, in send order.
func queued(q *queue, ids []uint64) []uint64 {
	var out []uint64
	for _, pos := range q.pos[q.head:] {
		out = append(out, ids[pos])
	}
	return out
}

// TestCursorSlicesAreDisjoint: two senders over overlapping logs, told
// they are slices 0 and 1 of 2, put disjoint ids first — each exactly
// what its log holds of its own slice — so the first transmissions of
// the two are never the same symbol.
func TestCursorSlicesAreDisjoint(t *testing.T) {
	rng := prng.New(5)
	pool := make([]uint64, 900)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	logs := [2][]uint64{pool[:600], pool[300:]}
	var first [2]map[uint64]bool
	for i, ids := range logs {
		c := newCursor(uint64(i) + 1)
		c.aim(keepAll, uint16(i), 2, ids)
		first[i] = make(map[uint64]bool)
		for _, id := range queued(&c.pending, ids) {
			first[i][id] = true
		}
		want := 0
		for _, id := range ids {
			if protocol.InSlice(id, uint16(i), 2) {
				want++
				if !first[i][id] {
					t.Fatalf("cursor %d: id %d of its slice not queued first", i, id)
				}
			}
		}
		if len(first[i]) != want || c.rest.len() != len(ids)-want {
			t.Fatalf("cursor %d: %d first and %d after, want %d and %d", i, len(first[i]), c.rest.len(), want, len(ids)-want)
		}
	}
	for id := range first[0] {
		if first[1][id] {
			t.Fatalf("id %d is first on both cursors", id)
		}
	}
}

// TestCursorReaimReslices: a summary naming a new slice reorders what is
// left to send — the new slice's unsent ids first, the old one's after —
// and a slice of one puts everything unsent first again; what was sent
// stays sent.
func TestCursorReaimReslices(t *testing.T) {
	rng := prng.New(6)
	ids := make([]uint64, 400)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	c := newCursor(1)
	c.aim(keepAll, 0, 2, ids)
	sent := make(map[uint64]bool)
	for _, pos := range take(&c.pending, 50) {
		c.sent[pos] = true
		sent[ids[pos]] = true
	}
	check := func(slice, of uint16) {
		t.Helper()
		c.aim(keepAll, slice, of, ids)
		first, after := queued(&c.pending, ids), queued(&c.rest, ids)
		if len(first)+len(after) != len(ids)-len(sent) {
			t.Fatalf("slice %d of %d: %d + %d queued, want the %d unsent", slice, of, len(first), len(after), len(ids)-len(sent))
		}
		for _, id := range first {
			if sent[id] || !protocol.InSlice(id, slice, of) {
				t.Fatalf("slice %d of %d: id %d first (sent: %v)", slice, of, id, sent[id])
			}
		}
		for _, id := range after {
			if sent[id] || protocol.InSlice(id, slice, of) {
				t.Fatalf("slice %d of %d: id %d after (sent: %v)", slice, of, id, sent[id])
			}
		}
	}
	check(1, 2)
	check(0, 1)
	if c.rest.len() != 0 {
		t.Fatalf("%d ids behind a slice of one", c.rest.len())
	}
}

// TestCursorReaimZeroAlloc: a cursor sizes its scratch and queues to the
// log at its first summary, so a refresh over a log that did not grow —
// a new filter, a new slice — allocates nothing.
func TestCursorReaimZeroAlloc(t *testing.T) {
	rng := prng.New(7)
	ids := make([]uint64, 2048)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	filter := receiverFilter(t, ids[:1024])
	missing := func(id uint64) bool { return !filter.Contains(id) }
	c := newCursor(1)
	c.aim(missing, 0, 2, ids)
	for _, pos := range take(&c.pending, 100) {
		c.sent[pos] = true
	}
	slice := uint16(0)
	if avg := testing.AllocsPerRun(20, func() {
		slice ^= 1
		c.aim(missing, slice, 2, ids)
	}); avg != 0 {
		t.Errorf("re-aiming over an unchanged log of %d allocates %.1f, want 0", len(ids), avg)
	}
}

// TestSendSkipsHeldIds: a refresh of the same width and slice keeps the
// cursor's queues as they are — the receiver's filter only took in ids —
// and an id it now holds is dropped unsent when its turn comes; a rebuilt
// filter (another width) or a moved slice re-aims everything unsent. The
// serving session tells the two apart by the filter's width: a summary
// of the same width re-tests nothing the last one withheld, one of
// another width brings it back.
func TestSendSkipsHeldIds(t *testing.T) {
	rng := prng.New(8)
	ids := make([]uint64, 600)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	var filter bloom.Filter
	decode := func(held []uint64, n int) {
		t.Helper()
		if err := filter.UnmarshalBinary(sizedFilterBlob(t, held, n)); err != nil {
			t.Fatal(err)
		}
	}
	missing := func(id uint64) bool { return !filter.Contains(id) }
	count := func() (n int) {
		for _, id := range ids {
			if missing(id) {
				n++
			}
		}
		return n
	}
	decode(ids[:200], 800)
	c := newCursor(1)
	c.aim(missing, 0, 1, ids)
	aimed := c.pending.len()
	if want := count(); aimed != want {
		t.Fatalf("%d queued after the first summary, want the %d it leaves missing", aimed, want)
	}

	decode(ids[:400], 800) // the same width: the receiver's filter grew
	c.refresh(missing, false, 0, 1, ids)
	if c.pending.len() != aimed {
		t.Fatalf("a refresh of the same width and slice re-aimed: %d queued, was %d", c.pending.len(), aimed)
	}
	var sink bytes.Buffer
	payloads := make([][]byte, len(ids))
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	met := newServeMetrics(nil)
	if err := sendHeld(&sink, &met, c, ids, payloads, len(ids)); err != nil {
		t.Fatal(err)
	}
	sent := readIDs(t, &sink)
	if want := count(); len(sent) != want {
		t.Fatalf("sent %d symbols, want the %d the latest summary leaves missing", len(sent), want)
	}
	for _, id := range sent {
		if !missing(id) {
			t.Fatalf("sent %d, which the latest summary holds", id)
		}
	}

	// Nothing is queued now. A rebuilt filter that holds less than the last
	// one (its false positives are other ids) re-tests every unsent id.
	decode(ids[:300], 1600)
	c.refresh(missing, true, 0, 1, ids)
	want := 0
	for pos, id := range ids {
		if !c.sent[pos] && missing(id) {
			want++
		}
	}
	if c.pending.len() != want || want == 0 {
		t.Fatalf("a rebuilt filter queued %d, want the %d unsent ids it leaves missing", c.pending.len(), want)
	}
	// A moved slice re-aims too, whatever the width: in-slice ids first.
	c.refresh(missing, false, 1, 2, ids)
	if c.pending.len()+c.rest.len() != want || c.rest.len() == 0 {
		t.Fatalf("a moved slice queued %d first and %d after, want %d in all", c.pending.len(), c.rest.len(), want)
	}
	for _, id := range queued(&c.pending, ids) {
		if !protocol.InSlice(id, 1, 2) {
			t.Fatalf("id %d queued first outside slice 1 of 2", id)
		}
	}

	// The serving session compares widths: what one summary withheld stays
	// withheld under another of the same width, and comes back under one of
	// another width.
	info, data := testContent(t, 120, 48)
	syms := orderedSymbols(t, info, data, 96, 16)
	held := idsOf(syms)
	slices.Sort(held)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		width int  // of the second summary; the first is sized for 200 ids
		back  bool // whether what the first withheld is sent
	}{{"same width", 200, false}, {"rebuilt", 400, true}} {
		ch := openSession(t, srv)
		writeSummary(t, ch, sizedFilterBlob(t, held[:48], 200))
		writeSummary(t, ch, sizedFilterBlob(t, held[48:64], tc.width))
		got := idsOf(requestBatch(t, ch, 96))
		protocol.WriteFrame(ch, protocol.EncodeDone())
		first := 0
		for _, id := range got {
			if slices.Contains(held[48:64], id) {
				t.Fatalf("%s: sent %d, which the second summary holds", tc.name, id)
			}
			if slices.Contains(held[:48], id) {
				first++
			}
		}
		// The second filter's false positives may withhold one or two.
		if back := first >= 46; back != tc.back || (!tc.back && first != 0) {
			t.Fatalf("%s: %d of the 48 ids the first summary withheld were sent", tc.name, first)
		}
	}
}

// sizedFilterBlob marshals a Bloom filter over held at the engine's
// operating point, sized for n ids: a summary's blob whose width a test
// chooses.
func sizedFilterBlob(t *testing.T, held []uint64, n int) []byte {
	t.Helper()
	filter := bloom.NewWithBitsPerElement(0, n, 8, 5)
	for _, id := range held {
		filter.Add(id)
	}
	blob, err := filter.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// writeSummary sends blob as a SUMMARY of the whole id space.
func writeSummary(t *testing.T, ch *peermux.Channel, blob []byte) {
	t.Helper()
	if err := protocol.WriteFrame(ch, protocol.EncodeSummary(0, 0, blob)); err != nil {
		t.Fatal(err)
	}
}

// readIDs reads the SYMBOL frames written into b up to its DONE.
func readIDs(t *testing.T, b *bytes.Buffer) []uint64 {
	t.Helper()
	fr := protocol.NewFrameReader(b)
	var ids []uint64
	for {
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == protocol.TypeDone {
			return ids
		}
		id, _, err := protocol.SymbolView(f)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
}

// TestPartialSlicesStayContiguous: a fetch's live partial sessions hold
// slices 0..s-1 of s in join order, however they join and leave; a
// session that is not among them is handed the whole space.
func TestPartialSlicesStayContiguous(t *testing.T) {
	o := NewOrchestrator(1, FetchOptions{DisableGossip: true})
	defer o.finish()
	ss := make([]*session, 5)
	for i := range ss {
		ss[i] = newSession(o, fmt.Sprint("partial", i))
	}
	check := func(live ...int) {
		t.Helper()
		for i, n := range live {
			if slice, of := o.sliceOf(ss[n]); int(slice) != i || int(of) != len(live) {
				t.Fatalf("session %d holds slice %d of %d, want %d of %d", n, slice, of, i, len(live))
			}
		}
	}
	o.joinPartials(ss[0])
	check(0)
	o.joinPartials(ss[1])
	o.joinPartials(ss[2])
	check(0, 1, 2)
	o.leavePartials(ss[1])
	check(0, 2)
	o.joinPartials(ss[3])
	check(0, 2, 3)
	o.leavePartials(ss[0])
	check(2, 3)
	o.joinPartials(ss[4])
	o.leavePartials(ss[3])
	check(2, 4)
	if slice, of := o.sliceOf(ss[1]); slice != 0 || of != 0 {
		t.Fatalf("a session that left holds slice %d of %d, want the whole space", slice, of)
	}
}

// TestResliceCostsOneRefreshPerSession: each session's OPEN carries its
// first summary, which names its slice; a partial session joining or
// leaving moves every other one's slice, and each of them tells its
// sender with exactly one SUMMARY at its next batch boundary. The
// staleness rule, which would refresh on its own, has nothing to refresh
// on: only p0's batches are ever answered, and a session's own sender's
// deliveries are no news to it (p1's OPEN round is never released, so no
// other sender delivers anything).
func TestResliceCostsOneRefreshPerSession(t *testing.T) {
	defer checkGoroutines(t)()
	pn := newPipeNet()
	p0, p1 := newDepthProbe(probeBlocks), newDepthProbe(probeBlocks)
	a0, a1 := pn.add("probe0", p0), pn.add("probe1", p1)
	initial := make(map[uint64][]byte)
	for i := range 32 {
		initial[1<<40+uint64(i)] = probeBlock
	}
	o := NewOrchestrator(2, FetchOptions{
		Dial: pn.dial, DisableGossip: true, Timeout: 10 * time.Second,
		Initial: initial,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.Run(ctx, a0)
	}()
	defer func() {
		cancel()
		<-done
		pn.close()
	}()
	opened := func(p *depthProbe, want summarySeen) {
		t.Helper()
		slice, slices, _, err := protocol.DecodeSummaryView(p.opened(t).Summary)
		if got := (summarySeen{slice, slices}); err != nil || got != want {
			t.Fatalf("sender's OPEN carried a summary of %+v (%v), want %+v", got, err, want)
		}
	}
	expect := func(p *depthProbe, want summarySeen) {
		t.Helper()
		select {
		case got := <-p.summaries:
			if got != want {
				t.Fatalf("sender read %+v, want %+v", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no summary reached the sender, want %+v", want)
		}
	}
	none := func(p *depthProbe) {
		t.Helper()
		select {
		case got := <-p.summaries:
			t.Fatalf("sender read %+v, want no summary", got)
		case <-time.After(150 * time.Millisecond):
		}
	}

	opened(p0, summarySeen{slice: 0, slices: 1})
	// Answer the OPEN's round and wait for p0's session to ask on: it is
	// past a batch boundary, and mid-batch until the next release.
	p0.release(1)
	select {
	case <-p0.reqs:
	case <-time.After(5 * time.Second):
		t.Fatal("p0's session asked for nothing after the OPEN's round")
	}
	if err := o.AddPeer(a1); err != nil {
		t.Fatal(err)
	}
	opened(p1, summarySeen{slice: 1, slices: 2})
	none(p1)
	none(p0) // the slice moved, but p0's session is mid-batch
	p0.release(1)
	expect(p0, summarySeen{slice: 0, slices: 2})
	p0.release(1)
	none(p0) // one refresh per re-slice, not one per boundary
	o.DropPeer(a1)
	for {
		o.mu.Lock()
		n := len(o.partials)
		o.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p0.release(2)
	expect(p0, summarySeen{slice: 0, slices: 1})
	none(p0)
	none(p1)
}

// TestStaticAndLiveSendersEmitIdenticalStreams: NewPartialServer is
// NewLiveServer over a fixed log, so for one seed, one address and one
// Bloom summary the two emit the same SYMBOL frames, byte for byte.
func TestStaticAndLiveSendersEmitIdenticalStreams(t *testing.T) {
	info, data := testContent(t, 120, 48)
	syms := orderedSymbols(t, info, data, 96, 9)
	static, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(syms)
	slices.SortFunc(sorted, func(a, b idSym) int {
		if a.id < b.id {
			return -1
		}
		return 1
	})
	var receiver []uint64
	for i, s := range sorted {
		if i%3 == 0 {
			receiver = append(receiver, s.id)
		}
	}
	live, err := NewLiveServer(info, logOfSyms(sorted))
	if err != nil {
		t.Fatal(err)
	}
	var streams [2][]idSym
	for i, srv := range []*Server{static, live} {
		ch := openSession(t, srv)
		if got := ch.RemoteHello(); got.FullCopy || got.Symbols != uint64(len(syms)) {
			t.Fatalf("hello = %+v, want a partial sender holding %d", got, len(syms))
		}
		sendSummary(t, ch, receiver)
		streams[i] = append(requestBatch(t, ch, 20), requestBatch(t, ch, 20)...)
		protocol.WriteFrame(ch, protocol.EncodeDone())
	}
	if len(streams[0]) != 40 {
		t.Fatalf("static sender answered %d symbols, want 40", len(streams[0]))
	}
	same := func(a, b idSym) bool { return a.id == b.id && bytes.Equal(a.data, b.data) }
	if !slices.EqualFunc(streams[0], streams[1], same) {
		t.Fatal("a static and a live sender over the same log emitted different streams")
	}
}

// TestMirrorsWalkTheLogInDifferentOrders: every Server numbers its
// sessions from 1, so the order seed is salted with the server's own
// address as the connection sees it — two fresh mirrors of one log hand a
// receiver different first batches, and the same log, address and session
// number the same one twice.
func TestMirrorsWalkTheLogInDifferentOrders(t *testing.T) {
	info, data := testContent(t, 120, 48)
	symbols := symbolMap(orderedSymbols(t, info, data, 96, 13))
	firstBatch := func(addr string) []uint64 {
		srv, err := NewPartialServer(info, symbols)
		if err != nil {
			t.Fatal(err)
		}
		ch := openSessionAt(t, srv, addr)
		defer protocol.WriteFrame(ch, protocol.EncodeDone())
		return idsOf(requestBatch(t, ch, 32))
	}
	a, again, b := firstBatch("mirror-a:9000"), firstBatch("mirror-a:9000"), firstBatch("mirror-b:9000")
	if len(a) != 32 {
		t.Fatalf("first batch: %d symbols, want 32", len(a))
	}
	if !slices.Equal(a, again) {
		t.Fatal("the same log, address and session number gave two different schedules")
	}
	if slices.Equal(a, b) {
		t.Fatal("two mirrors at different addresses walk the log in step")
	}
	common := 0
	for _, id := range a {
		if slices.Contains(b, id) {
			common++
		}
	}
	// Two independent 32-of-96 draws share about 11.
	if common > 24 {
		t.Fatalf("the mirrors' first batches share %d of 32 symbols", common)
	}
}

// TestDrySenderIsDroppedAndLiveOneResumes: a static sender whose whole
// log the receiver holds answers each REQUEST with a bare DONE, and the
// session gives it up after exactly MaxUselessBatches of them; a live
// sender in the same position resumes as soon as its log grows.
func TestDrySenderIsDroppedAndLiveOneResumes(t *testing.T) {
	h := newHarness(t, 120, 48)
	syms := orderedSymbols(t, h.info, h.data, 80, 14)
	static, err := NewPartialServer(h.info, symbolMap(syms[:64]))
	if err != nil {
		t.Fatal(err)
	}
	mux := front(static)
	reg := observe(mux)
	h.pn.add("dry", mux)
	const patience = 3
	res, err := Fetch([]string{"dry"}, h.info.ID, FetchOptions{
		Dial: h.pn.dial, Batch: 16, Timeout: 10 * time.Second, DisableGossip: true,
		Initial: symbolMap(syms[:64]), MaxUselessBatches: patience,
	})
	if err == nil || res == nil || res.Completed {
		t.Fatalf("a fetch from a sender with nothing new: res=%v err=%v, want incomplete", res, err)
	}
	if p := res.Peers[0]; p.SymbolsReceived != 0 || p.Err != nil {
		t.Fatalf("the dry sender's session: received %d, err %v; want a clean end on empty batches", p.SymbolsReceived, p.Err)
	}
	if dry := reg.Counter("serve.batches{kind=dry}").Value(); dry != patience {
		t.Fatalf("the dry sender answered %d empty batches before it was dropped, want MaxUselessBatches = %d", dry, patience)
	}
	if sent := reg.Counter("serve.symbols_sent").Value(); sent != 0 {
		t.Fatalf("the dry sender sent %d symbols the receiver's filter holds", sent)
	}

	log := logOfSyms(syms[:64])
	live, err := NewLiveServer(h.info, log)
	if err != nil {
		t.Fatal(err)
	}
	liveMux := front(live)
	liveReg := observe(liveMux)
	ch := openSessionOn(t, liveMux, h.info.ID, "sender")
	sendSummary(t, ch, idsOf(syms[:64]))
	for i := 0; i < 2; i++ {
		if got := requestBatch(t, ch, 16); len(got) != 0 {
			t.Fatalf("a sender holding only what the receiver holds sent %d symbols", len(got))
		}
	}
	for _, s := range syms[64:] {
		log.add(s.id, s.data)
	}
	got := idsOf(requestBatch(t, ch, 32))
	slices.Sort(got)
	want := idsOf(syms[64:])
	slices.Sort(want)
	// A false positive of the filter may withhold one or two of the 16.
	if len(got) < len(want)-2 {
		t.Fatalf("a grown log answered %d symbols, want the %d it gained", len(got), len(want))
	}
	for _, id := range got {
		if !slices.Contains(want, id) {
			t.Fatalf("a grown log answered symbol %d, which the receiver's filter holds", id)
		}
	}
	if dry := liveReg.Counter("serve.batches{kind=dry}").Value(); dry != 2 {
		t.Fatalf("serve.batches{kind=dry} = %d, want 2", dry)
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
}

// TestSendHeldZeroAlloc: a cursor's symbols go to the wire from the log's
// own buffers — sendFull's standard, 0 allocations per symbol sent.
func TestSendHeldZeroAlloc(t *testing.T) {
	info, data := testContent(t, 120, 1400)
	syms := orderedSymbols(t, info, data, 64, 15)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	ids, payloads := srv.src.WorkingSet()
	c := newCursor(1)
	c.extend(ids)
	n := c.pending.len()
	var sink bytes.Buffer
	met := newServeMetrics(nil)
	run := func() {
		sink.Reset()
		c.pending.head = 0
		if err := sendHeld(&sink, &met, c, ids, payloads, n); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the frame buffer and the sink
	// The standard is the bare frame writes: protocol.WriteSymbol's buffer
	// pool sheds under the race detector, and then nothing can be pinned.
	if base := testing.AllocsPerRun(50, func() {
		sink.Reset()
		for i := range n {
			protocol.WriteSymbol(&sink, ids[i], payloads[i])
		}
	}); base != 0 {
		t.Skipf("bare frame writes allocate %.2f per batch here", base)
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("sendHeld allocates %.2f per batch of %d symbols, want 0", avg, n)
	}
}

// TestPartialSwarmUsefulRatio is the tier-1 oracle for the paper's
// headline number — with a summary, nearly every received symbol is
// useful — on the benchmark's partial_swarm shape at k=1024: no full
// sender; the client holds ids[0:k/2], sender A ids[k/4:k], sender B
// ids[3k/4:3k/2], so both overlap the client and each other. Each sender
// serves its own slice of the id space first, so the two spend their
// first transmissions on disjoint ids. Twenty seeds, every one of which
// must decode: fewer cannot tell a sender that sends once across the
// swarm (about 0.94) from one that sends once per session (about 0.89).
func TestPartialSwarmUsefulRatio(t *testing.T) {
	const k, blockSize = 1024, 64
	received, useful := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		h := newHarness(t, k, blockSize)
		pool := orderedSymbols(t, h.info, h.data, 3*k/2, seed)
		for addr, held := range map[string][]idSym{"A": pool[k/4 : k], "B": pool[3*k/4:]} {
			srv, err := NewPartialServer(h.info, symbolMap(held))
			if err != nil {
				t.Fatal(err)
			}
			h.pn.add(addr, front(srv))
		}
		res, err := Fetch([]string{"A", "B"}, h.info.ID, FetchOptions{
			Dial: h.pn.dial, Timeout: 10 * time.Second, DisableGossip: true,
			Initial: symbolMap(pool[:k/2]),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h.verify(res)
		for _, p := range res.Peers {
			received += p.SymbolsReceived
			useful += p.UsefulSymbols
		}
		h.pn.close()
	}
	ratio := float64(useful) / float64(received)
	t.Logf("useful ratio %.3f (%d of %d received)", ratio, useful, received)
	if ratio < 0.92 {
		t.Fatalf("useful ratio %.3f, want ≥ 0.92", ratio)
	}
}

// TestRequestWithNoNewsZeroAlloc: a REQUEST that brings no news — to a
// warm full sender, encoding a fresh stream or replaying its closed
// stream prefix, or to a partial sender whose log did not grow, while the
// gossip directory did not change since the last relay — allocates
// nothing on either end of the channel: not to relay, not to pick
// symbols, not to frame, move or read them. A full sender's session that
// extends its open prefix, a fresh fetch's first, allocates the prefix's
// slabs and grows its two slices as it goes: a bounded number of times
// for the whole session, never once per symbol.
func TestRequestWithNoNewsZeroAlloc(t *testing.T) {
	// The standard is bare frame writes: buffer pools shed under the race
	// detector, and then nothing pooled can be pinned.
	payload := make([]byte, 1400)
	if base := testing.AllocsPerRun(50, func() {
		for i := 0; i < 4; i++ {
			protocol.WriteSymbol(io.Discard, 1, payload)
		}
	}); base != 0 {
		t.Skipf("bare frame writes allocate %.2f per 4 here", base)
	}
	info, data := testContent(t, 120, 1400)
	full, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := NewPartialServer(info, symbolMap(orderedSymbols(t, info, data, 512, 3)))
	if err != nil {
		t.Fatal(err)
	}
	// The replaying sender's prefix closed at 240 symbols, more than the
	// 236 a session below asks for, first sent to a receiver that
	// announced no listen address. One that announces one is sent a fresh
	// stream.
	replay, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	replay.cache.asked.Store(true)
	(&prefixServer{srv: replay, mux: front(replay)}).session(t, 0, 240)
	full.cache.asked.Store(true) // fetched once: the session below extends its prefix
	const n, warm, runs = 4, 8, 51
	req := protocol.EncodeRequest(n)
	for _, tc := range []struct {
		name    string
		srv     *Server
		self    string // the listen address the OPEN announces
		extends bool   // the session extends full's open prefix
	}{
		{"full", replay, "receiver:1", false},
		{"full replay", replay, "", false},
		{"full extending", full, "", true},
		{"partial", partial, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := front(tc.srv)
			mux.gossip.Learn(protocol.PeerAd{ContentID: info.ID, Addr: "elsewhere:1"})
			ch := openHelloOn(t, mux, protocol.Hello{ContentID: info.ID, ListenAddr: tc.self}, "sender")
			ch.SetDeadline(time.Now().Add(time.Minute))
			request := func() {
				if err := protocol.WriteFrame(ch, req); err != nil {
					t.Fatal(err)
				}
				for got := 0; ; {
					f, err := ch.Next()
					if err != nil {
						t.Fatal(err)
					}
					switch f.Type {
					case protocol.TypeSymbol:
						got++
					case protocol.TypePeers:
					case protocol.TypeDone:
						if got != n {
							t.Fatalf("a REQUEST for %d answered %d symbols", n, got)
						}
						return
					default:
						t.Fatalf("unexpected %v", f.Type)
					}
				}
			}
			for i := 0; i < warm; i++ { // the first relays the directory
				request()
			}
			if tc.extends {
				// Two runs of 25 REQUESTs, the first to warm, the second
				// measured, and no collection in between: one empties the
				// frame pools, whose refills are not the session's own.
				const batch = 25
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				got := testing.AllocsPerRun(1, func() {
					for range batch {
						request()
					}
				})
				cached := len(tc.srv.cache.ids)
				if cached != (warm+2*batch)*n {
					t.Fatalf("the session cached %d symbols, want the %d it sent", cached, (warm+2*batch)*n)
				}
				// A window of b payload bytes starts at most b/slabSize + 1
				// slabs; the id and payload slices double at most
				// bits.Len(cached) times each.
				bound := batch*n*info.BlockSize/slabSize + 1 + 2*bits.Len(uint(cached))
				if got > float64(bound) {
					t.Errorf("%d REQUESTs extending the prefix allocate %.0f times, want at most %d: its slabs and slice growth", batch, got, bound)
				}
			} else if avg := testing.AllocsPerRun(runs-1, request); avg != 0 {
				t.Errorf("a REQUEST with no news allocates %.2f, want 0", avg)
			}
			protocol.WriteFrame(ch, protocol.EncodeDone())
		})
	}
}
