package peer

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"icd/internal/bloom"
	"icd/internal/protocol"
)

// seqIDs is n ids from first on, as a working set of empty payloads: a
// summary reads only ids.
func seqIDs(first uint64, n int) map[uint64][]byte {
	m := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		m[first+uint64(i)] = nil
	}
	return m
}

// grow appends n new ids to o's log with empty payloads, as folds would,
// without waking the peel stage: the log's ids are 1 to its length.
func grow(o *Orchestrator, n int) {
	o.mu.Lock()
	for i := 0; i < n; i++ {
		o.log.add(uint64(len(o.log.ids)+1), nil)
	}
	o.mu.Unlock()
}

// checkSummary takes s's next summary and checks it against a filter
// built afresh: sized for sizedFor ids at 8 bits and 5 hashes under seed
// 0, over every id of the log. The marshaled bytes must be equal, and so
// must the whole frame to EncodeSummary's, the summary must cover the
// whole log, and every log id must be in it.
func checkSummary(t *testing.T, o *Orchestrator, s *session, sizedFor int) {
	t.Helper()
	f, slice, of, covers, err := o.summarize(s, false)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := o.WorkingSet()
	if covers != len(ids) {
		t.Fatalf("the summary covers %d of a log of %d", covers, len(ids))
	}
	_, _, blob, err := protocol.DecodeSummaryView(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	fresh := bloom.NewWithBitsPerElement(0, sizedFor, 8, 5)
	for _, id := range ids {
		fresh.Add(id)
	}
	want, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("a log of %d: the kept filter is not the one built afresh for %d ids", len(ids), sizedFor)
	}
	if ref := protocol.EncodeSummary(slice, of, want); f.Type != ref.Type || !bytes.Equal(f.Payload, ref.Payload) {
		t.Fatalf("a log of %d: the summary is not the SUMMARY EncodeSummary frames", len(ids))
	}
	var got bloom.Filter
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !got.Contains(id) {
			t.Fatalf("the summary of a log of %d lost id %d", len(ids), id)
		}
	}
}

// TestKeptFilterMatchesRebuild: the fetch's one Bloom filter, topped up
// at each summary with what the log gained, marshals to exactly the
// filter built afresh over the whole log at the same sizing — before the
// handshake (an Initial-only log, sized for it and an eighth), after it
// (resized for n + n/8 once, then topped up), and past n + n/8 (sized for
// the log). It is rebuilt only at those resizes.
func TestKeptFilterMatchesRebuild(t *testing.T) {
	const k = 4096
	o := NewOrchestrator(1, FetchOptions{Initial: seqIDs(1, k/2)})
	s := newSession(o, "sender")
	if o.filter != nil {
		t.Fatal("a filter was built before any summary")
	}
	checkSummary(t, o, s, k/2+k/16)
	blind := o.filter
	checkSummary(t, o, s, k/2+k/16)
	if o.filter != blind {
		t.Fatal("a summary over a log that did not grow rebuilt the filter")
	}

	if err := o.ensureDecoder(ContentInfo{ID: 1, NumBlocks: k, BlockSize: 8, OrigLen: 8 * k, CodeSeed: 1}); err != nil {
		t.Fatal(err)
	}
	checkSummary(t, o, s, k+k/8)
	if o.filter == blind {
		t.Fatal("the handshake's k did not resize the filter")
	}
	sized := o.filter
	for _, n := range []int{1, 100, k/2 + k/8 - 101} { // up to k + k/8 in all
		grow(o, n)
		checkSummary(t, o, s, k+k/8)
		if o.filter != sized {
			t.Fatalf("a log of %d rebuilt a filter sized for %d", len(o.log.ids), k+k/8)
		}
	}

	grow(o, 10)
	checkSummary(t, o, s, k+k/8+10)
	if o.filter == sized {
		t.Fatal("a log past n + n/8 did not resize the filter")
	}
}

// TestRefreshAllocs: once the first summary built the fetch's filter and
// sized the session's summary buffer, a refresh over a log that grew
// allocates nothing — the filter takes in the new ids and is marshaled
// behind the slice fields into the buffer the session keeps — and a
// sender decoding a refresh of the same size into its session's filter
// allocates nothing either.
func TestRefreshAllocs(t *testing.T) {
	const k = 4096
	o := NewOrchestrator(1, FetchOptions{Initial: seqIDs(1, k/2)})
	s := newSession(o, "sender")
	if err := o.ensureDecoder(ContentInfo{ID: 1, NumBlocks: k, BlockSize: 8, OrigLen: 8 * k, CodeSeed: 1}); err != nil {
		t.Fatal(err)
	}
	first, _, _, _, err := o.summarize(s, false)
	if err != nil {
		t.Fatal(err)
	}
	// Every summary of a session is marshaled into the one buffer the
	// session keeps: the first one is copied out before the refreshes
	// overwrite it.
	first.Payload = bytes.Clone(first.Payload)
	// The collector is held off while it runs: a cycle allocates for the
	// race detector's runtime, not for the summary.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var refresh protocol.Frame
	if allocs := testing.AllocsPerRun(50, func() {
		grow(o, 16)
		if refresh, _, _, _, err = o.summarize(s, false); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a refresh allocates %.1f times, want 0", allocs)
	}

	var filter bloom.Filter
	if _, _, err := readSummary(first.Payload, &filter); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := readSummary(refresh.Payload, &filter); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a same-size refresh allocates %.1f times, want 0", allocs)
	}
	ids, _ := o.WorkingSet()
	for _, id := range ids {
		if !filter.Contains(id) {
			t.Fatalf("the decoded refresh lost id %d", id)
		}
	}
}

// TestFullSendersBuildNoFilter: a fetch that holds nothing when it opens
// and is served by full senders only sends no summary, so it builds no
// Bloom filter. Both senders hold their symbols until each has taken its
// OPEN: a session that opens once the fetch holds symbols sends a
// summary, as it must to a peer it does not yet know to be full.
func TestFullSendersBuildNoFilter(t *testing.T) {
	h := newHarness(t, 300, 64)
	g := &startGate{n: 2, open: make(chan struct{})}
	for _, addr := range []string{"F1", "F2"} {
		srv, err := NewFullServer(h.info, h.data)
		if err != nil {
			t.Fatal(err)
		}
		h.pn.add(addr, gatedServer{front(srv), g})
	}
	o := NewOrchestrator(h.info.ID, FetchOptions{Dial: h.pn.dial, Timeout: 10 * time.Second})
	res, err := o.Run(context.Background(), "F1", "F2")
	if err != nil {
		t.Fatal(err)
	}
	h.verify(res)
	if o.filter != nil {
		t.Fatalf("a fetch from full senders built a filter for %d ids", o.sizedFor)
	}
}

// TestSlabsDouble: a log's slabs go 64 KiB, 64 KiB, 128 KiB, … each as
// large as every earlier one together, and stop growing at 1 MiB; a
// payload larger than that gets a slab of its own, just its size, and the
// next payload starts a new one.
func TestSlabsDouble(t *testing.T) {
	var l symbolLog
	var slabs []int
	add := func(id uint64, n int) {
		before := cap(l.slab)
		fresh := cap(l.slab)-len(l.slab) < n
		l.add(id, make([]byte, n))
		if fresh {
			slabs = append(slabs, cap(l.slab))
		} else if cap(l.slab) != before {
			t.Fatalf("id %d changed the slab without needing a new one", id)
		}
	}
	id := uint64(0)
	for ; id < 4096; id++ { // a k=4096 fetch of 1400 B symbols
		add(id, 1400)
	}
	const kib = 1 << 10
	want := []int{64 * kib, 64 * kib, 128 * kib, 256 * kib, 512 * kib, 1024 * kib, 1024 * kib, 1024 * kib, 1024 * kib, 1024 * kib}
	if len(slabs) != len(want) {
		t.Fatalf("4096 payloads of 1400 B took %d slabs %v, want %v", len(slabs), slabs, want)
	}
	for i := range want {
		if slabs[i] != want[i] {
			t.Fatalf("slab %d is %d bytes, want %d (all: %v)", i, slabs[i], want[i], slabs)
		}
	}
	for _, n := range []int{3 * maxSlab / 2, 1400} {
		slabs = slabs[:0]
		add(id, n)
		id++
		if len(slabs) != 1 || slabs[0] != max(n, maxSlab) {
			t.Fatalf("a payload of %d bytes took slabs %v, want one of %d", n, slabs, max(n, maxSlab))
		}
	}
	if got := l.payloads[len(l.payloads)-1]; len(got) != 1400 || cap(got) != 1400 {
		t.Fatalf("the last payload is %d bytes of capacity %d, want 1400 of 1400", len(got), cap(got))
	}
}

// TestPartialSwarmDuplicates is the duplicates oracle at the benchmark's
// partial_swarm size and shape: k=4096 and 1400 B blocks, the client
// holding ids[0:k/2], sender A ids[k/4:k] and sender B ids[3k/4:3k/2],
// and two clients fetching at once, 24 fetches each. It reads the mean of
// duplicates per fetch (received less useful, over both senders). One
// fetch reads anywhere from 0 to about 150, so it takes 48 to tell the
// engine from a partial sender that answers the OPEN's whole round, not
// one batch of it (about 72 per fetch on the benchmark). Over 50 runs
// each on a 2-vCPU host the engine read 9.8–27.2 (median 16.4), and 13.2–
// 30.2 (median 18.5) when it rebuilt the Bloom filter for every summary;
// the whole-round sender read 39.6–58.9 (median 51). The bound of 35 sits
// between. A log that takes one slab for the whole fetch (25–36 per fetch
// on the benchmark) reads like the engine here, so no bound tells it
// apart. Under the race detector, whose slowdown moves every count, it
// fetches twice per client and checks only the content.
func TestPartialSwarmDuplicates(t *testing.T) {
	const k, blockSize, clients, dupBound = 4096, 1400, 2, 35
	fetches := 24
	if raceDetector {
		fetches = 2
	}
	h := newHarness(t, k, blockSize)
	pool := orderedSymbols(t, h.info, h.data, 3*k/2, 1)
	for addr, held := range map[string][]idSym{"A": pool[k/4 : k], "B": pool[3*k/4:]} {
		srv, err := NewPartialServer(h.info, symbolMap(held))
		if err != nil {
			t.Fatal(err)
		}
		h.pn.add(addr, front(srv))
	}
	initial := symbolMap(pool[:k/2])
	var mu sync.Mutex
	var dups []int
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range fetches {
				res, err := Fetch([]string{"A", "B"}, h.info.ID, FetchOptions{
					Dial: h.pn.dial, Timeout: 10 * time.Second, Initial: initial,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(res.Data, h.data) {
					t.Error("content mismatch")
					return
				}
				d := 0
				for _, p := range res.Peers {
					d += p.SymbolsReceived - p.UsefulSymbols
				}
				mu.Lock()
				dups = append(dups, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sum := 0
	for _, d := range dups {
		sum += d
	}
	mean := float64(sum) / float64(len(dups))
	t.Logf("%.1f duplicates per fetch: %v", mean, dups)
	if !raceDetector && mean > dupBound {
		t.Fatalf("%.1f duplicates per fetch, want at most %d", mean, dupBound)
	}
}

// TestRefreshFollowsLearning: a partial session re-summarizes at the
// batch boundary where what other senders delivered since its last
// summary reaches its share of what the fetch still needs (the whole need,
// for the one session here; at least a batch) — not before — and its own
// sender's deliveries never count, though they shrink the need. The
// window is one batch, so nothing is in flight at a boundary. The probe
// plays this session's sender; the test folds the other senders'
// deliveries into the working set itself, between boundaries. A SUMMARY
// written at a boundary precedes that boundary's REQUEST on the wire, so
// once the probe has read the REQUEST it has read any summary.
func TestRefreshFollowsLearning(t *testing.T) {
	defer checkGoroutines(t)()
	const batch = 64
	p := newDepthProbe(probeBlocks)
	initial := make(map[uint64][]byte)
	for i := range 32 {
		initial[1<<40+uint64(i)] = probeBlock
	}
	o, stop := runProbe(t, 2, FetchOptions{Batch: batch, ChannelWindow: batch, Initial: initial}, p)
	defer stop()
	if h := p.opened(t); len(h.Summary) == 0 || h.Depth != 1 {
		t.Fatalf("the OPEN asked for %d batches with a summary of %d bytes, want 1 and a summary", h.Depth, len(h.Summary))
	}
	// Other senders' ids: none the probe sends, none of degree 1, so the
	// content never decodes.
	elsewhere, next := new(PeerStats), uint64(1<<41)
	news := 0 // delivered elsewhere since the session's last summary
	deliver := func(n int) {
		t.Helper()
		for ; n > 0; next++ {
			if p.code.Degree(next) == 1 {
				continue
			}
			if a, _ := o.fold(elsewhere, 0, next, probeBlock); a != arrivedNew {
				t.Fatalf("symbol %d from elsewhere folded as a duplicate", next)
			}
			n--
			news++
		}
	}
	// boundary answers the batch in flight — a batch of the session's own
	// sender — and checks how many summaries the session wrote before it
	// asked for the next.
	boundary := func(step string, want int) {
		t.Helper()
		p.release(1)
		select {
		case <-p.reqs:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the session asked for nothing after its batch was answered", step)
		}
		if got := len(drain(p.summaries)); got != want {
			t.Fatalf("%s: %d summaries at the boundary, want %d", step, got, want)
		}
		if want > 0 {
			news = 0
		}
	}
	for i := range 3 {
		boundary(fmt.Sprintf("own batch %d", i+1), 0)
	}
	// The least news that is due at the next boundary, where the log holds
	// what it holds now, that news and the batch in flight.
	progress := o.Progress()
	due := news + 1
	for due < max(batch, need(probeBlocks, progress+(due-news)+batch, batch)) {
		due++
	}
	deliver(due - news - 1)
	boundary(fmt.Sprintf("%d ids from elsewhere, one short", news), 0)
	deliver(1)
	boundary(fmt.Sprintf("%d ids from elsewhere", news), 1)
	for i := range 3 {
		boundary(fmt.Sprintf("own batch %d after the refresh", i+1), 0)
	}
}

// TestRefreshFollowsWaste: a partial session also re-summarizes at the
// batch boundary where the duplicates its sender sent that its last
// summary could not spare — ids the fetch learned after it — weigh as
// much as that summary, however little news there is. The content is 64
// blocks of 16 B, so the OPEN's summary (built before the fetch knows k,
// for 8 held ids) is a few dozen bytes, and three such duplicates
// outweigh it. The test delivers, from elsewhere, ids the probe is about
// to send.
func TestRefreshFollowsWaste(t *testing.T) {
	defer checkGoroutines(t)()
	const blocks, batch = 64, 8
	p := newDepthProbe(blocks)
	initial := make(map[uint64][]byte)
	for i := range batch {
		initial[1<<40+uint64(i)] = probeBlock
	}
	o, stop := runProbe(t, 2, FetchOptions{Batch: batch, ChannelWindow: batch, Initial: initial}, p)
	defer stop()
	open := p.opened(t)
	if len(open.Summary) == 0 || open.Depth != 1 {
		t.Fatalf("the OPEN asked for %d batches with a summary of %d bytes, want 1 and a summary", open.Depth, len(open.Summary))
	}
	cost := len(open.Summary)
	// The ids the probe sends, in order: every id of degree other than 1.
	var sends []uint64
	for id := uint64(0); len(sends) < 4*batch; id++ {
		if p.code.Degree(id) != 1 {
			sends = append(sends, id)
		}
	}
	elsewhere := new(PeerStats)
	deliver := func(ids ...uint64) {
		t.Helper()
		for _, id := range ids {
			if a, _ := o.fold(elsewhere, 0, id, probeBlock); a != arrivedNew {
				t.Fatalf("symbol %d from elsewhere folded as %v", id, a)
			}
		}
	}
	boundary := func(step string, want int) {
		t.Helper()
		p.release(1)
		select {
		case <-p.reqs:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the session asked for nothing after its batch was answered", step)
		}
		if got := len(drain(p.summaries)); got != want {
			t.Fatalf("%s: %d summaries at the boundary, want %d", step, got, want)
		}
	}
	boundary("the OPEN's batch", 0) // sends[:8]
	short := (cost+len(probeBlock)-1)/len(probeBlock) - 1
	if short < 1 || short >= batch {
		t.Fatalf("a summary of %d bytes is %d duplicates of %d B and more: the test needs 2 to %d", cost, short+1, len(probeBlock), batch)
	}
	deliver(sends[batch : batch+short]...)
	boundary(fmt.Sprintf("%d duplicates of %d B against a summary of %d B", short, len(probeBlock), cost), 0)
	deliver(sends[2*batch])
	boundary(fmt.Sprintf("%d duplicates", short+1), 1)
}

// drain empties a channel that nothing else reads.
func drain[T any](c chan T) []T {
	var got []T
	for {
		select {
		case v := <-c:
			got = append(got, v)
		default:
			return got
		}
	}
}
