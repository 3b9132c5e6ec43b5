package node

// node_test.go is the PR 5 acceptance scenario end to end, over real
// TCP: one node serves two distinct contents from a single listener,
// another node fetches both concurrently under a shared connection
// budget while serving everything it learns, and a third node then
// fetches from the second — proving the fetched replicas are live. Plus
// node-level store-budget eviction honoring pins, and unknown-content
// routing.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"icd/internal/fountain"
	"icd/internal/peer"
	"icd/internal/prng"
	"icd/internal/testutil"
)

// testContent builds deterministic content and metadata for a chosen id.
func testContent(t testing.TB, id uint64, nBlocks, blockSize int) (peer.ContentInfo, []byte) {
	t.Helper()
	rng := prng.New(0xBEEF ^ id)
	data := make([]byte, nBlocks*blockSize-blockSize/3)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return peer.ContentInfo{
		ID:        id,
		NumBlocks: nBlocks,
		BlockSize: blockSize,
		OrigLen:   len(data),
		CodeSeed:  id ^ 0x1CD,
	}, data
}

// startNode serves n on a fresh localhost listener and returns the
// bound address; the node is closed at test cleanup.
func startNode(t *testing.T, n *Node) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve(ln)
	t.Cleanup(func() { n.Close() })
	return ln.Addr().String()
}

// encodedSymbols produces count encoded symbols of the content.
func encodedSymbols(t *testing.T, info peer.ContentInfo, data []byte, count int, seed uint64) map[uint64][]byte {
	t.Helper()
	blocks, _, err := fountain.SplitIntoBlocks(data, info.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	code, err := fountain.NewCode(info.NumBlocks, nil, info.CodeSeed)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := fountain.NewEncoder(code, blocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte, count)
	for len(out) < count {
		sym := enc.Next()
		out[sym.ID] = append([]byte(nil), sym.Data...)
		enc.Release(sym)
	}
	return out
}

func TestNodeServesAndFetchesTwoContents(t *testing.T) {
	// Registered before the startNode cleanups, so (LIFO) the leak check
	// runs after every node has closed.
	t.Cleanup(testutil.CheckGoroutines(t))
	infoA, dataA := testContent(t, 0xA11CE, 100, 64)
	infoB, dataB := testContent(t, 0xB0B, 80, 64)

	provider := New(Options{Tick: 10 * time.Millisecond})
	if err := provider.ServeFull(infoA, dataA, true); err != nil {
		t.Fatal(err)
	}
	if err := provider.ServeFull(infoB, dataB, true); err != nil {
		t.Fatal(err)
	}
	providerAddr := startNode(t, provider)

	consumer := New(Options{
		Tick:     10 * time.Millisecond,
		MaxConns: 2,
		Fetch: peer.FetchOptions{
			Batch:   16,
			Timeout: 10 * time.Second,
		},
	})
	consumerAddr := startNode(t, consumer)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tA, err := consumer.StartFetch(ctx, infoA.ID, providerAddr)
	if err != nil {
		t.Fatal(err)
	}
	tB, err := consumer.StartFetch(ctx, infoB.ID, providerAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := consumer.StartFetch(ctx, infoA.ID, providerAddr); err == nil {
		t.Fatal("duplicate concurrent fetch accepted")
	}

	resA, err := tA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := tB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resA.Data, dataA) || !bytes.Equal(resB.Data, dataB) {
		t.Fatal("content mismatch through the multi-content node")
	}

	// Both transfers went through the provider's ONE listener.
	if got := provider.Obs().Counter("mux.connections").Value(); got < 2 {
		t.Fatalf("provider listener saw %d connections, want ≥ 2", got)
	}
	// The consumer now serves both replicas on its own single listener…
	if got := consumer.Mux().Contents(); len(got) != 2 {
		t.Fatalf("consumer serves %v, want both contents", got)
	}
	for _, st := range consumer.Contents() {
		if !st.Complete {
			t.Fatalf("replica %#x not marked complete: %+v", st.ID, st)
		}
	}
	// …and a re-fetch of a stored content is refused.
	if _, err := consumer.StartFetch(ctx, infoA.ID, providerAddr); err == nil {
		t.Fatal("re-fetch of a stored replica accepted")
	}

	// Third node: fetch content A from the *consumer* — the replica it
	// learned must be live, served from its one listener.
	third := New(Options{Tick: 10 * time.Millisecond})
	defer third.Close()
	res3, err := third.Fetch(ctx, infoA.ID, consumerAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res3.Data, dataA) {
		t.Fatal("replica served by the consumer is corrupt")
	}

	// Unknown content id through the provider's mux fails terminally.
	if _, err := third.Fetch(ctx, 0xDEAD, providerAddr); !errors.Is(err, peer.ErrUnknownContent) {
		t.Fatalf("unknown content fetch: err = %v, want ErrUnknownContent", err)
	}
}

func TestNodeStoreEvictionHonorsPins(t *testing.T) {
	const blockSize = 64
	infoA, dataA := testContent(t, 0xA, 40, blockSize)
	infoB, dataB := testContent(t, 0xB, 40, blockSize)
	infoC, dataC := testContent(t, 0xC, 40, blockSize)

	// Budget holds two 30-symbol replicas, not three.
	n := New(Options{Tick: time.Hour, StoreBudget: 2 * 30 * blockSize})
	defer n.Close()
	if err := n.ServePartial(infoA, encodedSymbols(t, infoA, dataA, 30, 1), true); err != nil {
		t.Fatal(err)
	}
	if err := n.ServePartial(infoB, encodedSymbols(t, infoB, dataB, 30, 2), false); err != nil {
		t.Fatal(err)
	}
	if err := n.ServePartial(infoC, encodedSymbols(t, infoC, dataC, 30, 3), false); err != nil {
		t.Fatal(err)
	}
	// The pinned replica (A, the coldest) must survive; the unpinned
	// cold one (B) is the eviction victim.
	if _, ok := n.Store().Get(infoA.ID); !ok {
		t.Fatalf("pinned replica evicted: %+v", n.Contents())
	}
	if _, ok := n.Store().Get(infoB.ID); ok {
		t.Fatalf("unpinned cold replica survived: %+v", n.Contents())
	}
	if _, ok := n.Store().Get(infoC.ID); !ok {
		t.Fatalf("fresh replica evicted: %+v", n.Contents())
	}
	// The evicted content is no longer served: its id left the mux.
	if got := n.Mux().Contents(); len(got) != 2 {
		t.Fatalf("mux serves %v, want 2 contents", got)
	}
	for _, id := range n.Mux().Contents() {
		if id == infoB.ID {
			t.Fatal("evicted replica still registered on the listener")
		}
	}
	// Unpinning is allowed and re-checks the budget (already satisfied
	// here, so nothing more is evicted).
	if !n.Pin(infoA.ID, false) {
		t.Fatal("unpin failed")
	}
	if n.Store().Len() != 2 || n.Store().Usage() > n.Store().Budget() {
		t.Fatalf("store wrong after unpin: %v", n.Store())
	}
}

func TestNodeBudgetSharedAcrossFetches(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	infoA, dataA := testContent(t, 0xAA, 90, 48)
	infoB, dataB := testContent(t, 0xBB, 90, 48)

	provider := New(Options{Tick: 10 * time.Millisecond})
	if err := provider.ServeFull(infoA, dataA, true); err != nil {
		t.Fatal(err)
	}
	if err := provider.ServeFull(infoB, dataB, true); err != nil {
		t.Fatal(err)
	}
	addr := startNode(t, provider)

	const budget = 3
	consumer := New(Options{
		Tick:     5 * time.Millisecond,
		MaxConns: budget,
		Fetch:    peer.FetchOptions{Batch: 8, Timeout: 10 * time.Second},
	})
	defer consumer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tA, err := consumer.StartFetch(ctx, infoA.ID, addr)
	if err != nil {
		t.Fatal(err)
	}
	tB, err := consumer.StartFetch(ctx, infoB.ID, addr)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler's invariant: the combined live-session count never
	// exceeds the budget (caps are per-orchestrator; sessions are what
	// the budget actually spends).
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		a := len(tA.Orchestrator().Sessions())
		b := len(tB.Orchestrator().Sessions())
		if a+b > budget {
			t.Fatalf("live sessions %d+%d exceed budget %d", a, b, budget)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := tA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := tB.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeServeDuringFetchRefused pins addReplica's guard, the mirror
// of StartFetch's already-stored check: serving a content the node is
// currently fetching would clobber the fetch's store entry (and let a
// failing fetch delete the operator's replica), so it is refused — in
// either order.
func TestNodeServeDuringFetchRefused(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	info, data := testContent(t, 0xF, 60, 48)
	provider := New(Options{Tick: 10 * time.Millisecond})
	if err := provider.ServeFull(info, data, true); err != nil {
		t.Fatal(err)
	}
	addr := startNode(t, provider)

	consumer := New(Options{Tick: 10 * time.Millisecond, Fetch: peer.FetchOptions{
		Batch: 8, Timeout: 10 * time.Second,
	}})
	defer consumer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr, err := consumer.StartFetch(ctx, info.ID, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.ServeFull(info, data, true); err == nil {
		t.Fatal("ServeFull over an in-flight fetch accepted")
	}
	if _, err := tr.Wait(); err != nil {
		t.Fatal(err)
	}
	// After the fetch stored the replica, serving it again is refused as
	// a duplicate registration rather than clobbering the store entry.
	if err := consumer.ServeFull(info, data, true); err == nil {
		t.Fatal("ServeFull over a stored replica accepted")
	}
}

// TestServeFullChargesCachedPrefix: a full replica is charged its content
// and the most its server's cached stream prefix can grow to — 200
// payloads for 100 blocks, prefixLimit's twice the content — so a store
// budget bounds what served replicas hold: two replicas whose contents fit
// it, but not with both prefixes, do not both stay.
func TestServeFullChargesCachedPrefix(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const k, blockSize, bound = 100, 64, 2 * 100 * 64
	infoA, dataA := testContent(t, 0xA, k, blockSize)
	infoB, dataB := testContent(t, 0xB, k, blockSize)
	n := New(Options{StoreBudget: int64(infoA.OrigLen+infoB.OrigLen) + bound})
	defer n.Close()
	if err := n.ServeFull(infoA, dataA, false); err != nil {
		t.Fatal(err)
	}
	if st, ok := n.Store().Get(infoA.ID); !ok || st.Bytes != int64(infoA.OrigLen)+bound {
		t.Fatalf("the full replica is charged %d bytes, want its %d and the prefix's %d", st.Bytes, infoA.OrigLen, bound)
	}
	if err := n.ServeFull(infoB, dataB, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Store().Get(infoA.ID); ok {
		t.Fatalf("both replicas stay: %d bytes charged against a budget of %d", n.Store().Usage(), n.Store().Budget())
	}
}
