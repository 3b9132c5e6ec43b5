package peer

// mux_test.go covers the multi-content listener in isolation: HELLO
// routing to the right registered Server, the canonical unknown-content
// ERROR (and its typed, no-redial surfacing in sessions), duplicate
// registration, live unregister, and gossip sharing across contents.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peermux"
	"icd/internal/prng"
	"icd/internal/testutil"
)

// testContentID is testContent with a chosen content id (and an
// id-derived byte stream), so multi-content tests get distinct,
// deterministic contents.
func testContentID(t testing.TB, id uint64, nBlocks, blockSize int) (ContentInfo, []byte) {
	t.Helper()
	rng := prng.New(0xC0FFEE ^ id)
	data := make([]byte, nBlocks*blockSize-blockSize/3)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	info := ContentInfo{
		ID:        id,
		NumBlocks: nBlocks,
		BlockSize: blockSize,
		OrigLen:   len(data),
		CodeSeed:  id ^ 0x1CD,
	}
	return info, data
}

// newTestMux registers full servers for each content on one mux.
func newTestMux(t *testing.T, infos []ContentInfo, datas [][]byte) *ServerMux {
	t.Helper()
	mux := NewServerMux()
	for i, info := range infos {
		srv, err := NewFullServer(info, datas[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := mux.Register(srv); err != nil {
			t.Fatal(err)
		}
	}
	return mux
}

func TestMuxRoutesByContentID(t *testing.T) {
	infoA, dataA := testContentID(t, 0xA, 80, 48)
	infoB, dataB := testContentID(t, 0xB, 60, 32)
	mux := newTestMux(t, []ContentInfo{infoA, infoB}, [][]byte{dataA, dataB})
	pn := newPipeNet()
	addr := pn.add("mux", mux)

	for _, want := range []struct {
		info ContentInfo
		data []byte
	}{{infoA, dataA}, {infoB, dataB}} {
		res, err := Fetch([]string{addr}, want.info.ID, FetchOptions{
			Batch: 16, Timeout: 5 * time.Second, Dial: pn.dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, want.data) {
			t.Fatalf("content %#x mismatch through mux", want.info.ID)
		}
	}
	if got := mux.Stats().Rejected; got != 0 {
		t.Fatalf("rejected %d connections, want 0", got)
	}
}

func TestMuxUnknownContentIsTerminal(t *testing.T) {
	info, data := testContentID(t, 0xA, 60, 32)
	mux := newTestMux(t, []ContentInfo{info}, [][]byte{data})
	pn := newPipeNet()
	addr := pn.add("mux", mux)

	// Generous retries: the typed unknown-content error must shortcut
	// them (a healthy peer that lacks the content will never grow it by
	// being redialed), so exactly one dial happens.
	_, err := Fetch([]string{addr}, 0xDEAD, FetchOptions{
		Batch:            16,
		Timeout:          5 * time.Second,
		MaxReconnects:    5,
		ReconnectBackoff: time.Millisecond,
		Dial:             pn.dial,
	})
	if !errors.Is(err, ErrUnknownContent) {
		t.Fatalf("err = %v, want ErrUnknownContent", err)
	}
	if got := pn.dialCount(addr); got != 1 {
		t.Fatalf("dialed %d times, want 1 (no redial on unknown content)", got)
	}
	if got := mux.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestMuxRegisterUnregister(t *testing.T) {
	info, data := testContentID(t, 0xA, 60, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewServerMux()
	if err := mux.Register(srv); err != nil {
		t.Fatal(err)
	}
	if err := mux.Register(srv); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if got := mux.Contents(); len(got) != 1 || got[0] != info.ID {
		t.Fatalf("Contents() = %v", got)
	}
	if !mux.Unregister(info.ID) {
		t.Fatal("unregister of registered id failed")
	}
	if mux.Unregister(info.ID) {
		t.Fatal("unregister of absent id succeeded")
	}

	// After unregistering, a fetch for the id fails as unknown content.
	pn := newPipeNet()
	addr := pn.add("mux", mux)
	if _, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second, Dial: pn.dial,
	}); !errors.Is(err, ErrUnknownContent) {
		t.Fatalf("err = %v, want ErrUnknownContent after unregister", err)
	}
}

func TestMuxLookupHookSeesDemand(t *testing.T) {
	info, data := testContentID(t, 0xA, 60, 32)
	mux := newTestMux(t, []ContentInfo{info}, [][]byte{data})
	type lookup struct {
		id    uint64
		found bool
	}
	var seen []lookup
	done := make(chan struct{}, 8)
	mux.SetLookupHook(func(id uint64, found bool) {
		seen = append(seen, lookup{id, found}) // serialized: one dial at a time below
		done <- struct{}{}
	})
	pn := newPipeNet()
	addr := pn.add("mux", mux)

	if _, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second, Dial: pn.dial,
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	Fetch([]string{addr}, 0xDEAD, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second, Dial: pn.dial,
	})
	<-done
	if len(seen) != 2 || seen[0] != (lookup{info.ID, true}) || seen[1] != (lookup{0xDEAD, false}) {
		t.Fatalf("lookup hook saw %+v", seen)
	}
}

func TestMuxSharesGossipAcrossContents(t *testing.T) {
	infoA, dataA := testContentID(t, 0xA, 60, 32)
	infoB, dataB := testContentID(t, 0xB, 60, 32)
	mux := newTestMux(t, []ContentInfo{infoA, infoB}, [][]byte{dataA, dataB})
	g := NewGossip("mux")
	mux.SetGossip(g)
	pn := newPipeNet()
	addr := pn.add("mux", mux)

	// Two clients, one per content, each advertising a listen address:
	// both must land in the one node-wide directory.
	for i, id := range []uint64{infoA.ID, infoB.ID} {
		if _, err := Fetch([]string{addr}, id, FetchOptions{
			Batch:         16,
			Timeout:       5 * time.Second,
			AdvertiseAddr: []string{"clientA:1", "clientB:1"}[i],
			DisableGossip: false,
			Dial:          pn.dial,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Len(); got != 2 {
		t.Fatalf("shared directory has %d entries, want 2 (one per content)", got)
	}
	if len(g.AppendSnapshot(nil, infoA.ID, 0)) != 1 || len(g.AppendSnapshot(nil, infoB.ID, 0)) != 1 {
		t.Fatalf("per-content snapshots wrong: %v / %v",
			g.AppendSnapshot(nil, infoA.ID, 0), g.AppendSnapshot(nil, infoB.ID, 0))
	}
}

// TestMuxPendingContentIsRetryable pins the registration-window fix: a
// content the node is fetching but cannot serve yet answers a generic
// retryable ERROR, so a dialer's reconnect backoff carries it into the
// window where the live server registers — instead of the terminal
// unknown-content write-off.
func TestMuxPendingContentIsRetryable(t *testing.T) {
	info, data := testContentID(t, 0xA, 60, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewServerMux()
	mux.SetPending(info.ID, true)
	pn := newPipeNet()
	addr := pn.add("mux", mux)

	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := mux.Register(srv); err == nil {
			mux.SetPending(info.ID, false)
		}
	}()
	res, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch:            16,
		Timeout:          5 * time.Second,
		MaxReconnects:    100,
		ReconnectBackoff: 2 * time.Millisecond,
		Dial:             pn.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch after pending window")
	}
	if got := pn.dialCount(addr); got < 2 {
		t.Fatalf("dialed %d times, want ≥ 2 (a retry through the pending window)", got)
	}
	if got := mux.Stats().Rejected; got != 0 {
		t.Fatalf("pending answers counted as rejections: %d", got)
	}
}

// TestMuxCloseClosesAcceptedWires: a client that dialed a wire and then
// went quiet must not hold a closing server up. Close used to close only
// the listener and then wait for accepted wires to end on their own — up
// to their 30 s idle read deadline.
func TestMuxCloseClosesAcceptedWires(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	info, data := testContent(t, 8, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	pn := faultnet.NewPipeNet()
	ln, err := pn.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	mux := front(srv)
	served := make(chan error, 1)
	go func() { served <- mux.Serve(ln) }()

	conn, err := pn.Dial("server")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := peermux.Dial(conn, peermux.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()
	// The handshake answer proves the mux accepted the wire; it now idles
	// in the mux's read loop with no channel open.

	start := time.Now()
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close waited %v for an idle client wire", took)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	select {
	case <-wire.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the client's wire never saw the server hang up")
	}
}

// TestAddrHost pins addrHost's answers, and that a pipe endpoint name,
// which has no port, costs no allocation: net.SplitHostPort would build
// an error to say so, on every accepted connection and every penalty key.
func TestAddrHost(t *testing.T) {
	for _, tc := range []struct{ addr, host string }{
		{"client-3", "client-3"},
		{"h:1", "h"},
		{"10.0.0.7:9710", "10.0.0.7"},
		{"[::1]:9710", "::1"},
		{"::1", "::1"},     // too many colons to split: kept whole
		{":9710", ":9710"}, // no host: kept whole
		{"host:", "host"},
		{"", ""},
	} {
		if got := addrHost(tc.addr); got != tc.host {
			t.Errorf("addrHost(%q) = %q, want %q", tc.addr, got, tc.host)
		}
	}
	for _, addr := range []string{"client-3", "h:1"} {
		if n := testing.AllocsPerRun(100, func() { addrHost(addr) }); n != 0 {
			t.Errorf("addrHost(%q) allocates %.0f times, want 0", addr, n)
		}
	}
}
