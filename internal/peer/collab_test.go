package peer

// collab_test.go demonstrates the paper's Figure 1(c) on the real
// engine: two partial peers with complementary working sets exchange
// content in both directions while trickle-downloading the remainder
// from a rate-limited source, completing with measurably fewer source
// transmissions than download-only sessions. It also pins the summary
// end-to-end (a Bloom filter for small and large working sets alike) and
// the clean cross-version handshake failure.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"icd/internal/fountain"
	"icd/internal/protocol"
)

// orderedSymbols encodes `count` distinct symbols as an ordered slice so
// tests can carve overlapping working sets by index range.
type idSym struct {
	id   uint64
	data []byte
}

func orderedSymbols(t testing.TB, info ContentInfo, data []byte, count int, seed uint64) []idSym {
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
	seen := make(map[uint64]bool, count)
	out := make([]idSym, 0, count)
	for len(out) < count {
		sym := enc.Next()
		if !seen[sym.ID] {
			seen[sym.ID] = true
			out = append(out, idSym{id: sym.ID, data: append([]byte(nil), sym.Data...)})
		}
		enc.Release(sym)
	}
	return out
}

func symbolMap(syms []idSym) map[uint64][]byte {
	m := make(map[uint64][]byte, len(syms))
	for _, s := range syms {
		m[s.id] = s.data
	}
	return m
}

// slowConn throttles reads — the rate-limited origin link of Figure 1:
// slowChunk bytes per delay, however much the reader asks for at once.
type slowConn struct {
	net.Conn
	delay time.Duration
}

// slowChunk is what one slowConn read takes in: about half a small-block
// symbol frame, so a link throttled at 1 ms runs at about 500 such frames
// per second.
const slowChunk = 48

func (c *slowConn) Read(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Read(p[:min(len(p), slowChunk)])
}

// collabNode runs one collaborating peer: an orchestrator seeded with
// its initial working set, fetching from the throttled source and from
// its partner (live or static).
type collabOutcome struct {
	res *FetchResult
	err error
}

func runNode(o *Orchestrator, addrs []string, done chan<- collabOutcome) {
	res, err := o.Run(context.Background(), addrs...)
	done <- collabOutcome{res, err}
}

// sourceSymbols totals symbols received from the source address.
func sourceSymbols(res *FetchResult, sourceAddr string) int {
	total := 0
	for _, p := range res.Peers {
		if p.Addr == sourceAddr {
			total += p.SymbolsReceived
		}
	}
	return total
}

func collabOptions(pn *pipeNet) FetchOptions {
	return FetchOptions{
		Batch:             8,
		Timeout:           10 * time.Second,
		MaxUselessBatches: 1 << 20, // partners poll while the source trickles
		Dial:              pn.dial,
	}
}

func TestCollaborativeExchangeBeatsDownloadOnly(t *testing.T) {
	const (
		nBlocks   = 160
		blockSize = 64
		pool      = 150 // union of the two working sets: < n, so the source is needed
		half      = 90  // each node's initial share (overlap 2*90-150 = 30)
	)
	info, data := testContent(t, nBlocks, blockSize)
	syms := orderedSymbols(t, info, data, pool, 21)
	setA := symbolMap(syms[:half])
	setB := symbolMap(syms[pool-half:])

	newSource := func(t *testing.T) *Server {
		srv, err := NewFullServer(info, data)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	throttle := func(pn *pipeNet, addr string) {
		pn.wrapAll(addr, func(c net.Conn) net.Conn { return &slowConn{Conn: c, delay: time.Millisecond} })
	}

	// --- download-only baseline: partners serve static initial sets ---
	basePN := newPipeNet()
	baseSource := basePN.add("S", front(newSource(t)))
	throttle(basePN, baseSource)
	staticA, err := NewPartialServer(info, setA)
	if err != nil {
		t.Fatal(err)
	}
	staticB, err := NewPartialServer(info, setB)
	if err != nil {
		t.Fatal(err)
	}
	basePN.add("A", front(staticA))
	basePN.add("B", front(staticB))

	baseOpts := collabOptions(basePN)
	optsA := baseOpts
	optsA.Initial = setA
	optsB := baseOpts
	optsB.Initial = setB
	baseStart := time.Now()
	chA := make(chan collabOutcome, 1)
	chB := make(chan collabOutcome, 1)
	go runNode(NewOrchestrator(info.ID, optsA), []string{baseSource, "B"}, chA)
	go runNode(NewOrchestrator(info.ID, optsB), []string{baseSource, "A"}, chB)
	baseA, baseB := <-chA, <-chB
	baseElapsed := time.Since(baseStart)
	if baseA.err != nil || baseB.err != nil {
		t.Fatalf("download-only baseline failed: %v / %v", baseA.err, baseB.err)
	}
	if !bytes.Equal(baseA.res.Data, data) || !bytes.Equal(baseB.res.Data, data) {
		t.Fatal("baseline content mismatch")
	}
	baseS := sourceSymbols(baseA.res, baseSource) + sourceSymbols(baseB.res, baseSource)

	// --- collaborative: partners serve their *live* working sets ---
	colPN := newPipeNet()
	colSource := colPN.add("S", front(newSource(t)))
	throttle(colPN, colSource)
	colOpts := collabOptions(colPN)
	colOptsA := colOpts
	colOptsA.Initial = setA
	colOptsB := colOpts
	colOptsB.Initial = setB
	oa := NewOrchestrator(info.ID, colOptsA)
	ob := NewOrchestrator(info.ID, colOptsB)
	liveA, err := NewLiveServer(info, oa)
	if err != nil {
		t.Fatal(err)
	}
	liveB, err := NewLiveServer(info, ob)
	if err != nil {
		t.Fatal(err)
	}
	colPN.add("A", front(liveA))
	colPN.add("B", front(liveB))

	colStart := time.Now()
	go runNode(oa, []string{colSource, "B"}, chA)
	go runNode(ob, []string{colSource, "A"}, chB)
	colA, colB := <-chA, <-chB
	colElapsed := time.Since(colStart)
	if colA.err != nil || colB.err != nil {
		t.Fatalf("collaborative run failed: %v / %v", colA.err, colB.err)
	}
	if !bytes.Equal(colA.res.Data, data) || !bytes.Equal(colB.res.Data, data) {
		t.Fatal("collaborative content mismatch")
	}
	colS := sourceSymbols(colA.res, colSource) + sourceSymbols(colB.res, colSource)

	t.Logf("source symbols: download-only=%d collaborative=%d; wall clock: %v vs %v",
		baseS, colS, baseElapsed, colElapsed)
	// The collaborative pair relays the throttled source's symbols to
	// each other, so each source transmission serves both nodes; with
	// the source the bottleneck, fewer source symbols ⇒ faster finish.
	if colS >= baseS {
		t.Fatalf("collaboration saved nothing at the source: %d vs %d", colS, baseS)
	}
	if float64(colS) > 0.9*float64(baseS) {
		t.Errorf("collaboration saved less than 10%% at the source: %d vs %d", colS, baseS)
	}
}

// TestSummaryNegotiationEndToEnd: an informed fetch from a partial
// sender that reads summaries sends it a Bloom filter, whatever the two
// working-set sizes. Before wire version 11 a receiver holding more than
// 4096 symbols picked an ART for sets within 25% of each other and a
// min-wise sketch otherwise; the sketch prunes nothing, so the sender
// re-sent every id the two sets share. With a Bloom filter, which has no
// false negatives, one sender sends nothing the receiver holds.
func TestSummaryNegotiationEndToEnd(t *testing.T) {
	fetch := func(t *testing.T, info ContentInfo, data []byte, receiver, sender []idSym) *FetchResult {
		t.Helper()
		srv, err := NewPartialServer(info, symbolMap(sender))
		if err != nil {
			t.Fatal(err)
		}
		pn := newPipeNet()
		addr := pn.add("p", front(srv))
		res, err := Fetch([]string{addr}, info.ID, FetchOptions{
			Batch: 64, Timeout: 5 * time.Second,
			Initial: symbolMap(receiver), Dial: pn.dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatal("content mismatch")
		}
		if got := res.Peers[0].Summary; got != "bloom" {
			t.Fatalf("summary %q, want bloom", got)
		}
		return res
	}

	// Small working sets.
	t.Run("small=bloom", func(t *testing.T) {
		info, data := testContent(t, 100, 32)
		syms := orderedSymbols(t, info, data, 140, 5)
		fetch(t, info, data, syms[:60], syms)
	})

	// Large sets: the receiver holds 5000 symbols of k = 6000 at its
	// first summary. The sender holds 5000, 3000 of them the receiver's
	// (sets within 25% of each other: an ART before version 11), or 7000,
	// all the receiver's among them (a sketch).
	info, data := testContent(t, 6000, 16)
	syms := orderedSymbols(t, info, data, 9000, 6)
	for _, tc := range []struct {
		name   string
		sender []idSym
	}{
		{"large-similar=bloom", syms[2000:7000]},
		{"large-dissimilar=bloom", syms[0:7000]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := fetch(t, info, data, syms[:5000], tc.sender)
			if p := res.Peers[0]; p.SymbolsReceived != p.UsefulSymbols {
				t.Fatalf("the sender sent %d symbols the receiver held (%d received, %d useful)",
					p.SymbolsReceived-p.UsefulSymbols, p.SymbolsReceived, p.UsefulSymbols)
			}
		})
	}
}

func TestCrossVersionHandshakeFailsCleanly(t *testing.T) {
	info, data := testContent(t, 50, 16)

	t.Run("new client, old server", func(t *testing.T) {
		// A "v2 server" answers any hello with a v2-framed response; the
		// client must fail with a version error, not a corruption panic
		// or a hang.
		dial := func(string) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				buf := make([]byte, 256)
				server.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := server.Read(buf); err != nil {
					return
				}
				server.Write(frameWithVersion(2, protocol.TypeDone, nil))
			}()
			return client, nil
		}
		_, err := Fetch([]string{"old"}, info.ID, FetchOptions{
			Timeout: 5 * time.Second, Dial: dial,
		})
		if err == nil {
			t.Fatal("cross-version fetch succeeded?!")
		}
		if !errors.Is(err, protocol.ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion in the chain", err)
		}
	})

	t.Run("old client, new server", func(t *testing.T) {
		srv, err := NewFullServer(info, data)
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		defer client.Close()
		var wg sync.WaitGroup
		wg.Add(1)
		var serveErr error
		go func() {
			defer wg.Done()
			serveErr = front(srv).ServeConn(server)
			server.Close()
		}()
		// A v2 client's opening frame, written from a goroutine: the
		// server bails at the 8-byte header, and net.Pipe (unlike a TCP
		// socket buffer) would otherwise deadlock the unread remainder
		// against the server's ERROR answer.
		client.SetDeadline(time.Now().Add(5 * time.Second))
		go client.Write(frameWithVersion(2, protocol.TypeMuxHello, make([]byte, 41)))
		// The server answers with a clean (current-version) ERROR naming
		// the version problem, then hangs up.
		f, err := protocol.ReadFrame(client)
		if err != nil {
			t.Fatalf("no clean error answer: %v", err)
		}
		if f.Type != protocol.TypeError {
			t.Fatalf("got %v, want ERROR", f.Type)
		}
		msg, _ := protocol.DecodeError(f)
		if msg == "" {
			t.Fatal("empty error message")
		}
		wg.Wait()
		if serveErr == nil || !errors.Is(serveErr, protocol.ErrVersion) {
			t.Fatalf("server error = %v, want ErrVersion", serveErr)
		}
	})
}

func TestNegativeSummaryMaskDisablesSummaries(t *testing.T) {
	// The blind-streaming baseline (a negative SummaryMask before wire
	// version 11): an uninformed fetch never sends a summary, even though
	// the receiver holds symbols it could report.
	info, data := testContent(t, 100, 32)
	syms := orderedSymbols(t, info, data, 140, 8)
	sender, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	addr := pn.add("p", front(sender))
	res, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second,
		Initial:    symbolMap(syms[:60]),
		Uninformed: true,
		Dial:       pn.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	if res.Peers[0].Summary != "" {
		t.Fatalf("summary %q sent by an uninformed fetch", res.Peers[0].Summary)
	}
}
