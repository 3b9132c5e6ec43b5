package node

// window_test.go pins the node's budgets end to end: under a
// WindowBudget and a MaxConns, concurrent fetches over one fabric wire
// each hold exactly their even share, a share changes only when a fetch
// starts or ends, and the transfers complete intact; node.window_inflight
// reads what the fetches asked for. Run under -race this is the
// concurrency gate on the Orchestrator's window plumbing
// (SetChannelWindow vs live sessions) end to end.

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peer"
	"icd/internal/protocol"
	"icd/internal/testutil"
)

// budgetSwarm serves one content per entry of blocks (that many source
// blocks of 64 bytes) from a provider over a shaped net whose links
// each add latency at delivery, and returns a consumer node built from
// opts, both closed at test cleanup. A delivery-latency link makes the
// session window the binding throughput constraint (about one window per
// round trip), so the transfers can be observed mid-flight without
// being large. A non-nil hold holds every channel frame the provider
// writes — the symbols, not the wire's handshake or a channel's ACCEPT —
// until it is closed.
func budgetSwarm(t *testing.T, latency time.Duration, blocks []int, opts Options, hold <-chan struct{}) (*Node, []peer.ContentInfo, [][]byte) {
	t.Helper()
	sn := faultnet.NewShapedNet(1)
	sn.SetDeliveryLatency(true)
	sn.SetDefaultClass(faultnet.LinkClass{Latency: latency})

	provider := New(Options{Listen: "provider", Transport: sn, Tick: 10 * time.Millisecond})
	infos := make([]peer.ContentInfo, len(blocks))
	datas := make([][]byte, len(blocks))
	for i, k := range blocks {
		infos[i], datas[i] = testContent(t, 0xC4ED+uint64(i), k, 64)
		if err := provider.ServeFull(infos[i], datas[i], true); err != nil {
			t.Fatal(err)
		}
	}
	var ln net.Listener
	ln, err := sn.Listen("provider")
	if err != nil {
		t.Fatal(err)
	}
	if hold != nil {
		ln = heldListener{ln, hold}
	}
	go provider.Serve(ln)
	t.Cleanup(func() { provider.Close() })

	opts.Listen = "consumer"
	opts.Transport = sn.Node("consumer")
	opts.Fetch = peer.FetchOptions{Batch: 16, Timeout: 10 * time.Second}
	consumer := New(opts)
	t.Cleanup(func() { consumer.Close() })
	return consumer, infos, datas
}

// gauge reads the gauge name off n's registry.
func gauge(t *testing.T, n *Node, name string) int64 {
	t.Helper()
	for _, m := range n.Obs().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("no %s gauge", name)
	return 0
}

// heldListener accepts connections whose channel frames wait for hold.
type heldListener struct {
	net.Listener
	hold <-chan struct{}
}

func (l heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return heldConn{c, l.hold}, nil
}

// heldConn holds a write that starts with a channel frame (a MUX
// envelope: a batch of symbols, a DONE) until hold is closed. A wire
// writes whole frames, one or a batch, so a write starts with a frame.
type heldConn struct {
	net.Conn
	hold <-chan struct{}
}

func (c heldConn) Write(p []byte) (int, error) {
	if f, err := protocol.ReadFrame(bytes.NewReader(p)); err == nil && f.Type == protocol.TypeMux {
		<-c.hold
	}
	return c.Conn.Write(p)
}

// startAll starts a fetch of every content from the provider.
func startAll(t *testing.T, ctx context.Context, n *Node, infos []peer.ContentInfo) []*Transfer {
	t.Helper()
	transfers := make([]*Transfer, len(infos))
	for i, info := range infos {
		tx, err := n.StartFetch(ctx, info.ID, "provider")
		if err != nil {
			t.Fatal(err)
		}
		transfers[i] = tx
	}
	return transfers
}

// waitIntact waits for every transfer and checks it recovered its
// content byte for byte.
func waitIntact(t *testing.T, transfers []*Transfer, datas [][]byte) {
	t.Helper()
	for i, tx := range transfers {
		res, err := tx.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || !bytes.Equal(res.Data, datas[i]) {
			t.Fatalf("content %#x not recovered under a window budget", tx.ID)
		}
	}
}

func done(tx *Transfer) bool {
	select {
	case <-tx.st.done:
		return true
	default:
		return false
	}
}

// checkShares fails unless every transfer still running holds exactly
// share(budget, len(running), i) of both budgets.
func checkShares(t *testing.T, when string, running []*Transfer, slots, window int) {
	t.Helper()
	for i, tx := range running {
		o := tx.Orchestrator()
		if got, want := o.ChannelWindow(), share(window, len(running), i); got != want {
			t.Fatalf("%s: fetch %d window %d, want %d", when, i, got, want)
		}
		if got, want := o.MaxPeers(), share(slots, len(running), i); got != want {
			t.Fatalf("%s: fetch %d slots %d, want %d", when, i, got, want)
		}
	}
}

func TestNodeWindowBudgetRebalance(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const (
		slots  = 6
		budget = 96
		tick   = 2 * time.Millisecond
	)
	// The first content is a third the size of the others, so it ends
	// well before them and leaves two fetches running.
	consumer, infos, datas := budgetSwarm(t, 2*time.Millisecond, []int{300, 900, 900},
		Options{Tick: tick, MaxConns: slots, WindowBudget: budget}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	transfers := startAll(t, ctx, consumer, infos)

	// While all three run, each holds a third of each budget, and no
	// housekeeping tick moves it.
	watch := time.Now().Add(5 * tick)
	for time.Now().Before(watch) {
		for _, tx := range transfers {
			if done(tx) {
				t.Fatalf("content %#x finished within five ticks; the watch saw too little", tx.ID)
			}
		}
		checkShares(t, "three fetches", transfers, slots, budget)
		time.Sleep(tick / 4)
	}

	// Once the first fetch ends, the two survivors split the budgets.
	<-transfers[0].st.done
	survivors := transfers[1:]
	checkShares(t, "after the first fetch ended", survivors, slots, budget)
	for _, tx := range survivors {
		if done(tx) {
			t.Fatalf("content %#x ended with the first; sizes no longer separate them", tx.ID)
		}
	}

	waitIntact(t, transfers, datas)
}

// TestNodeTinyWindowBudget splits a budget of 6 frames over three
// fetches: each session moves two frames per round trip, and every
// content still arrives intact.
func TestNodeTinyWindowBudget(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	consumer, infos, datas := budgetSwarm(t, time.Millisecond, []int{200, 200, 200},
		Options{Tick: 5 * time.Millisecond, WindowBudget: 6}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	transfers := startAll(t, ctx, consumer, infos)
	for _, tx := range transfers {
		if w := tx.Orchestrator().ChannelWindow(); w != 2 {
			t.Fatalf("content %#x window %d, want 2", tx.ID, w)
		}
	}
	waitIntact(t, transfers, datas)
}

// TestNodeFetchOpensAtItsShare starts a third fetch while two run over
// a slow link: it opens at its share, and the earlier two have shrunk to
// theirs, the remainders staying with them, by the time StartFetch
// returns.
func TestNodeFetchOpensAtItsShare(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const slots, budget = 5, 100
	consumer, infos, _ := budgetSwarm(t, 50*time.Millisecond, []int{300, 300, 300},
		Options{Tick: 5 * time.Millisecond, MaxConns: slots, WindowBudget: budget}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	transfers := startAll(t, ctx, consumer, infos[:2])
	checkShares(t, "two fetches", transfers, slots, budget) // 3+2 slots, 50+50 frames
	transfers = append(transfers, startAll(t, ctx, consumer, infos[2:])...)
	checkShares(t, "three fetches", transfers, slots, budget) // 2+2+1 slots, 34+33+33 frames

	cancel()
	for _, tx := range transfers {
		tx.Wait() // cancelled mid-transfer: the error is expected
	}
}

// TestNodeWindowInFlight: node.window_inflight is what the node's fetches
// have requested and not yet received, not the size of their windows.
// Under a window budget a fetch never asks past the largest share it was
// given, and once a rebalance leaves it above its share it only retires
// until it is back within it: the first fetch's OPEN may claim its round
// at the whole budget before the second fetch starts, and a rebalance
// takes back nothing already asked, so the sum may exceed the budget, but
// it returns within it while both run. Under the default 4096-frame
// window the gauge never exceeds what the decodes need (under 2k symbols
// a fetch here, where a window's size would read 4096 a session); it
// reads more than 0 while they run, and 0 once they end. The provider
// holds its symbols until a sample reads more than 0, so a busy host
// cannot run both fetches to their end between two samples.
func TestNodeWindowInFlight(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const k = 600
	for _, tc := range []struct {
		name   string
		budget int   // Options.WindowBudget
		bound  int64 // the most the two fetches may have asked for
	}{
		// 32 frames a fetch, two batches of 16, once both run; the first
		// may have claimed its solo share, 64, before the second started.
		{"budget", 64, 64 + 32},
		{"default window", 0, 2 * 2 * k},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hold := make(chan struct{})
			var release sync.Once
			consumer, infos, datas := budgetSwarm(t, 2*time.Millisecond, []int{k, k},
				Options{Tick: 5 * time.Millisecond, WindowBudget: tc.budget}, hold)
			// Runs before the nodes close: a failed test leaves no write held.
			t.Cleanup(func() { release.Do(func() { close(hold) }) })
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			transfers := startAll(t, ctx, consumer, infos)
			inflight := func() int64 { return gauge(t, consumer, "node.window_inflight") }
			// gauges fails the test unless each named gauge reads its value.
			gauges := func(when string, want map[string]int64) {
				t.Helper()
				for name, v := range want {
					if got := gauge(t, consumer, name); got != v {
						t.Errorf("%s: %s = %d, want %d", when, name, got, v)
					}
				}
			}
			peak := int64(0)
			// Each fetch's last sample. A fetch's first claim, its OPEN's
			// round, may have read the window before the second fetch
			// started and land after a sample saw the rebalance; every later
			// claim reads the share it is made under. Once both have claimed
			// and sit within their shares (settled), their sum stays within
			// the budget while both run.
			prev := []int{0, 0}
			settled := false
			for !done(transfers[0]) || !done(transfers[1]) {
				n := inflight()
				if n > tc.bound {
					t.Fatalf("node.window_inflight = %d, over the %d the fetches may ask for", n, tc.bound)
				}
				if n > 0 {
					release.Do(func() {
						gauges("held", map[string]int64{
							"node.fetches_active": 2, "node.store_contents": 2,
							"node.wires": 1, "node.banned_peers": 0, // both fetches ride the one wire
						})
						close(hold)
					})
				}
				peak = max(peak, n)
				if tc.budget > 0 && !done(transfers[0]) && !done(transfers[1]) {
					sum, within := 0, true
					for i, tx := range transfers {
						asked, fair := tx.Orchestrator().Asked(), share(tc.budget, len(transfers), i)
						if prev[i] > 0 && asked > fair && asked > prev[i] {
							t.Fatalf("fetch %d asked for %d, up from %d, above its share of %d", i, asked, prev[i], fair)
						}
						prev[i] = asked
						sum += asked
						within = within && asked > 0 && asked <= fair
					}
					if settled && sum > tc.budget {
						t.Fatalf("the fetches asked for %d frames, over the %d-frame budget, after both sat within their shares", sum, tc.budget)
					}
					settled = settled || within
				}
				time.Sleep(200 * time.Microsecond)
			}
			waitIntact(t, transfers, datas)
			if peak == 0 {
				t.Fatal("node.window_inflight read 0 throughout the fetches")
			}
			if tc.budget > 0 && !settled {
				t.Fatalf("the fetches' requests never came back within their shares of the %d-frame budget while both ran", tc.budget)
			}
			if n := inflight(); n != 0 {
				t.Fatalf("node.window_inflight = %d once the fetches ended, want 0", n)
			}
			gauges("ended", map[string]int64{
				"node.fetches_active": 0, "node.store_contents": 2, "node.banned_peers": 0,
			})
		})
	}
}
