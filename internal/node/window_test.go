package node

// window_test.go pins the node's budgets end to end: under a
// WindowBudget and a MaxConns, concurrent fetches over one fabric wire
// each hold exactly their even share, a share changes only when a fetch
// starts or ends, and the transfers complete intact. Run under -race
// this is the concurrency gate on the Orchestrator's window plumbing
// (SetChannelWindow vs live channels) end to end.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peer"
	"icd/internal/testutil"
)

// budgetSwarm serves one content per entry of blocks (that many source
// blocks of 64 bytes) from a provider over a shaped net whose links
// each add latency at delivery, and returns a consumer node built from
// opts, both closed at test cleanup. A delivery-latency link makes the
// credit window the binding throughput constraint (about one window per
// round trip), so the transfers can be observed mid-flight without
// being large.
func budgetSwarm(t *testing.T, latency time.Duration, blocks []int, opts Options) (*Node, []peer.ContentInfo, [][]byte) {
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
	ln, err := sn.Listen("provider")
	if err != nil {
		t.Fatal(err)
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
		Options{Tick: tick, MaxConns: slots, WindowBudget: budget})

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
// fetches: each channel moves two frames per round trip, and every
// content still arrives intact.
func TestNodeTinyWindowBudget(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	consumer, infos, datas := budgetSwarm(t, time.Millisecond, []int{200, 200, 200},
		Options{Tick: 5 * time.Millisecond, WindowBudget: 6})

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
		Options{Tick: 5 * time.Millisecond, MaxConns: slots, WindowBudget: budget})

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
