package node

// fabric_test.go pins the connection-fabric acceptance criterion: a
// node fetching several contents from the same peer opens exactly one
// transport connection — every content rides the shared wire as a
// subchannel — and the inbound side's one guard, MaxInbound: a dial
// over the cap is refused busy and redialed.

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peer"
	"icd/internal/peermux"
	"icd/internal/protocol"
	"icd/internal/testutil"
)

// countingTransport wraps a Transport and counts successful dials.
type countingTransport struct {
	faultnet.Transport
	dials atomic.Int64
}

func (c *countingTransport) Dial(addr string) (net.Conn, error) {
	conn, err := c.Transport.Dial(addr)
	if err == nil {
		c.dials.Add(1)
	}
	return conn, err
}

// TestNodeFabricOneConnectionPerPeer: a provider node serving three
// contents on an in-process pipe network, a consumer fetching all three
// concurrently through a dial-counting transport.
func TestNodeFabricOneConnectionPerPeer(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	pn := faultnet.NewPipeNet()

	provider := New(Options{Listen: "provider", Transport: pn, Tick: 10 * time.Millisecond})
	infos := make([]peer.ContentInfo, 3)
	datas := make([][]byte, 3)
	for i := range infos {
		// Big enough that the first fetch is still running when the
		// third opens its channel: a wire closes with its last channel.
		infos[i], datas[i] = testContent(t, 0xFAB0+uint64(i), 2000, 64)
		if err := provider.ServeFull(infos[i], datas[i], true); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := pn.Listen("provider")
	if err != nil {
		t.Fatal(err)
	}
	go provider.Serve(ln)
	defer provider.Close()

	tr := &countingTransport{Transport: pn.Node("consumer")}
	consumer := New(Options{
		Listen:    "consumer",
		Transport: tr,
		Tick:      10 * time.Millisecond,
		Fetch:     peer.FetchOptions{Batch: 16, Timeout: 10 * time.Second},
	})
	defer consumer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	transfers := make([]*Transfer, len(infos))
	for i, info := range infos {
		tx, err := consumer.StartFetch(ctx, info.ID, "provider")
		if err != nil {
			t.Fatal(err)
		}
		transfers[i] = tx
	}
	for i, tx := range transfers {
		res, err := tx.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || !bytes.Equal(res.Data, datas[i]) {
			t.Fatalf("content %#x not recovered", infos[i].ID)
		}
	}
	if got := tr.dials.Load(); got != 1 {
		t.Fatalf("fetching 3 contents from one peer used %d connections, want 1 (shared fabric wire)", got)
	}
}

// TestNodeMaxInboundBusyRedial: a node serving under MaxInbound 1 with
// its one slot taken answers a second node's dial with the busy refusal,
// charging nobody. Under a redial budget the fetch redials with backoff
// and completes once the slot frees; at the default fetch options
// (MaxReconnects 0) it gives the peer up at the first busy answer.
func TestNodeMaxInboundBusyRedial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fetch peer.FetchOptions
	}{
		{"default options", peer.FetchOptions{}},
		{"redial budget", peer.FetchOptions{MaxReconnects: 1000, ReconnectBackoff: 5 * time.Millisecond, MaxReconnectBackoff: 20 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(testutil.CheckGoroutines(t))
			info, data := testContent(t, 0xB5B5, 200, 64)
			pn := faultnet.NewPipeNet()
			provider := New(Options{Listen: "provider", Transport: pn, MaxInbound: 1, Tick: 10 * time.Millisecond})
			t.Cleanup(func() { provider.Close() })
			if err := provider.ServeFull(info, data, true); err != nil {
				t.Fatal(err)
			}
			ln, err := pn.Listen("provider")
			if err != nil {
				t.Fatal(err)
			}
			go provider.Serve(ln)

			// Take the one slot: a wire whose open the provider answered is
			// admitted, and holds its slot until it closes.
			conn, err := pn.Node("holder").Dial("provider")
			if err != nil {
				t.Fatal(err)
			}
			holder, err := peermux.Dial(conn, peermux.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()
			ch, err := holder.Open(protocol.Hello{ContentID: info.ID}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}

			consumer := New(Options{Listen: "consumer", Transport: pn.Node("consumer"), Tick: 10 * time.Millisecond, Fetch: tc.fetch})
			t.Cleanup(func() { consumer.Close() })
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			tx, err := consumer.StartFetch(ctx, info.ID, "provider")
			if err != nil {
				t.Fatal(err)
			}

			if tc.fetch.MaxReconnects == 0 {
				res, err := tx.Wait()
				if err == nil {
					t.Fatal("the fetch completed from a provider that refused it")
				}
				if busy := provider.Obs().Counter("mux.busy").Value(); busy != 1 {
					t.Fatalf("provider refused %d dials over its cap, want exactly the fetch's one", busy)
				}
				if len(res.Peers) != 1 || res.Peers[0].Reconnects != 0 || res.Peers[0].DialFailures != 0 ||
					res.Peers[0].Err == nil || !strings.Contains(res.Peers[0].Err.Error(), protocol.ReasonBusy) {
					t.Fatalf("peer rows %+v: want one provider, given up at the busy answer, no redial, no dial failure", res.Peers)
				}
				if score := consumer.Penalties().Score("provider"); score != 0 {
					t.Fatalf("busy answer charged the provider %v", score)
				}
				return
			}

			deadline := time.Now().Add(5 * time.Second)
			for provider.Obs().Counter("mux.busy").Value() < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if busy := provider.Obs().Counter("mux.busy").Value(); busy < 2 {
				t.Fatalf("provider refused %d dials over its cap, want the fetch's first dial and a redial", busy)
			}
			if done(tx) {
				t.Fatal("the fetch ended while the provider refused it")
			}
			ch.Close()
			holder.Close()

			res, err := tx.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || !bytes.Equal(res.Data, data) {
				t.Fatal("content not recovered after the busy refusals")
			}
			if len(res.Peers) != 1 || res.Peers[0].Reconnects == 0 || res.Peers[0].DialFailures != 0 {
				t.Fatalf("peer rows %+v: want one provider, redialed, no dial charged as failed", res.Peers)
			}
		})
	}
}
