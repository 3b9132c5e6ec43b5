package node

// fabric_test.go pins the connection-fabric acceptance criterion: a
// node fetching several contents from the same peer opens exactly one
// transport connection — every content rides the shared wire as a
// subchannel.

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peer"
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
