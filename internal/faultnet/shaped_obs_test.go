package faultnet

// shaped_obs_test.go pins the shaped net's observability surface
// (PR 10): per-endpoint, per-direction byte aggregation via
// ShapedNet.LinkStats — the up/down split that exposes asymmetric-link
// saturation — and the per-link-class registry metrics SetObs attaches.

import (
	"io"
	"net"
	"testing"

	"icd/internal/obs"
)

// TestShapedNetLinkStatsPerDirection runs in both cost models: the
// charge-once shaper and delivery-latency mode (the one wan_rtt50 and
// `-exp fabric` links use) must feed the same stats and class metrics.
func TestShapedNetLinkStatsPerDirection(t *testing.T) {
	t.Run("charge-once", func(t *testing.T) { testLinkStatsPerDirection(t, false) })
	t.Run("delivery", func(t *testing.T) { testLinkStatsPerDirection(t, true) })
}

func testLinkStatsPerDirection(t *testing.T, delivery bool) {
	sn := NewShapedNet(42)
	sn.SetClock(&virtualClock{})
	sn.SetDeliveryLatency(delivery)
	sn.SetClass("a", LinkClass{Name: "dsl"})
	sn.SetClass("b", LinkClass{Name: "lan"})
	r := obs.NewRegistry()
	sn.SetObs(r)

	ln, err := sn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const toB, toA = 300, 100
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, make([]byte, toB)); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(make([]byte, toA))
		done <- err
	}()

	conn, err := sn.Node("a").Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, toB)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, toA)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	a, b := sn.LinkStats("a"), sn.LinkStats("b")
	if a.Up.Bytes != toB || a.Down.Bytes != toA {
		t.Fatalf("a up/down = %d/%d bytes, want %d/%d", a.Up.Bytes, a.Down.Bytes, toB, toA)
	}
	if b.Up.Bytes != toA || b.Down.Bytes != toB {
		t.Fatalf("b up/down = %d/%d bytes, want %d/%d", b.Up.Bytes, b.Down.Bytes, toA, toB)
	}
	if a.Up.Chunks == 0 || a.Down.Chunks == 0 {
		t.Fatalf("chunk counts missing: %+v", a)
	}

	// The sending endpoint's class labels each direction's traffic.
	if got := r.Counter("faultnet.bytes{class=dsl}").Value(); got != toB {
		t.Fatalf("class dsl bytes = %d, want %d", got, toB)
	}
	if got := r.Counter("faultnet.bytes{class=lan}").Value(); got != toA {
		t.Fatalf("class lan bytes = %d, want %d", got, toA)
	}
	found := false
	for _, m := range r.Snapshot() {
		if m.Name == "faultnet.shaped_delay_ms{class=dsl}" && m.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("shaped-delay histogram for class dsl never observed")
	}
}

// TestShapedNetLinkStatsUnknownAddr pins the zero answer for an
// endpoint that never dialed or accepted.
func TestShapedNetLinkStatsUnknownAddr(t *testing.T) {
	sn := NewShapedNet(1)
	if es := sn.LinkStats("ghost"); es != (EndpointStats{}) {
		t.Fatalf("unknown endpoint has stats: %+v", es)
	}
}

var _ net.Conn = (*ShapedConn)(nil)
