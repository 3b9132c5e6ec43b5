package peer

// scale_test.go pressure-tests the node-wide shared state — the Gossip
// directory and the PenaltyBox — at thousand-node swarm scale: a node in
// a 1000-node scenario hears well past a thousand distinct
// advertisements and observes failures from as many unique addresses,
// and both structures must hold their memory bound while keeping the
// entries that matter (heavily-mentioned ads, heavy offenders) ranked on
// top.

import (
	"fmt"
	"testing"
	"time"

	"icd/internal/protocol"
)

// ad builds a distinct advertisement for one shared content.
func scaleAd(i int) protocol.PeerAd {
	return protocol.PeerAd{ContentID: 7, Addr: fmt.Sprintf("node-%d:4000", i)}
}

func TestGossipFloodHoldsCapAndRanking(t *testing.T) {
	g := NewGossip("self:4000")

	// Flood with 1500 distinct ads: only the first MaxGossipAds are
	// admitted, everything past the cap is refused (Learn false), and
	// the directory never exceeds its bound.
	const flood = 1500
	admitted := 0
	for i := 0; i < flood; i++ {
		if g.Learn(scaleAd(i)) {
			admitted++
		}
	}
	if admitted != MaxGossipAds {
		t.Fatalf("admitted %d ads, want exactly %d", admitted, MaxGossipAds)
	}
	if g.Len() != MaxGossipAds {
		t.Fatalf("directory holds %d ads, cap %d", g.Len(), MaxGossipAds)
	}
	if g.Learn(scaleAd(flood)) {
		t.Fatal("ad admitted past the directory cap")
	}

	// Re-mentions of in-directory ads still count: a full directory keeps
	// accumulating liveness evidence, and Snapshot's ranking must put the
	// heavily-vouched ads first even after the flood.
	hot := []int{201, 7, 133}
	for rank, i := range hot {
		for m := 0; m < 10*(len(hot)-rank); m++ {
			if g.Learn(scaleAd(i)) {
				t.Fatalf("re-mention of node-%d reported as new", i)
			}
		}
	}
	top := g.AppendSnapshot(nil, 7, len(hot))
	if len(top) != len(hot) {
		t.Fatalf("snapshot returned %d ads, want %d", len(top), len(hot))
	}
	for rank, i := range hot {
		if top[rank] != scaleAd(i) {
			t.Fatalf("snapshot rank %d = %v, want %v", rank, top[rank], scaleAd(i))
		}
	}
	if got := mentions(g, scaleAd(hot[0])); got != 31 {
		t.Fatalf("hottest ad has %d hits, want 31", got)
	}

	// Expiry under flood: aging out the whole directory frees every slot,
	// and previously-refused addresses get in on their next mention.
	g.mu.Lock()
	for _, e := range g.ads {
		e.lastHeard = e.lastHeard.Add(-time.Hour)
	}
	g.mu.Unlock()
	if dropped := g.Expire(time.Minute); dropped != MaxGossipAds {
		t.Fatalf("expire dropped %d ads, want %d", dropped, MaxGossipAds)
	}
	if !g.Learn(scaleAd(flood)) {
		t.Fatal("freed directory refused a new ad")
	}
}

func TestPenaltyBoxThousandAddressFlood(t *testing.T) {
	clk := newBrokenClock()
	p := NewPenaltyBox()
	installPenaltyClock(p, clk)

	// Mark a band of heavy offenders, then flood with 2000 light unique
	// addresses — twice the cap. The box must stay bounded and every
	// heavy offender must survive the eviction churn with its ban intact.
	const heavies = 32
	for i := 0; i < heavies; i++ {
		p.Penalize(fmt.Sprintf("heavy-%d", i), 5*DefaultBanScore)
	}
	for i := 0; i < 2*maxPenaltyEntries; i++ {
		p.Penalize(fmt.Sprintf("flood-%d", i), PenaltyDialFail)
	}
	if p.Len() > maxPenaltyEntries {
		t.Fatalf("box holds %d entries, cap %d", p.Len(), maxPenaltyEntries)
	}
	for i := 0; i < heavies; i++ {
		addr := fmt.Sprintf("heavy-%d", i)
		if !p.Banned(addr) {
			t.Fatalf("%s lost its ban to the flood (score %v)", addr, p.Score(addr))
		}
	}
}
