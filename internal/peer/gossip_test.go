package peer

// gossip_test.go covers the gossip building blocks in isolation: the
// Gossip directory's dedup/cap/rank rules, and the orchestrator's
// considerDiscovered admission path — immediate admission below
// MaxPeers, deferral when full, and promotion of the directory's best
// candidate when a freed slot appears.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
)

func ad(id uint64, addr string) protocol.PeerAd {
	return protocol.PeerAd{ContentID: id, Addr: addr}
}

// mentions returns the mention count of a in g (0 when unknown).
func mentions(g *Gossip, a protocol.PeerAd) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.ads[a]; ok {
		return e.hits
	}
	return 0
}

func TestGossipDirectoryDedupAndSelf(t *testing.T) {
	g := NewGossip("me:1")
	if g.Learn(ad(7, "me:1")) {
		t.Fatal("learned own address")
	}
	if g.Learn(ad(7, "")) {
		t.Fatal("learned empty address")
	}
	if !g.Learn(ad(7, "a:1")) {
		t.Fatal("first mention not learned")
	}
	if g.Learn(ad(7, "a:1")) {
		t.Fatal("second mention reported as new")
	}
	if g.Len() != 1 {
		t.Fatalf("directory has %d entries, want 1", g.Len())
	}
	if got := mentions(g, ad(7, "a:1")); got != 2 {
		t.Fatalf("hit count %d, want 2", got)
	}
	if g.Self() != "me:1" {
		t.Fatalf("self = %q", g.Self())
	}
}

func TestGossipSnapshotRankingAndFilter(t *testing.T) {
	g := NewGossip("")
	g.Learn(ad(7, "once:1"))
	g.Learn(ad(7, "thrice:1"))
	g.Learn(ad(9, "other-content:1"))
	for i := 0; i < 2; i++ {
		g.Learn(ad(7, "thrice:1"))
	}
	got := g.AppendSnapshot(nil, 7, 0)
	if len(got) != 2 {
		t.Fatalf("snapshot(7) has %d ads: %v", len(got), got)
	}
	if got[0].Addr != "thrice:1" || got[1].Addr != "once:1" {
		t.Fatalf("ranking wrong: %v", got)
	}
	if all := g.AppendSnapshot(nil, 0, 0); len(all) != 3 {
		t.Fatalf("snapshot(0) has %d ads, want 3", len(all))
	}
	if capped := g.AppendSnapshot(nil, 7, 1); len(capped) != 1 || capped[0].Addr != "thrice:1" {
		t.Fatalf("max=1 snapshot wrong: %v", capped)
	}
	// Appended behind what dst holds: the prefix stays, the ranking is the
	// same, and a dst with the room costs nothing.
	prefix := []protocol.PeerAd{ad(1, "kept:1"), ad(2, "kept:2")}
	dst := append(make([]protocol.PeerAd, 0, 8), prefix...)
	if allocs := testing.AllocsPerRun(20, func() { dst = g.AppendSnapshot(dst[:len(prefix)], 7, 0) }); allocs != 0 {
		t.Fatalf("a snapshot into a dst with the room allocates %.1f times", allocs)
	}
	if want := append(prefix, got...); !slices.Equal(dst, want) {
		t.Fatalf("appended snapshot %v, want %v", dst, want)
	}
}

func TestGossipDirectoryCap(t *testing.T) {
	g := NewGossip("")
	for i := 0; i < MaxGossipAds+10; i++ {
		g.Learn(ad(1, fmt.Sprintf("peer-%d:1", i)))
	}
	if g.Len() != MaxGossipAds {
		t.Fatalf("directory has %d entries, want the %d cap", g.Len(), MaxGossipAds)
	}
	// Known entries still count mentions past the cap.
	if g.Learn(ad(1, "peer-0:1")) {
		t.Fatal("known ad reported as new")
	}
	if mentions(g, ad(1, "peer-0:1")) != 2 {
		t.Fatal("mention not counted at cap")
	}
}

func TestGossipSubscriberRunsWithoutLock(t *testing.T) {
	// A subscriber may call back into the directory (the orchestrator's
	// admission path ranks it); this must not deadlock.
	g := NewGossip("")
	calls := 0
	g.subscribe(func(a protocol.PeerAd) {
		calls++
		g.Len()
		g.AppendSnapshot(nil, 0, 0)
	})
	for _, a := range []protocol.PeerAd{ad(1, "a:1"), ad(1, "b:1"), ad(1, "a:1")} {
		g.Learn(a)
	}
	if calls != 2 {
		t.Fatalf("subscriber ran %d times, want 2 (one per new ad)", calls)
	}
}

// TestCandidatePoolDefersAndPromotes is the admission-path scenario:
// with MaxPeers=1 occupied, discovered addresses are deferred — left in
// the directory, which ranks them by mention count — and dropping the
// live peer promotes the most-vouched-for one, which then finishes the
// transfer; the other is not admitted without a free slot.
func TestCandidatePoolDefersAndPromotes(t *testing.T) {
	h := newHarness(t, 100, 48)
	first := h.addPartial("first", 30, 3) // too little to ever finish
	hi := h.addFull("cand-hi", 0)
	lo := h.addFull("cand-lo", 0)

	g := NewGossip("")
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             8,
		Timeout:           5 * time.Second,
		MaxPeers:          1,
		MaxUselessBatches: 1 << 20,
		Gossip:            g,
		Dial:              h.pn.dial,
	})
	run := h.runAsync(o, first)
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Two mentions for cand-hi, one for cand-lo: both defer (the slot is
	// taken), cand-hi outranks.
	g.Learn(ad(h.info.ID, hi))
	g.Learn(ad(h.info.ID, hi))
	g.Learn(ad(h.info.ID, lo))
	h.await("candidates deferred, not admitted", 2*time.Second, func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.met.gossipDefer.Value() == 2 && len(o.sessions) == 1
	})
	o.mu.Lock()
	best, ok := o.nextCandidateLocked()
	o.mu.Unlock()
	if !ok || best.Addr != hi {
		t.Fatalf("the directory's best candidate is %v (%v), want %s", best, ok, hi)
	}

	if !o.DropPeer(first) {
		t.Fatal("live peer not found")
	}
	// Latch on the cumulative session table, not the live one: the
	// promoted transfer can complete inside a single poll interval, and
	// a finished session has already left Sessions().
	h.await("best candidate promoted", 2*time.Second, func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		for _, st := range o.stats {
			if st.Addr == hi {
				return true
			}
		}
		return false
	})

	res := run.wait(t)
	h.verify(res)
	byAddr := make(map[string]PeerStats)
	for _, p := range res.Peers {
		byAddr[p.Addr] = p
	}
	if st, ok := byAddr[hi]; !ok || !st.Discovered {
		t.Fatalf("promoted candidate not marked Discovered: %+v", byAddr)
	}
	if st, ok := byAddr[hi]; !ok || st.UsefulSymbols == 0 {
		t.Fatalf("promoted candidate contributed nothing: %+v", st)
	}
	if _, ok := byAddr[lo]; ok {
		t.Fatalf("lower-ranked candidate admitted without a free slot: %+v", byAddr)
	}
}

// TestDeferredCandidateAgesOutWithDirectory pins what a deferral keeps:
// nothing of its own. A discovery deferred under MaxPeers lasts as long
// as the directory keeps it, so once a node's housekeeping ages it out
// (Expire at the node's gossipMaxAge, two minutes) a freed slot has no
// one to promote. A re-mention brings it back through the admission
// path, deferred again, and the next freed slot promotes it.
func TestDeferredCandidateAgesOutWithDirectory(t *testing.T) {
	h := newHarness(t, 100, 48)
	first := h.addPartial("first", 30, 3) // too little to ever finish
	cand := h.addFull("cand", 0)

	g := NewGossip("")
	var clock atomic.Int64
	clock.Store(time.Unix(1000, 0).UnixNano())
	g.now = func() time.Time { return time.Unix(0, clock.Load()) }
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             8,
		Timeout:           5 * time.Second,
		MaxPeers:          1,
		MaxUselessBatches: 1 << 20,
		Gossip:            g,
		Dial:              h.pn.dial,
	})
	run := h.runAsync(o, first)
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	deferred := func(n int64) func() bool {
		return func() bool {
			o.mu.Lock()
			defer o.mu.Unlock()
			return o.met.gossipDefer.Value() == n && len(o.sessions) == 1
		}
	}

	g.Learn(ad(h.info.ID, cand))
	h.await("candidate deferred", 2*time.Second, deferred(1))
	clock.Add(int64(3 * time.Minute))
	if dropped := g.Expire(2 * time.Minute); dropped != 1 {
		t.Fatalf("Expire dropped %d entries, want the deferred one", dropped)
	}
	o.mu.Lock()
	_, ok := o.nextCandidateLocked()
	o.mu.Unlock()
	if ok {
		t.Fatal("an aged-out deferral is still promotable")
	}

	g.Learn(ad(h.info.ID, cand)) // the next mention: new to the directory again
	h.await("re-mentioned candidate deferred again", 2*time.Second, deferred(2))
	if !o.DropPeer(first) {
		t.Fatal("live peer not found")
	}
	res := run.wait(t)
	h.verify(res)
	if got := o.met.gossipPromote.Value(); got != 1 {
		t.Fatalf("%d promotions, want 1", got)
	}
	if !slices.ContainsFunc(res.Peers, func(p PeerStats) bool { return p.Addr == cand && p.Discovered }) {
		t.Fatalf("re-mentioned candidate not promoted: %+v", res.Peers)
	}
}

// TestFetchAdmitsDirectoryHeldBeforeRun: entries a shared directory held
// for the content before the fetch existed go through Run's admission
// like live discoveries. With free slots they are admitted at Run, so no
// exit promotes anything later; with MaxPeers taken they are deferred,
// and a freed slot promotes the more-mentioned one. An entry for another
// content is never dialed.
func TestFetchAdmitsDirectoryHeldBeforeRun(t *testing.T) {
	for _, c := range []struct {
		name                         string
		maxPeers                     int
		admits, defers, promotes, lo int64
	}{
		{"free slots", 0, 2, 0, 0, 1},
		{"MaxPeers taken", 1, 0, 2, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, 100, 48)
			first := h.addPartial("first", 30, 3)
			hi := h.addFull("cand-hi", 0)
			lo := h.addFull("cand-lo", 0)
			other := h.addFull("other", 0)

			g := NewGossip("")
			g.Learn(ad(h.info.ID, hi))
			g.Learn(ad(h.info.ID, hi))
			g.Learn(ad(h.info.ID, lo))
			g.Learn(ad(h.info.ID+1, other))
			o := NewOrchestrator(h.info.ID, FetchOptions{
				Batch:             8,
				Timeout:           5 * time.Second,
				MaxPeers:          c.maxPeers,
				MaxUselessBatches: 1 << 20,
				Gossip:            g,
				Dial:              h.pn.dial,
			})
			run := h.runAsync(o, first)
			h.await("the directory's entries considered", 2*time.Second, func() bool {
				return o.met.gossipAdmit.Value() == c.admits && o.met.gossipDefer.Value() == c.defers
			})
			if c.promotes > 0 && !o.DropPeer(first) {
				t.Fatal("live peer not found")
			}
			res := run.wait(t)
			h.verify(res)
			if got := o.met.gossipPromote.Value(); got != c.promotes {
				t.Fatalf("%d promotions, want %d", got, c.promotes)
			}
			dialed := func(addr string) bool {
				return slices.ContainsFunc(res.Peers, func(p PeerStats) bool { return p.Addr == addr })
			}
			if !dialed(hi) || dialed(lo) != (c.lo == 1) || dialed(other) {
				t.Fatalf("dialed hi %v, lo %v (want %v), other %v: %+v",
					dialed(hi), dialed(lo), c.lo == 1, dialed(other), res.Peers)
			}
		})
	}
}

// TestNextCandidateAllocs: a freed slot's pick, the directory's best
// entry for the content not yet attempted, allocates nothing once the
// ranking scratch is warm.
func TestNextCandidateAllocs(t *testing.T) {
	const id = 7
	g := NewGossip("me:1")
	for i := 0; i < 40; i++ {
		g.Learn(ad(id, fmt.Sprintf("p%d:1", i)))
	}
	g.Learn(ad(id, "p30:1")) // the most mentioned
	o := NewOrchestrator(id, FetchOptions{Gossip: g, AdvertiseAddr: "me:1"})
	o.finish()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted["p30:1"] = true
	o.penalties.Penalize("p0:1", 2*DefaultBanScore)
	var best protocol.PeerAd
	if allocs := testing.AllocsPerRun(100, func() { best, _ = o.nextCandidateLocked() }); allocs != 0 {
		t.Errorf("picking a candidate allocates %.1f times, want 0", allocs)
	}
	if best.Addr != "p1:1" {
		t.Fatalf("picked %q, want p1:1: the first heard of those not attempted or banned", best.Addr)
	}
}

// TestDiscoveredPeerAdmittedBelowCap pins immediate admission: while
// the engine has free MaxPeers slots, a learned advertisement becomes a
// session without waiting in the directory.
func TestDiscoveredPeerAdmittedBelowCap(t *testing.T) {
	h := newHarness(t, 100, 48)
	first := h.addPartial("first", 30, 3)
	full := h.addFull("found", 0)

	g := NewGossip("")
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             8,
		Timeout:           5 * time.Second,
		MaxPeers:          4,
		MaxUselessBatches: 1 << 20,
		Gossip:            g,
		Dial:              h.pn.dial,
	})
	run := h.runAsync(o, first)
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.Learn(ad(h.info.ID, full))
	res := run.wait(t)
	h.verify(res)
	foundIt := false
	for _, p := range res.Peers {
		if p.Addr == full && p.Discovered {
			foundIt = true
		}
	}
	if !foundIt {
		t.Fatalf("advertised peer not admitted: %+v", res.Peers)
	}

	// Post-completion discoveries are ignored cleanly.
	if o.considerDiscovered(ad(h.info.ID, "late:1")) {
		t.Fatal("admission after completion")
	}
}

// TestConsiderDiscoveredRejectsJunk pins the admission filters: wrong
// content, self address, duplicates of live or attempted sessions.
func TestConsiderDiscoveredRejectsJunk(t *testing.T) {
	h := newHarness(t, 100, 48)
	first := h.addPartial("first", 30, 3)
	g := NewGossip("self:1")
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             8,
		Timeout:           5 * time.Second,
		MaxUselessBatches: 1 << 20,
		AdvertiseAddr:     "self:1",
		Gossip:            g,
		Dial:              h.pn.dial,
	})
	run := h.runAsync(o, first)
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	if o.considerDiscovered(ad(h.info.ID+1, "wrong-content:1")) {
		t.Fatal("admitted wrong content id")
	}
	if o.considerDiscovered(ad(h.info.ID, "self:1")) {
		t.Fatal("admitted own address")
	}
	if o.considerDiscovered(ad(h.info.ID, first)) {
		t.Fatal("admitted already-live address")
	}
	o.finish() // cancel the open-ended transfer
	run.waitErr()
}

// TestGossipExpire is the liveness-hygiene table: entries older than
// maxAge are swept, re-mentions refresh an entry's clock, and expired
// addresses re-enter the directory (and re-announce to subscribers) at
// their next mention.
func TestGossipExpire(t *testing.T) {
	base := time.Unix(1000, 0)
	cases := []struct {
		name        string
		ages        map[string]time.Duration // address → time since last heard
		refresh     []string                 // re-mentioned at sweep time (age 0)
		maxAge      time.Duration
		wantDropped int
		wantKept    []string
	}{
		{
			name:        "all fresh",
			ages:        map[string]time.Duration{"a:1": time.Second, "b:1": 2 * time.Second},
			maxAge:      time.Minute,
			wantDropped: 0,
			wantKept:    []string{"a:1", "b:1"},
		},
		{
			name:        "stale swept, fresh kept",
			ages:        map[string]time.Duration{"a:1": 2 * time.Minute, "b:1": time.Second},
			maxAge:      time.Minute,
			wantDropped: 1,
			wantKept:    []string{"b:1"},
		},
		{
			name:        "exact boundary survives",
			ages:        map[string]time.Duration{"a:1": time.Minute},
			maxAge:      time.Minute,
			wantDropped: 0,
			wantKept:    []string{"a:1"},
		},
		{
			name:        "re-mention rescues a stale entry",
			ages:        map[string]time.Duration{"a:1": 2 * time.Minute, "b:1": 2 * time.Minute},
			refresh:     []string{"a:1"},
			maxAge:      time.Minute,
			wantDropped: 1,
			wantKept:    []string{"a:1"},
		},
		{
			name:        "zero maxAge is a no-op",
			ages:        map[string]time.Duration{"a:1": 24 * time.Hour},
			maxAge:      0,
			wantDropped: 0,
			wantKept:    []string{"a:1"},
		},
		{
			name:        "everything stale",
			ages:        map[string]time.Duration{"a:1": time.Hour, "b:1": time.Hour, "c:1": time.Hour},
			maxAge:      time.Minute,
			wantDropped: 3,
			wantKept:    nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGossip("me:1")
			now := base
			g.now = func() time.Time { return now }
			for addr, age := range c.ages {
				now = base.Add(-age)
				if !g.Learn(ad(7, addr)) {
					t.Fatalf("seeding %s failed", addr)
				}
			}
			now = base
			for _, addr := range c.refresh {
				if g.Learn(ad(7, addr)) {
					t.Fatalf("refresh of %s reported as new", addr)
				}
			}
			if got := g.Expire(c.maxAge); got != c.wantDropped {
				t.Fatalf("Expire dropped %d, want %d", got, c.wantDropped)
			}
			if g.Len() != len(c.wantKept) {
				t.Fatalf("%d entries kept, want %d", g.Len(), len(c.wantKept))
			}
			for _, addr := range c.wantKept {
				if mentions(g, ad(7, addr)) == 0 {
					t.Fatalf("kept entry %s missing after sweep", addr)
				}
			}
		})
	}
}

// TestGossipExpiredAddressRediscovers pins the round trip: after a
// sweep the address is new again — Learn reports it and subscribers
// (the orchestrator admission path in production) hear it a second
// time.
func TestGossipExpiredAddressRediscovers(t *testing.T) {
	g := NewGossip("me:1")
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	announced := 0
	g.subscribe(func(protocol.PeerAd) { announced++ })
	g.Learn(ad(7, "a:1"))
	now = now.Add(time.Hour)
	if g.Expire(time.Minute) != 1 {
		t.Fatal("stale entry not swept")
	}
	if !g.Learn(ad(7, "a:1")) {
		t.Fatal("expired address not re-learnable")
	}
	if announced != 2 {
		t.Fatalf("subscriber heard %d announcements, want 2", announced)
	}
}

// TestGossipGenerationMovesWithSnapshots: the generation moves with every
// change a Snapshot can show — a new ad, a re-mention (the ranking may
// change), an Expire that drops something — and with nothing else.
func TestGossipGenerationMovesWithSnapshots(t *testing.T) {
	g := NewGossip("me:1")
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	for _, step := range []struct {
		name  string
		do    func()
		moves bool
	}{
		{"new ad", func() { g.Learn(ad(7, "a:1")) }, true},
		{"re-mention", func() { g.Learn(ad(7, "a:1")) }, true},
		{"own address", func() { g.Learn(ad(7, "me:1")) }, false},
		{"empty address", func() { g.Learn(ad(7, "")) }, false},
		{"expire, nothing stale", func() { g.Expire(time.Minute) }, false},
		{"expire, one stale", func() { now = now.Add(time.Hour); g.Expire(time.Minute) }, true},
		{"snapshot", func() { g.AppendSnapshot(nil, 0, 0) }, false},
	} {
		before := g.generation()
		step.do()
		if moved := g.generation() != before; moved != step.moves {
			t.Fatalf("%s: generation moved = %v, want %v", step.name, moved, step.moves)
		}
	}
	for i := 0; len(g.ads) < MaxGossipAds; i++ {
		g.Learn(ad(7, fmt.Sprintf("fill:%d", i)))
	}
	before := g.generation()
	if g.Learn(ad(7, "over-cap:1")); g.generation() != before {
		t.Fatal("an ad dropped at the cap moved the generation")
	}
}

// TestServerRelaysOnlyNews: the PEERS frames a serving session sends are
// exactly "every entry of the directory's snapshot this connection has not
// been sent", ahead of the REQUEST's batch — whether the news is a new ad,
// a re-mention that lifts an ad into the snapshot's top MaxPeerAds, or an
// expiry that makes room there — and a REQUEST with no news gets none.
func TestServerRelaysOnlyNews(t *testing.T) {
	info, data := testContent(t, 40, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	mux := front(srv)
	g := mux.gossip
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	addr := func(i int) string { return fmt.Sprintf("p%d:1", i) }
	for i := 0; i < protocol.MaxPeerAds+6; i++ {
		if i == 10 {
			now = now.Add(time.Hour) // p0…p9 are an hour older than the rest
		}
		g.Learn(ad(info.ID, addr(i)))
	}
	ch := openSessionOn(t, mux, info.ID, "sender")
	ch.SetDeadline(time.Now().Add(time.Minute))
	sent := map[protocol.PeerAd]bool{}
	// request sends one REQUEST and checks its PEERS frames against the
	// snapshot; news says whether the step should bring any.
	request := func(step string, news bool) {
		t.Helper()
		var want []protocol.PeerAd
		for _, a := range g.AppendSnapshot(nil, info.ID, protocol.MaxPeerAds) {
			if !sent[a] {
				sent[a] = true
				want = append(want, a)
			}
		}
		if (len(want) > 0) != news {
			t.Fatalf("%s: the snapshot holds %d unsent ads; the step is wrong", step, len(want))
		}
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(1)); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		for done := false; !done; {
			f, err := ch.Next()
			if err != nil {
				t.Fatal(err)
			}
			switch f.Type {
			case protocol.TypePeers:
				got = append(got, bytes.Clone(f.Payload))
			case protocol.TypeDone:
				done = true
			}
		}
		switch {
		case !news && len(got) != 0:
			t.Fatalf("%s: %d PEERS frames for no news", step, len(got))
		case news && (len(got) != 1 || !bytes.Equal(got[0], protocol.AppendPeers(nil, want))):
			t.Fatalf("%s: PEERS frames %x, want one carrying %v", step, got, want)
		}
	}
	request("the first REQUEST: p0…p63", true)
	request("no news", false)
	g.Learn(ad(info.ID, addr(protocol.MaxPeerAds+5)))
	g.Learn(ad(info.ID, addr(protocol.MaxPeerAds+5)))
	request("a re-mention lifts p69 into the top 64", true)
	g.Learn(ad(info.ID, addr(0)))
	request("a re-mention of an ad already sent", false)
	now = now.Add(30 * time.Minute)
	if dropped := g.Expire(time.Hour); dropped != 9 {
		t.Fatalf("Expire dropped %d, want p1…p9", dropped)
	}
	request("an expiry makes room for p64…p68", true)
	g.Learn(ad(info.ID, "new:1"))
	request("a new ad", true)
	request("no news again", false)
	if len(sent) != protocol.MaxPeerAds+7 {
		t.Fatalf("%d ads relayed in all, want every one of %d", len(sent), protocol.MaxPeerAds+7)
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
}

// relayFrames runs one relay.send for content id and returns the PEERS
// payloads it wrote.
func relayFrames(t *testing.T, r *relay, src adSource, id uint64) [][]byte {
	t.Helper()
	var w bytes.Buffer
	if err := r.send(&w, src, id); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for w.Len() > 0 {
		f, err := protocol.ReadFrame(&w)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != protocol.TypePeers {
			t.Fatalf("relay wrote %v", f.Type)
		}
		got = append(got, bytes.Clone(f.Payload))
	}
	return got
}

// joinSession adds s to o's live sessions as startSessionLocked does,
// without starting its goroutine.
func joinSession(o *Orchestrator, s *session) {
	o.mu.Lock()
	o.sessions[s.addr] = s
	o.sessionsGen.Add(1)
	o.mu.Unlock()
}

// TestSessionRelaysOnlyNews is TestServerRelaysOnlyNews's mirror on the
// fetching end: at every check the session's relay writes exactly the
// frame a stateless relay would — collect gossipAdverts, keep what this
// connection has not been sent, stop at MaxPeerAds, encode — byte for
// byte, whether the news is a new ad, a re-mention that lifts an ad into
// the directory's top 64, a session joining or leaving, or the overflow
// of a check that stopped at the cap; and no news writes nothing. At most
// one other session is live at a time, so the collected order, which
// follows the session map's, is one order.
func TestSessionRelaysOnlyNews(t *testing.T) {
	const id = 7
	addr := func(p string, i int) string { return fmt.Sprintf("%s%d:1", p, i) }
	g := NewGossip("me:1")
	for i := 0; i < protocol.MaxPeerAds-2; i++ {
		g.Learn(ad(id, addr("p", i)))
	}
	g.Learn(ad(id+1, "other-content:1"))
	o := NewOrchestrator(id, FetchOptions{Gossip: g, AdvertiseAddr: "me:1"})
	o.finish() // admits and promotes nothing: the test moves the session set itself
	s := newSession(o, "sender:1")
	joinSession(o, s)
	// The peer talked to is never advertised to itself, but it takes its
	// place in the directory's top 64 before it is left out.
	g.Learn(ad(id, "sender:1"))

	// reference is the stateless relay every check is held to.
	refSent := map[protocol.PeerAd]bool{}
	reference := func() []byte {
		var fresh []protocol.PeerAd
		for _, a := range o.gossipAdverts(nil, s.addr) {
			if len(fresh) == protocol.MaxPeerAds {
				break
			}
			if !refSent[a] {
				refSent[a] = true
				fresh = append(fresh, a)
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		return protocol.AppendPeers(nil, fresh)
	}
	r := newRelay()
	check := func(step string, ads int) {
		t.Helper()
		want := reference()
		got := relayFrames(t, r, s, id)
		switch {
		case want == nil && len(got) != 0:
			t.Fatalf("%s: %d PEERS frames for no news", step, len(got))
		case want != nil && (len(got) != 1 || !bytes.Equal(got[0], want)):
			t.Fatalf("%s: PEERS frames %x, want one: %x", step, got, want)
		}
		if n := 0; want != nil {
			n = int(want[0]) | int(want[1])<<8
			if n != ads {
				t.Fatalf("%s: the frame carries %d ads, the step means %d", step, n, ads)
			}
		} else if ads != 0 {
			t.Fatalf("%s: no frame, the step means %d ads", step, ads)
		}
	}
	check("the first check: me and p0…p61", protocol.MaxPeerAds-1)
	check("no news", 0)
	g.Learn(ad(id, addr("p", 62)))
	check("a new ad", 1)
	g.Learn(ad(id, addr("p", 63)))
	check("a new ad below the top 64", 0)
	g.Learn(ad(id, addr("p", 63)))
	check("a re-mention lifts p63 into the top 64", 1)
	other := newSession(o, "b:1")
	joinSession(o, other)
	check("a session joins", 1)
	o.sessionExited(other)
	check("a session leaves", 0)
	for i := 0; i < protocol.MaxPeerAds; i++ {
		g.Learn(ad(id, addr("q", i)))
		g.Learn(ad(id, addr("q", i))) // above every p
		g.Learn(ad(id, addr("q", i)))
	}
	joinSession(o, newSession(o, "c:1"))
	check("65 ads of news: the first 64", protocol.MaxPeerAds)
	check("the overflow goes out on the next check", 1)
	check("no news again", 0)
}

// TestSessionsGenerationMoves: the session set's generation moves at each
// place the set changes — a session started, one evicted, one exited — so
// a session's relay never reads a stale set as unchanged.
func TestSessionsGenerationMoves(t *testing.T) {
	release := make(chan struct{})
	o := NewOrchestrator(7, FetchOptions{
		Gossip: NewGossip(""),
		Dial: func(string) (net.Conn, error) {
			<-release
			return nil, errors.New("unreachable")
		},
	})
	defer o.finish()
	moves := func(step string, do func()) {
		t.Helper()
		before := o.sessionsGen.Load()
		o.mu.Lock()
		do()
		o.mu.Unlock()
		if o.sessionsGen.Load() == before {
			t.Fatalf("%s: the generation did not move", step)
		}
	}
	moves("start a:1", func() { o.startSessionLocked("a:1", false) })
	moves("evict a:1", o.evictLowestLocked)
	moves("start b:1", func() { o.startSessionLocked("b:1", false) })
	before := o.sessionsGen.Load()
	close(release) // both dials fail: b:1 exits, a:1 left the set already
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		o.mu.Lock()
		live := len(o.sessions)
		o.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b:1 never exited")
		}
	}
	if o.sessionsGen.Load() == before {
		t.Fatal("b:1 exited and the generation did not move")
	}
}

// TestRelaySendAllocs pins the relay's cost at both ends: a check with no
// news allocates nothing, and neither does a check with news once the
// first one warmed the scratch — each run here lifts one more ad into the
// directory's top 64 with a re-mention and writes it in a frame (the sent
// set grows by that ad, its doubling amortized over the runs) — nor a new
// connection's first send once the shared scratches are warm. The news
// pins are held to bare frame writes: buffer pools shed under the race
// detector, and then nothing that writes can be pinned.
func TestRelaySendAllocs(t *testing.T) {
	framesFree := testing.AllocsPerRun(50, func() {
		protocol.WriteFrame(io.Discard, protocol.Frame{Type: protocol.TypePeers, Payload: []byte{0, 0}})
	}) == 0
	const id = 7
	// fill gives g 64 ads mentioned twice and 150 mentioned once, which
	// lift re-mentions into the top 64 one at a time.
	fill := func(g *Gossip) (lift func(i int)) {
		for i := 0; i < protocol.MaxPeerAds; i++ {
			g.Learn(ad(id, fmt.Sprintf("top%d:1", i)))
			g.Learn(ad(id, fmt.Sprintf("top%d:1", i)))
		}
		low := make([]protocol.PeerAd, 150)
		for i := range low {
			low[i] = ad(id, fmt.Sprintf("low%d:1", i))
			g.Learn(low[i])
		}
		return func(i int) {
			g.Learn(low[i])
			g.Learn(low[i])
		}
	}
	dir := NewGossip("")
	o := NewOrchestrator(id, FetchOptions{Gossip: NewGossip("me:1"), AdvertiseAddr: "me:1"})
	o.finish()
	s := newSession(o, "sender:1")
	joinSession(o, s)
	for _, end := range []struct {
		name string
		src  adSource
		lift func(i int)
		r    *relay
	}{
		{"session", s, fill(o.gossip), newRelay()},
		{"server", dir, fill(dir), newRelay(ad(id, "client:1"))},
	} {
		if got := relayFrames(t, end.r, end.src, id); len(got) != 1 {
			t.Fatalf("%s: the first send wrote %d frames, want 1", end.name, len(got))
		}
		if allocs := testing.AllocsPerRun(100, func() { end.r.send(io.Discard, end.src, id) }); allocs != 0 {
			t.Errorf("%s: a send with no news allocates %.1f times, want 0", end.name, allocs)
		}
		if !framesFree {
			continue
		}
		i := 0
		end.lift(i)
		if got := relayFrames(t, end.r, end.src, id); len(got) != 1 {
			t.Fatalf("%s: a lifted ad wrote %d frames, want 1", end.name, len(got))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			i++
			end.lift(i)
			end.r.send(io.Discard, end.src, id)
		}); allocs != 0 {
			t.Errorf("%s: a send with news allocates %.1f times after its first, want 0", end.name, allocs)
		}
	}
	if !framesFree || raceDetector { // pools shed under the race detector
		return
	}
	// New connections: a relay owns no payload scratch and the directory
	// grows its ranking scratch once, to its cap, so with both warmed on a
	// one-ad directory, each new connection's first send — a full frame of
	// news from the directory since filled — allocates nothing, and the
	// ranking scratch kept its size while the directory filled.
	fresh := NewGossip("")
	fresh.Learn(ad(id, "first:1"))
	relays := make([]*relay, 102)
	for i := range relays {
		relays[i] = newRelay(ad(id, "client:1"))
	}
	relayFrames(t, relays[0], fresh, id)
	ranked := cap(fresh.rank)
	fill(fresh)
	i := 1
	if allocs := testing.AllocsPerRun(100, func() {
		relays[i].send(io.Discard, fresh, id)
		i++
	}); allocs != 0 {
		t.Errorf("a new connection's first send allocates %.1f times, want 0", allocs)
	}
	if got := cap(fresh.rank); got != ranked {
		t.Errorf("the ranking scratch grew from %d to %d as the directory filled", ranked, got)
	}
}

// fakeAds is an adSource whose generations and ads the test sets, and
// which counts its collections.
type fakeAds struct {
	gens      [2]uint64
	ads       []protocol.PeerAd
	collected int
}

func (f *fakeAds) adGenerations() [2]uint64 { return f.gens }

func (f *fakeAds) appendAds(dst []protocol.PeerAd, _ uint64) []protocol.PeerAd {
	f.collected++
	return append(dst, f.ads...)
}

// TestRelayCollectsPerChange: a relay collects only when either
// generation moved since its last complete send, and after a send that
// stopped at MaxPeerAds it collects again whatever the generations say,
// which is how the overflow goes out.
func TestRelayCollectsPerChange(t *testing.T) {
	src := &fakeAds{}
	for i := 0; i < protocol.MaxPeerAds+3; i++ {
		src.ads = append(src.ads, ad(7, fmt.Sprintf("p%d:1", i)))
	}
	r := newRelay()
	for _, step := range []struct {
		name     string
		do       func()
		collects bool
		frameAds int
	}{
		{"the first send, 67 ads", func() {}, true, protocol.MaxPeerAds},
		{"stopped at the cap: the overflow", func() {}, true, 3},
		{"nothing moved", func() {}, false, 0},
		{"the directory moved", func() { src.gens[0]++ }, true, 0},
		{"the session set moved", func() { src.gens[1]++ }, true, 0},
		{"news", func() { src.gens[0]++; src.ads = append(src.ads, ad(7, "new:1")) }, true, 1},
		{"nothing moved again", func() {}, false, 0},
	} {
		step.do()
		before := src.collected
		got := relayFrames(t, r, src, 7)
		if collected := src.collected > before; collected != step.collects {
			t.Fatalf("%s: collected = %v, want %v", step.name, collected, step.collects)
		}
		n := 0
		if len(got) == 1 {
			n = int(got[0][0]) | int(got[0][1])<<8
		}
		if len(got) > 1 || n != step.frameAds {
			t.Fatalf("%s: %d frames carrying %d ads, want %d ads", step.name, len(got), n, step.frameAds)
		}
	}
}

// BenchmarkRelaySend is a send whose source moved but holds nothing new,
// on a connection that has been sent a full directory (MaxGossipAds
// ads): a membership test in the sent set for each of the MaxPeerAds ads
// it collects, and no frame.
func BenchmarkRelaySend(b *testing.B) {
	sent := make([]protocol.PeerAd, MaxGossipAds)
	for i := range sent {
		sent[i] = ad(7, fmt.Sprintf("p%d:1", i))
	}
	src := &fakeAds{ads: sent[len(sent)-protocol.MaxPeerAds:]}
	r := newRelay(sent...)
	b.ReportAllocs()
	for range b.N {
		src.gens[0]++
		if err := r.send(io.Discard, src, 7); err != nil {
			b.Fatal(err)
		}
	}
}
