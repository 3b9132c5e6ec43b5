package peer

// gossip_test.go covers the gossip building blocks in isolation: the
// Gossip directory's dedup/cap/rank rules, and the orchestrator's
// considerDiscovered admission path — immediate admission below
// MaxPeers, deferral to the ranked candidate pool when full, and
// promotion of the best candidate when a freed slot appears.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"icd/internal/protocol"
)

func ad(id uint64, addr string) protocol.PeerAd {
	return protocol.PeerAd{ContentID: id, Addr: addr}
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
	if got := g.hitCount(ad(7, "a:1")); got != 2 {
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
	got := g.Snapshot(7, 0)
	if len(got) != 2 {
		t.Fatalf("snapshot(7) has %d ads: %v", len(got), got)
	}
	if got[0].Addr != "thrice:1" || got[1].Addr != "once:1" {
		t.Fatalf("ranking wrong: %v", got)
	}
	if all := g.Snapshot(0, 0); len(all) != 3 {
		t.Fatalf("snapshot(0) has %d ads, want 3", len(all))
	}
	if capped := g.Snapshot(7, 1); len(capped) != 1 || capped[0].Addr != "thrice:1" {
		t.Fatalf("max=1 snapshot wrong: %v", capped)
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
	if g.hitCount(ad(1, "peer-0:1")) != 2 {
		t.Fatal("mention not counted at cap")
	}
}

func TestGossipSubscriberRunsWithoutLock(t *testing.T) {
	// A subscriber may call back into the directory (the orchestrator's
	// admission path reads hit counts); this must not deadlock.
	g := NewGossip("")
	calls := 0
	g.subscribe(func(a protocol.PeerAd) {
		calls++
		g.hitCount(a)
		g.Snapshot(0, 0)
	})
	g.LearnAll([]protocol.PeerAd{ad(1, "a:1"), ad(1, "b:1"), ad(1, "a:1")})
	if calls != 2 {
		t.Fatalf("subscriber ran %d times, want 2 (one per new ad)", calls)
	}
}

// TestCandidatePoolDefersAndPromotes is the admission-path scenario:
// with MaxPeers=1 occupied, discovered addresses park in the candidate
// pool ranked by mention count, and dropping the live peer promotes the
// most-vouched-for candidate — which then finishes the transfer.
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
		return len(o.candidates) == 2 && len(o.sessions) == 1
	})

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

// TestDiscoveredPeerAdmittedBelowCap pins immediate admission: while
// the engine has free MaxPeers slots, a learned advertisement becomes a
// session without waiting in the pool.
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
				if g.hitCount(ad(7, addr)) == 0 {
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
		{"snapshot", func() { g.Snapshot(0, 0) }, false},
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
	g := srv.gossip
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	addr := func(i int) string { return fmt.Sprintf("p%d:1", i) }
	for i := 0; i < protocol.MaxPeerAds+6; i++ {
		if i == 10 {
			now = now.Add(time.Hour) // p0…p9 are an hour older than the rest
		}
		g.Learn(ad(info.ID, addr(i)))
	}
	ch := openSession(t, srv)
	ch.SetDeadline(time.Now().Add(time.Minute))
	sent := map[protocol.PeerAd]bool{}
	// request sends one REQUEST and checks its PEERS frames against the
	// snapshot; news says whether the step should bring any.
	request := func(step string, news bool) {
		t.Helper()
		var want []protocol.PeerAd
		for _, a := range g.Snapshot(info.ID, protocol.MaxPeerAds) {
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
		case news && (len(got) != 1 || !bytes.Equal(got[0], protocol.EncodePeers(want).Payload)):
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
