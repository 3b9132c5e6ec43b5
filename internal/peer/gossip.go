package peer

// gossip.go is the node-wide peer directory behind gossip
// discovery. One Gossip instance is shared by everything running on a
// node — the Orchestrator's sessions learn advertisements from PEERS
// frames, a live Server learns the listen addresses of clients that
// handshake with it, and both read the directory back when they relay
// advertisements onward. The Orchestrator subscribes to the directory,
// so an address learned through *any* path (a session's PEERS frame, a
// client dialing our live server) flows into the same admission logic
// (considerDiscovered): admit up to MaxPeers, defer the rest to a
// ranked candidate pool, promote candidates when eviction or session
// exit frees a slot.

import (
	"sync"
	"sync/atomic"
	"time"

	"icd/internal/protocol"
)

// MaxGossipAds caps a Gossip directory's entry count: a directory is a
// neighborhood map, not a global peer database, and the cap bounds what
// a flood of advertisements can make a node remember.
const MaxGossipAds = 256

// gossipEntry is one remembered advertisement with its mention count
// (independent mentions rank candidates: an address many peers vouch
// for is more likely alive and useful) and the time it was last heard
// (liveness hygiene: entries nobody re-mentions age out via Expire).
type gossipEntry struct {
	ad        protocol.PeerAd
	hits      int
	seq       int // insertion order, the deterministic tie-break
	lastHeard time.Time
}

// Gossip is a node-wide directory of advertised peer addresses,
// deduplicated by (content id, address) and capped at MaxGossipAds.
// It is safe for concurrent use; subscribers are invoked without the
// directory lock held, so they may call back into the directory.
type Gossip struct {
	mu   sync.Mutex
	self string
	ads  map[protocol.PeerAd]*gossipEntry
	next int
	subs []func(protocol.PeerAd)
	now  func() time.Time // injectable clock (tests age entries synthetically)

	// gen counts, under mu, the changes a Snapshot can show: an entry
	// added or dropped, a mention count bumped.
	gen atomic.Uint64
}

// NewGossip creates an empty directory. self is this node's own
// advertised address (possibly empty); it is never stored and never
// returned by Snapshot, so a node cannot gossip itself to itself.
func NewGossip(self string) *Gossip {
	return &Gossip{self: self, ads: make(map[protocol.PeerAd]*gossipEntry), now: time.Now}
}

// Self returns the node's own advertised address.
func (g *Gossip) Self() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.self
}

// Learn records one advertisement, bumping its mention count if already
// known. It reports whether the ad was new; new ads are announced to
// subscribers (after the lock is released). Self-adverts, empty and
// oversized addresses, and ads past the directory cap are dropped.
func (g *Gossip) Learn(ad protocol.PeerAd) bool {
	if ad.Addr == "" || len(ad.Addr) > protocol.MaxAddrLen {
		return false
	}
	g.mu.Lock()
	if ad.Addr == g.self {
		g.mu.Unlock()
		return false
	}
	if e, ok := g.ads[ad]; ok {
		e.hits++
		e.lastHeard = g.now() // a re-mention is evidence of life
		g.gen.Add(1)          // and may change the ranking
		g.mu.Unlock()
		return false
	}
	if len(g.ads) >= MaxGossipAds {
		g.mu.Unlock()
		return false
	}
	g.ads[ad] = &gossipEntry{ad: ad, hits: 1, seq: g.next, lastHeard: g.now()}
	g.next++
	g.gen.Add(1)
	subs := append([]func(protocol.PeerAd){}, g.subs...)
	g.mu.Unlock()
	for _, fn := range subs {
		fn(ad)
	}
	return true
}

// LearnAll feeds every advertisement through Learn and returns how many
// were new.
func (g *Gossip) LearnAll(ads []protocol.PeerAd) int {
	added := 0
	for _, ad := range ads {
		if g.Learn(ad) {
			added++
		}
	}
	return added
}

// Snapshot returns up to max advertisements for contentID (0 matches
// every content), ranked by descending mention count with insertion
// order as the deterministic tie-break. The node's own address is never
// included.
func (g *Gossip) Snapshot(contentID uint64, max int) []protocol.PeerAd {
	g.mu.Lock()
	entries := make([]gossipEntry, 0, len(g.ads))
	for _, e := range g.ads {
		if contentID == 0 || e.ad.ContentID == contentID {
			entries = append(entries, *e)
		}
	}
	g.mu.Unlock()
	for i := 1; i < len(entries); i++ { // insertion sort: the set is small
		for j := i; j > 0 && better(&entries[j], &entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	if max > 0 && len(entries) > max {
		entries = entries[:max]
	}
	ads := make([]protocol.PeerAd, len(entries))
	for i, e := range entries {
		ads[i] = e.ad
	}
	return ads
}

// Len returns the number of remembered advertisements.
func (g *Gossip) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.ads)
}

// Expire removes every advertisement last heard more than maxAge ago
// and returns how many were dropped. A directory is a map of who is
// *probably* alive: an address nobody has re-mentioned for a long time
// is most likely gone, and keeping it would waste candidate-pool slots
// and PEERS-frame bytes on dead peers. A node's housekeeping tick calls
// this; an expired address that is still alive re-enters the directory
// (and re-triggers discovery subscribers) at its next mention.
// maxAge <= 0 is a no-op.
func (g *Gossip) Expire(maxAge time.Duration) int {
	if maxAge <= 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	cutoff := g.now().Add(-maxAge)
	dropped := 0
	for ad, e := range g.ads {
		if e.lastHeard.Before(cutoff) {
			delete(g.ads, ad)
			dropped++
		}
	}
	if dropped > 0 {
		g.gen.Add(1)
	}
	return dropped
}

// generation reports gen. Read before a Snapshot, it tells a caller
// when to ask again: while it reads the same, a new Snapshot returns what
// that one did.
func (g *Gossip) generation() uint64 { return g.gen.Load() }

// hits returns the mention count of ad (0 when unknown) — candidate
// ranking reads it when an admission decision is made.
func (g *Gossip) hitCount(ad protocol.PeerAd) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.ads[ad]; ok {
		return e.hits
	}
	return 0
}

// subscribe registers fn to run for every newly learned advertisement.
// fn is invoked without the directory lock held.
func (g *Gossip) subscribe(fn func(protocol.PeerAd)) {
	g.mu.Lock()
	g.subs = append(g.subs, fn)
	g.mu.Unlock()
}

// better orders gossip entries: more independent mentions first, then
// first-heard first.
func better(a, b *gossipEntry) bool {
	if a.hits != b.hits {
		return a.hits > b.hits
	}
	return a.seq < b.seq
}
