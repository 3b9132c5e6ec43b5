package peer

// gossip.go is the node-wide peer directory behind gossip
// discovery, and the one PEERS relay both ends of a connection run. One
// Gossip instance is shared by everything running on a node — the
// Orchestrator's sessions learn advertisements from PEERS frames, the
// ServerMux learns the listen addresses of clients that open channels on
// it, and both read the directory back when they relay advertisements
// onward (relay: per connection, it collects only when what it would
// collect changed). The Orchestrator subscribes to the directory, so an
// address learned through *any* path (a session's PEERS frame, a client
// dialing our mux) flows into the same admission logic
// (considerDiscovered): admit up to MaxPeers and leave the rest where
// they are. The directory is the one ranked list of whom to dial — it
// dedups, caps, expires and ranks by mention count, then first heard —
// so when eviction or a session's exit frees a slot the orchestrator
// promotes its best entry not yet attempted (nextCandidateLocked).

import (
	"cmp"
	"io"
	"slices"
	"strings"
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
//
// Reading it back costs per change, not per read: gen moves with every
// change an AppendSnapshot can show, so a relay that saw a generation
// asks again only once it moved (relay.send), and AppendSnapshot itself
// ranks through a kept scratch and appends into the caller's buffer, so
// a read allocates nothing once the buffers are warm.
type Gossip struct {
	mu   sync.Mutex
	self string
	ads  map[protocol.PeerAd]*gossipEntry
	next int
	// subs is replaced, never appended to in place (subscribe), so Learn
	// can call the slice it read under mu after releasing it.
	subs []func(protocol.PeerAd)
	now  func() time.Time // injectable clock (tests age entries synthetically)
	rank []*gossipEntry   // AppendSnapshot's scratch, under mu

	// gen counts, under mu, the changes an AppendSnapshot can show: an
	// entry added or dropped, a mention count bumped.
	gen atomic.Uint64
}

// NewGossip creates an empty directory. self is this node's own
// advertised address (possibly empty); it is never stored and never
// returned by AppendSnapshot, so a node cannot gossip itself to itself.
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
	subs := g.subs
	g.mu.Unlock()
	for _, fn := range subs {
		fn(ad)
	}
	return true
}

// AppendSnapshot appends up to max advertisements for contentID (0
// matches every content; max <= 0 is no cap) to dst and returns the
// extended slice, ranked by descending mention count with insertion
// order as the deterministic tie-break. The node's own address is never
// included. It ranks under the lock through the directory's kept scratch,
// grown once to the directory's cap, so it allocates only when dst lacks
// the room.
func (g *Gossip) AppendSnapshot(dst []protocol.PeerAd, contentID uint64, max int) []protocol.PeerAd {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rank == nil {
		g.rank = make([]*gossipEntry, 0, MaxGossipAds)
	}
	rank := g.rank[:0]
	for _, e := range g.ads {
		if contentID == 0 || e.ad.ContentID == contentID {
			rank = append(rank, e)
		}
	}
	for i := 1; i < len(rank); i++ { // insertion sort: the set is small
		for j := i; j > 0 && better(rank[j], rank[j-1]); j-- {
			rank[j], rank[j-1] = rank[j-1], rank[j]
		}
	}
	if max > 0 && len(rank) > max {
		rank = rank[:max]
	}
	for _, e := range rank {
		dst = append(dst, e.ad)
	}
	g.rank = rank[:0]
	return dst
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
// is most likely gone, and keeping it would waste promotions and
// PEERS-frame bytes on dead peers. A node's housekeeping tick calls
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

// generation reports gen. Read before an AppendSnapshot, it tells a
// caller when to ask again: while it reads the same, a new AppendSnapshot
// appends what that one did.
func (g *Gossip) generation() uint64 { return g.gen.Load() }

// adGenerations and appendAds make the directory a serving session's ad
// source (relay.send): its best for the content served, which moves with
// the directory's generation.
func (g *Gossip) adGenerations() [2]uint64 { return [2]uint64{g.generation()} }

func (g *Gossip) appendAds(dst []protocol.PeerAd, contentID uint64) []protocol.PeerAd {
	return g.AppendSnapshot(dst, contentID, protocol.MaxPeerAds)
}

// subscribe registers fn to run for every newly learned advertisement.
// fn is invoked without the directory lock held. The list is copied on
// write: a Learn that read the old one keeps calling it unchanged.
func (g *Gossip) subscribe(fn func(protocol.PeerAd)) {
	g.mu.Lock()
	g.subs = append(slices.Clip(g.subs), fn)
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

// adSource is what a relay collects advertisements for one content
// from: a session (its fetch's view of the swarm) or the directory a
// serving session runs on. adGenerations moves whenever what appendAds
// would append changes.
type adSource interface {
	adGenerations() [2]uint64
	appendAds(dst []protocol.PeerAd, contentID uint64) []protocol.PeerAd
}

// relay is one connection's PEERS relay, the one both ends run: a
// fetch's session tells its sender what the fetch knows of the swarm, a
// serving session tells its client what the node's directory holds, and
// each hands what the other end tells it to the directory. Sending costs
// per change, not per call: a send whose source's generations have not
// moved since the last complete send collects nothing, and one that
// collects and writes reuses the relay's scratch and the shared payload
// scratch (peersBufs), so it allocates only when the sent set or a
// scratch buffer must grow. A relay belongs to one connection's
// goroutine.
type relay struct {
	// sent is every advertisement written on this connection, and, on a
	// serving session, the client's own, which it is never told about:
	// sorted (comparePeerAds), so a lookup is a binary search.
	sent []protocol.PeerAd
	// gens are the source's generations at the last complete send (valid
	// once synced): a send that stopped at MaxPeerAds is not complete, so
	// the overflow goes out on the next call.
	gens   [2]uint64
	synced bool
	ads    []protocol.PeerAd // scratch: what send collected, or receive decoded
}

// peersBufs holds the scratch a relay's send marshals its PEERS payload
// into. A send holds one only while it writes (the write copies the
// frame out), so a relay owns none, and a scratch, grown to the longest
// payload it carried, serves every connection in turn.
var peersBufs = sync.Pool{New: func() any { return new([]byte) }}

// relayRoom is what a relay is made with room for, in its sent set and in
// its scratch each: a full PEERS frame, and the client's own ad beside it.
const relayRoom = protocol.MaxPeerAds + 1

// newRelay returns a relay that has sent the given advertisements. Its
// sent set and scratch share one allocation, sized when it is made:
// either grows only past relayRoom.
func newRelay(sent ...protocol.PeerAd) *relay {
	room := make([]protocol.PeerAd, 0, 2*relayRoom)
	r := &relay{sent: room[:0:relayRoom], ads: room[relayRoom:relayRoom]}
	for _, ad := range sent {
		r.add(ad)
	}
	return r
}

// add puts ad in the sent set, and reports whether it was not there.
func (r *relay) add(ad protocol.PeerAd) bool {
	i, dup := slices.BinarySearchFunc(r.sent, ad, comparePeerAds)
	if !dup {
		r.sent = slices.Insert(r.sent, i, ad)
	}
	return !dup
}

// comparePeerAds orders advertisements by content, then address.
func comparePeerAds(a, b protocol.PeerAd) int {
	if c := cmp.Compare(a.ContentID, b.ContentID); c != 0 {
		return c
	}
	return strings.Compare(a.Addr, b.Addr)
}

// send writes one PEERS frame carrying, in src's order, what src holds
// for contentID that this connection has not been sent, at most
// MaxPeerAds of them (no news, no frame). The generations are read
// before collecting: a change racing the collection moves them past what
// is recorded, and the next call collects again.
func (r *relay) send(w io.Writer, src adSource, contentID uint64) error {
	gens := src.adGenerations()
	if r.synced && gens == r.gens {
		return nil
	}
	r.ads = src.appendAds(r.ads[:0], contentID)
	fresh, complete := r.ads[:0], true
	for _, ad := range r.ads {
		if len(fresh) == protocol.MaxPeerAds {
			complete = false
			break
		}
		if r.add(ad) {
			fresh = append(fresh, ad)
		}
	}
	if complete {
		r.gens, r.synced = gens, true
	}
	if len(fresh) == 0 {
		return nil
	}
	bp := peersBufs.Get().(*[]byte)
	*bp = protocol.AppendPeers((*bp)[:0], fresh)
	err := protocol.WriteFrame(w, protocol.Frame{Type: protocol.TypePeers, Payload: *bp})
	peersBufs.Put(bp)
	return err
}

// receive decodes a PEERS frame into the relay's scratch and hands each
// advertisement to g (nil: decoded, not learned).
func (r *relay) receive(f protocol.Frame, g *Gossip) error {
	ads, err := protocol.DecodePeers(r.ads[:0], f)
	r.ads = ads
	if err != nil || g == nil {
		return err
	}
	for _, ad := range ads {
		g.Learn(ad)
	}
	return nil
}
