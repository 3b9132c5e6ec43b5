// Package node is the multi-content overlay node: one process, one
// listener, one gossip directory, many contents at different completion
// stages — the paper's end state, where every end-system collaborates
// on all the working sets it holds rather than running one transfer.
//
// A Node composes three things over the internal/peer swarm engine:
//
//   - A content Store: every replica the node serves and every fetch in
//     flight, registered under one byte budget with pinning and
//     utility/LRU-ranked whole-replica eviction (store.go).
//   - A single listener: a peer.ServerMux routes each inbound channel's
//     content id to the right working-set source — a static full or
//     partial server, or the live orchestrator of a fetch in progress —
//     and answers unknown ids with the canonical unknown-content ERROR.
//   - Shared budgets: concurrent per-content orchestrators share the
//     node-wide gossip directory and connection fabric (one wire per
//     peer, one subchannel per session) and split a connection budget
//     (Options.MaxConns) and a window budget
//     (Options.WindowBudget) evenly among themselves (sched.go). The
//     split is recomputed when a fetch starts or ends and applied
//     through Orchestrator.SetMaxPeers and SetChannelWindow; within a
//     fetch, the orchestrator still ranks its own sessions by utility.
//
// A housekeeping tick ages stale gossip entries out (Gossip.Expire) and
// re-enforces the store budget as live working sets grow. Everything a
// fetch learns is served immediately: as soon as its first handshake
// fixes the content metadata, a live server over the orchestrator's
// working set is registered on the shared listener.
package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"icd/internal/faultnet"
	"icd/internal/obs"
	"icd/internal/peer"
	"icd/internal/peermux"
)

// gossipMaxAge ages directory entries nobody re-mentioned out of the
// node's gossip directory, on the housekeeping tick.
const gossipMaxAge = 2 * time.Minute

// Options configure a Node.
type Options struct {
	// Listen is the node's dialable listen address: the mux binds it
	// (ListenAndServe) and every session advertises it via gossip.
	Listen string
	// StoreBudget caps the bytes of stored replicas (0 = unlimited).
	// Exceeding it evicts unpinned, inactive replicas in utility/LRU
	// order.
	StoreBudget int64
	// MaxConns is the global outbound-session budget, split evenly
	// among the fetches in flight, the remainder to the earliest
	// started (0 = unlimited: each fetch uses Fetch.MaxPeers as-is).
	// Every fetch keeps at least one session (an orchestrator with zero
	// sessions winds down, not waits), so the sessions in use can reach
	// the number of fetches in flight when that exceeds MaxConns.
	MaxConns int
	// WindowBudget is the node-wide window budget in symbol frames,
	// split among the fetches in flight by the same rule as MaxConns, at
	// least one frame each (0 = disabled: every session asks within
	// peermux.DefaultWindow). A fetch's share reaches it through
	// Orchestrator.SetChannelWindow and nothing else: it is the window of
	// each of its sessions, the most symbols each may have asked for and
	// not yet received.
	WindowBudget int
	// Tick is the housekeeping cadence: gossip expiry and store budget
	// enforcement over live working sets (default 100ms). The budgets
	// above are re-split when a fetch starts or ends, not per tick.
	Tick time.Duration
	// Transport supplies the node's network: its Listen backs
	// ListenAndServe and its Dial backs the fabric's wires (unless
	// Fetch.Dial overrides it). Nil uses real TCP. Tests and the chaos
	// experiment inject faultnet transports — in-process pipe networks,
	// fault-injecting wrappers — here.
	Transport faultnet.Transport
	// MaxInbound caps concurrently served inbound connections on the
	// node's listener (0 = unlimited); over-cap connections are answered
	// with a busy ERROR, which is not charged to the dialer's penalty
	// score. A fetch redials a busy peer only under its
	// FetchOptions.MaxReconnects (default 0: it gives the peer up).
	MaxInbound int
	// Fetch is the per-orchestrator option template. The node
	// overrides Gossip, AdvertiseAddr, Penalties, Fabric and Obs per
	// fetch, MaxPeers under a MaxConns budget, and ChannelWindow under a
	// WindowBudget.
	Fetch peer.FetchOptions
	// Obs is the node's observability registry. Nil creates a private
	// one — a node always has a registry, so the mux, the fabric and
	// every fetch feed one snapshot (Node.Obs) and one trace ring.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Tick <= 0 {
		o.Tick = 100 * time.Millisecond
	}
	return o
}

// Node is a multi-content overlay peer: it serves every stored content
// from one listener while fetching any number of others, under a store
// byte budget and a global connection budget. Create with New; all
// exported methods are safe for concurrent use.
type Node struct {
	opts      Options
	gossip    *peer.Gossip
	store     *Store
	mux       *peer.ServerMux
	penalties *peer.PenaltyBox // node-wide misbehavior box (mux + every fetch)
	fabric    *peermux.Fabric  // shared outbound wires: one per peer, all contents
	obs       *obs.Registry    // node-wide metrics registry and trace ring
	met       nodeMetrics

	schedMu sync.Mutex // serializes rebalance passes (StartFetch vs finishFetch)

	mu      sync.Mutex
	fetches map[uint64]*transferState
	order   []uint64 // fetch start order: a fetch's index in share
	closed  bool
	stop    chan struct{}
	ticker  sync.WaitGroup
}

// transferState is one in-flight fetch's bookkeeping.
type transferState struct {
	id   uint64
	o    *peer.Orchestrator
	done chan struct{}
	res  *peer.FetchResult
	err  error
}

// New creates a node. Call ListenAndServe (or Serve) to make it
// dialable, ServeFull/ServePartial to add replicas, and Fetch/StartFetch
// to download more contents.
func New(opts Options) *Node {
	opts = opts.withDefaults()
	n := &Node{
		opts:    opts,
		gossip:  peer.NewGossip(opts.Listen),
		store:   NewStore(opts.StoreBudget),
		mux:     peer.NewServerMux(),
		fetches: make(map[uint64]*transferState),
		stop:    make(chan struct{}),
	}
	// One registry for the whole node: the mux, the fabric and every
	// fetch report into the same snapshot and trace ring.
	n.obs = opts.Obs
	if n.obs == nil {
		n.obs = obs.NewRegistry()
	}
	n.met = newNodeMetrics(n.obs)
	// One penalty box for the whole node: misbehavior seen by any fetch
	// session or on any inbound connection feeds one verdict, and banned
	// addresses are refused on both planes.
	n.penalties = opts.Fetch.Penalties
	if n.penalties == nil {
		n.penalties = peer.NewPenaltyBox()
	}
	n.mux.SetGossip(n.gossip)
	n.mux.SetPenalties(n.penalties)
	n.mux.SetObs(n.obs)
	// One wire per peer, shared by every fetch: the fabric dials through
	// the node's transport, advertises the node's listen address in its
	// handshake, and feeds wire-level misbehavior into the node-wide
	// penalty box.
	dial := opts.Fetch.Dial
	if dial == nil && opts.Transport != nil {
		dial = opts.Transport.Dial
	}
	if dial == nil {
		timeout := opts.Fetch.Timeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	n.fabric = peermux.NewFabric(dial, peermux.Config{
		Timeout:    opts.Fetch.Timeout,
		ListenAddr: opts.Listen,
		Obs:        n.obs,
	})
	n.fabric.SetPenalize(func(addr string, weight float64) {
		n.penalties.Penalize(addr, weight)
	})
	if opts.MaxInbound > 0 {
		n.mux.SetMaxConns(opts.MaxInbound)
	}
	// Every HELLO routed to a replica is demand: the store's eviction
	// ranking feeds on it.
	n.mux.SetLookupHook(func(id uint64, found bool) {
		if found {
			n.store.Touch(id)
		}
	})
	n.registerGauges()
	n.ticker.Add(1)
	go n.run()
	return n
}

// Obs returns the node-wide observability registry: every subsystem's
// metrics in one snapshot, plus the lifecycle trace ring. Serve it over
// HTTP with obs.DebugMux.
func (n *Node) Obs() *obs.Registry { return n.obs }

// Gossip returns the node-wide peer directory (shared by the listener
// and every orchestrator).
func (n *Node) Gossip() *peer.Gossip { return n.gossip }

// Penalties returns the node-wide misbehavior penalty box (shared by the
// listener and every fetch).
func (n *Node) Penalties() *peer.PenaltyBox { return n.penalties }

// Store returns the node's content store.
func (n *Node) Store() *Store { return n.store }

// Mux returns the node's multi-content listener (useful for serving
// over a custom transport, e.g. in-process pipes in tests).
func (n *Node) Mux() *peer.ServerMux { return n.mux }

// Addr returns the bound listener address ("" before Serve).
func (n *Node) Addr() string { return n.mux.Addr() }

// ListenAndServe binds Options.Listen — through Options.Transport when
// one is set — and serves every registered content until Close.
func (n *Node) ListenAndServe() error {
	if tr := n.opts.Transport; tr != nil {
		ln, err := tr.Listen(n.opts.Listen)
		if err != nil {
			return err
		}
		return n.mux.Serve(ln)
	}
	return n.mux.ListenAndServe(n.opts.Listen)
}

// Serve accepts connections on ln until Close (the caller picked its
// own listener; Options.Listen is still what gets advertised).
func (n *Node) Serve(ln net.Listener) error { return n.mux.Serve(ln) }

// Close stops housekeeping and the listener. Fetches in flight are not
// cancelled — they belong to their contexts; cancel those to unwind.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.mu.Unlock()
	n.ticker.Wait()
	n.fabric.Close()
	return n.mux.Close()
}

// ServeFull registers a full replica of the content: it is served on
// the shared listener and accounted in the store (pin to shield it from
// budget eviction) at the content's bytes plus the most its server's
// cached stream prefix can grow to (peer.Server.CacheBound), so the
// budget bounds what the replica holds. The replica adopts content
// instead of copying it (peer.NewFullServer), so content must not be
// modified while it is served.
func (n *Node) ServeFull(info peer.ContentInfo, content []byte, pin bool) error {
	srv, err := peer.NewFullServer(info, content)
	if err != nil {
		return err
	}
	return n.addReplica(srv, int64(info.OrigLen)+srv.CacheBound(), pin)
}

// ServePartial registers a partial replica (a working set of encoded
// symbols) on the shared listener, accounted at len(symbols)·BlockSize.
// The replica adopts the payloads rather than copying them
// (peer.NewPartialServer), so they must not be modified while it serves.
func (n *Node) ServePartial(info peer.ContentInfo, symbols map[uint64][]byte, pin bool) error {
	srv, err := peer.NewPartialServer(info, symbols)
	if err != nil {
		return err
	}
	return n.addReplica(srv, int64(len(symbols))*int64(info.BlockSize), pin)
}

// addReplica registers a constructed server and its store accounting,
// evicting colder replicas if the new one pushes usage past the budget.
func (n *Node) addReplica(srv *peer.Server, bytes int64, pin bool) error {
	id := srv.Info().ID
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("node: closed")
	}
	if _, active := n.fetches[id]; active {
		// The mirror of StartFetch's already-stored guard: serving over
		// an in-flight fetch would clobber its store entry (active
		// shield, byte accounting) and let a failing fetch delete the
		// operator's replica behind their back.
		n.mu.Unlock()
		return fmt.Errorf("node: content %#x is being fetched (wait or cancel it first)", id)
	}
	if _, ok := n.store.Get(id); ok {
		// A just-finished fetch's live server may not be on the mux yet:
		// refuse the duplicate here, not by Register's timing.
		n.mu.Unlock()
		return fmt.Errorf("node: content %#x already stored (Drop it first)", id)
	}
	if err := n.mux.Register(srv); err != nil {
		n.mu.Unlock()
		return err
	}
	// Put under n.mu: StartFetch's already-stored check runs under the
	// same lock, so a concurrent fetch cannot slip between the fetches
	// check above and this registration.
	evicted := n.store.Put(id, bytes, pin, false)
	n.mu.Unlock()
	n.met.storeAdmits.Add(1)
	n.traceContent(obs.EvStoreAdmit, id, fmt.Sprintf("bytes=%d pin=%v", bytes, pin))
	n.dropReplicas(evicted)
	return nil
}

// dropReplicas reacts to store evictions: the evicted ids stop being
// served (new handshakes naming them get the unknown-content answer).
func (n *Node) dropReplicas(ids []uint64) {
	for _, id := range ids {
		n.met.storeEvictions.Add(1)
		n.traceContent(obs.EvStoreEvict, id, "budget")
		n.mux.Unregister(id)
	}
}

// Pin sets or clears a replica's eviction shield.
func (n *Node) Pin(contentID uint64, pinned bool) bool {
	ok := n.store.Pin(contentID, pinned)
	if ok && !pinned {
		n.dropReplicas(n.store.EnforceBudget())
	}
	return ok
}

// Drop removes a replica outright: unregistered from the listener and
// forgotten by the store. Active fetches cannot be dropped (cancel
// their context instead).
func (n *Node) Drop(contentID uint64) bool {
	// One critical section across check + remove + unregister: the same
	// registration-atomicity invariant addReplica, StartFetch and the
	// live-registration goroutine hold n.mu for. Dropping it between
	// the check and the mutations would let a concurrent StartFetch's
	// fresh entry be deleted, or a live server register against an
	// entry this call is deleting.
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, active := n.fetches[contentID]; active {
		return false
	}
	if !n.store.Remove(contentID) {
		return false
	}
	n.mux.Unregister(contentID)
	return true
}

// Contents returns the store's status snapshot, sorted by content id.
func (n *Node) Contents() []ContentStatus { return n.store.Contents() }

// Transfer is a handle on one in-flight (or finished) fetch.
type Transfer struct {
	// ID is the content id being fetched.
	ID uint64
	st *transferState
}

// Wait blocks until the fetch ends and returns its result.
func (t *Transfer) Wait() (*peer.FetchResult, error) {
	<-t.st.done
	return t.st.res, t.st.err
}

// Orchestrator exposes the underlying swarm engine (AddPeer/DropPeer,
// Sessions, Progress — live introspection and steering).
func (t *Transfer) Orchestrator() *peer.Orchestrator { return t.st.o }

// StartFetch begins downloading a content from the given bootstrap
// addresses (gossip discovers more) and returns immediately with a
// Transfer handle. The fetch shares the node's gossip directory and its
// budgets; as soon as its first handshake fixes the content
// metadata, the node serves the growing working set on its listener.
// One fetch per content id at a time; a complete stored replica also
// refuses a re-fetch (Drop it first).
func (n *Node) StartFetch(ctx context.Context, contentID uint64, addrs ...string) (*Transfer, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("node: closed")
	}
	if _, dup := n.fetches[contentID]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("node: content %#x already being fetched", contentID)
	}
	if _, ok := n.store.Get(contentID); ok {
		// Any existing registration — complete replica, served file,
		// leftover partial — blocks a re-fetch: starting one would
		// clobber its store entry (pin, accounting) and could destroy
		// it on failure. Drop it first.
		n.mu.Unlock()
		return nil, fmt.Errorf("node: content %#x already stored (Drop it to re-fetch)", contentID)
	}
	fo := n.opts.Fetch
	fo.Gossip = n.gossip
	fo.AdvertiseAddr = n.opts.Listen
	fo.Penalties = n.penalties
	fo.Fabric = n.fabric // every session is a subchannel on the node's wires
	fo.Obs = n.obs       // every fetch reports into the node's registry
	// The new fetch starts last, at its share; the rebalance below
	// shrinks the others to theirs before its Run opens a session.
	nf := len(n.order) + 1
	if n.opts.MaxConns > 0 {
		fo.MaxPeers = share(n.opts.MaxConns, nf, nf-1)
	}
	if n.opts.WindowBudget > 0 {
		fo.ChannelWindow = share(n.opts.WindowBudget, nf, nf-1)
	}
	st := &transferState{
		id:   contentID,
		o:    peer.NewOrchestrator(contentID, fo),
		done: make(chan struct{}),
	}
	n.fetches[contentID] = st
	n.order = append(n.order, contentID)
	n.mu.Unlock()

	n.store.Put(contentID, 0, false, true) // active: shielded from eviction
	n.met.storeAdmits.Add(1)
	n.traceContent(obs.EvStoreAdmit, contentID, "fetch")
	// Until the first handshake registers a live server, inbound HELLOs
	// for this content get a retryable "pending" answer instead of the
	// terminal unknown-content one — a peer that dials us during the
	// window must back off and retry, not write us off.
	n.mux.SetPending(contentID, true)
	n.rebalance()

	registered := make(chan struct{})
	go func() {
		res, err := st.o.Run(ctx, addrs...)
		// The live server is in, or will never be, before the fetch
		// settles: a finished replica is served from the moment Wait
		// returns, and a failed one is never registered after its removal.
		<-registered
		n.finishFetch(st, res, err)
		close(st.done)
	}()
	go func() {
		defer close(registered)
		// Serve while fetching: registration waits only for the first
		// handshake (content metadata), not for completion. WaitInfo
		// returns when the fetch ends, whether or not it got that far.
		info, err := st.o.WaitInfo(ctx)
		if err != nil {
			return
		}
		live, err := peer.NewLiveServer(info, st.o)
		if err != nil {
			return
		}
		// The fetch has not settled, so its store entry is still there:
		// active, it can be neither evicted nor Dropped.
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.closed {
			return
		}
		if n.mux.Register(live) == nil {
			n.mux.SetPending(st.id, false)
		}
	}()
	return &Transfer{ID: contentID, st: st}, nil
}

// Fetch is StartFetch + Wait: download one content to completion.
func (n *Node) Fetch(ctx context.Context, contentID uint64, addrs ...string) (*peer.FetchResult, error) {
	t, err := n.StartFetch(ctx, contentID, addrs...)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// finishFetch settles a fetch's bookkeeping: on success the replica
// stays registered (now complete and evictable once demand fades); on
// failure the partial replica is dropped so a retry starts clean.
func (n *Node) finishFetch(st *transferState, res *peer.FetchResult, err error) {
	st.res, st.err = res, err
	n.mu.Lock()
	delete(n.fetches, st.id)
	for i, id := range n.order {
		if id == st.id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	n.mu.Unlock()

	n.mux.SetPending(st.id, false) // whatever happened, the window is over
	if err != nil || res == nil || !res.Completed {
		n.store.Remove(st.id)
		n.mux.Unregister(st.id)
	} else {
		n.dropReplicas(n.store.UpdateBytes(st.id, int64(len(res.Held))*int64(res.Info.BlockSize)))
		n.dropReplicas(n.store.Complete(st.id))
	}
	n.rebalance()
}

// run is the housekeeping loop: gossip liveness, store accounting and
// budget enforcement over live working sets, every Options.Tick.
func (n *Node) run() {
	defer n.ticker.Done()
	t := time.NewTicker(n.opts.Tick)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.housekeep()
		}
	}
}

// housekeep is one tick's worth of node hygiene.
func (n *Node) housekeep() {
	n.gossip.Expire(gossipMaxAge)
	for _, st := range n.active() {
		if info, ok := st.o.Info(); ok {
			n.dropReplicas(n.store.UpdateBytes(st.id,
				int64(st.o.Progress())*int64(info.BlockSize)))
		}
	}
	n.dropReplicas(n.store.EnforceBudget())
}

// active returns the fetches in flight in start order.
func (n *Node) active() []*transferState {
	n.mu.Lock()
	defer n.mu.Unlock()
	states := make([]*transferState, len(n.order))
	for i, id := range n.order {
		states[i] = n.fetches[id]
	}
	return states
}

// rebalance splits the node's budgets evenly among the fetches in
// flight (share): connection slots under MaxConns and session windows
// under WindowBudget. It runs only when that set changes, from
// StartFetch and finishFetch.
func (n *Node) rebalance() {
	if n.opts.MaxConns <= 0 && n.opts.WindowBudget <= 0 {
		return
	}
	n.schedMu.Lock()
	defer n.schedMu.Unlock()
	states := n.active()
	nf := len(states)
	if nf == 0 {
		return
	}
	if n.opts.MaxConns > 0 {
		n.met.slotsAlloc.Set(int64(max(n.opts.MaxConns, nf)))
		resize(states, n.opts.MaxConns, (*peer.Orchestrator).MaxPeers, (*peer.Orchestrator).SetMaxPeers)
	}
	if n.opts.WindowBudget > 0 {
		n.met.windowAlloc.Set(int64(max(n.opts.WindowBudget, nf)))
		resize(states, n.opts.WindowBudget, (*peer.Orchestrator).ChannelWindow, (*peer.Orchestrator).SetChannelWindow)
	}
}

// resize applies each fetch's share of total through get and set,
// shrinks before grows: the freed units must exist before anyone grows
// into them, or the combined sessions or windows would transiently pass
// the budget.
func resize(states []*transferState, total int, get func(*peer.Orchestrator) int, set func(*peer.Orchestrator, int)) {
	nf := len(states)
	for i, st := range states {
		if s := share(total, nf, i); s < get(st.o) {
			set(st.o, s)
		}
	}
	for i, st := range states {
		if s := share(total, nf, i); s > get(st.o) {
			set(st.o, s)
		}
	}
}
