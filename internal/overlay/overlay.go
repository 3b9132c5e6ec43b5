// Package overlay simulates content delivery across overlay networks of
// unicast connections — the setting of the paper's §1/§2 and Figure 1.
//
// Nodes hold working sets of encoded symbols; directed edges carry a
// configurable number of symbols per round and can drop transmissions
// (loss injection) or appear/disappear mid-run (the reconfiguration that
// adaptive overlays perform, §2.1). Each edge forwards either blindly
// (RandomForward — an end-system behaving "like a router") or informed
// (Reconciled — the sender transmits only symbols the receiver lacks,
// the idealized outcome of the paper's reconciliation machinery, §3's
// "reconciled transfers").
//
// The Figure 1 comparison — tree vs parallel downloads vs collaborative
// perpendicular transfers — is built on this simulator in
// internal/experiment and examples/collaboration.
package overlay

import (
	"errors"
	"fmt"
	"sort"

	"icd/internal/keyset"
	"icd/internal/prng"
)

// NodeID names a node ("S", "A", …).
type NodeID string

// Mode selects an edge's forwarding discipline.
type Mode int

const (
	// RandomForward sends a uniformly random symbol from the sender's
	// working set — stateless, duplicate-prone.
	RandomForward Mode = iota
	// Reconciled sends only symbols the receiver lacks, modelling a
	// connection that runs the paper's reconciliation protocol.
	Reconciled
)

func (m Mode) String() string {
	switch m {
	case RandomForward:
		return "random-forward"
	case Reconciled:
		return "reconciled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Node is one end-system.
type Node struct {
	ID      NodeID
	Full    bool // holds complete content: an unbounded fountain source
	Working *keyset.Set

	completedAt int // round the node reached the target (-1 = not yet)
}

// Edge is a unicast connection.
type Edge struct {
	From, To NodeID
	Capacity int     // symbols per round (≥1)
	Loss     float64 // per-transmission drop probability [0,1)
	Mode     Mode
}

// Event mutates the network at the start of a given round — link
// failures, reroutes, node joins: the adaptivity of §2.1.
type Event struct {
	Round int
	Apply func(*Network) error
}

// Network is the simulated overlay.
type Network struct {
	target int
	rng    *prng.Rand
	nodes  map[NodeID]*Node
	order  []NodeID // deterministic iteration order
	edges  []*Edge

	freshCounter  uint64
	transmissions int
	dropped       int
	useful        int
}

// New creates an empty network; target is the distinct-symbol count at
// which a node is complete (use transfer.Target(n)).
func New(target int, seed uint64) *Network {
	if target <= 0 {
		panic("overlay: non-positive target")
	}
	return &Network{
		target: target,
		rng:    prng.New(seed),
		nodes:  make(map[NodeID]*Node),
	}
}

// AddNode inserts a node. initial may be nil (empty working set); full
// nodes are treated as complete fountains regardless of initial.
func (nw *Network) AddNode(id NodeID, full bool, initial *keyset.Set) (*Node, error) {
	if _, dup := nw.nodes[id]; dup {
		return nil, fmt.Errorf("overlay: duplicate node %q", id)
	}
	if initial == nil {
		initial = keyset.New(0)
	} else {
		initial = initial.Clone()
	}
	n := &Node{ID: id, Full: full, Working: initial, completedAt: -1}
	if full || initial.Len() >= nw.target {
		n.completedAt = 0
	}
	nw.nodes[id] = n
	nw.order = append(nw.order, id)
	return n, nil
}

// Node returns a node by id (nil if absent).
func (nw *Network) Node(id NodeID) *Node { return nw.nodes[id] }

// AddEdge installs a connection. Capacity 0 defaults to 1.
func (nw *Network) AddEdge(e Edge) error {
	if nw.nodes[e.From] == nil || nw.nodes[e.To] == nil {
		return fmt.Errorf("overlay: edge %s→%s references unknown node", e.From, e.To)
	}
	if e.From == e.To {
		return errors.New("overlay: self-loop")
	}
	if e.Loss < 0 || e.Loss >= 1 {
		return fmt.Errorf("overlay: loss %v outside [0,1)", e.Loss)
	}
	if e.Capacity <= 0 {
		e.Capacity = 1
	}
	ec := e
	nw.edges = append(nw.edges, &ec)
	return nil
}

// RemoveEdge deletes the first edge matching from→to, reporting whether
// one was removed.
func (nw *Network) RemoveEdge(from, to NodeID) bool {
	for i, e := range nw.edges {
		if e.From == from && e.To == to {
			nw.edges = append(nw.edges[:i], nw.edges[i+1:]...)
			return true
		}
	}
	return false
}

// Edges returns a snapshot of the current edges.
func (nw *Network) Edges() []Edge {
	out := make([]Edge, len(nw.edges))
	for i, e := range nw.edges {
		out[i] = *e
	}
	return out
}

// freshSymbol mints a symbol from the unbounded encoding universe for a
// full node's fountain stream.
func (nw *Network) freshSymbol() uint64 {
	nw.freshCounter++
	return (1 << 62) | nw.freshCounter
}

// pickSymbol chooses what the edge carries this transmission, or ok=false
// if the sender has nothing (useful) to offer.
func (nw *Network) pickSymbol(e *Edge, from, to *Node) (uint64, bool) {
	if from.Full {
		return nw.freshSymbol(), true
	}
	if from.Working.Len() == 0 {
		return 0, false
	}
	switch e.Mode {
	case RandomForward:
		return from.Working.Random(nw.rng), true
	case Reconciled:
		// A handful of random probes first (cheap when much is useful),
		// then a deterministic sweep (correct when little is).
		for i := 0; i < 8; i++ {
			s := from.Working.Random(nw.rng)
			if !to.Working.Contains(s) {
				return s, true
			}
		}
		n := from.Working.Len()
		start := nw.rng.Intn(n)
		for i := 0; i < n; i++ {
			s := from.Working.At((start + i) % n)
			if !to.Working.Contains(s) {
				return s, true
			}
		}
		return 0, false
	default:
		return 0, false
	}
}

// Step advances one round: every edge delivers up to Capacity symbols.
// It returns the number of symbols that were new to their receivers and
// the number of transmission attempts made.
func (nw *Network) Step(round int) (useful, sent int) {
	usefulThisRound := 0
	sentThisRound := 0
	for _, e := range nw.edges {
		from, to := nw.nodes[e.From], nw.nodes[e.To]
		if from == nil || to == nil {
			continue
		}
		for c := 0; c < e.Capacity; c++ {
			sym, ok := nw.pickSymbol(e, from, to)
			if !ok {
				break
			}
			nw.transmissions++
			sentThisRound++
			if e.Loss > 0 && nw.rng.Float64() < e.Loss {
				nw.dropped++
				continue
			}
			if to.Working.Add(sym) {
				nw.useful++
				usefulThisRound++
				if to.completedAt < 0 && to.Working.Len() >= nw.target {
					to.completedAt = round
				}
			}
		}
	}
	return usefulThisRound, sentThisRound
}

// Result summarizes a Run.
type Result struct {
	AllComplete   bool
	Rounds        int
	Transmissions int
	Dropped       int
	Useful        int
	Completion    map[NodeID]int // -1 for incomplete nodes
}

// Run executes rounds until every node completes, maxRounds elapse, or
// the network goes quiescent (no useful deliveries for an extended
// stretch). Events fire at the start of their round.
func (nw *Network) Run(maxRounds int, events []Event) (Result, error) {
	if maxRounds <= 0 {
		return Result{}, errors.New("overlay: non-positive maxRounds")
	}
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Round < evs[j].Round })
	next := 0
	idle := 0
	res := Result{Completion: make(map[NodeID]int)}
	round := 1
	for ; round <= maxRounds; round++ {
		for next < len(evs) && evs[next].Round <= round {
			if err := evs[next].Apply(nw); err != nil {
				return Result{}, fmt.Errorf("overlay: event at round %d: %w", evs[next].Round, err)
			}
			next++
		}
		_, sent := nw.Step(round)
		if sent == 0 {
			idle++
		} else {
			idle = 0
		}
		if nw.allComplete() {
			res.AllComplete = true
			break
		}
		if idle > 5 && next >= len(evs) {
			// Deadlock: no edge could offer anything (e.g. reconciled
			// links between identical working sets) and no pending event
			// can change the topology.
			break
		}
	}
	if round > maxRounds {
		round = maxRounds
	}
	res.Rounds = round
	res.Transmissions = nw.transmissions
	res.Dropped = nw.dropped
	res.Useful = nw.useful
	for id, n := range nw.nodes {
		res.Completion[id] = n.completedAt
	}
	return res, nil
}

func (nw *Network) allComplete() bool {
	for _, n := range nw.nodes {
		if n.completedAt < 0 {
			return false
		}
	}
	return true
}
