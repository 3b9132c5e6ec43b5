package peer

// chaos_test.go is the hostile swarm (PR 6): collaborative nodes that
// know only a seed, running over real accept loops on a faultnet pipe
// network with fault-injecting dialers — connections that die
// mid-frame, corrupting paths, and an optional always-corrupting
// hostile peer. With deadlines, stall watchdogs, redial backoff and the
// penalty box in place the swarm must still converge, the hostile peer
// must end up banned, and the run must tear down without leaking a
// goroutine. It is the only swarm-level check of kills + corruption +
// ban together; hostile_test.go covers each mechanism on its own.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/testutil"
)

// chaosSwarmConfig sizes one hostile-swarm run.
type chaosSwarmConfig struct {
	Nodes     int    // collaborative nodes, each bootstrapped from the seed
	N         int    // content blocks
	BlockSize int    // bytes per block
	Seed      uint64 // drives content, symbol streams and fault decisions
	// Faults is injected on every node's dialed connections (each node
	// derives its own fault stream from Seed).
	Faults faultnet.Faults
	// Hostile adds an always-corrupting peer at address "evil" to every
	// node's bootstrap list; containment means every node that talked to
	// it ends with the address banned.
	Hostile bool
}

// chaosSwarmResult aggregates one run's robustness counters.
type chaosSwarmResult struct {
	Resets        int  // established connections that died mid-stream
	DialFailures  int  // dials that never produced a connection
	CorruptFrames int  // connections dropped over a corrupt frame
	Stalls        int  // stall-watchdog drops
	Reconnects    int  // redial attempts across the swarm
	BannedPeers   int  // sessions whose address ended banned
	Converged     bool // every node completed and verified the content
	// Hostile is each node's session row for the hostile peer, in node
	// order (the zero row for a node that never tried it); Took is how
	// long the swarm ran until its last node ended.
	Hostile []PeerStats
	Took    time.Duration
}

// serveHostile accepts connections at ln and answers every client with
// bytes that can never parse as a frame — the always-corrupting peer the
// penalty box must attribute and contain.
func serveHostile(ln net.Listener) {
	junk := bytes.Repeat([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 64)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			go io.Copy(io.Discard, c) // drain the HELLO so the client never blocks writing
			c.Write(junk)
		}(conn)
	}
}

// runChaosSwarm boots Nodes collaborative nodes over one faultnet pipe
// network: the seed and every node's live server run real accept loops
// on pn listeners, while each node dials through its own fault-injecting
// wrapper. Nodes know only the seed (plus the hostile peer, when
// enabled); gossip assembles the rest. Node failures are reported
// through Converged for the caller to judge.
func runChaosSwarm(t *testing.T, cfg chaosSwarmConfig) chaosSwarmResult {
	t.Helper()
	var res chaosSwarmResult
	info, content := testContentID(t, 0x5A5A^cfg.Seed, cfg.N, cfg.BlockSize)
	pn := faultnet.NewPipeNet()

	seedSrv, err := NewFullServer(info, content)
	if err != nil {
		t.Fatal(err)
	}
	seedLn, err := pn.Listen("seed")
	if err != nil {
		t.Fatal(err)
	}
	seedMux := front(seedSrv)
	go seedMux.Serve(seedLn)
	defer seedMux.Close()

	bootstrap := []string{"seed"}
	if cfg.Hostile {
		evilLn, err := pn.Listen("evil")
		if err != nil {
			t.Fatal(err)
		}
		go serveHostile(evilLn)
		defer evilLn.Close()
		bootstrap = append(bootstrap, "evil")
	}

	type outcome struct {
		res *FetchResult
		err error
	}
	outs := make([]outcome, cfg.Nodes)
	var liveMu sync.Mutex
	var liveSrvs []*ServerMux
	swarmDone := false // guarded by liveMu: the close pass below has run
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Nodes; i++ {
		addr := fmt.Sprintf("N%d", i+1)
		faults := cfg.Faults
		faults.Seed = cfg.Seed ^ (uint64(i+1) * 0x9E3779B9)
		// Dial as a named node: accepted conns report this node's listen
		// address as their remote identity, so server-plane misbehavior
		// scoring keys by the same name the dial plane and gossip use.
		tr := faultnet.Wrap(pn.Node(addr), faults)
		gossip := NewGossip(addr)
		// Penalty decay scaled to the run like every other time knob
		// (sub-millisecond backoffs): at the default 30s
		// half-life, every environmental misattribution — an injected
		// corrupt connection charged to the innocent peer on its far end,
		// dial failures into a node whose live server hasn't started —
		// outlives the run, and with inbound admission keyed by real
		// peer names those bans partition the swarm in both directions.
		// The truly hostile peer stays contained: every contact
		// re-charges it, and a session's Banned verdict latches the
		// moment the ban ends its redial loop.
		penalties := NewPenaltyBox()
		penalties.SetPolicy(time.Second, DefaultBanScore)
		o := NewOrchestrator(info.ID, FetchOptions{
			Batch:             8,
			Timeout:           time.Minute,
			MaxUselessBatches: 1 << 20, // peers start empty; patience, not eviction
			MaxPeers:          cfg.Nodes + 2,
			MaxReconnects:     30, // churned conns redial; terminal/banned peers short-circuit
			// A ban takes three contacts with the hostile peer: the first at
			// the start, then one per redial. Paced from 500µs, the third
			// lands within a few milliseconds, inside the fastest swarm
			// (about 6ms at one CPU); paced slower, the ban races the
			// swarm's convergence.
			ReconnectBackoff:    500 * time.Microsecond,
			MaxReconnectBackoff: 100 * time.Millisecond,
			StallTimeout:        time.Second, // watchdog armed, generous for empty starts at this size
			AdvertiseAddr:       addr,
			Gossip:              gossip,
			Penalties:           penalties,
			Dial:                tr.Dial,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := o.Run(context.Background(), bootstrap...)
			outs[i] = outcome{r, err}
		}(i)
		// Serve the growing working set on a real accept loop as soon as
		// the first handshake fixes the metadata — inbound misbehavior
		// feeds the same penalty box the fetch sessions charge.
		go func() {
			info, err := o.WaitInfo(context.Background())
			if err != nil {
				return
			}
			live, err := NewLiveServer(info, o)
			if err != nil {
				return
			}
			mux := front(live)
			mux.SetGossip(gossip)
			mux.SetPenalties(o.Penalties())
			ln, err := pn.Listen(addr)
			if err != nil {
				return
			}
			liveMu.Lock()
			if swarmDone {
				// The fetches all ended before this server came up: nobody
				// is left to close it.
				liveMu.Unlock()
				ln.Close()
				return
			}
			liveSrvs = append(liveSrvs, mux)
			liveMu.Unlock()
			mux.Serve(ln)
		}()
	}
	wg.Wait()
	res.Took = time.Since(start)
	liveMu.Lock()
	swarmDone = true
	for _, srv := range liveSrvs {
		srv.Close()
	}
	liveMu.Unlock()

	res.Converged = true
	res.Hostile = make([]PeerStats, len(outs))
	for i, out := range outs {
		if out.err != nil || out.res == nil || !bytes.Equal(out.res.Data, content) {
			res.Converged = false
		}
		if out.res == nil {
			continue
		}
		for _, p := range out.res.Peers {
			if p.Addr == "evil" {
				res.Hostile[i] = p
			}
			res.Resets += p.Resets
			res.DialFailures += p.DialFailures
			res.CorruptFrames += p.CorruptFrames
			res.Stalls += p.Stalls
			res.Reconnects += p.Reconnects
			if p.Banned {
				res.BannedPeers++
			}
		}
	}
	return res
}

func TestChaosSwarmCleanBaseline(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	res := runChaosSwarm(t, chaosSwarmConfig{
		Nodes: 4, N: 120, BlockSize: 64, Seed: 21,
	})
	if !res.Converged {
		t.Fatalf("clean baseline did not converge: %+v", res)
	}
	if res.CorruptFrames != 0 || res.Stalls != 0 {
		t.Fatalf("clean baseline saw injected faults: %+v", res)
	}
}

// TestChaosSwarmHostileConvergesAndBans runs a table of seeds, not one:
// which faults land where is the seed's, and a single seed shows one
// draw (a byte flipped in a frame's version byte used to end a session
// for good, on four seeds of forty, none of them the one pinned here).
// Every seed must converge. The ban is asserted over the table; each
// seed logs, per node, its corrupt connections to the hostile peer and
// how long the swarm ran, which is what decides it: a node bans the
// hostile peer once its third contact lands before its fetch ends, so
// the harness paces redials well inside the fastest swarm.
func TestChaosSwarmHostileConvergesAndBans(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var mu sync.Mutex
	var total chaosSwarmResult
	// The group returns when its parallel seeds have: a seed that sits out
	// a stall window (a corrupted length field parks a wire's reader until
	// the watchdog gives the attempt up) overlaps the others.
	t.Run("seeds", func(t *testing.T) {
		for seed := uint64(1); seed <= 16; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				// Large enough that most nodes meet the hostile peer often
				// enough to cross the ban threshold before the transfer
				// completes (a 4-node/120-block swarm converges too fast to
				// accumulate three corrupt connections per node).
				res := runChaosSwarm(t, chaosSwarmConfig{
					Nodes: 5, N: 150, BlockSize: 64, Seed: seed,
					Faults:  faultnet.Faults{KillProb: 0.2, KillAfter: 8 << 10, CorruptProb: 0.05},
					Hostile: true,
				})
				if !res.Converged {
					t.Errorf("hostile swarm did not converge: %+v", res)
				}
				// What decides the ban: each node's corrupt connections to
				// the hostile peer (three within a half-life ban it), against
				// how long the swarm ran.
				for i, h := range res.Hostile {
					t.Logf("node %d: %d corrupt connections to the hostile peer, banned %v", i+1, h.CorruptFrames, h.Banned)
				}
				t.Logf("swarm ran %v", res.Took)
				mu.Lock()
				total.BannedPeers += res.BannedPeers
				total.CorruptFrames += res.CorruptFrames
				mu.Unlock()
			})
		}
	})
	if total.BannedPeers == 0 {
		t.Fatalf("hostile peer never banned: %+v", total)
	}
	// Containment leaves a trail: the corrupt frames that earned the ban.
	if total.CorruptFrames == 0 {
		t.Fatalf("hostile runs banned peers without corrupt frames?! %+v", total)
	}
}
