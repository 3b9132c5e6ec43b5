package experiment

// chaos.go is the hostile-swarm measurement (PR 6): the same
// collaborative swarm the gossip experiment assembles, but running over
// real accept loops on a faultnet pipe network with fault-injecting
// dialers — connections that die mid-frame, corrupting paths, and an
// optional always-corrupting hostile peer. The claim under test: with
// deadlines, stall watchdogs, redial backoff and the penalty box in
// place, the swarm still converges, the hostile peer ends up banned on
// every node that met it, and the degradation against a clean baseline
// is bounded (BENCH_pr6.json carries both rows).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"icd/internal/faultnet"
	"icd/internal/peer"
)

// ChaosSwarmConfig sizes one hostile-swarm run.
type ChaosSwarmConfig struct {
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

// ChaosSwarmResult aggregates one run's robustness counters.
type ChaosSwarmResult struct {
	Elapsed       time.Duration
	Resets        int  // established connections that died mid-stream
	DialFailures  int  // dials that never produced a connection
	CorruptFrames int  // connections dropped over a corrupt frame
	Stalls        int  // stall-watchdog drops
	Reconnects    int  // redial attempts across the swarm
	BannedPeers   int  // sessions whose address ended banned
	Converged     bool // every node completed and verified the content
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

// RunChaosSwarm boots Nodes collaborative nodes over one faultnet pipe
// network: the seed and every node's live server run real accept loops
// on pn listeners, while each node dials through its own fault-injecting
// wrapper. Nodes know only the seed (plus the hostile peer, when
// enabled); gossip assembles the rest. Node failures are reported
// through Converged, not as errors — a chaos run that fails to converge
// is a measurement, not a crash.
func RunChaosSwarm(cfg ChaosSwarmConfig) (ChaosSwarmResult, error) {
	var res ChaosSwarmResult
	fix, err := BuildSwarmFixture(cfg.N, cfg.BlockSize, cfg.Seed)
	if err != nil {
		return res, err
	}
	pn := faultnet.NewPipeNet()

	seedSrv, err := peer.NewFullServer(fix.Info, fix.Content)
	if err != nil {
		return res, err
	}
	seedLn, err := pn.Listen("seed")
	if err != nil {
		return res, err
	}
	seedMux := frontDoor(seedSrv)
	go seedMux.Serve(seedLn)
	defer seedMux.Close()

	bootstrap := []string{"seed"}
	if cfg.Hostile {
		evilLn, err := pn.Listen("evil")
		if err != nil {
			return res, err
		}
		go serveHostile(evilLn)
		defer evilLn.Close()
		bootstrap = append(bootstrap, "evil")
	}

	type outcome struct {
		res *peer.FetchResult
		err error
	}
	outs := make([]outcome, cfg.Nodes)
	var liveMu sync.Mutex
	var liveSrvs []*peer.ServerMux
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
		gossip := peer.NewGossip(addr)
		// Penalty decay scaled to the run like every other time knob
		// (2ms backoffs, 20ms breaker cooldowns): at the default 30s
		// half-life, every environmental misattribution — an injected
		// corrupt connection charged to the innocent peer on its far end,
		// dial failures into a node whose live server hasn't started —
		// outlives the experiment, and with inbound admission keyed by
		// real peer names those bans partition the swarm in both
		// directions. The truly hostile peer stays contained: every
		// contact re-charges it, and a session's Banned verdict latches
		// the moment the ban ends its redial loop.
		penalties := peer.NewPenaltyBox()
		penalties.SetPolicy(time.Second, peer.DefaultBanScore)
		o := peer.NewOrchestrator(fix.Info.ID, peer.FetchOptions{
			Batch:               8,
			Timeout:             time.Minute,
			MaxUselessBatches:   1 << 20, // peers start empty; patience, not eviction
			MaxPeers:            cfg.Nodes + 2,
			MaxReconnects:       30, // churned conns redial; terminal/banned peers short-circuit
			ReconnectBackoff:    2 * time.Millisecond,
			MaxReconnectBackoff: 100 * time.Millisecond,
			StallTimeout:        10 * time.Second, // watchdog armed, generous for empty starts
			BreakerThreshold:    3,
			BreakerCooldown:     20 * time.Millisecond,
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
			live, err := peer.NewLiveServer(info, o)
			if err != nil {
				return
			}
			mux := frontDoor(live)
			mux.SetGossip(gossip)
			mux.SetPenalties(o.Penalties())
			ln, err := pn.Listen(addr)
			if err != nil {
				return
			}
			liveMu.Lock()
			liveSrvs = append(liveSrvs, mux)
			liveMu.Unlock()
			mux.Serve(ln)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	liveMu.Lock()
	for _, srv := range liveSrvs {
		srv.Close()
	}
	liveMu.Unlock()

	res.Converged = true
	for _, out := range outs {
		if out.err != nil || out.res == nil || !bytes.Equal(out.res.Data, fix.Content) {
			res.Converged = false
		}
		if out.res == nil {
			continue
		}
		for _, p := range out.res.Peers {
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
	return res, nil
}

// Chaos is the PR 6 robustness measurement: the collaborative swarm
// clean, then under 20% connection-kill plus 5% corrupting connections
// plus a hostile always-corrupting peer. Convergence with the hostile
// peer banned is the acceptance bar; the elapsed ratio is the cost of
// surviving the hostile network.
func Chaos(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		ID:     "chaos",
		Title:  "hostile-swarm hardening: fault injection + penalty box (faultnet pipes)",
		Header: []string{"scenario", "converged", "resets", "corrupt", "dial-fails", "banned", "reconnects", "elapsed"},
	}
	n := o.N
	if n > 240 {
		n = 240 // robustness rows measure survival, not box patience
	}
	scenarios := []struct {
		name    string
		faults  faultnet.Faults
		hostile bool
	}{
		{"clean baseline", faultnet.Faults{}, false},
		{"20% kill + 5% corrupt + hostile peer", faultnet.Faults{
			KillProb:    0.2,
			KillAfter:   8 << 10,
			CorruptProb: 0.05,
		}, true},
	}
	for _, sc := range scenarios {
		res, err := RunChaosSwarm(ChaosSwarmConfig{
			Nodes:     5,
			N:         n,
			BlockSize: 64,
			Seed:      o.Seed + 17,
			Faults:    sc.faults,
			Hostile:   sc.hostile,
		})
		if err != nil {
			return t, err
		}
		if !res.Converged {
			return t, fmt.Errorf("experiment: chaos scenario %q did not converge", sc.name)
		}
		if sc.hostile && res.BannedPeers == 0 {
			return t, fmt.Errorf("experiment: chaos scenario %q banned nobody (hostile peer uncontained)", sc.name)
		}
		t.Rows = append(t.Rows, []string{sc.name,
			fmt.Sprintf("%v", res.Converged),
			fmt.Sprintf("%d", res.Resets),
			fmt.Sprintf("%d", res.CorruptFrames),
			fmt.Sprintf("%d", res.DialFailures),
			fmt.Sprintf("%d", res.BannedPeers),
			fmt.Sprintf("%d", res.Reconnects),
			res.Elapsed.Round(time.Millisecond).String()})
	}
	return t, nil
}
