// Command icdnode is the prototype peer (§6): it serves a file as a full
// or partial sender, and fetches a file from any set of peers in
// parallel.
//
// Serve a file (full sender):
//
//	icdnode serve -file big.iso -listen 127.0.0.1:9000 -id 0xF00D
//
// Serve as a partial sender holding only `count` encoded symbols:
//
//	icdnode serve -file big.iso -listen 127.0.0.1:9001 -id 0xF00D -partial 12000
//
// Fetch from several peers concurrently:
//
//	icdnode fetch -out big.iso -id 0xF00D -peers 127.0.0.1:9000,127.0.0.1:9001
//
// Collaborate (Figure 1(c)): run a node that fetches from peers while
// serving everything learned so far as a live partial sender, so
// complementary peers complete each other in both directions:
//
//	icdnode node -fetch 0xF00D=big.iso -listen 127.0.0.1:9002 \
//	    -peers 127.0.0.1:9000,127.0.0.1:9003
//
// With gossip, the exhaustive -peers list is no longer
// needed: give every node the same single seed address and the swarm
// self-assembles — each node advertises its own -listen address, the
// seed relays what it has heard, and discovered peers are admitted up
// to the fetch's share of -max-conns (the rest wait in the node's
// ranked gossip directory):
//
//	icdnode node -fetch 0xF00D=big.iso -listen 127.0.0.1:9002 \
//	    -seed 127.0.0.1:9000
//
// A node serves and fetches any number of contents from one process and
// ONE listener — every inbound HELLO is routed by content id, fetched
// working sets are served live as they grow, the -max-conns connection
// budget is split evenly among concurrent fetches, and -store-budget
// bounds the bytes kept (pinned replicas never evict):
//
//	icdnode node -listen 127.0.0.1:9000 \
//	    -serve 0xF00D=big.iso,0xBEEF=other.iso \
//	    -fetch 0xCAFE=third.iso,0xD00D=fourth.iso \
//	    -seed 127.0.0.1:9100 -max-conns 8
//
// Add -debug-addr to the node subcommand to watch it live: /metrics is
// the Prometheus text snapshot, /vars the same as flat JSON, /trace the
// recent lifecycle events, and /debug/pprof the standard profiles:
//
//	icdnode node -listen 127.0.0.1:9000 -serve 0xF00D=big.iso \
//	    -debug-addr 127.0.0.1:9090
//	curl -s http://127.0.0.1:9090/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"icd"
	"icd/internal/node"
	"icd/internal/obs"
	"icd/internal/peer"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "fetch":
		fetch(os.Args[2:])
	case "node":
		runNode(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: icdnode serve|fetch|node [flags] (see -h of each)")
	os.Exit(2)
}

func parseID(s string) uint64 {
	id, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icdnode: bad content id %q: %v\n", s, err)
		os.Exit(2)
	}
	return id
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		file      = fs.String("file", "", "file to serve")
		listen    = fs.String("listen", "127.0.0.1:9000", "listen address")
		idStr     = fs.String("id", "F00D", "content id (hex)")
		blockSize = fs.Int("block", icd.DefaultBlockSize, "block size in bytes")
		partial   = fs.Int("partial", 0, "serve as a partial sender holding this many encoded symbols (0 = full)")
		seed      = fs.Uint64("seed", 42, "encoding stream seed for -partial")
	)
	fs.Parse(args)
	if *file == "" {
		fmt.Fprintln(os.Stderr, "icdnode serve: -file is required")
		os.Exit(2)
	}
	content, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	info, err := icd.DescribeContent(parseID(*idStr), content, *blockSize)
	if err != nil {
		fatal(err)
	}

	var srv *peer.Server
	if *partial > 0 {
		symbols, err := icd.EncodeSymbols(info, content, *partial, *seed)
		if err != nil {
			fatal(err)
		}
		srv, err = peer.NewPartialServer(info, symbols)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("icdnode: partial sender with %d symbols of %q (%d blocks) on %s\n",
			*partial, *file, info.NumBlocks, *listen)
	} else {
		srv, err = peer.NewFullServer(info, content)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("icdnode: full sender for %q (%d blocks of %dB) on %s\n",
			*file, info.NumBlocks, *blockSize, *listen)
	}
	mux := peer.NewServerMux()
	if err := mux.Register(srv); err != nil {
		fatal(err)
	}
	if err := mux.ListenAndServe(*listen); err != nil {
		fatal(err)
	}
}

func fetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	var (
		out      = fs.String("out", "", "output file")
		idStr    = fs.String("id", "F00D", "content id (hex)")
		peers    = fs.String("peers", "", "comma-separated peer addresses")
		seed     = fs.String("seed", "", "bootstrap seed address(es); gossip discovers the rest")
		batch    = fs.Int("batch", 64, "symbols per request")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-operation timeout")
		maxPeers = fs.Int("max-peers", 8, "cap on concurrent sessions; extra discoveries wait in the gossip directory (0 = unlimited)")
	)
	fs.Parse(args)
	if *out == "" || (*peers == "" && *seed == "") {
		fmt.Fprintln(os.Stderr, "icdnode fetch: -out and one of -peers/-seed are required")
		os.Exit(2)
	}
	addrs := bootstrapAddrs(*peers, *seed)
	start := time.Now()
	res, err := peer.Fetch(addrs, parseID(*idStr), peer.FetchOptions{
		Batch:    *batch,
		Timeout:  *timeout,
		MaxPeers: *maxPeers,
	})
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, res.Data, 0o644); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("icdnode: fetched %d bytes in %v (decode overhead %.1f%%)\n",
		len(res.Data), elapsed.Round(time.Millisecond), 100*res.DecodeOverhead)
	printPeerStats(res)
}

// contentSpec is one 0xID=path element of a -serve or -fetch list.
type contentSpec struct {
	id   uint64
	path string
}

// parseSpecs parses "0xA=path1,0xB=path2" flag values.
func parseSpecs(flagName, s string) []contentSpec {
	if s == "" {
		return nil
	}
	var specs []contentSpec
	for _, part := range strings.Split(s, ",") {
		id, path, ok := strings.Cut(part, "=")
		if !ok || path == "" {
			fmt.Fprintf(os.Stderr, "icdnode node: bad %s element %q, want 0xID=path\n", flagName, part)
			os.Exit(2)
		}
		specs = append(specs, contentSpec{id: parseID(id), path: path})
	}
	return specs
}

// runNode is the multi-content node: serve and fetch any number of
// contents from one process and one listener.
func runNode(args []string) {
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:9000", "the node's one listen address (serves every content)")
		serveSpec   = fs.String("serve", "", "contents to serve: 0xID=file[,0xID=file...]")
		fetchSpec   = fs.String("fetch", "", "contents to fetch: 0xID=outfile[,0xID=outfile...]")
		peers       = fs.String("peers", "", "comma-separated peer addresses")
		seed        = fs.String("seed", "", "bootstrap seed address(es); gossip discovers the rest")
		blockSize   = fs.Int("block", icd.DefaultBlockSize, "block size for served files")
		batch       = fs.Int("batch", 64, "symbols per request")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-operation timeout")
		maxConns    = fs.Int("max-conns", 8, "global connection budget divided across concurrent fetches (0 = unlimited)")
		storeBudget = fs.Int64("store-budget", 0, "replica byte budget; coldest unpinned replicas evict past it (0 = unlimited)")
		retries     = fs.Int("retries", 3, "redials per failed session (exponential backoff)")
		linger      = fs.Duration("linger", 10*time.Second, "keep serving after all fetches complete (ignored with no -fetch: a pure server runs until interrupted)")
		debugAddr   = fs.String("debug-addr", "", "serve live observability on this address: /metrics (Prometheus), /vars (JSON), /trace, /debug/pprof (empty = off)")
	)
	fs.Parse(args)
	serves := parseSpecs("-serve", *serveSpec)
	fetches := parseSpecs("-fetch", *fetchSpec)
	if len(serves) == 0 && len(fetches) == 0 {
		fmt.Fprintln(os.Stderr, "icdnode node: at least one of -serve/-fetch is required")
		os.Exit(2)
	}
	if len(fetches) > 0 && *peers == "" && *seed == "" {
		fmt.Fprintln(os.Stderr, "icdnode node: -fetch needs one of -peers/-seed")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	n := node.New(node.Options{
		Listen:      *listen,
		StoreBudget: *storeBudget,
		MaxConns:    *maxConns,
		Fetch: peer.FetchOptions{
			Batch:         *batch,
			Timeout:       *timeout,
			MaxReconnects: *retries,
		},
	})
	// Served files are pinned: the operator asked for them explicitly,
	// so the store budget must not trade them away for fetched replicas.
	for _, sp := range serves {
		content, err := os.ReadFile(sp.path)
		if err != nil {
			fatal(err)
		}
		info, err := icd.DescribeContent(sp.id, content, *blockSize)
		if err != nil {
			fatal(err)
		}
		if err := n.ServeFull(info, content, true); err != nil {
			fatal(err)
		}
		fmt.Printf("icdnode: serving %#x (%q, %d blocks of %dB)\n", sp.id, sp.path, info.NumBlocks, *blockSize)
	}
	go func() {
		if err := n.ListenAndServe(); err != nil {
			fmt.Fprintln(os.Stderr, "icdnode: listener:", err)
		}
	}()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		defer dln.Close()
		fmt.Printf("icdnode: debug endpoints on http://%s/ (/metrics /vars /trace /debug/pprof)\n", dln.Addr())
		go func() {
			err := http.Serve(dln, obs.DebugMux(n.Obs()))
			if err != nil && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "icdnode: debug listener:", err)
			}
		}()
	}
	fmt.Printf("icdnode: node on %s — %d served, %d to fetch (max-conns %d)\n",
		*listen, len(serves), len(fetches), *maxConns)

	addrs := bootstrapAddrs(*peers, *seed)
	start := time.Now()
	transfers := make([]*node.Transfer, len(fetches))
	for i, sp := range fetches {
		t, err := n.StartFetch(ctx, sp.id, addrs...)
		if err != nil {
			fatal(err)
		}
		transfers[i] = t
	}
	failed := false
	for i, t := range transfers {
		res, err := t.Wait()
		if err != nil {
			fmt.Fprintf(os.Stderr, "icdnode: fetch %#x: %v\n", fetches[i].id, err)
			failed = true
			continue
		}
		if err := os.WriteFile(fetches[i].path, res.Data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("icdnode: fetched %#x → %q: %d bytes in %v (decode overhead %.1f%%)\n",
			fetches[i].id, fetches[i].path, len(res.Data),
			time.Since(start).Round(time.Millisecond), 100*res.DecodeOverhead)
		printPeerStats(res)
	}
	for _, st := range n.Contents() {
		state := "partial"
		if st.Complete {
			state = "complete"
		}
		if st.Active {
			state = "fetching"
		}
		pin := ""
		if st.Pinned {
			pin = " pinned"
		}
		fmt.Printf("  store %#-18x %8dB %s%s hits=%d\n", st.ID, st.Bytes, state, pin, st.Hits)
	}
	if failed {
		n.Close()
		os.Exit(1)
	}
	if len(fetches) == 0 {
		fmt.Println("icdnode: serving (interrupt to stop)")
		<-ctx.Done() // pure server: run until interrupted
	} else if *linger > 0 {
		fmt.Printf("icdnode: serving for another %v (interrupt to stop)\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
	n.Close()
}

// bootstrapAddrs merges the explicit -peers list with the -seed
// bootstrap address(es); either may be empty.
func bootstrapAddrs(peers, seed string) []string {
	var addrs []string
	for _, part := range []string{peers, seed} {
		if part == "" {
			continue
		}
		addrs = append(addrs, strings.Split(part, ",")...)
	}
	return addrs
}

func printPeerStats(res *peer.FetchResult) {
	for _, p := range res.Peers {
		kind := "partial"
		if p.Full {
			kind = "full"
		}
		extra := ""
		if p.Summary != "" {
			extra += " summary=" + p.Summary
		}
		if p.RefreshesSent > 0 {
			extra += fmt.Sprintf(" refreshes=%d", p.RefreshesSent)
		}
		if p.Reconnects > 0 {
			extra += fmt.Sprintf(" reconnects=%d", p.Reconnects)
		}
		if p.Evicted {
			extra += " evicted"
		}
		if p.Discovered {
			extra += " discovered"
		}
		fmt.Printf("  %-22s %-7s received=%-6d useful=%-6d utility=%.1f/s%s\n",
			p.Addr, kind, p.SymbolsReceived, p.UsefulSymbols, p.Utility, extra)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icdnode:", err)
	os.Exit(1)
}
