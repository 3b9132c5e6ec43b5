// Tcptransfer runs the full prototype over real TCP sockets: a full
// sender, two partial senders with different working sets, a parallel
// informed fetch, and a stateless connection migration (§2.3) — the
// receiver aborts, then resumes against different peers carrying nothing
// but its decoded working set.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"time"

	"icd"
)

func main() {
	// A ~1MB synthetic file in paper-sized 1400-byte blocks.
	content := bytes.Repeat([]byte("overlay networks have emerged as a powerful method for delivering content. "), 14000)
	info, err := icd.DescribeContent(0xCAFE, content, icd.DefaultBlockSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content: %d bytes, %d blocks of %d\n", info.OrigLen, info.NumBlocks, info.BlockSize)

	// Each sender listens behind its own front door (a ServerMux with one
	// registered content).
	var muxes []*icd.ServerMux
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
	}()
	start := func(s *icd.Server) string {
		mux := icd.NewServerMux()
		if err := mux.Register(s); err != nil {
			log.Fatal(err)
		}
		muxes = append(muxes, mux)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go mux.Serve(ln)
		return ln.Addr().String()
	}

	// One full sender and two partial senders holding ~60% each from
	// independent encoding streams.
	full, err := icd.NewFullServer(info, content)
	if err != nil {
		log.Fatal(err)
	}
	partCount := info.NumBlocks * 7 / 10
	sy1, err := icd.EncodeSymbols(info, content, partCount, 111)
	if err != nil {
		log.Fatal(err)
	}
	sy2, err := icd.EncodeSymbols(info, content, partCount, 222)
	if err != nil {
		log.Fatal(err)
	}
	p1, err := icd.NewPartialServer(info, sy1)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := icd.NewPartialServer(info, sy2)
	if err != nil {
		log.Fatal(err)
	}
	fullAddr, addr1, addr2 := start(full), start(p1), start(p2)

	// Phase 1: download from the two partial senders only, and prove
	// they jointly reconstruct the file without any full copy online.
	t0 := time.Now()
	res, err := icd.Fetch([]string{addr1, addr2}, info.ID, icd.FetchOptions{Batch: 64})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(res.Data, content) {
		log.Fatal("phase 1: content mismatch")
	}
	fmt.Printf("\nphase 1 — two partial senders only: fetched in %v\n", time.Since(t0).Round(time.Millisecond))
	for _, p := range res.Peers {
		fmt.Printf("  %-22s received=%-6d useful=%-6d\n", p.Addr, p.SymbolsReceived, p.UsefulSymbols)
	}

	// Phase 2: stateless migration. Start a fresh download from one
	// partial sender, stop it early (it cannot finish alone), then resume
	// against the full sender passing only the held symbols. The partial
	// sender is served behind a front door of its own: the first one heard
	// the other peers' addresses in phase 1 and would gossip them on,
	// completing the file after all.
	lone := start(p1)
	res2, err := icd.Fetch([]string{lone}, info.ID, icd.FetchOptions{
		Batch: 64, MaxUselessBatches: 2,
	})
	if err == nil && res2.Completed {
		log.Fatal("phase 2: a single partial sender cannot complete the file")
	}
	fmt.Printf("\nphase 2 — interrupted download: held %d symbols when the sender ran dry\n",
		res2.DistinctSymbols)

	res3, err := icd.Fetch([]string{fullAddr, addr2}, info.ID, icd.FetchOptions{
		Batch:   64,
		Initial: res2.Held, // the only state carried across the migration
	})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(res3.Data, content) {
		log.Fatal("phase 2: content mismatch after migration")
	}
	fresh := res3.DistinctSymbols - res2.DistinctSymbols
	fmt.Printf("resumed against different peers: %d fresh symbols completed the file\n", fresh)
	fmt.Println("\nOK — stateless migration: no retransmission state, no renegotiation (§2.3)")
}
