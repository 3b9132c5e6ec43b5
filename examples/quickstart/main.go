// Quickstart: encode a file with the digital-fountain codec, serve it
// from a full sender over TCP, and fetch it — the minimal end-to-end use
// of the library's public API.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"

	"icd"
)

func main() {
	// 1. Some content to deliver (any []byte; the paper used a 32MB file
	// in 1400-byte blocks — we stay small here).
	content := bytes.Repeat([]byte("informed content delivery across adaptive overlay networks. "), 2000)

	// 2. Describe it: block count, block size, code seed. Every peer
	// sharing this content agrees on this metadata.
	info, err := icd.DescribeContent(0xF00D, content, 128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content: %d bytes → %d blocks of %dB\n", info.OrigLen, info.NumBlocks, info.BlockSize)

	// 3. Start a full sender: a stateless digital fountain, registered
	// on a listener's front door (one ServerMux serves any number of
	// contents).
	srv, err := icd.NewFullServer(info, content)
	if err != nil {
		log.Fatal(err)
	}
	mux := icd.NewServerMux()
	if err := mux.Register(srv); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go mux.Serve(ln)
	defer mux.Close()

	// 4. Fetch it back.
	res, err := icd.Fetch([]string{ln.Addr().String()}, info.ID, icd.FetchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(res.Data, content) {
		log.Fatal("content mismatch")
	}
	fmt.Printf("fetched %d bytes from %s\n", len(res.Data), ln.Addr())
	fmt.Printf("symbols received: %d (decode overhead %.1f%%)\n",
		res.Peers[0].SymbolsReceived, 100*res.DecodeOverhead)
	fmt.Println("OK")
}
