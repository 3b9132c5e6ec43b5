package peer

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"icd/internal/faultnet"
)

// BenchmarkFetchFabricPipe is the whole fabric fetch as one row: a full
// sender behind a ServerMux on a faultnet.PipeNet listener, one
// peer.Fetch per iteration over a private fabric (dial, wire and channel
// handshakes, request pipeline, fold → peel, reassembly), at the
// benchmark's pipe_full size. MB/s is decoded content; allocs/symbol
// covers both ends of the pipe, since they share the process.
func BenchmarkFetchFabricPipe(b *testing.B) {
	const k, blockSize = 4096, 1400
	info, data := testContent(b, k, blockSize)
	srv, err := NewFullServer(info, data)
	if err != nil {
		b.Fatal(err)
	}
	pn := faultnet.NewPipeNet()
	ln, err := pn.Listen("provider")
	if err != nil {
		b.Fatal(err)
	}
	mux := front(srv)
	served := make(chan error, 1)
	go func() { served <- mux.Serve(ln) }()
	defer func() {
		mux.Close()
		<-served
	}()

	opts := FetchOptions{Dial: pn.Dial, DisableGossip: true}
	fetch := func() *FetchResult {
		res, err := Fetch([]string{"provider"}, info.ID, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			b.Fatal("content mismatch")
		}
		return res
	}
	fetch() // warm the frame pools

	var before, after runtime.MemStats
	symbols := 0
	b.SetBytes(int64(len(data)))
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symbols += fetch().Peers[0].SymbolsReceived
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(symbols), "allocs/symbol")
}

// BenchmarkFetchFabricWAN is the same fetch where round trips are all it
// costs: a k=1024 full sender behind a 50 ms RTT, unlimited-bandwidth
// ShapedNet link in delivery mode — the benchmark's wan_rtt50 shape, one
// client. rtt/fetch is the row to read: one round trip sets the session
// up and carries what the decode needs (the OPEN asks for a window, the
// sender answers decodeNeed(1024) = 1152 symbols), and a stream that
// needs more takes a second; MB/s follows from it.
func BenchmarkFetchFabricWAN(b *testing.B) {
	const k, blockSize, rtt = 1024, 1400, 50 * time.Millisecond
	info, data := testContent(b, k, blockSize)
	srv, err := NewFullServer(info, data)
	if err != nil {
		b.Fatal(err)
	}
	dial, cleanup := wanPair(b, rtt, srv)
	defer cleanup()

	opts := FetchOptions{Dial: dial, DisableGossip: true}
	fetch := func() {
		res, err := Fetch([]string{"provider"}, info.ID, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			b.Fatal("content mismatch")
		}
	}
	fetch() // warm the frame pools

	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(rtt), "rtt/fetch")
}

// BenchmarkFetchFabricWANPartial is BenchmarkFetchFabricWAN's link with a
// partial sender at the other end: k=1024, the sender holding 2048
// symbols and the receiver 256 of them, so the session sends a summary
// and its requests are aimed against it. rtt/fetch is the row to read:
// one round trip sets the session up (a partial sender answers none of
// the OPEN's round), the first REQUEST's batch takes a second and times
// the path, and the rest of the need follows in a third; a stream that
// needs more takes a fourth.
func BenchmarkFetchFabricWANPartial(b *testing.B) {
	const k, blockSize, rtt = 1024, 1400, 50 * time.Millisecond
	info, data := testContent(b, k, blockSize)
	syms := orderedSymbols(b, info, data, 2*k, 5)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		b.Fatal(err)
	}
	dial, cleanup := wanPair(b, rtt, srv)
	defer cleanup()

	fetch := func() {
		opts := FetchOptions{Dial: dial, DisableGossip: true, Initial: symbolMap(syms[:k/4])}
		res, err := Fetch([]string{"provider"}, info.ID, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			b.Fatal("content mismatch")
		}
	}
	fetch() // warm the frame pools

	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(rtt), "rtt/fetch")
}
