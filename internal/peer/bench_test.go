package peer

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"icd/internal/faultnet"
	"icd/internal/obs"
)

// BenchmarkFetchFabricPipe is the whole fabric fetch as one row: a full
// sender behind a ServerMux on a faultnet.PipeNet listener, one
// peer.Fetch per iteration over a private fabric (dial, wire and channel
// handshakes, request pipeline, fold → peel, reassembly), at the
// benchmark's pipe_full size. MB/s is decoded content; allocs/symbol
// covers both ends of the pipe, since they share the process. Every fetch
// is by a receiver that announces no listen address, so from the third
// on (the warm-up caches nothing, the next caches what it is sent) the
// sender replays its cached stream prefix and encodes only past it;
// BenchmarkFetchFabricPipeFresh is the same fetch with nothing to replay.
func BenchmarkFetchFabricPipe(b *testing.B) {
	const k, blockSize = 4096, 1400
	info, data := testContent(b, k, blockSize)
	srv, err := NewFullServer(info, data)
	if err != nil {
		b.Fatal(err)
	}
	mux, _, dial := pipeProvider(b)
	if err := mux.Register(srv); err != nil {
		b.Fatal(err)
	}

	opts := FetchOptions{Dial: dial}
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

// BenchmarkFetchFabricPipeFresh is BenchmarkFetchFabricPipe where every
// fetch is of a content its sender has not served before (one more
// content id over the same bytes, registered untimed), so nothing is
// replayed and nothing recorded: a content's first empty receiver is sent
// a fresh stream that no prefix copies, so a sender whose contents are
// never fetched twice pays nothing for the cache. encoded/sent, the share
// of the sent symbols the sender encoded, reads 1.
func BenchmarkFetchFabricPipeFresh(b *testing.B) {
	const k, blockSize = 4096, 1400
	info, data := testContent(b, k, blockSize)
	mux, reg, dial := pipeProvider(b)
	fetch := func() {
		srv, err := NewFullServer(info, data)
		if err != nil {
			b.Fatal(err)
		}
		if err := mux.Register(srv); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Fetch([]string{"provider"}, info.ID, FetchOptions{Dial: dial})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			b.Fatal("content mismatch")
		}
		mux.Unregister(info.ID)
		info.ID++
	}
	b.StopTimer()
	fetch() // warm the frame pools
	sent, encoded := reg.Counter("serve.symbols_sent").Value(), reg.Counter("serve.symbols_encoded").Value()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.ReportMetric(float64(reg.Counter("serve.symbols_encoded").Value()-encoded)/
		float64(reg.Counter("serve.symbols_sent").Value()-sent), "encoded/sent")
}

// BenchmarkFetchFabricPipeConcurrent is four receivers fetching one
// content from one full sender at once, over and over. Announcing listen
// addresses of their own (addressed), they are a swarm's receivers, which
// could relay to each other: the sender's cached stream prefix is
// replayed only to the one whose session recorded it, and encoded/sent
// reads about 3/4. Announcing none (anonymous), they are plain downloads that
// pass nothing on: every one is replayed the prefix, all at once, and
// encoded/sent reads what the four send past it. MB/s counts every
// receiver's content.
func BenchmarkFetchFabricPipeConcurrent(b *testing.B) {
	const k, blockSize, receivers = 4096, 1400, 4
	for _, addressed := range []bool{true, false} {
		name := map[bool]string{true: "addressed", false: "anonymous"}[addressed]
		b.Run(name, func(b *testing.B) {
			info, data := testContent(b, k, blockSize)
			srv, err := NewFullServer(info, data)
			if err != nil {
				b.Fatal(err)
			}
			mux, reg, dial := pipeProvider(b)
			if err := mux.Register(srv); err != nil {
				b.Fatal(err)
			}
			round := func() {
				var wg sync.WaitGroup
				for r := range receivers {
					opts := FetchOptions{Dial: dial}
					if addressed {
						opts.AdvertiseAddr = fmt.Sprintf("receiver-%d", r)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := Fetch([]string{"provider"}, info.ID, opts)
						if err != nil {
							b.Error(err)
						} else if !bytes.Equal(res.Data, data) {
							b.Error("content mismatch")
						}
					}()
				}
				wg.Wait()
			}
			round() // warm the frame pools
			sent, encoded := reg.Counter("serve.symbols_sent").Value(), reg.Counter("serve.symbols_encoded").Value()
			b.SetBytes(receivers * int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			b.ReportMetric(float64(reg.Counter("serve.symbols_encoded").Value()-encoded)/
				float64(reg.Counter("serve.symbols_sent").Value()-sent), "encoded/sent")
		})
	}
}

// pipeProvider serves an empty ServerMux, counting into the returned
// registry, on a faultnet.PipeNet listener at "provider" until the
// benchmark ends, and returns it with the dial to reach it.
func pipeProvider(b *testing.B) (*ServerMux, *obs.Registry, func(string) (net.Conn, error)) {
	pn := faultnet.NewPipeNet()
	ln, err := pn.Listen("provider")
	if err != nil {
		b.Fatal(err)
	}
	mux, reg := NewServerMux(), obs.NewRegistry()
	mux.SetObs(reg)
	served := make(chan error, 1)
	go func() { served <- mux.Serve(ln) }()
	b.Cleanup(func() {
		mux.Close()
		<-served
	})
	return mux, reg, pn.Dial
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

	opts := FetchOptions{Dial: dial}
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
		opts := FetchOptions{Dial: dial, Initial: symbolMap(syms[:k/4])}
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
