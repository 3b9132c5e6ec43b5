package peer

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"icd/internal/obs"
	"icd/internal/protocol"
)

// fakeHandshake speaks just enough protocol, by hand, to get a client's
// session going on c: it answers the wire handshake, accepts the first
// channel the client opens as a full sender of info, and returns once
// the client's first enveloped frame (its opening REQUEST) has arrived.
// The hostile fakes below take it from there.
func fakeHandshake(c net.Conn, info ContentInfo) error {
	if _, err := protocol.ReadFrame(c); err != nil { // the client's MUX_HELLO
		return err
	}
	if err := protocol.WriteFrame(c, protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})); err != nil {
		return err
	}
	for {
		f, err := protocol.ReadFrame(c)
		if err != nil {
			return err
		}
		switch f.Type {
		case protocol.TypeOpenChannel:
			id, _, err := protocol.DecodeOpenChannel(f)
			if err != nil {
				return err
			}
			if err := protocol.WriteFrame(c, protocol.EncodeAcceptChannel(id, info.hello(true, 0))); err != nil {
				return err
			}
		case protocol.TypeMux:
			return nil
		}
	}
}

// hostileServer speaks just enough protocol to pass the handshake, then
// emits a corrupt frame — failure injection for the client's integrity
// checking.
func hostileServer(t *testing.T, info ContentInfo) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.SetDeadline(time.Now().Add(5 * time.Second))
				// Await the first request, then send a frame whose CRC is
				// wrong.
				if fakeHandshake(c, info) != nil {
					return
				}
				var buf bytes.Buffer
				protocol.WriteFrame(&buf, protocol.EncodeSymbol(protocol.Symbol{ID: 1, Data: []byte{1, 2, 3}}))
				raw := buf.Bytes()
				raw[len(raw)-1] ^= 0xFF // corrupt the checksum
				c.Write(raw)
				// Keep the connection open; the client must bail on its own.
				time.Sleep(2 * time.Second)
			}(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

func TestFetchSurvivesCorruptPeer(t *testing.T) {
	// The healthy server sends no symbol before the fetch's registry shows
	// the hostile session failed: both sessions started and one is live,
	// the healthy one, waiting behind the gate. A session exits only after
	// recording its error. A fetch that completed first would cancel the
	// hostile session before it read its corrupt frame, and a cancelled
	// session reports no error.
	info, data := testContent(t, 1200, 32)
	good, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	started, live := reg.Counter("peer.sessions{event=started}"), reg.Gauge("peer.sessions{state=live}")
	gate := &startGate{n: 1, ready: func() bool { return started.Value() == 2 && live.Value() == 1 }, open: make(chan struct{})}
	goodAddr := serveGated(t, gate, []*Server{good})[0]
	badAddr := hostileServer(t, info)

	res, err := Fetch([]string{badAddr, goodAddr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second, Obs: reg,
	})
	if err != nil {
		t.Fatalf("fetch failed despite a healthy peer: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	// The corrupt peer must be recorded as failed.
	var sawError bool
	for _, p := range res.Peers {
		if p.Addr == badAddr && p.Err != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("corrupt peer not reported")
	}
}

// truncatingServer closes the connection mid-frame to exercise short-read
// handling.
func truncatingServer(t *testing.T, info ContentInfo) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if fakeHandshake(conn, info) != nil {
			return
		}
		// Announce a 1KB symbol frame but send only the header.
		var hdr [8]byte
		binary.LittleEndian.PutUint16(hdr[0:], 0x1CD0)
		hdr[2] = protocol.Version
		hdr[3] = byte(protocol.TypeSymbol)
		binary.LittleEndian.PutUint32(hdr[4:], 1024)
		conn.Write(hdr[:])
		// Then hang up.
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestFetchSurvivesTruncatingPeer(t *testing.T) {
	info, data := testContent(t, 80, 32)
	good, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	goodAddr := startServer(t, good)
	badAddr := truncatingServer(t, info)

	res, err := Fetch([]string{badAddr, goodAddr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("fetch failed despite a healthy peer: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
}

func TestFetchInconsistentMetadataRejected(t *testing.T) {
	// Two servers claiming the same content id but different geometry:
	// the client must reject the second handshake rather than mix
	// decoders. Neither server sends a symbol before the client's sessions
	// have taken both ACCEPTs: a peer whose open is still in flight when
	// the transfer ends is walked away from, and has shown no metadata to
	// reject. A session that has taken its ACCEPT checks it, and reports a
	// mismatch even if the fetch ended meanwhile.
	infoA, dataA := testContent(t, 1200, 32)
	infoB := infoA
	infoB.NumBlocks = 600
	infoB.OrigLen = 600*32 - 5
	dataB := dataA[:infoB.OrigLen]

	s1, err := NewFullServer(infoA, dataA)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewFullServer(infoB, dataB)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := Fetch(startHandshakeGatedServers(t, reg, s1, s2), infoA.ID, FetchOptions{
		Batch: 8, Timeout: 5 * time.Second, Obs: reg,
	})
	if err != nil {
		// Acceptable: the mismatch surfaced as a fetch error.
		return
	}
	// Or the download completed from one geometry with the other peer
	// errored out — but never silently mixed.
	mismatchReported := false
	for _, p := range res.Peers {
		if p.Err != nil {
			mismatchReported = true
		}
	}
	if !mismatchReported {
		t.Fatal("inconsistent metadata accepted silently")
	}
	if res.Completed && !bytes.Equal(res.Data, dataA) && !bytes.Equal(res.Data, dataB) {
		t.Fatal("mixed-geometry decode produced garbage")
	}
}
