package peer

// server_fuzz_test.go throws arbitrary byte streams at a live front
// door — a ServerMux with one content registered — the robustness
// counterpart of the protocol package's parser fuzzers. Those prove the
// parsers never panic; this target proves the *serving stack around
// them* (admission, fabric handshake, wire demux, the content session
// loop) never panics, never hangs past its deadline, and attributes
// corrupt streams to the penalty plane. Seeds speak the fabric
// handshake first, so mutations land in the session loop and not only
// on the opening frame: a fully valid open-request-done exchange, a
// corrupt SYMBOL envelope and a frame of the retired type 7 (RECODED
// until version 7) on an open channel, a bare OPEN_CHANNEL with no wire
// handshake ahead of it, an absurd declared frame length, and raw junk.

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"icd/internal/protocol"
)

// frameBytes serializes one frame.
func frameBytes(f protocol.Frame) []byte {
	var buf bytes.Buffer
	if err := protocol.WriteFrame(&buf, f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// corruptLastByte flips the final byte (inside the CRC trailer), turning
// a valid frame into one the reader must reject with ErrCorrupt.
func corruptLastByte(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	out[len(out)-1] ^= 0x5A
	return out
}

func FuzzServeStream(f *testing.F) {
	info, data := testContent(f, 40, 32)
	clientHello := protocol.Hello{ContentID: info.ID, SummaryMask: protocol.AllSummaryMask}
	// Every seed but the raw ones opens a wire and channel 1 on it.
	opened := bytes.Join([][]byte{
		frameBytes(protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})),
		frameBytes(protocol.EncodeOpenChannel(1, clientHello)),
	}, nil)
	onChannel := func(inner protocol.Frame) []byte { return frameBytes(protocol.EncodeMux(1, inner)) }

	// Valid exchange: handshake, a small batch request, clean DONE.
	f.Add(bytes.Join([][]byte{
		opened,
		onChannel(protocol.EncodeRequest(4)),
		onChannel(protocol.EncodeDone()),
	}, nil))
	// A corrupt SYMBOL envelope behind a good handshake — the wire must
	// die with ErrCorrupt and take the session with it, not parse garbage
	// into the data plane.
	f.Add(bytes.Join([][]byte{
		opened,
		corruptLastByte(onChannel(protocol.EncodeSymbol(protocol.Symbol{ID: 7, Data: data[:32]}))),
	}, nil))
	// An intact frame of type 7, RECODED until version 7: an unexpected
	// frame like any other, which ends the session with an ERROR.
	f.Add(bytes.Join([][]byte{opened, onChannel(protocol.Frame{Type: 7, Payload: data[:32]})}, nil))
	// A bare OPEN_CHANNEL, its hello asking for a first round, with no
	// MUX_HELLO ahead of it: clean ERROR, no session.
	asking := clientHello
	asking.Batch, asking.Depth = 4, 2
	f.Add(frameBytes(protocol.EncodeOpenChannel(1, asking)))
	// Oversized declared length: magic + version + type, then a 4 GiB
	// length field. The reader must refuse to allocate it.
	f.Add([]byte{0xD0, 0x1C, protocol.Version, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, stream []byte) {
		srv, err := NewFullServer(info, data)
		if err != nil {
			t.Fatal(err)
		}
		mux := front(srv)
		// Bound hostile streams that go quiet, at every layer.
		srv.timeout, mux.timeout = 2*time.Second, 2*time.Second
		box := NewPenaltyBox()
		mux.SetPenalties(box)

		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			mux.ServeConn(server)
		}()
		// Drain the server's answers so its synchronous pipe writes never
		// block, then feed it the fuzzed stream and hang up.
		go io.Copy(io.Discard, client)
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(stream) // best effort: the server may drop us mid-write
		client.Close()

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn wedged on a fuzzed stream")
		}
		// Whatever the stream did, the accounting must stay coherent: a
		// malformed-frame charge implies a penalty-box entry for the pipe.
		if (mux.Stats().Malformed > 0 || srv.Stats().Malformed > 0) && box.Len() == 0 {
			t.Fatal("malformed frame counted but nobody charged")
		}
	})
}
