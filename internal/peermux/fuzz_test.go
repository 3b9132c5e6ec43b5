package peermux

// fuzz_test.go drives the wire's demultiplexer with raw hostile byte
// streams: whatever a dialer writes after its MUX_HELLO, the acceptor
// must survive — no panic, no wedge (Serve returns once the stream
// ends), and misbehavior lands in the penalty hook instead of taking
// the wire down with it. The seed corpus encodes the named attacks:
// envelopes for unknown channel ids, symbols nothing asked for, frames of
// the retired CREDIT type, and frames interleaved for a closed channel.

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
)

// demuxSeed builds a raw client byte stream from frames.
func demuxSeed(frames ...protocol.Frame) []byte {
	var buf bytes.Buffer
	for _, f := range frames {
		protocol.WriteFrame(&buf, f)
	}
	return buf.Bytes()
}

func muxFrame(ch uint16, inner protocol.Frame) protocol.Frame {
	return protocol.EncodeMux(ch, inner)
}

func FuzzChannelDemux(f *testing.F) {
	hello := protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 8})
	open := protocol.EncodeOpenChannel(1, protocol.Hello{ContentID: 0xF00D})
	symbol := protocol.EncodeSymbol(protocol.Symbol{ID: 1, Data: []byte("data")})

	// A legitimate session shape.
	f.Add(demuxSeed(hello, open, muxFrame(1, protocol.EncodeRequest(4)), muxFrame(1, protocol.EncodeDone())))
	// Envelopes for a channel id that never existed.
	f.Add(demuxSeed(hello, muxFrame(4242, symbol), muxFrame(4242, protocol.EncodeDone())))
	// Frames of the retired CREDIT type (18 until version 13), on an open
	// channel and on one that never existed.
	f.Add(demuxSeed(hello, open, retiredCredit(1, 1<<20), retiredCredit(1, 1<<20), retiredCredit(9, 1024)))
	// Unasked symbols: the opener streams symbols at the acceptor, which
	// never asked for any.
	f.Add(demuxSeed(hello, open, muxFrame(1, symbol), muxFrame(1, symbol), muxFrame(1, symbol)))
	// Interleaved frames for a closed channel: open, close, then keep
	// talking on the retired id.
	f.Add(demuxSeed(hello, open, protocol.EncodeCloseChannel(1), muxFrame(1, symbol), muxFrame(1, protocol.EncodeRequest(4))))
	// Negotiation garbage: duplicate and even channel ids, malformed
	// open, bare legacy frame on a mux wire.
	f.Add(demuxSeed(hello, open, open,
		protocol.EncodeOpenChannel(2, protocol.Hello{}),
		protocol.Frame{Type: protocol.TypeOpenChannel, Payload: []byte{1}},
		protocol.EncodeSymbol(protocol.Symbol{ID: 9, Data: []byte("bare")})))
	// Raw garbage after a valid handshake, and no handshake at all.
	f.Add(append(demuxSeed(hello), bytes.Repeat([]byte{0xD0, 0x1C, 0xFF}, 40)...))
	f.Add(bytes.Repeat([]byte{0xAB}, 64))

	f.Fuzz(func(t *testing.T, stream []byte) {
		cc, sc := net.Pipe()
		var charges atomic.Int64
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer sc.Close()
			fr := protocol.NewFrameReader(sc)
			sc.SetReadDeadline(time.Now().Add(2 * time.Second))
			first, err := fr.Next()
			if err != nil {
				return
			}
			mh, err := protocol.DecodeMuxHello(first)
			if err != nil {
				// Not a fabric handshake: the server mux would fall
				// back to the legacy path; out of scope here.
				return
			}
			w, err := Accept(sc, fr, mh, Config{
				Timeout:     2 * time.Second,
				MaxChannels: 8,
				Penalize:    func(float64) { charges.Add(1) },
			}, func(ch *Channel) {
				// Accept everything and consume until the channel dies.
				if ch.Accept(protocol.Hello{ContentID: ch.RemoteHello().ContentID, FullCopy: true}) != nil {
					return
				}
				for {
					if _, err := ch.Next(); err != nil {
						return
					}
				}
			})
			if err != nil {
				return
			}
			w.Serve()
		}()

		// The attacker drains whatever the acceptor answers (net.Pipe
		// is synchronous — an unread answer would stall the acceptor on
		// its own write, not on our attack), writes its stream and
		// hangs up.
		cc.SetDeadline(time.Now().Add(2 * time.Second))
		go io.Copy(io.Discard, cc)
		cc.Write(stream)
		cc.Close()

		// No wedge: the serve side must come home once the stream ends
		// (EOF wakes the reader; the reader's death wakes every
		// handler).
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("demux wedged: Serve did not return after the stream ended")
		}
	})
}

// TestDemuxHostileSeedsCharged replays the named hostile seeds as a
// plain test so the charging behavior is asserted, not just the absence
// of panics: each attack must land at least one penalty and must not
// kill the acceptor before the stream ends.
func TestDemuxHostileSeedsCharged(t *testing.T) {
	hello := protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 8})
	open := protocol.EncodeOpenChannel(1, protocol.Hello{ContentID: 0xF00D})
	symbol := protocol.EncodeSymbol(protocol.Symbol{ID: 1, Data: []byte("data")})

	cases := []struct {
		name string
		// stall leaves the accepted channel undrained, so nothing the
		// channel queued leaves it.
		stall  bool
		stream []byte
	}{
		{"unknown channel id", false, demuxSeed(hello, muxFrame(4242, symbol))},
		// SYMBOLs at an accepting end, which asked for none, against a
		// consumer that never drains: every one is charged and dropped.
		{"credit underflow", true, func() []byte {
			frames := []protocol.Frame{hello, open}
			for i := 0; i < 24; i++ {
				frames = append(frames, muxFrame(1, symbol))
			}
			return demuxSeed(frames...)
		}()},
		// A grant — a REQUEST — for a channel that was never opened.
		{"credit grant for unopened channel", false, demuxSeed(hello, muxFrame(9, protocol.EncodeRequest(1024)))},
		// A frame of the retired type 18 is charged like any unexpected frame.
		{"retired CREDIT frame", false, demuxSeed(hello, open, retiredCredit(1, 8))},
		{"bare legacy frame", false, demuxSeed(hello, symbol)},
		{"duplicate open", false, demuxSeed(hello, open, open)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc, sc := net.Pipe()
			var charges atomic.Int64
			served := make(chan error, 1)
			go func() {
				defer sc.Close()
				fr := protocol.NewFrameReader(sc)
				sc.SetReadDeadline(time.Now().Add(2 * time.Second))
				first, err := fr.Next()
				if err != nil {
					served <- err
					return
				}
				mh, err := protocol.DecodeMuxHello(first)
				if err != nil {
					served <- err
					return
				}
				w, err := Accept(sc, fr, mh, Config{
					Timeout:  2 * time.Second,
					Penalize: func(float64) { charges.Add(1) },
				}, func(ch *Channel) {
					if ch.Accept(protocol.Hello{FullCopy: true}) != nil {
						return
					}
					if tc.stall {
						<-ch.done // never drain; wait out the channel
						return
					}
					for {
						if _, err := ch.Next(); err != nil {
							return
						}
					}
				})
				if err != nil {
					served <- err
					return
				}
				served <- w.Serve()
			}()
			cc.SetDeadline(time.Now().Add(2 * time.Second))
			go io.Copy(io.Discard, cc)
			if _, err := cc.Write(tc.stream); err != nil {
				t.Fatal(err)
			}
			// Leave the conn up briefly so the charge is from the
			// frame, not the hangup.
			time.Sleep(50 * time.Millisecond)
			cc.Close()
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("serve side wedged")
			}
			if charges.Load() == 0 {
				t.Fatal("hostile stream landed no penalty charge")
			}
		})
	}
}
