package protocol

// fuzz_test.go fuzzes every payload parser of the wire format — SYMBOL,
// SUMMARY, PEERS, the fabric's frames with the content
// hello inside OPEN/ACCEPT_CHANNEL — plus the frame reader itself. Each target asserts two things: no input panics the
// parser, and anything the parser accepts survives a re-encode/re-parse
// round trip unchanged (stability: the wire form is a fixpoint). Seed
// corpora live in testdata/fuzz/ and double as regression inputs; CI
// runs each target for a short -fuzztime as a smoke check.

import (
	"bytes"
	"io"
	"testing"
)

func FuzzSymbolView(f *testing.F) {
	f.Add(EncodeSymbol(Symbol{ID: 7, Data: []byte("payload")}).Payload)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 9))
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, data, err := SymbolView(Frame{Type: TypeSymbol, Payload: payload})
		if err != nil {
			return
		}
		id2, data2, err := SymbolView(EncodeSymbol(Symbol{ID: id, Data: data}))
		if err != nil || id2 != id || !bytes.Equal(data2, data) {
			t.Fatalf("symbol round trip unstable: %v (%d vs %d)", err, id2, id)
		}
	})
}

func FuzzDecodeSummaryView(f *testing.F) {
	f.Add(EncodeSummary(0, 0, []byte("bloom-bits")).Payload)
	f.Add(EncodeSummary(0, 1, nil).Payload)
	f.Add(EncodeSummary(1, 2, []byte("bloom-bits")).Payload)
	f.Add(EncodeSummary(2, 2, []byte("bloom-bits")).Payload) // slice == slices
	f.Add([]byte{})
	f.Add([]byte{9, 1, 2})
	f.Fuzz(func(t *testing.T, payload []byte) {
		slice, slices, blob, err := DecodeSummaryView(payload)
		if err != nil {
			return
		}
		if slices > 1 && slice >= slices {
			t.Fatalf("accepted slice %d of %d", slice, slices)
		}
		s2, n2, b2, err := DecodeSummaryView(EncodeSummary(slice, slices, blob).Payload)
		if err != nil || s2 != slice || n2 != slices || !bytes.Equal(b2, blob) {
			t.Fatalf("summary round trip unstable: %v", err)
		}
	})
}

func FuzzDecodePeers(f *testing.F) {
	f.Add(AppendPeers(nil, []PeerAd{
		{ContentID: 0xF00D, Addr: "10.0.0.1:9000"},
		{ContentID: 0xF00D, Addr: "10.0.0.2:9000"},
	}))
	f.Add(AppendPeers(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 'a'}) // truncated addr
	f.Fuzz(func(t *testing.T, payload []byte) {
		ads, err := DecodePeers(nil, Frame{Type: TypePeers, Payload: payload})
		if err != nil {
			return
		}
		if len(ads) > MaxPeerAds {
			t.Fatalf("accepted %d ads past the %d cap", len(ads), MaxPeerAds)
		}
		// Decoded ads are already deduplicated and valid, so the
		// re-encode must preserve them exactly, and so must a decode that
		// appends behind what dst holds; the encoding is the one the
		// map-deduplicating reference writes.
		enc := AppendPeers(nil, ads)
		if want := referencePeers(ads); !bytes.Equal(enc, want) {
			t.Fatalf("AppendPeers = %x, the reference %x", enc, want)
		}
		prefix := []PeerAd{{ContentID: 1, Addr: "kept:1"}}
		ads2, err := DecodePeers(prefix, Frame{Type: TypePeers, Payload: enc})
		if err == nil && ads2[0] != prefix[0] {
			t.Fatalf("decode overwrote dst's prefix: %+v", ads2[0])
		}
		ads2 = ads2[len(prefix):]
		if err != nil {
			t.Fatalf("re-encode of accepted peers rejected: %v", err)
		}
		if len(ads2) != len(ads) {
			t.Fatalf("peers round trip changed count: %v vs %v", ads2, ads)
		}
		for i := range ads {
			if ads2[i] != ads[i] {
				t.Fatalf("peers round trip changed ad %d: %+v vs %+v", i, ads2[i], ads[i])
			}
		}
	})
}

func FuzzFrameReader(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, EncodeOpenChannel(1, Hello{ContentID: 1, Batch: 64, Depth: 8}))
	WriteFrame(&good, EncodeDone())
	f.Add(good.Bytes(), uint64(0))
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{0xD0, 0x1C, Version, byte(TypeDone), 0, 0, 0, 0}, uint64(2))
	f.Add(bytes.Repeat([]byte{0xD0}, 64), uint64(3))
	// Hostile-peer shapes (PR 6): an absurd declared length the reader
	// must refuse to allocate, and a valid frame whose CRC trailer was
	// flipped in flight — both must desynchronize cleanly, never panic.
	f.Add([]byte{0xD0, 0x1C, Version, byte(TypeSymbol), 0xFF, 0xFF, 0xFF, 0xFF}, uint64(4))
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)-1] ^= 0x5A
	f.Add(flipped, uint64(5))
	f.Fuzz(func(t *testing.T, stream []byte, splits uint64) {
		// Arbitrary bytes must never panic the reader; read in chunks
		// split where the fuzzer says, they must read as a ReadFrame loop
		// reads them whole — the same frames, then the same class of
		// error; and every frame it accepts must survive re-serialization
		// byte-for-byte.
		const limit = 64
		r := bytes.NewReader(stream)
		want := readAll(func() (Frame, error) { return ReadFrame(r) }, limit)
		sameRead(t, "chunked", readAll(NewFrameReader(&chunkReader{data: stream, seed: splits}).Next, limit), want)
		for _, frame := range want.frames {
			var out bytes.Buffer
			if err := WriteFrame(&out, frame); err != nil {
				t.Fatalf("accepted frame cannot re-serialize: %v", err)
			}
			re, err := ReadFrame(&out)
			if err != nil || re.Type != frame.Type || !bytes.Equal(re.Payload, frame.Payload) {
				t.Fatalf("frame round trip unstable: %v", err)
			}
		}
	})
}

// FuzzMuxDecoders fuzzes every connection-fabric parser — MUX_HELLO,
// OPEN/ACCEPT/REJECT/CLOSE_CHANNEL (and with them the content hello) and
// the MUX envelope — with one shared corpus: each parser
// either rejects the payload or what it accepts survives a re-encode
// round trip.
func FuzzMuxDecoders(f *testing.F) {
	f.Add(EncodeMuxHello(MuxHello{MaxChannels: 64, ListenAddr: "10.0.0.1:9000"}).Payload)
	f.Add(EncodeOpenChannel(1, Hello{ContentID: 0xF00D, SummaryMask: AllSummaryMask}).Payload)
	// An OPEN carrying the opener's first round of requests.
	f.Add(EncodeOpenChannel(1, Hello{
		ContentID: 0xF00D, Symbols: 9, SummaryMask: AllSummaryMask,
		Batch: 64, Depth: 8, ListenAddr: "203.0.113.9:9002",
	}).Payload)
	// An OPEN carrying the opener's first summary as the hello's tail.
	f.Add(EncodeOpenChannel(1, Hello{
		ContentID: 0xF00D, Symbols: 9, Batch: 64, Depth: 8, ListenAddr: "203.0.113.9:9002",
		Summary: EncodeSummary(1, 2, []byte("bloom-bits")).Payload,
	}).Payload)
	f.Add(EncodeAcceptChannel(1, Hello{
		ContentID: 0xF00D, NumBlocks: 23968, BlockSize: 1400, OrigLen: 32 << 20,
		CodeSeed: 42, FullCopy: true, SummaryMask: AllSummaryMask,
	}).Payload)
	// A full sender's ACCEPT stating how many batches of the round it answers.
	f.Add(EncodeAcceptChannel(1, Hello{
		ContentID: 0xF00D, NumBlocks: 1024, BlockSize: 1400, OrigLen: 1400 << 10,
		CodeSeed: 42, FullCopy: true, SummaryMask: AllSummaryMask, Depth: 18,
	}).Payload)
	f.Add(EncodeRejectChannel(3, ReasonRefused).Payload)
	f.Add(EncodeCloseChannel(7).Payload)
	// What a version-12 CREDIT carried (channel 5, 256 symbols): the
	// channel-id parsers must refuse it or round-trip it like any bytes.
	f.Add([]byte{5, 0, 0, 1, 0, 0})
	f.Add(EncodeMux(9, EncodeSymbol(Symbol{ID: 4, Data: []byte("x")})).Payload)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if h, err := DecodeMuxHello(Frame{Type: TypeMuxHello, Payload: payload}); err == nil {
			if h2, err := DecodeMuxHello(EncodeMuxHello(h)); err != nil || h2 != h {
				t.Fatalf("MUX_HELLO round trip unstable: %v (%+v vs %+v)", err, h2, h)
			}
		}
		if ch, h, err := DecodeOpenChannel(Frame{Type: TypeOpenChannel, Payload: payload}); err == nil {
			if ch2, h2, err := DecodeOpenChannel(EncodeOpenChannel(ch, h)); err != nil || ch2 != ch || !sameHello(h2, h) {
				t.Fatalf("OPEN_CHANNEL round trip unstable: %v", err)
			}
		}
		if ch, h, err := DecodeAcceptChannel(Frame{Type: TypeAcceptChannel, Payload: payload}); err == nil {
			if ch2, h2, err := DecodeAcceptChannel(EncodeAcceptChannel(ch, h)); err != nil || ch2 != ch || !sameHello(h2, h) {
				t.Fatalf("ACCEPT_CHANNEL round trip unstable: %v", err)
			}
		}
		if ch, msg, err := DecodeRejectChannel(Frame{Type: TypeRejectChannel, Payload: payload}); err == nil {
			if ch2, msg2, err := DecodeRejectChannel(EncodeRejectChannel(ch, msg)); err != nil || ch2 != ch || msg2 != msg {
				t.Fatalf("REJECT_CHANNEL round trip unstable: %v", err)
			}
		}
		if ch, err := DecodeCloseChannel(Frame{Type: TypeCloseChannel, Payload: payload}); err == nil {
			if ch2, err := DecodeCloseChannel(EncodeCloseChannel(ch)); err != nil || ch2 != ch {
				t.Fatalf("CLOSE_CHANNEL round trip unstable: %v", err)
			}
		}
		if ch, inner, err := MuxView(Frame{Type: TypeMux, Payload: payload}); err == nil {
			ch2, inner2, err := MuxView(EncodeMux(ch, inner))
			if err != nil || ch2 != ch || inner2.Type != inner.Type || !bytes.Equal(inner2.Payload, inner.Payload) {
				t.Fatalf("MUX round trip unstable: %v", err)
			}
		}
	})
}

// FuzzWriteFrame drives the writer with arbitrary type/payload pairs:
// what it writes, the reader must accept and return unchanged.
func FuzzWriteFrame(f *testing.F) {
	f.Add(uint8(TypeSymbol), []byte("data"))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(255), bytes.Repeat([]byte{7}, 1024))
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: Type(typ), Payload: payload}); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("own frame rejected: %v", err)
		}
		if got.Type != Type(typ) || !bytes.Equal(got.Payload, payload) {
			t.Fatal("frame did not round trip")
		}
		if _, err := ReadFrame(&buf); err != io.EOF {
			t.Fatalf("trailing read = %v, want io.EOF", err)
		}
	})
}
