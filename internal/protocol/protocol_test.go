package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeRequest, Payload: []byte{1, 2, 3, 4}},
		{Type: TypeDone},
		{Type: TypeSymbol, Payload: bytes.Repeat([]byte{0xAB}, 1400)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame mismatch: %v vs %v", got, want)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypeSymbol, Payload: []byte("payload-bytes")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit in each position and expect a checksum error.
	for i := headerLen; i < len(raw)-4; i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		if _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestDesyncDetected(t *testing.T) {
	if _, err := ReadFrame(strings.NewReader("garbage-that-is-not-a-frame")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Type: TypePeers, Payload: bytes.Repeat([]byte{7}, 100)})
	raw := buf.Bytes()
	for _, cut := range []int{1, headerLen - 1, headerLen + 10, len(raw) - 1} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestVersionMismatch: a frame written at another version — its checksum
// covers the version byte it carries — is ErrVersion: a future one, and
// version 6, whose partial senders answered REQUESTs with RECODED frames.
func TestVersionMismatch(t *testing.T) {
	for _, v := range []byte{99, versionUnderCRC, Version - 1} {
		var buf bytes.Buffer
		WriteFrame(&buf, Frame{Type: TypeDone})
		raw := buf.Bytes()
		raw[2] = v
		body := len(raw) - 4
		binary.LittleEndian.PutUint32(raw[body:], crc32.ChecksumIEEE(raw[2:body]))
		// The mismatch must be distinguishable from corruption so the
		// session layer can answer with a clean handshake failure.
		if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version-%d frame: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestOlderVersionLayoutIsVersionMismatch: up to version 5 the checksum
// covered type|length|payload and left the version byte out. A frame as
// such a peer writes it must read as ErrVersion, the clean terminal
// verdict — as corruption it would be charged and redialled to a ban —
// while the same frame with a byte of its payload flipped is corrupt.
func TestOlderVersionLayoutIsVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSymbol(&buf, 42, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	body := len(raw) - 4
	for v := byte(1); v < versionUnderCRC; v++ {
		old := append([]byte(nil), raw...)
		old[2] = v
		binary.LittleEndian.PutUint32(old[body:], crc32.ChecksumIEEE(old[3:body]))
		if _, err := ReadFrame(bytes.NewReader(old)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version-%d frame: err = %v, want ErrVersion", v, err)
		}
		old[body-1] ^= 0x5A
		if _, err := ReadFrame(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupted version-%d frame: err = %v, want ErrCorrupt", v, err)
		}
	}
}

// TestVersionByteFlipDetected: the version byte sits under the CRC and is
// checked after it, so a flip in it is corruption — which a session
// charges and redials — and never reads as a healthy peer speaking
// another version, which a session gives up on for good. Every one of
// the 255 wrong values of byte 2 on an otherwise valid frame — the 8
// single-bit flips by name — must come back as ErrCorrupt from both
// readers.
func TestVersionByteFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSymbol(&buf, 42, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[2] != 13 {
		t.Fatalf("byte 2 = %d, want the version byte 13", raw[2])
	}
	check := func(t *testing.T, v byte) {
		t.Helper()
		mut := append([]byte(nil), raw...)
		mut[2] = v
		if _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadFrame with version byte %d: err = %v, want ErrCorrupt", v, err)
		}
		if _, err := NewFrameReader(bytes.NewReader(mut)).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("FrameReader with version byte %d: err = %v, want ErrCorrupt", v, err)
		}
	}
	for bit := 0; bit < 8; bit++ {
		t.Run(fmt.Sprintf("flip_bit_%d", bit), func(t *testing.T) { check(t, Version^(1<<bit)) })
	}
	for v := 0; v < 256; v++ {
		if byte(v) != Version {
			check(t, byte(v))
		}
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	if err := WriteFrame(io.Discard, Frame{Type: TypePeers, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Fatal("oversize write accepted")
	}
	// A forged header claiming a huge length must be rejected before
	// allocation.
	hdr := []byte{0xD0, 0x1C, Version, byte(TypePeers), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length: err = %v, want ErrCorrupt", err)
	}
}

// sameHello reports whether two hellos agree in every field, Summary
// included (nil and empty alike: both mean no summary).
func sameHello(a, b Hello) bool {
	if !bytes.Equal(a.Summary, b.Summary) {
		return false
	}
	a.Summary, b.Summary = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestHelloRoundTrip: the content hello travels in the channel
// negotiation frames, the opener's first round of requests and its first
// summary included, and decodes to what was encoded from either.
func TestHelloRoundTrip(t *testing.T) {
	want := Hello{
		ContentID:   0xDEADBEEF,
		NumBlocks:   23968,
		BlockSize:   1400,
		OrigLen:     32 << 20,
		CodeSeed:    42,
		FullCopy:    true,
		Symbols:     12345,
		SummaryMask: AllSummaryMask,
		Batch:       64,
		Depth:       8,
		ListenAddr:  "203.0.113.9:9002",
	}
	roundTrip := func(h Hello) {
		t.Helper()
		if ch, got, err := DecodeOpenChannel(EncodeOpenChannel(3, h)); err != nil || ch != 3 || !sameHello(got, h) {
			t.Fatalf("OPEN_CHANNEL hello: ch=%d %+v vs %+v (%v)", ch, got, h, err)
		}
		if ch, got, err := DecodeAcceptChannel(EncodeAcceptChannel(5, h)); err != nil || ch != 5 || !sameHello(got, h) {
			t.Fatalf("ACCEPT_CHANNEL hello: ch=%d %+v vs %+v (%v)", ch, got, h, err)
		}
	}
	roundTrip(want)
	want.ListenAddr = "" // undialable announcers stay representable
	roundTrip(want)
	want.Batch, want.Depth = 1<<32-1, 1<<16-1 // the widest request the fields hold
	roundTrip(want)
	// The opener's first summary is the hello's tail, behind the address.
	want.Summary = EncodeSummary(1, 3, []byte("bloom-bits")).Payload
	roundTrip(want)
	want.ListenAddr = "203.0.113.9:9002"
	roundTrip(want)
	f := EncodeOpenChannel(3, want)
	if got, tail := len(f.Payload), 2+49+len(want.ListenAddr)+len(want.Summary); got != tail {
		t.Fatalf("OPEN_CHANNEL with a summary is %d bytes, want %d (channel id, hello, address, summary)", got, tail)
	}
	_, got, _ := DecodeOpenChannel(f)
	f.Payload[len(f.Payload)-1] ^= 0xFF
	if slice, of, blob, err := DecodeSummaryView(got.Summary); err != nil || slice != 1 || of != 3 || string(blob) != "bloom-bits" {
		t.Fatalf("the decoded summary aliases the frame or misparses: slice %d of %d, %q (%v)", slice, of, blob, err)
	}
	// A full sender's ACCEPT: no request of its own, and the batches of the
	// opener's round it will answer.
	accept := Hello{ContentID: 0xDEADBEEF, NumBlocks: 1024, BlockSize: 1400, OrigLen: 1 << 20, FullCopy: true, Depth: 18}
	if ch, got, err := DecodeAcceptChannel(EncodeAcceptChannel(5, accept)); err != nil || ch != 5 || !sameHello(got, accept) || got.Depth != 18 || got.Summary != nil {
		t.Fatalf("ACCEPT_CHANNEL depth: ch=%d %+v vs %+v (%v)", ch, got, accept, err)
	}
	if got := len(EncodeOpenChannel(1, Hello{}).Payload); got != 2+49 {
		t.Fatalf("empty OPEN_CHANNEL payload is %d bytes, want 51 (channel id, 48-byte hello, address length)", got)
	}
	if _, _, err := DecodeOpenChannel(Frame{Type: TypeOpenChannel, Payload: []byte{1, 0, 1}}); err == nil {
		t.Fatal("short hello accepted")
	}
	// A declared address length past the payload end must not read OOB:
	// the length byte follows the channel id and the 48 fixed bytes.
	want.Summary = nil
	f = EncodeOpenChannel(1, want)
	f.Payload[2+48] = 200
	if _, _, err := DecodeOpenChannel(f); err == nil {
		t.Fatal("truncated address accepted")
	}
	if _, _, err := DecodeAcceptChannel(Frame{Type: TypeAcceptChannel, Payload: f.Payload}); err == nil {
		t.Fatal("truncated address accepted in an ACCEPT")
	}
}

func TestPeersRoundTrip(t *testing.T) {
	want := []PeerAd{
		{ContentID: 0xF00D, Addr: "10.0.0.1:9000"},
		{ContentID: 0xF00D, Addr: "10.0.0.2:9000"},
		{ContentID: 0xBEEF, Addr: "10.0.0.1:9000"}, // same addr, other content
	}
	ads, err := DecodePeers(nil, Frame{Type: TypePeers, Payload: AppendPeers(nil, want)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) != len(want) {
		t.Fatalf("got %d ads, want %d", len(ads), len(want))
	}
	for i := range want {
		if ads[i] != want[i] {
			t.Fatalf("ad %d: %+v vs %+v", i, ads[i], want[i])
		}
	}
}

func TestPeersDedupAndCaps(t *testing.T) {
	// Duplicates and unusable addresses are dropped at encode time, and
	// an oversized list is truncated to MaxPeerAds.
	var ads []PeerAd
	for i := 0; i < 3; i++ {
		ads = append(ads, PeerAd{ContentID: 1, Addr: "dup:1"})
	}
	ads = append(ads, PeerAd{ContentID: 1, Addr: ""})
	ads = append(ads, PeerAd{ContentID: 1, Addr: strings.Repeat("x", MaxAddrLen+1)})
	for i := 0; i < 2*MaxPeerAds; i++ {
		ads = append(ads, PeerAd{ContentID: 2, Addr: fmt.Sprintf("peer-%d", i)})
	}
	got, err := DecodePeers(nil, Frame{Type: TypePeers, Payload: AppendPeers(nil, ads)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxPeerAds {
		t.Fatalf("got %d ads, want the %d cap", len(got), MaxPeerAds)
	}
	if got[0] != (PeerAd{ContentID: 1, Addr: "dup:1"}) {
		t.Fatalf("dedup changed ordering: %+v", got[0])
	}

	// Decode-side enforcement: a forged count and truncated entries are
	// rejected rather than over-read.
	if _, err := DecodePeers(nil, Frame{Type: TypePeers, Payload: []byte{0xFF, 0xFF}}); err == nil {
		t.Fatal("forged count accepted")
	}
	f := Frame{Type: TypePeers, Payload: AppendPeers(nil, []PeerAd{{ContentID: 9, Addr: "a:1"}})}
	if _, err := DecodePeers(nil, Frame{Type: TypePeers, Payload: f.Payload[:len(f.Payload)-2]}); err == nil {
		t.Fatal("truncated entry accepted")
	}
	if _, err := DecodePeers(nil, Frame{Type: TypePeers, Payload: append(append([]byte(nil), f.Payload...), 0)}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodePeers(nil, Frame{Type: TypeDone}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

// referencePeers is the PEERS payload by the map-deduplicating encoder
// AppendPeers replaced, kept as the oracle of its bytes.
func referencePeers(ads []PeerAd) []byte {
	seen := make(map[PeerAd]bool, len(ads))
	kept := make([]PeerAd, 0, len(ads))
	for _, ad := range ads {
		if ad.Addr == "" || len(ad.Addr) > MaxAddrLen || seen[ad] {
			continue
		}
		seen[ad] = true
		kept = append(kept, ad)
		if len(kept) == MaxPeerAds {
			break
		}
	}
	buf := binary.LittleEndian.AppendUint16(nil, uint16(len(kept)))
	for _, ad := range kept {
		buf = binary.LittleEndian.AppendUint64(buf, ad.ContentID)
		buf = append(buf, byte(len(ad.Addr)))
		buf = append(buf, ad.Addr...)
	}
	return buf
}

// TestAppendPeersMatchesReference: AppendPeers writes the reference
// encoder's bytes for every list the PEERS tests use — the round trip's,
// the dedup-and-caps one, nothing, nothing usable — appends them behind
// what buf holds, and allocates nothing into a buffer with the room.
func TestAppendPeersMatchesReference(t *testing.T) {
	var capped []PeerAd
	for i := 0; i < 3; i++ {
		capped = append(capped, PeerAd{ContentID: 1, Addr: "dup:1"})
	}
	capped = append(capped, PeerAd{ContentID: 1, Addr: ""}, PeerAd{ContentID: 1, Addr: strings.Repeat("x", MaxAddrLen+1)})
	for i := 0; i < 2*MaxPeerAds; i++ {
		capped = append(capped, PeerAd{ContentID: 2, Addr: fmt.Sprintf("peer-%d", i)}, PeerAd{ContentID: 1, Addr: "dup:1"})
	}
	for _, tc := range []struct {
		name string
		ads  []PeerAd
	}{
		{"round trip", []PeerAd{{ContentID: 0xF00D, Addr: "10.0.0.1:9000"}, {ContentID: 0xF00D, Addr: "10.0.0.2:9000"}, {ContentID: 0xBEEF, Addr: "10.0.0.1:9000"}}},
		{"dedup and caps", capped},
		{"same address, other content", []PeerAd{{ContentID: 1, Addr: "a:1"}, {ContentID: 2, Addr: "a:1"}, {ContentID: 1, Addr: "a:1"}}},
		{"nothing", nil},
		{"nothing usable", []PeerAd{{ContentID: 1}, {ContentID: 1, Addr: strings.Repeat("y", MaxAddrLen+1)}}},
		{"longest address", []PeerAd{{ContentID: 3, Addr: strings.Repeat("z", MaxAddrLen)}}},
	} {
		want := referencePeers(tc.ads)
		if got := AppendPeers(nil, tc.ads); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendPeers = %x, want %x", tc.name, got, want)
		}
		buf := append(make([]byte, 0, 3+len(want)), "hdr"...)
		if allocs := testing.AllocsPerRun(20, func() { buf = AppendPeers(buf[:3], tc.ads) }); allocs != 0 {
			t.Errorf("%s: AppendPeers into a buffer with the room allocates %.1f times", tc.name, allocs)
		}
		if string(buf[:3]) != "hdr" || !bytes.Equal(buf[3:], want) {
			t.Errorf("%s: AppendPeers behind a prefix = %x", tc.name, buf)
		}
	}
}

// TestDecodePeersAllocs: decoding into a dst with the room allocates the
// address strings of the ads it keeps, one each, and nothing else — a
// duplicate costs nothing.
func TestDecodePeersAllocs(t *testing.T) {
	ads := []PeerAd{{ContentID: 1, Addr: "10.0.0.1:9000"}, {ContentID: 1, Addr: "10.0.0.2:9000"}, {ContentID: 2, Addr: "10.0.0.1:9000"}}
	// A hand-built payload whose last entry repeats the first: AppendPeers
	// would drop it, a peer need not.
	payload := AppendPeers(nil, ads)
	payload[0]++
	payload = append(payload, payload[2:2+9+len(ads[0].Addr)]...)
	f := Frame{Type: TypePeers, Payload: payload}
	dst := make([]PeerAd, 0, MaxPeerAds)
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if dst, err = DecodePeers(dst[:0], f); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(dst, ads) {
		t.Fatalf("decoded %+v, want %+v", dst, ads)
	}
	if allocs != float64(len(ads)) {
		t.Fatalf("a decode into a warm dst allocates %.1f times, want %d (the address strings)", allocs, len(ads))
	}
}

func TestSymbolRoundTrip(t *testing.T) {
	want := Symbol{ID: 987654321, Data: []byte("block-data")}
	id, data, err := SymbolView(EncodeSymbol(want))
	if err != nil {
		t.Fatal(err)
	}
	if id != want.ID || !bytes.Equal(data, want.Data) {
		t.Fatalf("symbol mismatch")
	}
	if _, _, err := SymbolView(Frame{Type: TypeSymbol, Payload: []byte{1, 2}}); err == nil {
		t.Fatal("short symbol accepted")
	}
}

func TestRequestDoneError(t *testing.T) {
	n, err := DecodeRequest(EncodeRequest(512))
	if err != nil || n != 512 {
		t.Fatalf("request: %d, %v", n, err)
	}
	if EncodeDone().Type != TypeDone {
		t.Fatal("done type")
	}
	msg, err := DecodeError(EncodeError("boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("error: %q, %v", msg, err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeRequest: "REQUEST", TypeSymbol: "SYMBOL", TypeDone: "DONE",
		TypeError: "ERROR", TypeSummary: "SUMMARY", TypePeers: "PEERS",
		Type(3):   "Type(3)",  // BLOOM until version 5: no longer a frame this library names
		Type(7):   "Type(7)",  // RECODED until version 7
		Type(11):  "Type(11)", // SUMMARY's refresh variant until version 12
		Type(18):  "Type(18)", // CREDIT until version 13
		Type(200): "Type(200)",
	} {
		if ty.String() != want {
			t.Fatalf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
}

// Property: any frame round-trips bit-exactly through a buffer. The
// quick.Check draws come from a fixed seed, so a failure replays.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(ty uint8, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := Frame{Type: Type(ty), Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.Type == in.Type && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte mutations anywhere in a frame are detected (or
// yield the identical frame when the mutation is a no-op, which cannot
// happen for XOR with a non-zero mask).
func TestQuickCorruptionAlwaysDetected(t *testing.T) {
	f := func(payload []byte, pos uint16, mask uint8) bool {
		if mask == 0 {
			return true
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: TypeSymbol, Payload: payload}); err != nil {
			return false
		}
		raw := buf.Bytes()
		raw[int(pos)%len(raw)] ^= mask
		_, err := ReadFrame(bytes.NewReader(raw))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteReadSymbolFrame(b *testing.B) {
	payload := make([]byte, 1408)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		WriteFrame(&buf, Frame{Type: TypeSymbol, Payload: payload})
		if _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameReaderStream checks FrameReader parses a mixed frame stream
// identically to ReadFrame while reusing one buffer.
func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSymbol(&buf, 42, []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSymbol(&buf, 43, []byte("payload-two")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, EncodeDone()); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))

	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	id, data, err := SymbolView(f)
	if err != nil || id != 42 || string(data) != "payload-one" {
		t.Fatalf("symbol view: id=%d data=%q err=%v", id, data, err)
	}

	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	id, data, err = SymbolView(f)
	if err != nil || id != 43 || string(data) != "payload-two" {
		t.Fatalf("second symbol view: id=%d data=%q err=%v", id, data, err)
	}

	f, err = fr.Next()
	if err != nil || f.Type != TypeDone {
		t.Fatalf("done frame: %v %v", f.Type, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

// TestFrameReaderViewInvalidation documents the aliasing contract: a
// payload view lives in the reader's buffer and is the caller's only
// until the next Next — reading ahead, the reader rewrites that buffer
// when it refills it, not at every frame, so whether a view outlives the
// next frame is nobody's to count on; a caller that keeps the bytes
// copies them out.
func TestFrameReaderViewInvalidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSymbol(&buf, 1, []byte("aaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	// Twice the read-ahead buffer behind it, so it is refilled.
	for i := 0; buf.Len() < 2*readAhead; i++ {
		if err := WriteSymbol(&buf, uint64(2+i), bytes.Repeat([]byte{'b'}, 1400)); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	f1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	_, view, err := SymbolView(f1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := fr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if string(view) == "aaaaaaaa" {
		t.Fatal("view survived two refills of the read-ahead buffer: buffer not reused")
	}
}

// chunkReader hands data out in chunks whose sizes seed draws, 1 to 2048
// bytes: reads whose boundaries fall anywhere in a frame — inside a
// header, a payload or a CRC — wherever the seed puts them.
type chunkReader struct {
	data []byte
	seed uint64
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.seed = r.seed*6364136223846793005 + 1442695040888963407
	n := copy(p, r.data[:min(len(r.data), 1+int(r.seed>>33)%2048)])
	r.data = r.data[n:]
	return n, nil
}

// readResult is what reading a stream to its first error gives: the
// frames (payloads copied out) and that error's class.
type readResult struct {
	frames []Frame
	err    string
}

// readAll reads frames with next until it fails or max frames have been
// read (max < 0: no limit).
func readAll(next func() (Frame, error), max int) readResult {
	var out readResult
	for max < 0 || len(out.frames) < max {
		f, err := next()
		if err != nil {
			out.err = errClass(err)
			break
		}
		out.frames = append(out.frames, Frame{Type: f.Type, Payload: append([]byte(nil), f.Payload...)})
	}
	return out
}

// errClass is the part of a read error its callers act on.
func errClass(err error) string {
	switch {
	case err == io.EOF:
		return "EOF at a frame boundary"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "EOF inside a frame"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrVersion):
		return "version"
	default:
		return "other: " + err.Error()
	}
}

// sameRead fails t unless got read what want did.
func sameRead(t *testing.T, how string, got, want readResult) {
	t.Helper()
	if got.err != want.err || len(got.frames) != len(want.frames) {
		t.Fatalf("%s: %d frames then %q, ReadFrame read %d then %q",
			how, len(got.frames), got.err, len(want.frames), want.err)
	}
	for i := range want.frames {
		if got.frames[i].Type != want.frames[i].Type || !bytes.Equal(got.frames[i].Payload, want.frames[i].Payload) {
			t.Fatalf("%s: frame %d differs from ReadFrame's", how, i)
		}
	}
}

// TestFrameReaderMatchesReadFrame: a FrameReader reads every stream —
// whole, truncated anywhere, with a CRC, version, length or magic byte
// flipped, holding frames larger than its buffer — exactly as a loop of
// ReadFrame does: the same frames, then the same class of error, however
// the underlying reads split the bytes.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	var buf bytes.Buffer
	var starts []int // where each frame begins
	add := func(f Frame) {
		starts = append(starts, buf.Len())
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	add(EncodeMuxHello(MuxHello{MaxChannels: 4}))
	for i := 0; i < 60; i++ {
		add(EncodeSymbol(Symbol{ID: uint64(i), Data: bytes.Repeat([]byte{byte(i)}, 1400)}))
	}
	add(Frame{Type: TypeSummary, Payload: bytes.Repeat([]byte{0xB1}, readAhead+readAhead/2)})
	add(EncodeDone())
	add(Frame{Type: TypePeers, Payload: bytes.Repeat([]byte{0xB2}, 3*readAhead)})
	add(EncodeSymbol(Symbol{ID: 99, Data: []byte("tail")}))
	valid := buf.Bytes()

	streams := map[string][]byte{"valid": valid, "empty": nil}
	mid := starts[len(starts)/3]
	for _, cut := range []int{1, headerLen - 1, headerLen, headerLen + 1, mid - 1, mid, mid + 3, mid + headerLen, starts[61] + readAhead, len(valid) - 4, len(valid) - 1} {
		streams[fmt.Sprintf("cut at %d", cut)] = valid[:cut]
	}
	for name, off := range map[string]int{"magic": 0, "version": 2, "length lo": 4, "length mid": 6, "length hi": 7, "crc": headerLen + 8 + 1400 + 1} {
		mut := append([]byte(nil), valid...)
		mut[mid+off] ^= 0x5A
		streams["flipped "+name] = mut
	}

	for name, stream := range streams {
		r := bytes.NewReader(stream)
		want := readAll(func() (Frame, error) { return ReadFrame(r) }, -1)
		for how, src := range map[string]func() io.Reader{
			"whole":      func() io.Reader { return bytes.NewReader(stream) },
			"one byte":   func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
			"half reads": func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
			"chunks 1":   func() io.Reader { return &chunkReader{data: stream, seed: 1} },
			"chunks 2":   func() io.Reader { return &chunkReader{data: stream, seed: 2} },
			"data+EOF":   func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
		} {
			sameRead(t, name+", "+how, readAll(NewFrameReader(src()).Next, -1), want)
		}
	}
}

// TestFrameReaderZeroAlloc proves the steady-state frame-read path — a
// frame read and a zero-copy symbol parse — allocates nothing once the
// internal buffer is warm.
func TestFrameReaderZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	for i := 0; i < 8; i++ {
		if err := WriteSymbol(&buf, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	fr := NewFrameReader(r)
	run := func() {
		r.Reset(stream)
		for {
			f, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := SymbolView(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the internal buffer
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("frame read loop allocates %.2f/op, want 0", avg)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	blob := []byte("marshaled-summary-bytes")
	for _, sl := range [][2]uint16{{0, 0}, {0, 1}, {1, 2}, {6, 7}, {65534, 65535}} {
		f := EncodeSummary(sl[0], sl[1], blob)
		if f.Type != TypeSummary {
			t.Fatalf("summary framed as %v", f.Type)
		}
		slice, slices, got, err := DecodeSummaryView(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if slice != sl[0] || slices != sl[1] || !bytes.Equal(got, blob) {
			t.Fatalf("round trip: slice %d of %d blob %q", slice, slices, got)
		}
	}
	if _, _, _, err := DecodeSummaryView(nil); err == nil {
		t.Error("empty summary accepted")
	}
	if _, _, _, err := DecodeSummaryView([]byte{0, 0, 0}); err == nil {
		t.Error("truncated slice fields accepted")
	}
	for _, sl := range [][2]uint16{{2, 2}, {3, 2}, {65535, 7}} {
		if _, _, _, err := DecodeSummaryView(EncodeSummary(sl[0], sl[1], blob).Payload); err == nil {
			t.Errorf("slice %d of %d accepted", sl[0], sl[1])
		}
	}
}

// TestInSlice: every id falls in exactly one slice of s, the slices are
// about even, one slice (or none) is the whole space, and the formula is
// the one TypeSummary documents — the values below are its wire contract.
func TestInSlice(t *testing.T) {
	for _, s := range []uint16{0, 1} {
		for id := uint64(0); id < 100; id++ {
			if !InSlice(id, 0, s) || !InSlice(id, 5, s) {
				t.Fatalf("id %d outside the one slice of %d", id, s)
			}
		}
	}
	for _, s := range []uint16{2, 3, 7} {
		count := make([]int, s)
		for id := uint64(1); id <= 7000; id++ {
			in := 0
			for i := uint16(0); i < s; i++ {
				if InSlice(id*0x9e3779b97f4a7c15, i, s) {
					in++
					count[i]++
				}
			}
			if in != 1 {
				t.Fatalf("id %d in %d slices of %d", id, in, s)
			}
		}
		for i, c := range count {
			if want := 7000 / int(s); c < want*9/10 || c > want*11/10 {
				t.Errorf("slice %d of %d holds %d of 7000 ids", i, s, c)
			}
		}
	}
	// splitmix64's finalizer of 1 is 0x5692161d100b05e5 (33439 mod
	// 65535), of 2 0xdbd238973a2b148a (25375 mod 65535).
	if !InSlice(1, 1, 2) || !InSlice(2, 0, 2) || !InSlice(1, 33439, 65535) || !InSlice(2, 25375, 65535) {
		t.Error("InSlice departs from the documented splitmix64 finalizer")
	}
}

func TestUnknownContentError(t *testing.T) {
	cases := []struct {
		msg  string
		want bool
	}{
		{"unknown content 0xf00d", true},
		{"unknown content", true}, // the bare reason, no id appended
		{"unknown contentious claim", false},
		{"bad summary", false},
		{"", false},
		{"prefix unknown content 0x1", false},
	}
	for _, c := range cases {
		if got := IsUnknownContent(c.msg); got != c.want {
			t.Errorf("IsUnknownContent(%q) = %v, want %v", c.msg, got, c.want)
		}
	}
}

func TestRefusedError(t *testing.T) {
	msg, err := DecodeError(EncodeErrorRefused())
	if err != nil {
		t.Fatal(err)
	}
	if !IsRefused(msg) {
		t.Fatalf("canonical refusal %q not recognized", msg)
	}
	cases := []struct {
		msg  string
		want bool
	}{
		{"refused (address penalized)", true},
		{"refused", true},
		{"refusedly rude", false},
		{"busy (inbound connection limit reached)", false},
		{"", false},
		{"politely refused", false},
	}
	for _, c := range cases {
		if got := IsRefused(c.msg); got != c.want {
			t.Errorf("IsRefused(%q) = %v, want %v", c.msg, got, c.want)
		}
	}
	// Busy is its own reason: a live peer at a limit, never a refusal.
	if !IsBusy(ReasonBusy+" (inbound connection limit reached)") || !IsBusy(ReasonBusy) || IsBusy("busybody") || IsBusy(ReasonRefused) {
		t.Error("IsBusy does not match exactly the canonical busy reason")
	}
}
