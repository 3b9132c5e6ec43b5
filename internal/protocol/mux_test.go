package protocol

// mux_test.go covers the v5 connection-fabric codecs: round trips for
// every negotiation frame, the MUX envelope's single-CRC nesting, and
// the version-reject classifier.

import (
	"bytes"
	"testing"
)

func TestMuxHelloRoundTrip(t *testing.T) {
	for _, h := range []MuxHello{
		{},
		{MaxChannels: 64, ListenAddr: "203.0.113.9:9002"},
		{MaxChannels: 1},
	} {
		got, err := DecodeMuxHello(EncodeMuxHello(h))
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
	if _, err := DecodeMuxHello(Frame{Type: TypeMuxHello, Payload: []byte{1}}); err == nil {
		t.Fatal("truncated MUX_HELLO accepted")
	}
	if _, err := DecodeMuxHello(Frame{Type: TypeMuxHello, Payload: []byte{1, 0, 9, 'x'}}); err == nil {
		t.Fatal("MUX_HELLO with lying addr length accepted")
	}
}

func TestChannelNegotiationRoundTrip(t *testing.T) {
	h := Hello{
		ContentID: 0xF00D, NumBlocks: 2000, BlockSize: 1400, OrigLen: 2_800_000,
		CodeSeed: 42, FullCopy: true, Symbols: 17, SummaryMask: AllSummaryMask,
		ListenAddr: "10.0.0.7:9000",
	}
	ch, got, err := DecodeOpenChannel(EncodeOpenChannel(7, h))
	if err != nil || ch != 7 || !sameHello(got, h) {
		t.Fatalf("OPEN_CHANNEL round trip: ch=%d h=%+v err=%v", ch, got, err)
	}
	ch, got, err = DecodeAcceptChannel(EncodeAcceptChannel(9, h))
	if err != nil || ch != 9 || !sameHello(got, h) {
		t.Fatalf("ACCEPT_CHANNEL round trip: ch=%d h=%+v err=%v", ch, got, err)
	}
	ch, msg, err := DecodeRejectChannel(EncodeRejectChannel(3, ReasonRefused+" (address penalized)"))
	if err != nil || ch != 3 || !IsRefused(msg) {
		t.Fatalf("REJECT_CHANNEL round trip: ch=%d msg=%q err=%v", ch, msg, err)
	}
	ch, err = DecodeCloseChannel(EncodeCloseChannel(11))
	if err != nil || ch != 11 {
		t.Fatalf("CLOSE_CHANNEL round trip: ch=%d err=%v", ch, err)
	}
	if _, _, err := DecodeOpenChannel(Frame{Type: TypeOpenChannel, Payload: []byte{1}}); err == nil {
		t.Fatal("truncated OPEN_CHANNEL accepted")
	}
	if _, err := DecodeCloseChannel(Frame{Type: TypeCloseChannel, Payload: []byte{1, 2, 3}}); err == nil {
		t.Fatal("oversized CLOSE_CHANNEL accepted")
	}
}

func TestMuxEnvelope(t *testing.T) {
	inner := EncodeSymbol(Symbol{ID: 99, Data: []byte("payload-bytes")})
	ch, got, err := MuxView(EncodeMux(12, inner))
	if err != nil || ch != 12 || got.Type != TypeSymbol || !bytes.Equal(got.Payload, inner.Payload) {
		t.Fatalf("MUX round trip: ch=%d inner=%+v err=%v", ch, got, err)
	}
	id, data, err := SymbolView(got)
	if err != nil || id != 99 || string(data) != "payload-bytes" {
		t.Fatalf("inner SYMBOL view through envelope: id=%d data=%q err=%v", id, data, err)
	}

	// AppendMux must produce the exact bytes of WriteFrame(EncodeMux(...)),
	// behind whatever the buffer already holds.
	var slow bytes.Buffer
	if err := WriteFrame(&slow, EncodeMux(12, inner)); err != nil {
		t.Fatal(err)
	}
	fast, err := AppendMux([]byte("prefix"), 12, TypeSymbol, inner.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(fast[:6]) != "prefix" || !bytes.Equal(fast[6:], slow.Bytes()) {
		t.Fatalf("AppendMux bytes differ from WriteFrame(EncodeMux):\n%x\n%x", fast, slow.Bytes())
	}
	if out, err := AppendMux(fast, 12, TypeSymbol, make([]byte, MaxPayload-2)); err == nil || len(out) != len(fast) {
		t.Fatalf("oversize envelope: err = %v, buf %d -> %d bytes", err, len(fast), len(out))
	}
	if avg := testing.AllocsPerRun(100, func() {
		fast, _ = AppendMux(fast[:0], 12, TypeSymbol, inner.Payload)
	}); avg != 0 {
		t.Errorf("AppendMux into a buffer with room allocates %.1f per call, want 0", avg)
	}
	if _, _, err := MuxView(Frame{Type: TypeMux, Payload: []byte{0, 1}}); err == nil {
		t.Fatal("truncated MUX accepted")
	}
}

// TestAppendMuxSymbol pins the one-pass symbol envelope to the bytes
// AppendMux makes of the serialized SYMBOL payload, its length to
// MuxSymbolLen, and its cost to no allocation.
func TestAppendMuxSymbol(t *testing.T) {
	inner := EncodeSymbol(Symbol{ID: 0x0123456789abcdef, Data: []byte("payload-bytes")})
	want, err := AppendMux([]byte("prefix"), 12, TypeSymbol, inner.Payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendMuxSymbol([]byte("prefix"), 12, 0x0123456789abcdef, []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMuxSymbol bytes differ from AppendMux:\n%x\n%x", got, want)
	}
	if n := MuxSymbolLen(len("payload-bytes")); len(got) != 6+n {
		t.Fatalf("MuxSymbolLen = %d, envelope is %d bytes", n, len(got)-6)
	}
	if out, err := AppendMuxSymbol(got, 12, 1, make([]byte, MaxPayload-10)); err == nil || len(out) != len(got) {
		t.Fatalf("oversize envelope: err = %v, buf %d -> %d bytes", err, len(got), len(out))
	}
	if avg := testing.AllocsPerRun(100, func() {
		got, _ = AppendMuxSymbol(got[:0], 12, 7, inner.Payload)
	}); avg != 0 {
		t.Errorf("AppendMuxSymbol into a buffer with room allocates %.1f per call, want 0", avg)
	}
}

func TestIsVersionReject(t *testing.T) {
	msg, err := DecodeError(EncodeErrorBadVersion())
	if err != nil {
		t.Fatal(err)
	}
	if !IsVersionReject(msg) {
		t.Fatalf("canonical reject %q not recognized", msg)
	}
	if !IsVersionReject(ReasonBadVersion) {
		t.Fatal("bare prefix not recognized")
	}
	if IsVersionReject("unsupported protocol versions everywhere") {
		t.Fatal("prefix-extension false positive")
	}
	if IsVersionReject("refused (address penalized)") {
		t.Fatal("unrelated reason matched")
	}
}
