// Package protocol defines the wire format of the prototype
// implementation (§6): a length-prefixed, checksummed binary framing over
// any reliable byte stream, carrying the handshake, the receiver's
// working-set summary (a Bloom filter, §5.2) and the §5.4 content
// symbols: encoded symbols, each identified by a 64-bit seed, from full
// and partial senders alike (§6.1: a partial sender informed by a summary
// "can find symbols of guaranteed utility", so what it holds travels as it
// is; recoding is the simulator's and the toolbox's, internal/recode).
//
// Frame layout (little-endian):
//
//	magic   uint16  0x1CD0
//	version uint8   Version
//	type    uint8   message type
//	length  uint32  payload byte count
//	payload [length]byte
//	crc32   uint32  IEEE CRC over version|type|length|payload
//
// The CRC turns random corruption into a detectable error instead of a
// misparse; the magic catches stream desynchronization early. Payload
// sizes are bounded to keep a malicious or corrupt peer from inducing
// huge allocations.
package protocol

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"sync"
)

// Version is the one protocol version this library speaks, and the only
// version byte readFrame accepts: any other value on a frame whose
// checksum holds is ErrVersion. What the number has accumulated: Lemire fast-range Bloom probe positions (2),
// summary-method negotiation in the hello mask and SUMMARY frames, with
// a refresh variant of its own (3), gossip peer discovery via the hello's
// advertised listen address and PEERS frames (4), and the multiplexed
// connection fabric (5) — a MUX_HELLO handshake, OPEN/ACCEPT/REJECT/
// CLOSE_CHANNEL negotiation, per-channel CREDIT flow control, and a MUX
// envelope carrying any content frame tagged with a channel id, so one
// wire serves N content subchannels. The fabric is the only session
// transport: every connection starts with MUX_HELLO, and a content
// hello travels only inside OPEN/ACCEPT_CHANNEL. Since 6 the version
// byte sits under the CRC and is checked after it, so a corrupted version
// byte reads as corruption (ErrCorrupt: charged and redialled), never as
// a peer that speaks something else (ErrVersion: terminal, uncharged).
// Peers up to 5 checksummed type|length|payload only; readFrame tries
// that coverage on a mismatch under a lower version byte, so their frames
// still read as ErrVersion and not as corruption. Such a peer, reading a
// frame written since, checks the version byte first and reports the
// mismatch itself. 7 retired the RECODED frame (type 7): SYMBOL is the only
// symbol-bearing frame, and a version-6 partial sender, which would answer
// a REQUEST with frames this reader must refuse mid-session, is turned
// away at the handshake instead. 8 puts the opener's first round of
// requests in the hello (Hello.Batch and Hello.Depth, 6 bytes ahead of the
// listen address), so a full sender answers it behind its ACCEPT_CHANNEL
// and a fetch saves the round trip its first REQUEST used to wait for. 9
// gives the ACCEPT_CHANNEL hello's Depth a meaning: the batches of that
// round a full sender will answer, which it clamps to what the receiver's
// decode still needs. 10 gives the SUMMARY its slice: the receiver tells
// each partial sender which hash slice of the id space to serve first
// (TypeSummary, InSlice). 11 dropped the SUMMARY's method byte: a Bloom
// filter is the only summary. 12 puts the opener's first summary in the
// OPEN (Hello.Summary), by which a partial sender answers one batch of
// the round, and retires type 11, SUMMARY's refresh variant. 13 retires
// CREDIT (type 18): a receiver's REQUESTs, and the OPEN's first round,
// are the only grant, and a SYMBOL nothing asked for is charged.
const Version = 13

// versionUnderCRC is the first version whose checksum covers the version
// byte.
const versionUnderCRC = 6

// ErrVersion marks an intact frame whose version byte differs from
// Version. A session layer that sees it should fail the handshake cleanly (report
// the mismatch, optionally answer with an ERROR frame, and drop the
// connection) rather than treat the stream as corrupt.
var ErrVersion = errors.New("protocol: peer speaks a different version")

// ErrCorrupt marks a frame that failed framing validation — wrong magic,
// a length past MaxPayload or a CRC mismatch. The stream is corrupt or
// desynchronized and the connection must be dropped; session layers
// additionally use it to tell a misbehaving (or fault-injected) peer
// apart from a clean close when charging misbehavior penalties.
var ErrCorrupt = errors.New("protocol: corrupt frame")

const magic = 0x1CD0

// MaxPayload bounds a frame's payload: large enough for a Bloom filter
// over a million-symbol working set, small enough to keep allocations
// sane.
const MaxPayload = 16 << 20

// Type identifies a message.
type Type uint8

const (
	// 1–4 were HELLO, SKETCH, BLOOM and ART, a bare content hello and
	// bare summaries, until version 5: the hello travels in
	// OPEN/ACCEPT_CHANNEL and the summary in SUMMARY.
	TypeRequest Type = 5 // receiver asks for a batch of symbols
	TypeSymbol  Type = 6 // one regular encoded symbol
	// 7 was RECODED, a recoded symbol with its constituent list (§5.4.2),
	// until version 7: a partial sender sends what it holds as SYMBOLs.
	TypeDone  Type = 8 // sender has satisfied the request / receiver is finished
	TypeError Type = 9 // fatal error, human-readable

	// TypeSummary carries a refresh of the receiver's working-set summary,
	// a Bloom filter (§5.2), sent when its working set has grown or its
	// slice moved, and the sender's slice of the id space — the first
	// summary rides the OPEN (Hello.Summary) in the same layout:
	//
	//	slice  uint16  this sender's slice, < slices
	//	slices uint16  how many the id space is cut into (≤ 1: one, the whole)
	//	blob   [...]byte  marshaled bloom.Filter
	//
	// A receiver fetching from s partial senders at once hands sender i
	// slice i of s. The sender sends the ids the summary leaves missing
	// that fall in its slice first, then the rest, so s senders spend
	// their first transmissions on disjoint ids without learning what
	// another holds. An id falls in slice i of s when
	// splitmix64(id) mod s = i, with splitmix64's finalizer
	//
	//	z = (id ^ id>>30) * 0xbf58476d1ce4e5b9
	//	z = (z ^ z>>27) * 0x94d049bb133111eb
	//	z ^= z >> 31
	//
	// (InSlice), which every sender must compute identically.
	TypeSummary Type = 10
	// 11 was SUMMARY's refresh variant, the same payload, until version
	// 12: the first summary rides the OPEN, so every SUMMARY is a refresh.

	// TypePeers carries gossip peer advertisements: a capped,
	// deduplicated list of (content id, dialable address) pairs either
	// side may volunteer so a swarm bootstrapped from a single seed
	// address can self-assemble the full mesh.
	TypePeers Type = 12

	// The connection-fabric frames. A multiplexed wire starts with a
	// MUX_HELLO exchange instead of a content HELLO; after that, content
	// sessions live on numbered subchannels negotiated with
	// OPEN/ACCEPT/REJECT_CHANNEL and torn down with CLOSE_CHANNEL, data
	// frames travel inside MUX envelopes. A receiver's REQUESTs are the
	// only grant a sender spends. A bare ERROR belongs to the wire, not to
	// any one channel: it answers the handshake, or kills the connection.
	TypeMuxHello      Type = 13 // wire handshake (replaces HELLO on fabric conns)
	TypeOpenChannel   Type = 14 // open a subchannel: channel id + content hello, first requests included
	TypeAcceptChannel Type = 15 // accept: channel id + serving-side hello
	TypeRejectChannel Type = 16 // reject: channel id + human-readable reason
	TypeCloseChannel  Type = 17 // either side retires a channel id
	TypeMux           Type = 19 // envelope: channel id + inner type + inner payload
)

// String names the message type for logs and errors.
func (t Type) String() string {
	switch t {
	case TypeRequest:
		return "REQUEST"
	case TypeSymbol:
		return "SYMBOL"
	case TypeDone:
		return "DONE"
	case TypeError:
		return "ERROR"
	case TypeSummary:
		return "SUMMARY"
	case TypePeers:
		return "PEERS"
	case TypeMuxHello:
		return "MUX_HELLO"
	case TypeOpenChannel:
		return "OPEN_CHANNEL"
	case TypeAcceptChannel:
		return "ACCEPT_CHANNEL"
	case TypeRejectChannel:
		return "REJECT_CHANNEL"
	case TypeCloseChannel:
		return "CLOSE_CHANNEL"
	case TypeMux:
		return "MUX"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Frame is one wire message.
type Frame struct {
	Type    Type
	Payload []byte
}

const headerLen = 2 + 1 + 1 + 4

// frameBufs recycles serialization buffers across WriteFrame calls. The
// Get/Put pair is scoped to one call (the buffer never escapes), so the
// pool makes steady-state frame writing allocation-free for payloads up
// to the pooled capacity.
var frameBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// appendFrame serializes a frame header, payload and trailing CRC onto
// buf. The payload is passed in up to two chunks so symbol writers can
// frame an (id, data) pair without first concatenating it.
func appendFrame(buf []byte, t Type, p1, p2 []byte) []byte {
	n := len(p1) + len(p2)
	buf = append(buf,
		byte(magic&0xff), byte(magic>>8),
		Version, byte(t),
		byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	buf = append(buf, p1...)
	buf = append(buf, p2...)
	crc := crc32.ChecksumIEEE(buf[len(buf)-n-6:])
	return append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// writeFrame2 frames and writes a two-chunk payload using a pooled buffer.
func writeFrame2(w io.Writer, t Type, p1, p2 []byte) error {
	if len(p1)+len(p2) > MaxPayload {
		return fmt.Errorf("protocol: payload %d exceeds limit", len(p1)+len(p2))
	}
	bp := frameBufs.Get().(*[]byte)
	buf := appendFrame((*bp)[:0], t, p1, p2)
	_, err := w.Write(buf)
	if cap(buf) <= 1<<16 { // don't let one huge frame pin a large buffer
		*bp = buf[:0]
	}
	frameBufs.Put(bp)
	return err
}

// WriteFrame serializes f to w.
func WriteFrame(w io.Writer, f Frame) error {
	return writeFrame2(w, f.Type, f.Payload, nil)
}

// frameLen validates a frame header and returns the byte count of the
// body behind it: payload and CRC trailer.
func frameLen(hdr []byte) (int, error) {
	if binary.LittleEndian.Uint16(hdr[0:]) != magic {
		return 0, fmt.Errorf("%w: bad magic (stream desynchronized?)", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(hdr[4:])
	if length > MaxPayload {
		return 0, fmt.Errorf("%w: payload %d exceeds limit", ErrCorrupt, length)
	}
	return int(length) + 4, nil
}

// checkFrame validates body (payload, then CRC trailer) against the
// header frameLen accepted, and returns the frame; its payload aliases
// body.
func checkFrame(hdr, body []byte) (Frame, error) {
	length := len(body) - 4
	payload := body[:length]
	wantCRC := binary.LittleEndian.Uint32(body[length:])
	// CRC over version|type|length|payload, computed incrementally — no
	// scratch concatenation buffer.
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[2:]), crc32.IEEETable, payload)
	if crc != wantCRC {
		// Before versionUnderCRC the checksum started after the version
		// byte. A frame that holds under that coverage and names such a
		// version is what such a peer wrote, not line noise.
		if hdr[2] < versionUnderCRC && crc32.Update(crc32.ChecksumIEEE(hdr[3:]), crc32.IEEETable, payload) == wantCRC {
			return Frame{}, fmt.Errorf("%w: got %d, speaking %d", ErrVersion, hdr[2], Version)
		}
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// Only now: a version byte the checksum vouches for is what the peer
	// wrote, so another value is another version, not a flipped bit.
	if hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, speaking %d", ErrVersion, hdr[2], Version)
	}
	return Frame{Type: Type(hdr[3]), Payload: payload}, nil
}

// shortBody reports a stream that ended inside a frame's body: the header
// was read, so even an EOF before the first body byte is mid-frame.
func shortBody(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("protocol: short frame body: %w", err)
}

// ReadFrame reads and validates exactly one frame from r, reading no byte
// past it. The payload is freshly allocated and owned by the caller;
// receive loops should use a FrameReader instead.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, shortBody(err)
	}
	return checkFrame(hdr[:], body)
}

// readAhead is a FrameReader's buffer size: one conn read takes in up to
// this many bytes, however many frames they hold.
const readAhead = 64 << 10

// FrameReader reads frames from one stream through a read-ahead buffer:
// one read of the underlying stream takes in as many bytes as are there,
// up to readAhead, and Next hands the frames in them out one at a time
// without reading again — a batch of small frames costs one read, not two
// per frame. The buffer grows only for a frame larger than it (bounded by
// MaxPayload). The returned Frame's Payload is a view into that buffer,
// valid only until the next call to Next; a caller that needs the bytes
// longer must copy them out (SymbolView parses without copying, for
// same-iteration use). Because it reads ahead, a FrameReader owns its stream: whoever
// reads on after it must read through it (ReadFrame reads exactly one
// frame and nothing more). Errors are ReadFrame's: io.EOF at a frame
// boundary, io.ErrUnexpectedEOF inside a frame (wrapped once its header
// is read), ErrCorrupt and ErrVersion from the one validator both share.
// Not safe for concurrent use; use one FrameReader per connection.
type FrameReader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read from r and not yet handed out
}

// NewFrameReader wraps r. The buffer is allocated at the first Next.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads and validates the next frame. On error the stream should be
// considered desynchronized and the connection dropped.
func (fr *FrameReader) Next() (Frame, error) {
	if err := fr.fill(headerLen); err != nil {
		return Frame{}, err
	}
	n, err := frameLen(fr.buf[fr.off : fr.off+headerLen])
	if err != nil {
		return Frame{}, err
	}
	if err := fr.fill(headerLen + n); err != nil {
		return Frame{}, shortBody(err)
	}
	hdr := fr.buf[fr.off : fr.off+headerLen]
	fr.off += headerLen + n
	return checkFrame(hdr, fr.buf[fr.off-n:fr.off])
}

// fill reads until at least need bytes are buffered past off. When they
// would not fit behind off, what is buffered moves to the front first —
// into a larger buffer if need exceeds the current one. A stream that
// ends before need is io.EOF if nothing of the frame was read and
// io.ErrUnexpectedEOF otherwise, as io.ReadFull has it.
func (fr *FrameReader) fill(need int) error {
	if fr.end-fr.off >= need {
		return nil
	}
	if len(fr.buf)-fr.off < need {
		buf := fr.buf
		if len(buf) < need {
			buf = make([]byte, max(need, readAhead))
		}
		fr.end = copy(buf, fr.buf[fr.off:fr.end])
		fr.off = 0
		fr.buf = buf
	}
	for fr.end-fr.off < need {
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if err != nil && fr.end-fr.off < need {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Hello is the content handshake, carried by OPEN_CHANNEL (the opener's)
// and ACCEPT_CHANNEL (the acceptor's): both sides announce identity and
// the sender side carries the content metadata a fresh receiver needs to
// construct its decoder. A receiver's Hello uses zero metadata fields but
// carries its working-set size, its first round of requests and its first
// summary.
type Hello struct {
	ContentID uint64 // identifies the file (e.g. hash of its name)
	NumBlocks uint32 // ` source blocks
	BlockSize uint32
	OrigLen   uint64 // original content length in bytes
	CodeSeed  uint64 // neighbor-expansion seed of the shared code
	FullCopy  bool   // sender holds the complete content
	Symbols   uint64 // announcer's working set size (partial senders and receivers)
	// SummaryMask says whether a sender reads Bloom summaries:
	// AllSummaryMask, its one defined bit, if it does. Only the sender's
	// ACCEPT means anything by it; without the bit, the session sends no
	// refresh.
	SummaryMask uint8
	// Batch and Depth are the opener's first round of requests: Depth
	// batches of Batch symbols, what Depth REQUEST frames of Batch would
	// ask for. Zero asks for nothing. A sender answers the round right
	// behind its ACCEPT, and its ACCEPT's Depth is how many DONE-ended
	// batches that answer holds: a full sender's, what was asked clamped
	// to what the opener's decode still needs (at least one when the OPEN
	// asked for any); a partial sender's, one, aimed by Summary (a batch
	// more would be aimed by a summary gone stale). Batch is zero in an
	// ACCEPT.
	Batch uint32
	Depth uint16
	// ListenAddr is the announcer's dialable listen address, empty
	// when the announcer cannot be dialed back. Peers feed it into
	// their gossip directories and relay it in PEERS frames.
	ListenAddr string
	// Summary is the opener's first summary, a TypeSummary payload, as
	// the hello's tail; empty when it holds nothing or sends no
	// summaries. A partial sender aims its first batch by it and refuses
	// the channel ("bad summary") when it is malformed; a full sender
	// ignores it.
	Summary []byte
}

// MaxAddrLen bounds an advertised address (hello and PEERS frames): a
// host:port string comfortably fits one length byte.
const MaxAddrLen = 255

const helloFixedLen = 8 + 4 + 4 + 8 + 8 + 1 + 8 + 1 + 4 + 2

// encodeChannelHello marshals an OPEN/ACCEPT_CHANNEL frame in one
// allocation: the channel id, then h in the hello layout. A ListenAddr
// longer than MaxAddrLen is truncated to empty (an undialable advert, not
// a malformed frame).
func encodeChannelHello(t Type, ch uint16, h Hello) Frame {
	addr := h.ListenAddr
	if len(addr) > MaxAddrLen {
		addr = ""
	}
	buf := make([]byte, 2+helloFixedLen+1+len(addr)+len(h.Summary))
	binary.LittleEndian.PutUint16(buf, ch)
	p := buf[2:]
	binary.LittleEndian.PutUint64(p[0:], h.ContentID)
	binary.LittleEndian.PutUint32(p[8:], h.NumBlocks)
	binary.LittleEndian.PutUint32(p[12:], h.BlockSize)
	binary.LittleEndian.PutUint64(p[16:], h.OrigLen)
	binary.LittleEndian.PutUint64(p[24:], h.CodeSeed)
	if h.FullCopy {
		p[32] = 1
	}
	binary.LittleEndian.PutUint64(p[33:], h.Symbols)
	p[41] = h.SummaryMask
	binary.LittleEndian.PutUint32(p[42:], h.Batch)
	binary.LittleEndian.PutUint16(p[46:], h.Depth)
	p[48] = byte(len(addr))
	copy(p[49+copy(p[49:], addr):], h.Summary)
	return Frame{Type: t, Payload: buf}
}

// decodeHelloPayload unmarshals the hello layout from the tail of an
// OPEN/ACCEPT_CHANNEL payload; the summary is copied out of p.
func decodeHelloPayload(p []byte) (Hello, error) {
	if len(p) < helloFixedLen+1 {
		return Hello{}, fmt.Errorf("protocol: hello payload %d bytes, want ≥ %d", len(p), helloFixedLen+1)
	}
	addrLen := int(p[48])
	if len(p) < helloFixedLen+1+addrLen {
		return Hello{}, fmt.Errorf("protocol: hello payload %d bytes, want ≥ %d", len(p), helloFixedLen+1+addrLen)
	}
	var summary []byte
	if tail := p[49+addrLen:]; len(tail) > 0 {
		summary = make([]byte, len(tail))
		copy(summary, tail)
	}
	return Hello{
		ContentID:   binary.LittleEndian.Uint64(p[0:]),
		NumBlocks:   binary.LittleEndian.Uint32(p[8:]),
		BlockSize:   binary.LittleEndian.Uint32(p[12:]),
		OrigLen:     binary.LittleEndian.Uint64(p[16:]),
		CodeSeed:    binary.LittleEndian.Uint64(p[24:]),
		FullCopy:    p[32] == 1,
		Symbols:     binary.LittleEndian.Uint64(p[33:]),
		SummaryMask: p[41],
		Batch:       binary.LittleEndian.Uint32(p[42:]),
		Depth:       binary.LittleEndian.Uint16(p[46:]),
		ListenAddr:  string(p[49 : 49+addrLen]),
		Summary:     summary,
	}, nil
}

// Symbol is a regular encoded symbol on the wire.
type Symbol struct {
	ID   uint64
	Data []byte
}

// EncodeSymbol marshals s.
func EncodeSymbol(s Symbol) Frame {
	buf := make([]byte, 8+len(s.Data))
	binary.LittleEndian.PutUint64(buf, s.ID)
	copy(buf[8:], s.Data)
	return Frame{Type: TypeSymbol, Payload: buf}
}

// SymbolWriter is a writer that frames a SYMBOL itself, from its id and
// payload: a multiplexed channel, whose envelope is the frame that
// reaches the wire. WriteSymbol hands such a writer the pair rather than
// a serialized frame it would only unwrap and frame again.
type SymbolWriter interface {
	WriteSymbol(id uint64, data []byte) error
}

// WriteSymbol frames and writes a regular encoded symbol in one Write,
// assembling header, id, payload and CRC in a pooled buffer — the
// allocation-free fast path senders use instead of
// WriteFrame(EncodeSymbol(...)). A SymbolWriter frames it itself.
func WriteSymbol(w io.Writer, id uint64, data []byte) error {
	if sw, ok := w.(SymbolWriter); ok {
		return sw.WriteSymbol(id, data)
	}
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], id)
	return writeFrame2(w, TypeSymbol, idb[:], data)
}

// SymbolView parses a SYMBOL frame without copying: data aliases
// f.Payload, so for frames produced by a FrameReader it is valid only
// until the next frame is read.
func SymbolView(f Frame) (id uint64, data []byte, err error) {
	if f.Type != TypeSymbol {
		return 0, nil, fmt.Errorf("protocol: %v is not SYMBOL", f.Type)
	}
	if len(f.Payload) < 9 {
		return 0, nil, errors.New("protocol: SYMBOL too short")
	}
	return binary.LittleEndian.Uint64(f.Payload), f.Payload[8:], nil
}

// EncodeRequest marshals a batch request for count symbols.
func EncodeRequest(count uint32) Frame {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, count)
	return Frame{Type: TypeRequest, Payload: buf}
}

// DecodeRequest unmarshals a REQUEST frame.
func DecodeRequest(f Frame) (uint32, error) {
	if f.Type != TypeRequest {
		return 0, fmt.Errorf("protocol: %v is not REQUEST", f.Type)
	}
	if len(f.Payload) != 4 {
		return 0, errors.New("protocol: REQUEST malformed")
	}
	return binary.LittleEndian.Uint32(f.Payload), nil
}

// EncodeDone builds a DONE frame.
func EncodeDone() Frame { return Frame{Type: TypeDone} }

// EncodeError builds an ERROR frame.
func EncodeError(msg string) Frame {
	return Frame{Type: TypeError, Payload: []byte(msg)}
}

// ReasonUnknownContent is the canonical rejection prefix a server
// answers when a channel's HELLO names a content id it does not hold,
// e.g. "unknown content 0xf00d". Multi-content listeners route every
// inbound channel by content id, so "I don't have that" became a
// first-class, machine-readable outcome: receivers match it with
// IsUnknownContent and treat the peer as permanently useless for that
// content (no redial) instead of a transient failure.
const ReasonUnknownContent = "unknown content"

// IsUnknownContent reports whether an ERROR message is the canonical
// unknown-content answer (with or without the offending id appended).
func IsUnknownContent(msg string) bool { return hasReason(msg, ReasonUnknownContent) }

// hasReason reports whether msg is the canonical reason, bare or with
// detail appended after a space.
func hasReason(msg, reason string) bool {
	rest, ok := strings.CutPrefix(msg, reason)
	return ok && (rest == "" || rest[0] == ' ')
}

// ReasonRefused is the canonical ERROR-message prefix a server answers
// when it declines to serve an admitted connection — today because the
// client's address sits above its penalty box's ban threshold. Receivers
// match it with IsRefused and stop redialing without charging the
// refuser: an explicit refusal is the server protecting itself, not a
// peer fault, and answering it with penalties would let two nodes that
// misattributed one environmental fault escalate into banning each
// other permanently.
const ReasonRefused = "refused"

// EncodeErrorRefused builds the canonical ERROR frame for a connection
// the server declines to serve.
func EncodeErrorRefused() Frame {
	return EncodeError(ReasonRefused + " (address penalized)")
}

// IsRefused reports whether an ERROR message is the canonical refusal
// answer (with or without detail appended).
func IsRefused(msg string) bool { return hasReason(msg, ReasonRefused) }

// ReasonBusy is the canonical ERROR-message prefix of a live peer that
// is at a limit — its inbound connection cap, or a wire's channel cap —
// and turns the dialer away for now. Receivers match it with IsBusy:
// the address was reached and may be retried, and a saturated honest
// peer is not charged toward a ban for saying so.
const ReasonBusy = "busy"

// IsBusy reports whether an ERROR message is the canonical busy answer
// (with or without detail appended).
func IsBusy(msg string) bool { return hasReason(msg, ReasonBusy) }

// ReasonBadVersion is the canonical ERROR-message prefix a server
// answers when a client's frames carry a version byte it cannot speak.
// Clients match it with IsVersionReject and surface ErrVersion — the
// same terminal, no-redial outcome as reading an incompatible version
// byte directly.
const ReasonBadVersion = "unsupported protocol version"

// EncodeErrorBadVersion builds the canonical ERROR frame for a peer
// whose version this library cannot speak.
func EncodeErrorBadVersion() Frame {
	return EncodeError(fmt.Sprintf("%s (speaking %d)", ReasonBadVersion, Version))
}

// IsVersionReject reports whether an ERROR message is the canonical
// version rejection (with or without detail appended): the peer's reader
// refused our version byte and said so in framing ours happened to
// accept.
func IsVersionReject(msg string) bool { return hasReason(msg, ReasonBadVersion) }

// DecodeError extracts the message of an ERROR frame.
func DecodeError(f Frame) (string, error) {
	if f.Type != TypeError {
		return "", fmt.Errorf("protocol: %v is not ERROR", f.Type)
	}
	return string(f.Payload), nil
}

// AllSummaryMask is the ACCEPT's Hello.SummaryMask of a sender that
// reads Bloom summaries (§5.2), the only summary there is. It is the
// mask's one defined bit; a mask without it means "no summaries".
const AllSummaryMask uint8 = 1

// summaryHeader is a SUMMARY payload's slice fields.
const summaryHeader = 2 + 2

// EncodeSummary wraps the sender's slice of the id space and a marshaled
// Bloom filter in a SUMMARY frame, whose payload is also what
// Hello.Summary holds. slices ≤ 1 is the whole id space.
func EncodeSummary(slice, slices uint16, blob []byte) Frame {
	payload := make([]byte, summaryHeader+len(blob))
	binary.LittleEndian.PutUint16(payload[0:], slice)
	binary.LittleEndian.PutUint16(payload[2:], slices)
	copy(payload[summaryHeader:], blob)
	return Frame{Type: TypeSummary, Payload: payload}
}

// AppendSummary appends the SUMMARY payload EncodeSummary(slice, slices,
// blob's encoding) holds to b: the slice fields, then blob marshaled in
// place behind them. With room in b for SummaryLen(blob's encoded length)
// bytes it allocates nothing, so a summary is one buffer, not a marshaled
// filter and a copy of it.
func AppendSummary(b []byte, slice, slices uint16, blob encoding.BinaryAppender) ([]byte, error) {
	b = binary.LittleEndian.AppendUint16(b, slice)
	b = binary.LittleEndian.AppendUint16(b, slices)
	return blob.AppendBinary(b)
}

// SummaryLen is the length of a SUMMARY payload whose blob is blobLen
// bytes.
func SummaryLen(blobLen int) int { return summaryHeader + blobLen }

// InSlice reports whether id falls in slice slice of slices of the id
// space: splitmix64's finalizer of id, mod slices (TypeSummary). Every id
// is in the one slice of slices ≤ 1.
func InSlice(id uint64, slice, slices uint16) bool {
	if slices <= 1 {
		return true
	}
	z := (id ^ id>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%uint64(slices) == uint64(slice)
}

// PeerAd is one gossip advertisement: a peer's dialable address and the
// content id it is known to hold or fetch.
type PeerAd struct {
	ContentID uint64
	Addr      string
}

// MaxPeerAds bounds the advertisement list of one PEERS frame: enough
// to describe a full mesh neighborhood, small enough that a malicious
// peer cannot flood the frame.
const MaxPeerAds = 64

// AppendPeers appends a PEERS payload carrying ads to buf and returns
// the extended buffer; a PEERS frame is Frame{Type: TypePeers, Payload:
// AppendPeers(nil, ads)}. Advertisements are deduplicated by (content id,
// address), first occurrence kept; empty or oversized addresses are
// dropped; the list is truncated at MaxPeerAds. The layout is a uint16
// count followed by count entries of contentID uint64, addrLen uint8, addr
// bytes. It allocates only when buf lacks the room: the deduplication is
// a scan over the entries kept so far, at most MaxPeerAds of them.
func AppendPeers(buf []byte, ads []PeerAd) []byte {
	var kept [MaxPeerAds]int // indices into ads
	n, size := 0, 2
	for i, ad := range ads {
		if n == MaxPeerAds {
			break
		}
		if ad.Addr == "" || len(ad.Addr) > MaxAddrLen || slices.ContainsFunc(kept[:n], func(j int) bool { return ads[j] == ad }) {
			continue
		}
		kept[n] = i
		n++
		size += 8 + 1 + len(ad.Addr)
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	for _, i := range kept[:n] {
		buf = binary.LittleEndian.AppendUint64(buf, ads[i].ContentID)
		buf = append(buf, byte(len(ads[i].Addr)))
		buf = append(buf, ads[i].Addr...)
	}
	return buf
}

// DecodePeers unmarshals a PEERS frame, appending its advertisements to
// dst, enforcing the MaxPeerAds cap and rejecting truncated entries or
// trailing bytes; duplicate advertisements are dropped, so what it
// appends is a set. It allocates only the address strings of the ads it
// keeps, and dst's growth when dst lacks the room.
func DecodePeers(dst []PeerAd, f Frame) ([]PeerAd, error) {
	if f.Type != TypePeers {
		return dst, fmt.Errorf("protocol: %v is not PEERS", f.Type)
	}
	if len(f.Payload) < 2 {
		return dst, errors.New("protocol: PEERS too short")
	}
	n := int(binary.LittleEndian.Uint16(f.Payload))
	if n > MaxPeerAds {
		return dst, fmt.Errorf("protocol: PEERS count %d exceeds %d", n, MaxPeerAds)
	}
	start := len(dst)
	dst = slices.Grow(dst, n)
	rest := f.Payload[2:]
	for i := 0; i < n; i++ {
		if len(rest) < 9 {
			return dst[:start], errors.New("protocol: PEERS entry truncated")
		}
		id := binary.LittleEndian.Uint64(rest)
		addrLen := int(rest[8])
		rest = rest[9:]
		if addrLen == 0 || len(rest) < addrLen {
			return dst[:start], errors.New("protocol: PEERS address truncated")
		}
		addr := rest[:addrLen]
		rest = rest[addrLen:]
		if !slices.ContainsFunc(dst[start:], func(ad PeerAd) bool { return ad.ContentID == id && ad.Addr == string(addr) }) {
			dst = append(dst, PeerAd{ContentID: id, Addr: string(addr)})
		}
	}
	if len(rest) != 0 {
		return dst[:start], errors.New("protocol: PEERS trailing bytes")
	}
	return dst, nil
}

// DecodeSummaryView parses a SUMMARY payload — a SUMMARY frame's, or
// Hello.Summary — into the sender's slice of the id space and the
// marshaled Bloom filter; slice ≥ slices > 1 is malformed. The blob
// aliases p: a frame read through a FrameReader is valid only until the
// next frame, so consumers must unmarshal before reading on.
func DecodeSummaryView(p []byte) (slice, slices uint16, blob []byte, err error) {
	if len(p) < summaryHeader {
		return 0, 0, nil, errors.New("protocol: SUMMARY too short")
	}
	slice = binary.LittleEndian.Uint16(p[0:])
	slices = binary.LittleEndian.Uint16(p[2:])
	if slices > 1 && slice >= slices {
		return 0, 0, nil, fmt.Errorf("protocol: SUMMARY slice %d of %d", slice, slices)
	}
	return slice, slices, p[summaryHeader:], nil
}
