package protocol

// mux.go is the connection-fabric wire vocabulary: the MUX_HELLO
// handshake, channel negotiation (OPEN/ACCEPT/REJECT/CLOSE_CHANNEL) and
// the MUX envelope that carries any content frame tagged with a channel
// id. The envelope nests only the inner type and payload — one outer CRC
// covers the whole frame, so multiplexing costs 3 bytes per frame, not a
// second checksum.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MuxHello is the wire-level handshake of a multiplexed connection: the
// dialer announces how many concurrent subchannels it is prepared to
// serve and (optionally) its dialable listen address for gossip
// attribution; the acceptor answers with its own. Content metadata
// travels per-channel in OPEN/ACCEPT_CHANNEL.
type MuxHello struct {
	// MaxChannels is the largest number of concurrently open channels
	// the announcer will accept from its peer (0 means "none": a wire
	// only useful for gossip, which in practice is a refusal).
	MaxChannels uint16
	// ListenAddr is the announcer's dialable listen address, empty when
	// it cannot be dialed back — same semantics as Hello.ListenAddr.
	ListenAddr string
}

// EncodeMuxHello marshals h. Oversized listen addresses degrade to
// empty, as in a channel hello.
func EncodeMuxHello(h MuxHello) Frame {
	addr := h.ListenAddr
	if len(addr) > MaxAddrLen {
		addr = ""
	}
	buf := make([]byte, 3+len(addr))
	binary.LittleEndian.PutUint16(buf, h.MaxChannels)
	buf[2] = byte(len(addr))
	copy(buf[3:], addr)
	return Frame{Type: TypeMuxHello, Payload: buf}
}

// DecodeMuxHello unmarshals a MUX_HELLO frame.
func DecodeMuxHello(f Frame) (MuxHello, error) {
	if f.Type != TypeMuxHello {
		return MuxHello{}, fmt.Errorf("protocol: %v is not MUX_HELLO", f.Type)
	}
	if len(f.Payload) < 3 {
		return MuxHello{}, errors.New("protocol: MUX_HELLO too short")
	}
	addrLen := int(f.Payload[2])
	if len(f.Payload) != 3+addrLen {
		return MuxHello{}, fmt.Errorf("protocol: MUX_HELLO payload %d bytes, want %d", len(f.Payload), 3+addrLen)
	}
	return MuxHello{
		MaxChannels: binary.LittleEndian.Uint16(f.Payload),
		ListenAddr:  string(f.Payload[3 : 3+addrLen]),
	}, nil
}

// EncodeOpenChannel marshals a channel-open request: the id the opener
// chose plus its content hello (content id, working-set size, first round
// of requests, listen address, first summary).
func EncodeOpenChannel(ch uint16, h Hello) Frame {
	return encodeChannelHello(TypeOpenChannel, ch, h)
}

// DecodeOpenChannel unmarshals an OPEN_CHANNEL frame.
func DecodeOpenChannel(f Frame) (uint16, Hello, error) {
	if f.Type != TypeOpenChannel {
		return 0, Hello{}, fmt.Errorf("protocol: %v is not OPEN_CHANNEL", f.Type)
	}
	return decodeChannelHello(f.Payload)
}

// EncodeAcceptChannel marshals a channel accept: the id being accepted
// plus the serving side's content hello (metadata the fetching side
// needs to construct its decoder).
func EncodeAcceptChannel(ch uint16, h Hello) Frame {
	return encodeChannelHello(TypeAcceptChannel, ch, h)
}

// DecodeAcceptChannel unmarshals an ACCEPT_CHANNEL frame.
func DecodeAcceptChannel(f Frame) (uint16, Hello, error) {
	if f.Type != TypeAcceptChannel {
		return 0, Hello{}, fmt.Errorf("protocol: %v is not ACCEPT_CHANNEL", f.Type)
	}
	return decodeChannelHello(f.Payload)
}

func decodeChannelHello(p []byte) (uint16, Hello, error) {
	if len(p) < 2 {
		return 0, Hello{}, errors.New("protocol: channel frame too short")
	}
	h, err := decodeHelloPayload(p[2:])
	if err != nil {
		return 0, Hello{}, err
	}
	return binary.LittleEndian.Uint16(p), h, nil
}

// EncodeRejectChannel marshals a channel rejection: the refused id plus
// a human-readable reason. The canonical ERROR-message vocabulary
// (ReasonUnknownContent, ReasonRefused, ReasonBadVersion, ReasonBusy) is
// reused here so openers classify rejections with the same helpers.
func EncodeRejectChannel(ch uint16, msg string) Frame {
	buf := make([]byte, 2+len(msg))
	binary.LittleEndian.PutUint16(buf, ch)
	copy(buf[2:], msg)
	return Frame{Type: TypeRejectChannel, Payload: buf}
}

// DecodeRejectChannel unmarshals a REJECT_CHANNEL frame.
func DecodeRejectChannel(f Frame) (uint16, string, error) {
	if f.Type != TypeRejectChannel {
		return 0, "", fmt.Errorf("protocol: %v is not REJECT_CHANNEL", f.Type)
	}
	if len(f.Payload) < 2 {
		return 0, "", errors.New("protocol: REJECT_CHANNEL too short")
	}
	return binary.LittleEndian.Uint16(f.Payload), string(f.Payload[2:]), nil
}

// EncodeCloseChannel marshals a channel close notification.
func EncodeCloseChannel(ch uint16) Frame {
	buf := make([]byte, 2)
	binary.LittleEndian.PutUint16(buf, ch)
	return Frame{Type: TypeCloseChannel, Payload: buf}
}

// DecodeCloseChannel unmarshals a CLOSE_CHANNEL frame.
func DecodeCloseChannel(f Frame) (uint16, error) {
	if f.Type != TypeCloseChannel {
		return 0, fmt.Errorf("protocol: %v is not CLOSE_CHANNEL", f.Type)
	}
	if len(f.Payload) != 2 {
		return 0, errors.New("protocol: CLOSE_CHANNEL malformed")
	}
	return binary.LittleEndian.Uint16(f.Payload), nil
}

// EncodeMux wraps an inner frame in a MUX envelope for channel ch. The
// inner frame's own header and CRC are not serialized — the envelope
// carries only (inner type, inner payload) and the outer frame's CRC
// covers everything.
func EncodeMux(ch uint16, inner Frame) Frame {
	buf := make([]byte, 3+len(inner.Payload))
	binary.LittleEndian.PutUint16(buf, ch)
	buf[2] = byte(inner.Type)
	copy(buf[3:], inner.Payload)
	return Frame{Type: TypeMux, Payload: buf}
}

// MuxView parses a MUX envelope without copying: the inner frame's
// payload aliases f.Payload, so for frames from a FrameReader it is
// valid only until the next frame is read.
func MuxView(f Frame) (ch uint16, inner Frame, err error) {
	if f.Type != TypeMux {
		return 0, Frame{}, fmt.Errorf("protocol: %v is not MUX", f.Type)
	}
	if len(f.Payload) < 3 {
		return 0, Frame{}, errors.New("protocol: MUX too short")
	}
	return binary.LittleEndian.Uint16(f.Payload),
		Frame{Type: Type(f.Payload[2]), Payload: f.Payload[3:]}, nil
}

// FrameParts splits one fully serialized frame — what any writer in
// this package emits in a single Write call — into its type and payload
// (aliasing p), without verifying the CRC: the caller got the bytes
// from a trusted in-process writer, not a network. It is how a
// multiplexing layer re-frames a content frame into a MUX envelope
// without a decode/re-encode round trip.
func FrameParts(p []byte) (Type, []byte, error) {
	if len(p) < headerLen+4 || binary.LittleEndian.Uint16(p) != magic {
		return 0, nil, errors.New("protocol: not a serialized frame")
	}
	n := int(binary.LittleEndian.Uint32(p[4:]))
	if len(p) != headerLen+n+4 {
		return 0, nil, fmt.Errorf("protocol: frame length %d does not match declared payload %d", len(p), n)
	}
	return Type(p[3]), p[headerLen : headerLen+n], nil
}

// AppendMux serializes (innerType, payload) as one MUX envelope frame for
// channel ch — header, envelope, payload, CRC — onto buf and returns the
// extended slice: the bytes WriteFrame(EncodeMux(...)) would write, with
// no buffer of its own, so a multiplexed sender can gather many frames
// into one conn write. payload is copied; its storage is free for reuse
// once AppendMux returns. An envelope past MaxPayload is an error and buf
// comes back unchanged.
func AppendMux(buf []byte, ch uint16, innerType Type, payload []byte) ([]byte, error) {
	if 3+len(payload) > MaxPayload {
		return buf, fmt.Errorf("protocol: payload %d exceeds limit", 3+len(payload))
	}
	var pre [3]byte
	binary.LittleEndian.PutUint16(pre[:], ch)
	pre[2] = byte(innerType)
	return appendFrame(buf, TypeMux, pre[:], payload), nil
}
