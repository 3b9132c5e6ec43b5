package peer

// compat_test.go pins the cross-version handshake: the library speaks
// exactly one wire version, and a peer speaking any other — older,
// newer, or the v4 this library once also accepted — must fail cleanly:
// ErrVersion surfaced, the server answering a human-readable ERROR, the
// client ending its session terminally on the first dial, and no
// goroutine left behind (checked with a hand-rolled leak detector; the
// engine has no goleak dependency).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/protocol"
	"icd/internal/testutil"
)

// checkGoroutines is the leak check each case defers; the detector
// itself lives in testutil so the peer and node suites share one
// implementation.
func checkGoroutines(t *testing.T) func() { return testutil.CheckGoroutines(t) }

// frameWithVersion replicates the wire framing with an arbitrary
// version byte — the only way to speak as a foreign-version peer. The
// checksum covers what that version's did: from the version byte on
// since 6, from the type byte on before.
func frameWithVersion(version uint8, t protocol.Type, payload []byte) []byte {
	buf := make([]byte, 0, 8+len(payload)+4)
	buf = append(buf, 0xD0, 0x1C, version, byte(t))
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(payload)))
	buf = append(buf, lenb[:]...)
	buf = append(buf, payload...)
	covered := buf[2:]
	if version < 6 {
		covered = buf[3:]
	}
	crc := crc32.ChecksumIEEE(covered)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	return append(buf, crcb[:]...)
}

// readFrameAnyVersion reads one frame off r without enforcing the
// version byte — how the test observes what a cross-version peer would
// physically receive. It returns the version, type and payload.
func readFrameAnyVersion(t *testing.T, r io.Reader) (uint8, protocol.Type, []byte) {
	t.Helper()
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		t.Fatalf("reading frame header: %v", err)
	}
	if binary.LittleEndian.Uint16(hdr) != 0x1CD0 {
		t.Fatalf("bad magic in %x", hdr)
	}
	length := binary.LittleEndian.Uint32(hdr[4:])
	body := make([]byte, int(length)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("reading frame body: %v", err)
	}
	return hdr[2], protocol.Type(hdr[3]), body[:length]
}

// foreignVersions are the version bytes the matrix speaks as: the last
// pre-gossip version, the v4 a two-version reader used to accept, 5 (the
// last whose checksum left the version byte out), 6 (whose partial
// senders answered REQUESTs with RECODED frames), 7 (whose hello carried
// no first round of requests), 8 (whose full senders answered the whole
// round and said nothing of it in their ACCEPT), 9 (whose SUMMARY named
// no slice of the id space), 10 (whose SUMMARY led with a method byte),
// 11 (whose first summary was a frame of its own behind the ACCEPT), the
// previous one (12, whose receivers granted CREDIT and whose senders
// waited for it), and one from the future.
var foreignVersions = []uint8{3, 4, 5, 6, 7, 8, 9, 10, 11, protocol.Version - 1, protocol.Version + 1}

func TestCrossVersionClientGetsCleanError(t *testing.T) {
	for _, v := range foreignVersions {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			defer checkGoroutines(t)()
			info, data := testContent(t, 60, 32)
			srv, err := NewFullServer(info, data)
			if err != nil {
				t.Fatal(err)
			}
			mux := front(srv)

			client, server := net.Pipe()
			defer client.Close()
			var wg sync.WaitGroup
			wg.Add(1)
			var serveErr error
			go func() {
				defer wg.Done()
				serveErr = mux.ServeConn(server)
				server.Close()
			}()

			// The foreign client's opening frame, its MUX_HELLO, written from
			// a goroutine: the server bails at the 8-byte header, and
			// net.Pipe (unlike a TCP socket buffer) would otherwise deadlock
			// the unread remainder against the server's ERROR answer.
			client.SetDeadline(time.Now().Add(5 * time.Second))
			go client.Write(frameWithVersion(v, protocol.TypeMuxHello,
				protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4}).Payload))

			// The server answers a clean ERROR naming the version problem,
			// framed in the one version it speaks — a real foreign reader
			// rejects that with its own ErrVersion, which is still a clean
			// handshake failure, not a misparse — so the test reads it
			// version-agnostically.
			version, typ, payload := readFrameAnyVersion(t, client)
			if version != protocol.Version {
				t.Fatalf("server answered with version %d, speaking %d", version, protocol.Version)
			}
			if typ != protocol.TypeError {
				t.Fatalf("server answered %v, want ERROR", typ)
			}
			if !strings.Contains(string(payload), "version") {
				t.Fatalf("error %q does not name the version problem", payload)
			}
			wg.Wait()
			if serveErr == nil || !errors.Is(serveErr, protocol.ErrVersion) {
				t.Fatalf("server error = %v, want ErrVersion", serveErr)
			}
		})
	}
}

func TestCrossVersionServerIsTerminalOnFirstDial(t *testing.T) {
	for _, v := range foreignVersions {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			defer checkGoroutines(t)()
			info, _ := testContent(t, 60, 32)

			// A simulated foreign-version server: reads whatever handshake
			// arrives, then answers an ERROR in its own framing — what a
			// real one does when it sees our version byte. The session must
			// surface ErrVersion terminally: one dial, no retry in any
			// other framing, no redial burn.
			var dials atomic.Int32
			dial := func(addr string) (net.Conn, error) {
				dials.Add(1)
				client, server := net.Pipe()
				go func() {
					defer server.Close()
					server.SetDeadline(time.Now().Add(5 * time.Second))
					buf := make([]byte, 512)
					if _, err := server.Read(buf); err != nil {
						return
					}
					server.Write(frameWithVersion(v, protocol.TypeError,
						[]byte(fmt.Sprintf("unsupported protocol version (speaking %d)", v))))
				}()
				return client, nil
			}

			res, err := Fetch([]string{"foreign-server"}, info.ID, FetchOptions{
				Timeout:          5 * time.Second,
				MaxReconnects:    4,
				ReconnectBackoff: time.Millisecond,
				Dial:             dial,
			})
			if err == nil {
				t.Fatalf("cross-version fetch succeeded?! completed=%v", res.Completed)
			}
			if !errors.Is(err, protocol.ErrVersion) {
				t.Fatalf("err = %v, want ErrVersion in the chain", err)
			}
			if res != nil {
				for _, p := range res.Peers {
					if p.Err == nil || !errors.Is(p.Err, protocol.ErrVersion) {
						t.Fatalf("session error = %v, want ErrVersion", p.Err)
					}
				}
			}
			if got := dials.Load(); got != 1 {
				t.Fatalf("dialed %d times, want exactly 1 (terminal, no fallback framing)", got)
			}
		})
	}
}

// TestLegacyHelloGetsCleanError pins the single front door: a
// current-version peer that opens with its content hello bare — an
// OPEN_CHANNEL with no MUX_HELLO ahead of it, all the pre-fabric
// dedicated-connection handshake amounted to — is answered with a clean
// ERROR and dropped: the mux accepts a MUX_HELLO and nothing else.
func TestLegacyHelloGetsCleanError(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 60, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	mux := front(srv)
	reg := observe(mux)
	client, server := net.Pipe()
	defer client.Close()
	served := make(chan error, 1)
	go func() {
		served <- mux.ServeConn(server)
		server.Close()
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if err := protocol.WriteFrame(client, protocol.EncodeOpenChannel(1, protocol.Hello{ContentID: info.ID, Batch: 64, Depth: 8})); err != nil {
		t.Fatal(err)
	}
	f, err := protocol.ReadFrame(client)
	if err != nil {
		t.Fatalf("no clean answer to a bare hello: %v", err)
	}
	if msg, _ := protocol.DecodeError(f); f.Type != protocol.TypeError || !strings.Contains(msg, "MUX_HELLO") {
		t.Fatalf("answer = %v %q, want an ERROR naming MUX_HELLO", f.Type, msg)
	}
	if err := <-served; err == nil {
		t.Fatal("bare-hello connection served")
	}
	if got := reg.Counter("serve.connections").Value(); got != 0 {
		t.Fatalf("bare hello reached the content server (%d sessions)", got)
	}
}
