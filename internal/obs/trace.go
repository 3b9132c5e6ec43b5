package obs

// trace.go is the lifecycle tracer: a bounded ring of recent events.
// Writers never block beyond a short O(1) critical section and a full
// ring overwrites oldest-first, so tracing is safe to leave on in
// session hot paths; readers get an ordered copy.

import (
	"sync"
	"time"
)

// DefaultTraceCapacity is the ring size NewRegistry attaches.
const DefaultTraceCapacity = 1024

// Trace event names recorded by the engine, grouped by subsystem.
// Subjects are peer addresses for session/gossip events, channel ids
// for fabric events and content ids for store events.
const (
	// EvDial through EvBan are session lifecycle transitions.
	EvDial      = "session.dial"
	EvDialFail  = "session.dial_fail"
	EvHandshake = "session.handshake"
	EvRedial    = "session.redial"
	EvStall     = "session.stall"
	EvBan       = "session.ban"
	EvEvict     = "session.evict"

	// EvChanOpen and EvChanClose are fabric subchannel events.
	EvChanOpen  = "channel.open"
	EvChanClose = "channel.close"

	// EvStoreAdmit and EvStoreEvict are content-store transitions.
	EvStoreAdmit = "store.admit"
	EvStoreEvict = "store.evict"

	// EvGossipAdmit through EvGossipPromote are discovery admissions.
	EvGossipAdmit   = "gossip.admit"
	EvGossipDefer   = "gossip.defer"
	EvGossipPromote = "gossip.promote"
)

// Event is one traced lifecycle transition.
type Event struct {
	// Seq is the event's global sequence number (0-based, never
	// reused); gaps in a snapshot mean the ring overwrote.
	Seq uint64
	// Time is the wall-clock instant the event was traced.
	Time time.Time
	// Event names the transition (see the Ev* catalog).
	Event string
	// Subject is what the event happened to (peer address, channel id,
	// content id).
	Subject string
	// Detail carries optional context (error text, window sizes).
	Detail string
}

// Tracer is a bounded ring buffer of Events. All methods are safe for
// concurrent use and nil-safe; a full ring overwrites the oldest entry
// rather than blocking or dropping the new one.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever traced
}

// NewTracer builds a ring holding the last capacity events (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Trace records one event. Never blocks beyond the ring's own mutex
// (held for one slot assignment); no-op on nil.
func (t *Tracer) Trace(event, subject, detail string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.buf[t.next%uint64(len(t.buf))] = Event{
		Seq:     t.next,
		Time:    now,
		Event:   event,
		Subject: subject,
		Detail:  detail,
	}
	t.next++
	t.mu.Unlock()
}

// Seq returns the total number of events ever traced (including those
// the ring has since overwritten).
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Cap returns the ring capacity (0 on nil).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Events returns the retained events oldest-first. The slice is a
// copy; sequence numbers are contiguous and end at Seq()-1.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.buf))
	start := uint64(0)
	if t.next > size {
		start = t.next - size
	}
	out := make([]Event, 0, t.next-start)
	for s := start; s < t.next; s++ {
		out = append(out, t.buf[s%size])
	}
	return out
}
