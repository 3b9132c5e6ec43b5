package peer

import "slices"

// slabSize is a symbolLog's first slab, and maxSlab the largest it makes
// for payloads that fit one: each new slab is as large as every earlier
// one together, so a fetch's working set costs about ten allocations (a
// k=4096 fetch of 1400 B symbols: 64 KiB, 64 KiB, 128 KiB, … 1 MiB, 1 MiB,
// …). The cap is measured: with slabs of up to 4 MiB, or one for the
// whole fetch, partial_swarm read more duplicates per fetch, and with
// 1 MiB it did not — likely because a fold zeroes a fresh slab under the
// orchestrator's lock, where the other sessions' folds wait.
const (
	slabSize = 64 << 10
	maxSlab  = 1 << 20
)

// symbolLog is a working set of encoded symbols as an append-only log:
// distinct ids in the order they became known, payloads index-aligned,
// and an index from id to position. An entry once written is never
// written again and the log only grows at its end, which is what makes a
// prefix of it (WorkingSet) a stable view, readable while the log keeps
// growing, and its length its version. A fixed one is a static partial
// sender's working set (NewPartialServer); an Orchestrator's grows under
// its lock as sessions fold arrivals in. Not safe for concurrent use.
//
// What arrives the log owns: add copies each payload into the free tail of
// the current slab, and a payload is a view of its slab clipped to its own
// length, so an append to one cannot write the next. A slab lives as long
// as any payload in it does, so one kept payload can keep up to 1 MiB
// alive. What a caller hands over up front (adopt) it keeps as the
// caller's own, clipped the same way, and copies nothing of.
type symbolLog struct {
	// index maps id -> position, made for room entries. It is built at the
	// first add or reserve, and again only by a reserve for more: an
	// Orchestrator builds it once, at the handshake's reserve, and a log
	// that only adopts and is read by position never builds one.
	index    map[uint64]int
	room     int
	ids      []uint64
	payloads [][]byte
	slab     []byte // the current slab: payloads so far, then free capacity
	slabbed  int    // the bytes of every slab made so far
}

// adopt lays an empty log out from a caller's working set, in id order,
// not map order, so one set gives one log. It copies no payload: each
// stays the caller's backing array, clipped to its own length, and the
// caller must not modify it while the log is in use.
func (l *symbolLog) adopt(symbols map[uint64][]byte) {
	l.ids = sortedIDs(symbols)
	l.payloads = make([][]byte, len(l.ids))
	for pos, id := range l.ids {
		p := symbols[id]
		l.payloads[pos] = p[:len(p):len(p)]
	}
}

// indexed builds the index for n entries, unless it has the room.
func (l *symbolLog) indexed(n int) {
	if l.index != nil && n <= l.room {
		return
	}
	l.room = max(n, len(l.ids))
	l.index = make(map[uint64]int, l.room)
	for pos, id := range l.ids {
		l.index[id] = pos
	}
}

// add appends a copy of payload under id and reports where the log holds
// id and whether it already did; an id the log already holds is left as
// it is, and nothing is copied.
func (l *symbolLog) add(id uint64, payload []byte) (pos int, held bool) {
	l.indexed(0)
	if pos, held = l.index[id]; held {
		return pos, true
	}
	pos = l.push(id, payload)
	l.index[id] = pos
	return pos, false
}

// push appends a copy of payload under id at the log's end and returns
// its position, without the index: a log of ids that cannot repeat (a
// full sender's cached stream prefix) is read by position only and never
// builds one. A log with an index keeps it through add.
func (l *symbolLog) push(id uint64, payload []byte) int {
	n := len(payload)
	if cap(l.slab)-len(l.slab) < n {
		l.slab = make([]byte, 0, max(min(max(l.slabbed, slabSize), maxSlab), n))
		l.slabbed += cap(l.slab)
	}
	at := len(l.slab)
	l.slab = append(l.slab, payload...)
	l.ids = append(l.ids, id)
	l.payloads = append(l.payloads, l.slab[at:at+n:at+n])
	return len(l.ids) - 1
}

// sortedIDs returns the ids of m in ascending order, in one allocation.
func sortedIDs(m map[uint64][]byte) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// reserve makes room for n entries in all, so the log does not regrow or
// rehash on its way there. Views already taken keep the storage they have.
func (l *symbolLog) reserve(n int) {
	l.indexed(n)
	n = max(n-len(l.ids), 0)
	l.ids = slices.Grow(l.ids, n)
	l.payloads = slices.Grow(l.payloads, n)
}

// WorkingSet implements WorkingSetSource: the log as it stands. O(1): both
// slices share the log's storage, clipped to their length, and stay valid
// and unchanged however far the log grows afterwards; the caller must not
// write through them. A view taken under the caller's lock may be read
// outside it.
func (l *symbolLog) WorkingSet() (ids []uint64, payloads [][]byte) {
	n := len(l.ids)
	return l.ids[:n:n], l.payloads[:n:n]
}
