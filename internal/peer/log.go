package peer

import (
	"maps"
	"slices"
)

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
// The log owns its payloads: add copies each into the free tail of the
// current slab, and a payload is a view of its slab clipped to its own
// length, so an append to one cannot write the next. A slab lives as long
// as any payload in it does, so one kept payload can keep up to 1 MiB
// alive.
type symbolLog struct {
	index    map[uint64]int // id -> position
	ids      []uint64
	payloads [][]byte
	slab     []byte // the current slab: payloads so far, then free capacity
	slabbed  int    // the bytes of every slab made so far
}

// add appends a copy of payload under id and reports where the log holds
// id and whether it already did; an id the log already holds is left as
// it is, and nothing is copied.
func (l *symbolLog) add(id uint64, payload []byte) (pos int, held bool) {
	if pos, held = l.index[id]; held {
		return pos, true
	}
	if l.index == nil {
		l.index = make(map[uint64]int)
	}
	n := len(payload)
	if cap(l.slab)-len(l.slab) < n {
		l.slab = make([]byte, 0, max(min(max(l.slabbed, slabSize), maxSlab), n))
		l.slabbed += cap(l.slab)
	}
	at := len(l.slab)
	l.slab = append(l.slab, payload...)
	pos = len(l.ids)
	l.index[id] = pos
	l.ids = append(l.ids, id)
	l.payloads = append(l.payloads, l.slab[at:at+n:at+n])
	return pos, false
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
	if n <= cap(l.ids) {
		return
	}
	l.ids = slices.Grow(l.ids, n-len(l.ids))
	l.payloads = slices.Grow(l.payloads, n-len(l.payloads))
	index := make(map[uint64]int, n)
	maps.Copy(index, l.index)
	l.index = index
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
