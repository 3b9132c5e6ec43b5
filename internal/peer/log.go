package peer

// symbolLog is a working set of encoded symbols as an append-only log:
// distinct ids in the order they became known, payloads index-aligned,
// and an index from id to position. An entry once written is never
// written again and the log only grows at its end, which is what makes a
// prefix of it (WorkingSet) a stable view, readable while the log keeps
// growing, and its length its version. A fixed one is a static partial
// sender's working set (NewPartialServer); an Orchestrator's grows under
// its lock as sessions fold arrivals in. Not safe for concurrent use.
type symbolLog struct {
	index    map[uint64]int // id -> position
	ids      []uint64
	payloads [][]byte
}

// add appends a symbol and keeps payload, which the caller must not write
// again; an id the log already holds is left as it is.
func (l *symbolLog) add(id uint64, payload []byte) {
	if _, held := l.index[id]; held {
		return
	}
	if l.index == nil {
		l.index = make(map[uint64]int)
	}
	l.index[id] = len(l.ids)
	l.ids = append(l.ids, id)
	l.payloads = append(l.payloads, payload)
}

// position reports where the log holds id, if it does.
func (l *symbolLog) position(id uint64) (pos int, held bool) {
	pos, held = l.index[id]
	return pos, held
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
