package peer

// peel.go is the second half of the receive path. The fold
// (Orchestrator.fold, on each session's goroutine) does the cheap half —
// putting an arrival into the working set under o.mu, which is what
// summaries, progress and the live server read — and announces the log's
// new length here; the peel stage's one goroutine owns the fountain
// decoder outright and does the XOR work. The stage is a cursor on the
// working set's append-only log, like every other reader of it, so it
// holds no symbols of its own and its backlog is just the distance
// between its cursor and the log's end. It hands the decoder the log's
// own payloads: the decoder keeps the ones it buffers by reference and
// never writes them, which the log allows because it never rewrites an
// entry, so a payload is copied once on the whole receive path (by the
// fold) and read at most once more, into the block it resolves. The fold does not wait for it
// (a stale working set means stale summaries, and senders then spend
// transmissions on symbols the receiver already holds) until the log
// holds n symbols and completion becomes possible.

import (
	"sync"

	"icd/internal/fountain"
)

// peelStage feeds a fountain.Decoder from the working set's log, on its
// own goroutine. Symbols are decoded strictly in log order and decoding
// stops at the symbol that completes the content, so the decoder's
// overhead is exactly what the same id sequence costs a bare decoder.
type peelStage struct {
	log func() (ids []uint64, payloads [][]byte) // the log as it stands; called outside mu
	end func()                                   // called once, when decoding ends itself

	mu   sync.Mutex
	cond sync.Cond // something to decode, or stopped (wakes run); cursor moved or decoding ended (wakes settlers)
	// dec is handed over once (setDecoder) and belongs to the run
	// goroutine until exited closes; callers read it only after stop.
	dec      *fountain.Decoder
	next     int   // the cursor: log entries before it have been decoded
	target   int   // the longest log length announced
	complete bool  // the decoder finished the content
	err      error // a symbol was rejected
	stopped  bool
	exited   chan struct{}
}

// ended reports that decoding is over, one way or the other: the cursor
// moves no further. Callers hold p.mu.
func (p *peelStage) ended() bool { return p.complete || p.err != nil }

// newPeelStage builds a stage over the log that log views. It decodes
// nothing until it has a decoder (setDecoder) and its goroutine runs (go
// p.run(), ended with stop). end is called once if decoding ends itself:
// the content completed, or a symbol was rejected.
func newPeelStage(log func() ([]uint64, [][]byte), end func()) *peelStage {
	p := &peelStage{log: log, end: end, exited: make(chan struct{})}
	p.cond.L = &p.mu
	return p
}

// setDecoder hands the stage its decoder, once.
func (p *peelStage) setDecoder(dec *fountain.Decoder) {
	p.mu.Lock()
	p.dec = dec
	p.cond.Broadcast()
	p.mu.Unlock()
}

// announce tells the stage the log now holds n entries and returns at
// once, unless settle asks it to wait until the cursor has reached
// everything announced so far (it does not wait on a stage that cannot
// decode: no decoder yet, or stopped). It reports whether the content is
// complete, and the error if a symbol was rejected. Any goroutine may
// call it, but not under the lock log takes.
func (p *peelStage) announce(n int, settle bool) (complete bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.target {
		p.target = n
		p.cond.Broadcast()
	}
	for settle && p.dec != nil && !p.stopped && !p.ended() && p.next < p.target {
		p.cond.Wait()
	}
	return p.complete, p.err
}

// endLocked records how decoding ended (nil: the content completed) and
// calls the end hook — before it wakes the settlers, so what they do next
// already sees what the hook did. Callers hold p.mu.
func (p *peelStage) endLocked(err error) {
	p.err, p.complete = err, err == nil
	p.end()
	p.cond.Broadcast()
}

// run is the stage goroutine: take the stretch of log between the cursor
// and the target, decode it outside the lock, repeat.
func (p *peelStage) run() {
	defer close(p.exited)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !p.stopped && !p.ended() && (p.dec == nil || p.next >= p.target) {
			p.cond.Wait()
		}
		if p.stopped || p.ended() {
			return
		}
		from, to := p.next, p.target
		p.mu.Unlock()
		ids, payloads := p.log()
		err := p.decode(ids[from:to], payloads[from:to])
		p.mu.Lock()
		p.next = to
		if err != nil || p.dec.Done() {
			p.endLocked(err)
			return
		}
		p.cond.Broadcast()
	}
}

// decode feeds a stretch of the log to the decoder in order, stopping at
// the symbol that completes the content.
func (p *peelStage) decode(ids []uint64, payloads [][]byte) error {
	for i, id := range ids {
		if _, err := p.dec.AddSymbol(fountain.Symbol{ID: id, Data: payloads[i]}); err != nil {
			return err
		}
		if p.dec.Done() {
			return nil
		}
	}
	return nil
}

// stop ends the stage goroutine, wherever its cursor stands, and returns
// once it has exited: from then on the caller owns dec.
func (p *peelStage) stop() {
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.exited
}
