package peer

// peel.go is the second half of the receive pipeline. The decode loop
// (orchestrator.go) does the cheap half — folding arrivals into the
// working set under o.mu, which is what summaries, progress and the live
// server read — and queues each newly known encoded symbol here; the
// peel stage's one goroutine owns the fountain decoder outright and does
// the XOR work. The queue is unbounded on purpose: the fold must never
// wait behind XOR work (a stale working set means stale summaries, and
// senders then spend transmissions on symbols the receiver already
// holds), and the backlog cannot outgrow the working set, whose payloads
// the queued symbols merely point at.

import (
	"sync"

	"icd/internal/fountain"
)

// peelStage feeds a fountain.Decoder from a FIFO of symbols, on its own
// goroutine. Symbols are decoded strictly in push order and decoding
// stops at the symbol that completes the content, so the decoder's
// overhead is exactly what the same id sequence costs a bare decoder.
type peelStage struct {
	// dec belongs to the run goroutine until exited closes; callers read
	// it only after stop.
	dec *fountain.Decoder

	mu       sync.Mutex
	cond     sync.Cond         // queue filled or stopped (wakes run); queue drained (wakes settling pushers)
	queue    []fountain.Symbol // pushed, not yet taken by run
	busy     bool              // run is decoding a batch it took
	complete bool              // the decoder finished the content
	err      error             // the decoder rejected a symbol
	stopped  bool
	exited   chan struct{}
}

// ended reports that decoding is over, one way or the other: later pushes
// are dropped. Callers hold p.mu.
func (p *peelStage) ended() bool { return p.complete || p.err != nil }

// newPeelStage builds a stage around dec. The caller starts its
// goroutine (go p.run()) and ends it with stop.
func newPeelStage(dec *fountain.Decoder) *peelStage {
	p := &peelStage{dec: dec, exited: make(chan struct{})}
	p.cond.L = &p.mu
	return p
}

// push queues syms (copied: the caller may reuse the slice; the payloads
// they point at must stay immutable) and returns at once, unless settle
// asks it to wait until everything queued so far has been decoded. It
// reports whether the content is complete, and the decoder's error if it
// failed; both are current as of the last settled push. push and stop
// belong to one goroutine, the stage's feeder.
func (p *peelStage) push(syms []fountain.Symbol, settle bool) (complete bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ended() && len(syms) > 0 {
		p.queue = append(p.queue, syms...)
		p.cond.Broadcast()
	}
	for settle && !p.ended() && (p.busy || len(p.queue) > 0) {
		p.cond.Wait()
	}
	return p.complete, p.err
}

// run is the stage goroutine: take everything queued, decode it outside
// the lock, repeat.
func (p *peelStage) run() {
	defer close(p.exited)
	var work []fountain.Symbol
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.queue) == 0 && !p.stopped {
			p.cond.Wait()
		}
		if p.stopped {
			return
		}
		work, p.queue = p.queue, work[:0]
		p.busy = true
		p.mu.Unlock()
		err := p.decode(work)
		p.mu.Lock()
		p.busy = false
		p.err = err
		p.complete = err == nil && p.dec.Done()
		p.cond.Broadcast()
		if p.ended() {
			p.queue = nil
			return
		}
	}
}

// decode feeds work to the decoder in order, stopping at the symbol that
// completes the content.
func (p *peelStage) decode(work []fountain.Symbol) error {
	for _, sym := range work {
		if _, err := p.dec.AddSymbol(sym); err != nil {
			return err
		}
		if p.dec.Done() {
			return nil
		}
	}
	return nil
}

// stop ends the stage goroutine, dropping whatever is still queued, and
// returns once it has exited: from then on the caller owns dec.
func (p *peelStage) stop() {
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.exited
}
