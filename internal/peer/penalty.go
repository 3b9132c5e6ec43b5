package peer

// penalty.go is the misbehavior-containment half of gossip admission: a
// PenaltyBox holds a decaying score per peer address, fed by every
// failure class a node observes — dials that never connect, connections
// that reset mid-stream, sessions that stall, frames that arrive
// corrupt. Scores decay exponentially (a peer that behaved badly an
// hour ago is not the peer it is now), and an address whose current
// score crosses the ban threshold is excluded from admission: the
// orchestrator's considerDiscovered refuses it, promotion from the
// directory skips it, and a ServerMux holding the box rejects its
// inbound connections at accept. One box is shared node-wide (like the Gossip
// directory), so misbehavior seen on any plane — client or server —
// feeds one verdict.
//
// Keys are peer addresses as the observing plane knows them. The dial
// plane and gossip admission use the dialable address (host:port over
// TCP, a bare endpoint name on pipe transports). The inbound plane
// keys by the connection's remote host — the only identity an
// unauthenticated inbound connection proves — plus, once a client's
// HELLO advertises a listen address whose host matches the connection
// (verifiedListenAddr), that dialable address too, which is what
// bridges server-plane observations into dial-plane and gossip
// verdicts. An advertised address that fails verification is never
// charged or ban-checked: it is attacker-controlled.

import (
	"math"
	"sync"
	"time"
)

// Penalty weights for the failure classes the engine observes. A ban
// (DefaultBanScore) takes e.g. three corrupt frames, or eight failed
// dials, within one decay half-life.
const (
	// PenaltyDialFail is charged when a dial attempt never produces a
	// connection (refused or timed out). An answer from a live peer —
	// a refusal, a busy, an unknown content — is not a failed dial and is
	// not charged.
	PenaltyDialFail = 1.0
	// PenaltyReset is charged when an established connection dies
	// mid-stream — common under churn, so it weighs the least.
	PenaltyReset = 0.5
	// PenaltyStall is charged when the stall watchdog drops a session
	// that delivered no useful symbols for a whole window.
	PenaltyStall = 2.0
	// PenaltyCorrupt is charged per connection dropped over a corrupt or
	// malformed frame — the strongest misbehavior signal.
	PenaltyCorrupt = 3.0
)

// DefaultPenaltyHalfLife is the decay half-life of a peer's score.
const DefaultPenaltyHalfLife = 30 * time.Second

// DefaultBanScore is the decayed score at which an address is banned.
const DefaultBanScore = 8.0

// maxPenaltyEntries bounds the box so a flood of hostile addresses
// cannot make a node remember unbounded state; when full, the least
// guilty entry is evicted to make room.
const maxPenaltyEntries = 1024

// PenaltyBox tracks decaying misbehavior scores per peer address. The
// zero value is not usable; create with NewPenaltyBox. All methods are
// safe for concurrent use, and a nil *PenaltyBox is inert (Penalize is
// a no-op, Score is 0, Banned is false), so callers need no nil checks.
type PenaltyBox struct {
	mu       sync.Mutex
	now      func() time.Time // injectable clock (tests decay synthetically)
	halfLife time.Duration
	banScore float64
	entries  map[string]*penaltyEntry
}

type penaltyEntry struct {
	score   float64
	updated time.Time
}

// NewPenaltyBox creates a box with the default half-life and ban
// threshold.
func NewPenaltyBox() *PenaltyBox {
	return &PenaltyBox{
		now:      time.Now,
		halfLife: DefaultPenaltyHalfLife,
		banScore: DefaultBanScore,
		entries:  make(map[string]*penaltyEntry),
	}
}

// SetPolicy overrides the decay half-life and ban threshold (zero or
// negative arguments keep the current value). Call before sharing the
// box.
func (p *PenaltyBox) SetPolicy(halfLife time.Duration, banScore float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if halfLife > 0 {
		p.halfLife = halfLife
	}
	if banScore > 0 {
		p.banScore = banScore
	}
}

// decayLocked brings an entry's score to the present.
func (p *PenaltyBox) decayLocked(e *penaltyEntry, now time.Time) {
	if age := now.Sub(e.updated); age > 0 {
		e.score *= math.Exp2(-float64(age) / float64(p.halfLife))
		e.updated = now
	}
}

// Penalize adds weight to addr's decayed score and returns the new
// score. Empty addresses are ignored.
func (p *PenaltyBox) Penalize(addr string, weight float64) float64 {
	if p == nil || addr == "" || weight <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	e := p.entries[addr]
	if e == nil {
		if len(p.entries) >= maxPenaltyEntries {
			p.evictLowestLocked(now)
		}
		e = &penaltyEntry{updated: now}
		p.entries[addr] = e
	}
	p.decayLocked(e, now)
	e.score += weight
	return e.score
}

// evictLowestLocked drops the entry with the lowest decayed score (and
// any entry decayed to noise) to make room for a new offender.
func (p *PenaltyBox) evictLowestLocked(now time.Time) {
	var victim string
	lowest := math.Inf(1)
	for addr, e := range p.entries {
		p.decayLocked(e, now)
		if e.score < 0.05 {
			delete(p.entries, addr)
			continue
		}
		if e.score < lowest {
			victim, lowest = addr, e.score
		}
	}
	if len(p.entries) >= maxPenaltyEntries && victim != "" {
		delete(p.entries, victim)
	}
}

// Score returns addr's current decayed score (0 when unknown).
func (p *PenaltyBox) Score(addr string) float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[addr]
	if e == nil {
		return 0
	}
	p.decayLocked(e, p.now())
	return e.score
}

// Banned reports whether addr's decayed score is at or past the ban
// threshold — the admission-plane verdict.
func (p *PenaltyBox) Banned(addr string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[addr]
	if e == nil {
		return false
	}
	p.decayLocked(e, p.now())
	return e.score >= p.banScore
}

// BannedCount returns the number of addresses whose decayed score is
// currently at or past the ban threshold — the quantity a node-level
// gauge reports.
func (p *PenaltyBox) BannedCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	n := 0
	for _, e := range p.entries {
		p.decayLocked(e, now)
		if e.score >= p.banScore {
			n++
		}
	}
	return n
}

// Len returns the number of addresses with a recorded score.
func (p *PenaltyBox) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
