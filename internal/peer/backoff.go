package peer

// backoff.go holds the redial pacing machinery: the pure jittered
// exponential delay the session loop sleeps between redials, and a
// per-address circuit Breaker that makes repeatedly failing dials fail
// *fast* — a session slot burning its redial budget against a dead
// address should spend its time sleeping, not holding dial timeouts
// open, and other sessions (or candidate promotions) asking about the
// same address should learn immediately that it is down.

import (
	"sync"
	"time"
)

// redialDelay returns the sleep before redial attempt `attempt`
// (0-based): base·2^attempt, jittered to [½d, 3/2·d) by jitter ∈ [0,1),
// then capped at max. Jitter decorrelates the redial storms of many
// sessions that lost the same peer at the same moment.
func redialDelay(attempt int, base, max time.Duration, jitter float64) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = base
	}
	d := base
	for i := 0; i < attempt; i++ {
		if d >= max {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	d = d/2 + time.Duration(jitter*float64(d))
	if d > max {
		d = max
	}
	return d
}

// Breaker is a per-address circuit breaker over dial failures. After
// `threshold` consecutive failures to one address the circuit opens:
// Allow refuses dials to it for a cooldown that doubles on every
// consecutive trip (capped at maxCooldown). When the cooldown lapses
// the circuit goes half-open — probes are allowed through — and one
// success resets the address entirely. A nil *Breaker is inert (Allow
// always true), so callers need no nil checks. An orchestrator owns one
// for its fetch (FetchOptions.BreakerThreshold): every session slot and
// candidate promotion of that fetch learns a dead address is dead from
// the first slot that paid to find out.
type Breaker struct {
	mu          sync.Mutex
	now         func() time.Time // injectable clock (tests advance synthetically)
	threshold   int
	cooldown    time.Duration
	maxCooldown time.Duration
	entries     map[string]*breakerEntry
}

type breakerEntry struct {
	fails     int // consecutive dial failures
	trips     int // consecutive opens: cooldown doubles per trip
	openUntil time.Time
}

// DefaultBreakerThreshold is the consecutive-failure count that opens a
// circuit; DefaultBreakerCooldown is the first open's duration.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
)

// maxBreakerEntries bounds the breaker map the same way
// maxPenaltyEntries bounds the penalty box: a flood of unique
// never-succeeding addresses (hostile gossip, exactly the threat this
// machinery targets) must not grow node-wide state without bound —
// entries are otherwise deleted only on a dial Success, which a dead
// address never produces.
const maxBreakerEntries = 1024

// NewBreaker creates a breaker (threshold ≤ 0 uses
// DefaultBreakerThreshold; cooldown ≤ 0 uses DefaultBreakerCooldown).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{
		now:         time.Now,
		threshold:   threshold,
		cooldown:    cooldown,
		maxCooldown: time.Minute,
		entries:     make(map[string]*breakerEntry),
	}
}

// Allow reports whether a dial to addr may proceed now: true when the
// circuit is closed or half-open (cooldown lapsed), false while open.
func (b *Breaker) Allow(addr string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[addr]
	if e == nil || e.openUntil.IsZero() {
		return true
	}
	if b.now().Before(e.openUntil) {
		return false
	}
	// Half-open: let probes through; the next Failure re-trips with a
	// doubled cooldown, a Success resets the address.
	e.openUntil = time.Time{}
	e.fails = b.threshold - 1
	return true
}

// Failure records a failed dial to addr, opening the circuit when the
// consecutive-failure count reaches the threshold.
func (b *Breaker) Failure(addr string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[addr]
	if e == nil {
		if len(b.entries) >= maxBreakerEntries {
			b.evictOneLocked()
		}
		e = &breakerEntry{}
		b.entries[addr] = e
	}
	e.fails++
	if e.fails < b.threshold {
		return
	}
	cool := b.cooldown
	for i := 0; i < e.trips && cool < b.maxCooldown; i++ {
		cool *= 2
	}
	if cool > b.maxCooldown {
		cool = b.maxCooldown
	}
	e.openUntil = b.now().Add(cool)
	e.trips++
	e.fails = 0 // the open window itself absorbs the streak
}

// evictOneLocked makes room for a new address: an entry whose open
// window lapsed more than maxCooldown ago carries only stale streak
// state and goes first; otherwise the entry with the earliest open
// deadline — closed circuits (zero deadline), then the soonest-to-expire
// open one — is dropped.
func (b *Breaker) evictOneLocked() {
	now := b.now()
	victim := ""
	var earliest time.Time
	for addr, e := range b.entries {
		if !e.openUntil.IsZero() && now.Sub(e.openUntil) > b.maxCooldown {
			delete(b.entries, addr)
			return
		}
		if victim == "" || e.openUntil.Before(earliest) {
			victim, earliest = addr, e.openUntil
		}
	}
	if victim != "" {
		delete(b.entries, victim)
	}
}

// Success records a successful dial to addr, closing and forgetting its
// circuit.
func (b *Breaker) Success(addr string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.entries, addr)
}

// Open reports whether addr's circuit is currently open (a dial would
// be refused). Unlike Allow it is a pure read: it does not move an
// expired circuit to half-open.
func (b *Breaker) Open(addr string) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[addr]
	return e != nil && !e.openUntil.IsZero() && b.now().Before(e.openUntil)
}
