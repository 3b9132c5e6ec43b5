package peer

// backoff_test.go pins the redial pacing machinery with a synthetic
// clock only — no test here ever sleeps. redialDelay is a pure function
// checked against a table; the PenaltyBox's decay and ban are driven by
// swapping its `now` hook.

import (
	"fmt"
	"testing"
	"time"
)

func TestRedialDelayTable(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	cases := []struct {
		name    string
		attempt int
		base    time.Duration
		max     time.Duration
		jitter  float64
		want    time.Duration
	}{
		{"zero base disables backoff", 5, 0, max, 0.9, 0},
		{"attempt 0, no jitter = base/2", 0, base, max, 0, base / 2},
		{"attempt 0, full jitter ~ 3/2 base", 0, base, max, 0.999, base/2 + time.Duration(0.999*float64(base))},
		{"attempt 1 doubles", 1, base, max, 0, base},
		{"attempt 2 doubles again", 2, base, max, 0, 2 * base},
		{"attempt 10 capped at max/2", 10, base, max, 0, max / 2},
		{"jitter cannot exceed max", 10, base, max, 0.999, max},
		{"max<=0 falls back to base", 3, base, 0, 0, base / 2},
		{"negative attempt treated as 0", -1, base, max, 0, base / 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := redialDelay(c.attempt, c.base, c.max, c.jitter); got != c.want {
				t.Fatalf("redialDelay(%d, %v, %v, %v) = %v, want %v",
					c.attempt, c.base, c.max, c.jitter, got, c.want)
			}
		})
	}
}

func TestRedialDelayJitterRange(t *testing.T) {
	// Over the whole jitter domain the delay must stay in [d/2, min(3d/2, max)).
	const base, max = 8 * time.Millisecond, time.Second
	for attempt := 0; attempt < 6; attempt++ {
		d := base << attempt
		for _, j := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			got := redialDelay(attempt, base, max, j)
			lo, hi := d/2, d/2+d
			if hi > max {
				hi = max
			}
			if got < lo || got > hi {
				t.Fatalf("attempt %d jitter %v: delay %v outside [%v, %v]", attempt, j, got, lo, hi)
			}
		}
	}
}

// brokenClock drives a PenaltyBox through synthetic time.
type brokenClock struct{ t time.Time }

func (c *brokenClock) now() time.Time                   { return c.t }
func (c *brokenClock) advance(d time.Duration)          { c.t = c.t.Add(d) }
func newBrokenClock() *brokenClock                      { return &brokenClock{t: time.Unix(1000, 0)} }
func installPenaltyClock(p *PenaltyBox, c *brokenClock) { p.now = c.now }

func TestPenaltyBoxDecayAndBan(t *testing.T) {
	clk := newBrokenClock()
	p := NewPenaltyBox()
	installPenaltyClock(p, clk)
	p.SetPolicy(10*time.Second, 6.0)

	// Two corrupt frames land exactly at the ban threshold.
	p.Penalize("evil", PenaltyCorrupt)
	if p.Banned("evil") {
		t.Fatal("one corrupt frame must not ban")
	}
	p.Penalize("evil", PenaltyCorrupt)
	if !p.Banned("evil") {
		t.Fatal("score 6.0 at threshold 6.0 must ban")
	}

	// One half-life halves the score: 3.0, unbanned but remembered.
	clk.advance(10 * time.Second)
	if p.Banned("evil") {
		t.Fatal("decayed score must lift the ban")
	}
	if got := p.Score("evil"); got < 2.99 || got > 3.01 {
		t.Fatalf("score after one half-life = %v, want ~3.0", got)
	}

	// Fresh offenses stack on the decayed remainder, not the original.
	p.Penalize("evil", PenaltyCorrupt)
	if !p.Banned("evil") {
		t.Fatal("3.0 decayed + 3.0 fresh = 6.0 must re-ban")
	}
}

func TestPenaltyBoxUnknownAndNil(t *testing.T) {
	var nilBox *PenaltyBox
	if nilBox.Penalize("a", 5) != 0 || nilBox.Score("a") != 0 || nilBox.Banned("a") || nilBox.Len() != 0 {
		t.Fatal("nil box must be inert")
	}
	p := NewPenaltyBox()
	if p.Score("unknown") != 0 || p.Banned("unknown") {
		t.Fatal("unknown address must have zero score")
	}
	if p.Penalize("", PenaltyCorrupt) != 0 || p.Len() != 0 {
		t.Fatal("empty address must be ignored")
	}
}

func TestPenaltyBoxBoundedEviction(t *testing.T) {
	clk := newBrokenClock()
	p := NewPenaltyBox()
	installPenaltyClock(p, clk)

	// Overfill with distinct addresses: the box must never exceed its
	// cap, and the heaviest offender must survive the churn.
	p.Penalize("heavy", 100)
	for i := 0; i < maxPenaltyEntries+50; i++ {
		p.Penalize(fmt.Sprintf("addr-%d", i), PenaltyDialFail)
	}
	if p.Len() > maxPenaltyEntries {
		t.Fatalf("box holds %d entries, cap %d", p.Len(), maxPenaltyEntries)
	}
	if p.Score("heavy") < 50 {
		t.Fatalf("heaviest offender evicted (score %v)", p.Score("heavy"))
	}
}
