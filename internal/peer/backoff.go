package peer

// backoff.go holds the redial pacing: the pure jittered exponential
// delay the session loop sleeps between redials. What ends the loop
// against a dead address is MaxReconnects or the PenaltyBox (every
// failed dial charges PenaltyDialFail; a banned address is not redialed)
// — session.run holds both checks.

import "time"

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
