package netcast

import "time"

// Admission is decided here, on the uplink, and nowhere else: a per-connection
// token bucket built from ServerConfig.UplinkRate and UplinkBurst sheds floods
// before any work, and the ledger (engine.Ledger.Admit) refuses a request while
// the pending set holds ServerConfig.MaxPending. A pending-cap reject tells the
// client to retry after one cycle interval, when the next cycle retires work.

// tokenBucket is a per-uplink-connection rate limiter. Each query costs one
// token; tokens refill at rate per second up to burst. Used by a single
// goroutine, so no locking.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int, now time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// take spends one token if available and returns 0; otherwise it returns how
// long until the next token accrues (the retry-after hint).
func (b *tokenBucket) take(now time.Time) time.Duration {
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
