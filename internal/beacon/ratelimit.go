package beacon

import (
	"sync"
	"time"
)

// TokenBucket is a classic token-bucket rate limiter: capacity `burst`
// tokens, refilled continuously at `rate` tokens per second. multicell
// guards each tenant with one, in front of routing.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewTokenBucket returns a full bucket reading time from now (nil means
// time.Now; tests inject a fake clock).
func NewTokenBucket(rate float64, burst int, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	tb := &TokenBucket{rate: rate, burst: float64(burst), now: now}
	tb.tokens = tb.burst
	tb.last = tb.now()
	return tb
}

// Allow spends one token if one is available.
func (tb *TokenBucket) Allow() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}
