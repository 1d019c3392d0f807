// Package control holds the clock behind the networked server's uplink token
// buckets and its clients' timeouts and backoff: an injectable clock with a
// deterministic fake for tests. It deliberately has no dependency on the rest
// of the repository so every layer and its tests can share one clock
// abstraction.
package control

import (
	"sync"
	"time"
)

// Clock supplies the current time and timer channels. Production code uses
// Real; tests inject a Fake and advance it explicitly, so rate limiting and
// backoff are deterministic instead of wall-clock dependent.
type Clock interface {
	// Now returns the current time in the clock's frame.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed in the clock's frame.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Or returns c, or the wall clock when c is nil — the conventional default
// for optional Clock configuration fields.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Fake is a manually advanced clock for deterministic tests. Safe for
// concurrent use: readers observe a consistent now, and Advance fires every
// timer whose deadline it reaches.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFake returns a fake clock frozen at start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After implements Clock: the returned channel fires once Advance has moved
// the clock at least d past the current fake time. A non-positive d fires
// immediately.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, fakeWaiter{at: f.now.Add(d), ch: ch})
	return ch
}

// Waiters reports how many timers are pending, so tests can wait for a
// goroutine to block on After before advancing.
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// Advance moves the clock forward by d and fires every timer whose deadline
// has been reached.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var due []fakeWaiter
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if w.at.After(now) {
			kept = append(kept, w)
		} else {
			due = append(due, w)
		}
	}
	f.waiters = kept
	f.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}
