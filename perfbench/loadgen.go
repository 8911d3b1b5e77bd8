package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; tests substitute a fake.
type clock interface {
	// Now is the time since an arbitrary fixed origin.
	Now() time.Duration
	// SleepUntil returns once Now() >= t (possibly later: timer lateness).
	SleepUntil(t time.Duration)
}

type realClock struct{ origin time.Time }

func newRealClock() realClock { return realClock{origin: time.Now()} }

func (c realClock) Now() time.Duration { return time.Since(c.origin) }

func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one open-loop request. Latency runs from due, the time the
// schedule wanted the request sent, so a stall also charges the wait
// it imposes on every request scheduled behind it (no coordinated
// omission).
type sample struct {
	due, sent, done time.Duration
	// timerLate is how late the generator's own timer fired; it is
	// recorded (hasLate) only when the connection was free at due. A
	// request that waited for its connection instead pays that wait in
	// its latency, not here.
	timerLate time.Duration
	hasLate   bool
	ok        bool
}

func (s sample) latency() time.Duration { return s.done - s.due }

// every returns the due times start, start+interval, ... before until.
func every(start, interval, until time.Duration) []time.Duration {
	var due []time.Duration
	for t := start; t < until; t += interval {
		due = append(due, t)
	}
	return due
}

// openLoop issues request i at due[i] (due is ascending), on one
// connection: do(i) performs request i and reports whether it
// succeeded.
func openLoop(c clock, due []time.Duration, do func(i int) bool) []sample {
	out := make([]sample, 0, len(due))
	for i, d := range due {
		s := sample{due: d}
		if c.Now() <= d {
			c.SleepUntil(d)
			s.timerLate = c.Now() - d
			s.hasLate = true
		}
		s.sent = c.Now()
		s.ok = do(i)
		s.done = c.Now()
		out = append(out, s)
	}
	return out
}

// cycle is the placer's KS test period (core.DefaultESharingConfig's
// TestEvery): one test runs on every cycle-th accepted placement.
const cycle = 100

// closedResult is what closedLoop measured.
type closedResult struct {
	// cycles holds the duration of each whole KS cycle: the time
	// between consecutive placements whose server count is a multiple
	// of cycle.
	cycles []time.Duration
}

// closedLoop keeps conns requests in flight until until has passed and
// the loop has seen at least two KS-cycle boundaries, stopping at a
// boundary (or at limit). base is the server's placement count before
// the phase; next sends one placement and reports whether the server
// accepted it.
func closedLoop(c clock, conns int, base int64, until, limit time.Duration, next func() bool) closedResult {
	var (
		mu    sync.Mutex
		count = base
		last  time.Duration
		seen  bool
		res   closedResult
		stop  atomic.Bool
	)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ok := next()
				now := c.Now()
				mu.Lock()
				if ok {
					count++
					if count%cycle == 0 {
						if seen {
							res.cycles = append(res.cycles, now-last)
						}
						last, seen = now, true
						if now >= until && len(res.cycles) > 0 {
							stop.Store(true)
						}
					}
				}
				if now >= limit {
					stop.Store(true)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}
