package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: SleepUntil jumps to the target
// plus a fixed timer lateness, and requests advance it by their service
// time.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Duration
	late time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t <= t {
		c.t = t + c.late
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	ms := time.Millisecond
	c := &fakeClock{late: 100 * time.Microsecond}
	// Requests due every 10 ms; request 2 stalls for 35 ms, the others
	// take 1 ms.
	service := func(i int) time.Duration {
		if i == 2 {
			return 35 * ms
		}
		return ms
	}
	ss := openLoop(c, every(0, 10*ms, 60*ms), func(i int) bool {
		c.advance(service(i))
		return true
	})
	if len(ss) != 6 {
		t.Fatalf("%d samples, want 6 (due 0..50 ms)", len(ss))
	}
	// Request 2 is due at 20 ms, fires 0.1 ms late and ends at 55.1 ms.
	// Requests 3, 4 and 5 were due at 30, 40 and 50 ms while the
	// connection was busy: they go out back to back at 55.1, 56.1 and
	// 57.1 ms, and the stall counts in their latency from the due time.
	us := time.Microsecond
	want := []time.Duration{1100 * us, 1100 * us, 35100 * us, 26100 * us, 17100 * us, 8100 * us}
	for i, s := range ss {
		if s.latency() != want[i] {
			t.Errorf("request %d latency %v, want %v", i, s.latency(), want[i])
		}
	}
	// Timer lateness is recorded only when the connection was free at
	// the due time: requests 0-2, never the ones that waited.
	for i, s := range ss {
		if wantLate := i <= 2; s.hasLate != wantLate {
			t.Errorf("request %d hasLate %v, want %v", i, s.hasLate, wantLate)
		}
		if s.hasLate && s.timerLate != 100*time.Microsecond {
			t.Errorf("request %d timer lateness %v", i, s.timerLate)
		}
	}
	if d := lateness(ss); d.n() != 3 || d.p50() != 0.1 {
		t.Errorf("lateness n=%d p50=%v ms, want 3 samples of 0.1 ms", d.n(), d.p50())
	}
}

func TestClosedLoopWindowCoversWholeCycles(t *testing.T) {
	c := &fakeClock{}
	// One connection; every placement takes 1 ms except each
	// cycle-th (by server count), which takes 100 ms.
	count := int64(250) // server count before the phase
	res := closedLoop(c, 1, count, 500*time.Millisecond, time.Hour, func() bool {
		count++
		if count%cycle == 0 {
			c.advance(100 * time.Millisecond)
		} else {
			c.advance(time.Millisecond)
		}
		return true
	})
	// Boundaries at 300, 400, 500, ...: the loop stops at the first
	// boundary at or after 500 ms, having timed at least one cycle.
	if len(res.cycles) == 0 {
		t.Fatal("no whole cycle timed")
	}
	perCycle := 99*time.Millisecond + 100*time.Millisecond
	for i, d := range res.cycles {
		if d != perCycle {
			t.Errorf("cycle %d took %v, want %v", i, d, perCycle)
		}
	}
	if want := int64(300 + len(res.cycles)*cycle); count != want {
		t.Errorf("stopped at placement %d, want %d (the boundary closing the last timed cycle)", count, want)
	}
}

func TestReadScheduleOperatorPollsAndRiderMap(t *testing.T) {
	s := time.Second
	rs := mix{mapRate: 2}.reads(0, 31*s)
	var polls, views int
	for i, r := range rs {
		if i > 0 && r.due < rs[i-1].due {
			t.Fatalf("read %d due %v before read %d due %v", i, r.due, i-1, rs[i-1].due)
		}
		switch r.path {
		case "/v1/stats", "/metrics":
			if r.due%operatorEvery != 0 {
				t.Errorf("operator poll %s at %v, off the %v interval", r.path, r.due, operatorEvery)
			}
			polls++
		case "/v1/stations":
			views++
		}
	}
	// Polls at 0, 15 and 30 s, each /v1/stats plus /metrics; the rider
	// map every 500 ms.
	if polls != 6 || views != 62 {
		t.Errorf("%d operator reads and %d rider-map views, want 6 and 62", polls, views)
	}
	if n := len(mix{}.reads(0, 10*s)); n != 2 {
		t.Errorf("no rider map: %d reads in 10 s, want the two polls at 0 s", n)
	}
}
