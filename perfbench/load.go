package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
)

// mix is one workload's traffic: open-loop placements and reads at
// fixed rates, then a closed-loop placement phase.
type mix struct {
	placeRate float64 // open-loop placements per second
	// mapRate is the open-loop rate of GET /v1/stations, the rider
	// map, per second (0: none).
	mapRate float64
}

// operatorEvery is how often the operator polls GET /metrics and
// GET /v1/stats: the global scrape_interval of the example
// prometheus.yml that ships with Prometheus (its built-in default is
// one minute).
const operatorEvery = 15 * time.Second

// openShare is the part of a run spent in the open-loop phase; the rest
// is the closed-loop phase, where every connection places.
const openShare = 0.75

// read is one scheduled open-loop read.
type read struct {
	due  time.Duration
	path string
}

// reads returns the open-loop read schedule from start to until: the
// operator's /v1/stats and /metrics polls every operatorEvery, and the
// rider map at mapRate, in due order.
func (m mix) reads(start, until time.Duration) []read {
	var rs []read
	for _, d := range every(start, operatorEvery, until) {
		rs = append(rs, read{d, "/v1/stats"}, read{d, "/metrics"})
	}
	if m.mapRate > 0 {
		for _, d := range every(start, time.Duration(float64(time.Second)/m.mapRate), until) {
			rs = append(rs, read{d, "/v1/stations"})
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].due < rs[j].due })
	return rs
}

// objective is the paper's online objective over a set of accepted
// placements.
type objective struct {
	walk           float64
	opened, placed int64
}

// perPlacement is (Σ walk + openingCost × opened) / accepted.
func (o objective) perPlacement() float64 {
	return (o.walk + openingCost*float64(o.opened)) / float64(o.placed)
}

// loadRun drives one server through a destination stream and keeps the
// generator's own counts.
type loadRun struct {
	t     *target
	clk   clock
	dests []geo.Point
	next  atomic.Int64
	// tag, when set, returns the request-id header for a placement of
	// dest (traced run only).
	tag func(dest geo.Point) string

	mu          sync.Mutex
	g           genCounts
	attempted   int64
	fails       []string
	recent      []geo.Point     // the last cycle destinations sent
	clientPlace []time.Duration // send-to-answer time of each 200 placement
}

func (l *loadRun) fail(format string, args ...any) {
	l.g.failures++
	if len(l.fails) < 5 {
		l.fails = append(l.fails, fmt.Sprintf(format, args...))
	}
}

// placeOne sends the next destination and reports whether the server
// accepted it (200), i.e. whether its placement count advanced. A
// checked decision is added to obj unless obj is nil.
func (l *loadRun) placeOne(obj *objective) bool {
	i := l.next.Add(1) - 1
	dest := l.dests[int(i)%len(l.dests)]
	hdr := ""
	if l.tag != nil {
		hdr = l.tag(dest)
	}
	t0 := time.Now()
	r, status, err := l.t.place(dest, hdr)
	el := time.Since(t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if len(l.recent) == cycle {
		l.recent = l.recent[1:]
	}
	l.recent = append(l.recent, dest)
	switch {
	case err != nil && status == 0:
		l.fail("placement %d: %v", i, err)
		return false
	case status != http.StatusOK:
		l.g.errors++
		if status == http.StatusTooManyRequests {
			l.g.shed++
		}
		l.fail("placement %d: status %d", i, status)
		return false
	}
	l.g.placed++
	if err != nil {
		l.fail("placement %d: %v", i, err)
		return true
	}
	if err := checkPlacement(dest, r); err != nil {
		l.fail("placement %d: %v", i, err)
		return true
	}
	if r.Opened {
		l.g.opened++
	}
	if obj != nil {
		obj.placed++
		obj.walk += r.WalkMeters
		if r.Opened {
			obj.opened++
		}
	}
	l.clientPlace = append(l.clientPlace, el)
	return true
}

// readOne fetches path and reports success.
func (l *loadRun) readOne(path string) bool {
	_, status, err := l.t.get(path)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	switch {
	case err != nil && status == 0:
		l.fail("GET %s: %v", path, err)
		return false
	case status != http.StatusOK:
		l.g.errors++
		l.fail("GET %s: status %d", path, status)
		return false
	case err != nil:
		l.fail("GET %s: %v", path, err)
		return false
	}
	return true
}

// phase is one serving phase's measurements.
type phase struct {
	place    []sample // open-loop placements
	stations []sample // open-loop GET /v1/stations
	others   []sample // open-loop GET /v1/stats and /metrics
	// cost is the objective over the open-loop placements: one
	// connection sends them in a fixed order, so for a given seed it
	// moves only when decisions change.
	cost   objective
	closed closedResult
}

// serve runs m for seconds: open-loop placements and reads, then the
// closed-loop placement phase. base is the server's placement count at the start.
func (l *loadRun) serve(m mix, seconds float64, base int64) phase {
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	start := l.clk.Now() + 20*time.Millisecond
	openEnd := start + dur(openShare*seconds)
	end := start + dur(seconds)
	l.mu.Lock()
	placed0 := l.g.placed
	l.mu.Unlock()
	var ph phase
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ph.place = openLoop(l.clk, every(start, dur(1/m.placeRate), openEnd), func(int) bool { return l.placeOne(&ph.cost) })
		l.mu.Lock()
		placed := l.g.placed - placed0
		l.mu.Unlock()
		ph.closed = closedLoop(l.clk, l.t.conns, base+placed, end, end+90*time.Second, func() bool { return l.placeOne(nil) })
	}()
	go func() {
		defer wg.Done()
		rs := m.reads(start, openEnd)
		due := make([]time.Duration, len(rs))
		for i, r := range rs {
			due[i] = r.due
		}
		ss := openLoop(l.clk, due, func(i int) bool { return l.readOne(rs[i].path) })
		for i, s := range ss {
			if rs[i].path == "/v1/stations" {
				ph.stations = append(ph.stations, s)
			} else {
				ph.others = append(ph.others, s)
			}
		}
	}()
	wg.Wait()
	return ph
}

// latencies returns the due-time latencies of samples in milliseconds.
func latencies(ss []sample) dist {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.latency()) / 1e6
	}
	return newDist(xs)
}

// lateness returns the generator's timer lateness in milliseconds.
func lateness(ss ...[]sample) dist {
	var xs []float64
	for _, list := range ss {
		for _, s := range list {
			if s.hasLate {
				xs = append(xs, float64(s.timerLate)/1e6)
			}
		}
	}
	return newDist(xs)
}
