package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
)

// reqIDHeader carries the traced run's request id, which every span of
// that request shares.
const reqIDHeader = "X-Perfbench-Request"

// span is one timed call at a layer boundary. Parent is 0 for a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// KS and Opened qualify core.place spans: the call ran the KS
	// test, or opened a station.
	KS     bool `json:"ks,omitempty"`
	Opened bool `json:"opened,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Recording can be
// switched off so the same code runs untraced.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

// add stores s, assigning an id if it has none, and returns the id.
func (r *recorder) add(s span) int64 {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// timed records a root span around f.
func (r *recorder) timed(name string, f func() error) error {
	start := r.now()
	err := f()
	r.add(span{Name: name, Start: start, End: r.now()})
	return err
}

// named returns the recorded spans called name, in recording order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (the union of their intervals, clipped to the
// parent).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, span{Start: lo, End: hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, curLo, curHi time.Duration
	open := false
	for _, c := range iv {
		if open && c.Start <= curHi {
			curHi = max(curHi, c.End)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = c.Start, c.End, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// inflight is a placement the traced handler is serving.
type inflight struct {
	dest    geo.Point
	id, req int64
	claimed bool
}

// tracedHandler wraps Server.ServeHTTP in a span per placement; the
// read endpoints are timed directly after serving (see microbench). The
// client registers each placement's destination under its request id
// (register), so the placer's span can find the request it serves.
type tracedHandler struct {
	rec   *recorder
	inner http.Handler

	mu      sync.Mutex
	dests   map[int64]geo.Point // request id -> destination, set by the client
	serving []*inflight
}

func newTracedHandler(rec *recorder, inner http.Handler) *tracedHandler {
	return &tracedHandler{rec: rec, inner: inner, dests: map[int64]geo.Point{}}
}

// register is the client's half: it returns the header value for a
// placement of dest.
func (h *tracedHandler) register(dest geo.Point) string {
	id := h.rec.newID()
	h.mu.Lock()
	h.dests[id] = dest
	h.mu.Unlock()
	return strconv.FormatInt(id, 10)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() || r.Method != http.MethodPost || r.URL.Path != "/v1/requests" {
		h.inner.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	id := h.rec.newID()
	var fl *inflight
	if req != 0 {
		h.mu.Lock()
		if dest, ok := h.dests[req]; ok {
			delete(h.dests, req)
			fl = &inflight{dest: dest, id: id, req: req}
			h.serving = append(h.serving, fl)
		}
		h.mu.Unlock()
	}
	start := h.rec.now()
	h.inner.ServeHTTP(w, r)
	end := h.rec.now()
	if fl != nil {
		h.mu.Lock()
		for i, f := range h.serving {
			if f == fl {
				h.serving = append(h.serving[:i], h.serving[i+1:]...)
				break
			}
		}
		h.mu.Unlock()
	}
	h.rec.add(span{ID: id, Req: req, Name: "server.place", Start: start, End: end})
}

// claim returns the in-flight placement request for dest.
func (h *tracedHandler) claim(dest geo.Point) (id, req int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range h.serving {
		if !f.claimed && f.dest == dest {
			f.claimed = true
			return f.id, f.req
		}
	}
	return 0, 0
}

// tracedPlacer is the placer with a span around every Place. It embeds
// the engine, so the server sees a core.DurablePlacer with the same
// decisions, digests and state; only the server's *core.ESharing type
// checks (similarity publication) no longer match.
type tracedPlacer struct {
	*core.ESharing
	h *tracedHandler
	// placed counts placements so the span knows which ones ran the KS
	// test; set to the server's count once construction has replayed
	// the log. Atomic because that set happens on the benchmark's
	// goroutine, not under the server's decision lock.
	placed atomic.Int64
}

func (p *tracedPlacer) Place(dest geo.Point) (core.Decision, error) {
	n := p.placed.Add(1)
	if !p.h.rec.on.Load() {
		return p.ESharing.Place(dest)
	}
	parent, req := p.h.claim(dest)
	start := p.h.rec.now()
	d, err := p.ESharing.Place(dest)
	end := p.h.rec.now()
	p.h.rec.add(span{Parent: parent, Req: req, Name: "core.place", Start: start, End: end,
		KS: n%cycle == 0, Opened: d.Opened})
	return d, err
}
