package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Defaults of esharing-server that the in-process server mirrors.
const (
	serverSeed       = 1    // -seed
	walSyncEvery     = 1    // -wal-sync
	walSnapshotEvery = 4096 // -wal-snapshot-every
	demandCell       = 100  // offline plan's demand grid cell, metres
)

const (
	// selfTimeTolerance is the share of the server.place p50 by which
	// the parts timed on their own (core.place, wal.append) may exceed
	// it, leaving the server's own time negative.
	selfTimeTolerance = 0.05
	// Calls timed per microbenchmark.
	microRepeats     = 5
	walAppendSamples = 200
	nearestQueries   = 20000
	// readCalls per read endpoint: the fewest that give p99 ten
	// samples beyond it.
	readCalls = 1000
)

// readEndpoints are the GET endpoints timed through Server.ServeHTTP,
// by span name.
var readEndpoints = []struct{ name, path string }{
	{"server.stations", "/v1/stations"},
	{"server.stats", "/v1/stats"},
	{"server.metrics", "/metrics"},
}

// build is the in-process server and what its set-up produced.
type build struct {
	hist    []geo.Point
	engine  *core.ESharing
	placer  *tracedPlacer
	srv     *server.Server
	clients int // demand points of the offline plan
	csvRows int64
}

// runTraced runs w against an in-process server built the way
// esharing-server builds itself, with spans around the calls into each
// module, and reports the per-layer metrics.
func runTraced(env runEnv, w workload) (*report, int64, int64, error) {
	rec := newRecorder()
	rep := newReport()
	dests, csv, err := workloadInputs(env, w)
	if err != nil {
		return nil, 0, 0, err
	}
	var pre server.StatsResponse
	walDir := filepath.Join(env.tmp, "wal")
	if w.restart {
		prepDir, st, err := prepLog(env, csv, dests)
		if err != nil {
			return nil, 0, 0, err
		}
		pre = st
		if err := copyDir(prepDir, walDir); err != nil {
			return nil, 0, 0, err
		}
	}
	b, err := buildTraced(env, w, rec, csv, walDir)
	if err != nil {
		return nil, 0, 0, err
	}
	th := b.placer.h

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	hs := &http.Server{Handler: th, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer b.srv.Close()
	stopHTTP := sync.OnceFunc(func() {
		_ = hs.Close()
		<-served
	})
	defer stopHTTP()

	t := newTarget("http://"+ln.Addr().String(), env.conns)
	defer t.close()
	l := &loadRun{t: t, clk: newRealClock(), dests: dests}
	if w.restart {
		l.next.Store(prepPlacements)
	}
	before, err := t.stats()
	if err != nil {
		return nil, 0, 0, err
	}
	b.placer.placed.Store(before.Requests)
	if w.restart {
		// The traced placer is not a *core.ESharing, so the server
		// does not publish its similarity figure; the rest of the
		// durable state must match the log's writer exactly.
		pre.LastSimilarity = nil
		if err := sameStats(pre, before); err != nil {
			rep.problem("restart: %v", err)
		}
	}
	mBefore, err := t.metrics()
	if err != nil {
		return nil, 0, 0, err
	}

	// Half the run untraced, half traced: the difference in placement
	// p50 is the tracing overhead.
	plain := l.serve(w.mix, env.seconds/2, before.Requests)
	mid, err := t.stats()
	if err != nil {
		return nil, 0, 0, err
	}
	rec.on.Store(true)
	l.tag = th.register
	traced := l.serve(w.mix, env.seconds/2, mid.Requests)
	rec.on.Store(false)
	after, err := t.stats()
	if err != nil {
		return nil, 0, 0, err
	}
	mAfter, err := t.metrics()
	if err != nil {
		return nil, 0, 0, err
	}
	checkCounters(rep, t, before, after, mBefore, mAfter, l.g)
	stopHTTP()

	window := append([]geo.Point(nil), l.recent...)
	micro, err := microbench(env, rec, b, window, dests)
	if err != nil {
		return nil, 0, 0, err
	}
	traces := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if err := rec.writeJSONL(filepath.Join(traces, fmt.Sprintf("%s-%d.jsonl", w.name, env.seed))); err != nil {
		return nil, 0, 0, err
	}

	if err := layerMetrics(rep, rec, b, l, plain, traced, mAfter, micro, t.conns); err != nil {
		return nil, 0, 0, err
	}
	for _, f := range l.fails {
		rep.problem("%s", f)
	}
	return rep, l.attempted, l.g.failures, nil
}

// buildTraced mirrors esharing-server's start-up with a span around
// each step: history (generated, or scanned from the CSV), offline
// plan, placer, log open, server construction with log replay.
func buildTraced(env runEnv, w workload, rec *recorder, csv, walDir string) (*build, error) {
	b := &build{}
	histCfg := dataset.Config{Seed: serverSeed, Days: historyDays}
	if w.restart {
		histCfg = historyConfig(env.seed)
	}
	var trips []dataset.Trip
	if err := rec.timed("dataset.generate", func() (err error) {
		trips, err = dataset.Generate(histCfg)
		return err
	}); err != nil {
		return nil, err
	}
	if !w.restart {
		b.hist = dataset.EndPoints(trips)
		// Scan a CSV of the same history, so the ingest layer is
		// measured on every workload.
		csv = filepath.Join(env.tmp, "history.csv")
		if err := writeHistoryCSV(serverSeed, csv); err != nil {
			return nil, err
		}
	}
	var scanned []geo.Point
	if err := rec.timed("dataset.scan", func() (err error) {
		scanned, b.csvRows, err = scanEndPoints(csv)
		return err
	}); err != nil {
		return nil, err
	}
	if w.restart {
		b.hist = scanned
	}
	var landmarks []geo.Point
	if err := rec.timed("core.plan", func() (err error) {
		landmarks, b.clients, err = plan(b.hist)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.timed("core.new_placer", func() (err error) {
		cfg := core.DefaultESharingConfig()
		cfg.Seed = serverSeed
		b.engine, err = core.NewESharing(landmarks, openingCost, b.hist, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	// wal.Open on a copy of the log, so that its cost shows apart from
	// the replay the server runs on the original.
	probe := filepath.Join(env.tmp, "wal-open")
	if err := copyDir(walDir, probe); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := rec.timed("wal.open", func() error {
		lg, _, err := wal.Open(probe, walOptions(b.engine))
		if err != nil {
			return err
		}
		return lg.Close()
	}); err != nil {
		return nil, err
	}
	th := newTracedHandler(rec, nil)
	b.placer = &tracedPlacer{ESharing: b.engine, h: th}
	if err := rec.timed("server.new", func() (err error) {
		b.srv, err = server.New(b.placer, server.WithWAL(walDir, walSyncEvery, walSnapshotEvery))
		return err
	}); err != nil {
		return nil, err
	}
	th.inner = b.srv
	return b, nil
}

func walOptions(e *core.ESharing) wal.Options {
	return wal.Options{ConfigDigest: e.ConfigDigest(), Name: e.Name(), SyncEvery: walSyncEvery, SnapshotEvery: walSnapshotEvery}
}

// scanEndPoints is esharing-server's streaming CSV ingest: one pass for
// the projection centre, one for the projected end points.
func scanEndPoints(path string) ([]geo.Point, int64, error) {
	pr, err := csvProjector(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var ends []geo.Point
	n, err := dataset.ScanEndPoints(f, pr, dataset.ScanOptions{}, func(pts []geo.Point) error {
		ends = append(ends, pts...)
		return nil
	})
	return ends, n, err
}

// plan is esharing-server's offline landmark plan (Algorithm 1).
func plan(hist []geo.Point) ([]geo.Point, int, error) {
	demands, err := core.AggregateDemand(hist, demandCell)
	if err != nil {
		return nil, 0, err
	}
	costs := make([]float64, len(demands))
	for i := range costs {
		costs[i] = openingCost
	}
	problem, err := core.NewProblem(demands, costs)
	if err != nil {
		return nil, 0, err
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		return nil, 0, err
	}
	return problem.Stations(sol), len(demands), nil
}

// micro holds the layer calls timed directly once serving has stopped.
type micro struct {
	ksPoints       int
	walBytesPerRec float64
	snapshotBytes  int64
}

// microbench times the read endpoints through Server.ServeHTTP, and the
// calls the server makes under its decision lock that the handler spans
// cannot separate: the KS test on the last window, the nearest-station
// lookup, the state marshal, and the log append and snapshot (on a log
// of its own, with the server's options).
func microbench(env runEnv, rec *recorder, b *build, window, dests []geo.Point) (micro, error) {
	var m micro
	for _, ep := range readEndpoints {
		for i := 0; i < readCalls; i++ {
			w := httptest.NewRecorder()
			start := rec.now()
			b.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, ep.path, nil))
			rec.add(span{Name: ep.name, Start: start, End: rec.now()})
			if w.Code != http.StatusOK {
				return m, fmt.Errorf("GET %s: status %d", ep.path, w.Code)
			}
		}
	}
	m.ksPoints = len(b.hist) + len(window)
	for i := 0; i < 3; i++ {
		if err := rec.timed("stats.ks", func() error {
			_, err := stats.Peacock2DFast(b.hist, window)
			return err
		}); err != nil {
			return m, err
		}
	}
	idx := geo.NewDynamicIndex(b.engine.Stations())
	start := rec.now()
	for i := 0; i < nearestQueries; i++ {
		idx.Nearest(dests[i%len(dests)])
	}
	rec.add(span{Name: "geo.nearest", Start: start, End: rec.now()})

	var state []byte
	for i := 0; i < microRepeats; i++ {
		if err := rec.timed("core.marshal_state", func() (err error) {
			state, err = b.engine.MarshalState()
			return err
		}); err != nil {
			return m, err
		}
	}

	dir := filepath.Join(env.tmp, "wal-bench")
	lg, _, err := wal.Open(dir, walOptions(b.engine))
	if err != nil {
		return m, err
	}
	defer lg.Close()
	size0 := lg.Metrics().Size
	for i := 0; i < walAppendSamples; i++ {
		d := dests[i%len(dests)]
		if err := rec.timed("wal.append", func() error {
			return lg.AppendDecision(wal.DecisionRecord{Dest: d, Station: d, StationIndex: i, Walk: float64(i)})
		}); err != nil {
			return m, err
		}
	}
	m.walBytesPerRec = float64(lg.Metrics().Size-size0) / walAppendSamples
	for i := 0; i < microRepeats; i++ {
		if err := rec.timed("wal.snapshot", func() error {
			return lg.WriteSnapshot(&wal.Snapshot{PlacerState: state, StationsDigest: core.StationDigest(b.engine.Stations())})
		}); err != nil {
			return m, err
		}
	}
	total, err := dirBytes(dir)
	if err != nil {
		return m, err
	}
	m.snapshotBytes = total - lg.Metrics().Size
	return m, lg.Close()
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
