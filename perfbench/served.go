package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/geo"
	"repro/internal/server"
)

// setupRuns is how many times a run starts the server; setup_s is the
// median.
const setupRuns = 5

// The restart-replay prep run writes a log with one snapshot and a tail
// of prepPlacements-prepSnapshotEvery decisions, which every restart
// replays through the placer (KS tests included).
const (
	prepSnapshotEvery = 600
	prepPlacements    = 1100
)

// openingCost is esharing-server's default -opening, the space cost the
// paper's online objective charges per opened station.
const openingCost = 10000

// walAppended is the WAL's appended-records counter name in /metrics.
const walAppended = "esharing_wal_appended_records_total"

func serverArgs(walDir, csv string) []string {
	args := []string{"-wal-dir", walDir}
	if csv != "" {
		args = append(args, "-trips-csv", csv)
	}
	return args
}

// workloadInputs returns the destination stream and, for restart-replay,
// the history CSV the server loads.
func workloadInputs(env runEnv, w workload) (dests []geo.Point, csv string, err error) {
	if !w.restart {
		dests, err = requestDests(env.seed)
		return dests, "", err
	}
	csv = filepath.Join(env.tmp, "history.csv")
	if err := writeHistoryCSV(env.seed, csv); err != nil {
		return nil, "", err
	}
	dests, err = csvRequestDests(env.seed, csv)
	return dests, csv, err
}

// prepLog runs a server over the history CSV with a short snapshot
// cadence, places the first prepPlacements destinations, and returns
// the log directory and the server's /v1/stats before it stopped.
func prepLog(env runEnv, csv string, dests []geo.Point) (string, server.StatsResponse, error) {
	dir := filepath.Join(env.tmp, "prep")
	args := append(serverArgs(dir, csv), "-wal-snapshot-every", strconv.Itoa(prepSnapshotEvery))
	p, _, err := startServer(env.bin, args, filepath.Join(env.tmp, "prep.log"))
	if err != nil {
		return "", server.StatsResponse{}, err
	}
	defer p.stop()
	// One connection, so the log's decisions, and with them the state
	// every restart comes back to, are the same for a given seed.
	t := newTarget(p.base, 1)
	defer t.close()
	l := &loadRun{t: t, clk: newRealClock(), dests: dests}
	for i := 0; i < prepPlacements; i++ {
		l.placeOne(nil)
	}
	if l.g.failures > 0 {
		return "", server.StatsResponse{}, fmt.Errorf("prep run: %s", strings.Join(l.fails, "; "))
	}
	pre, err := t.stats()
	if err != nil {
		return "", pre, err
	}
	m, err := t.metrics()
	if err != nil {
		return "", pre, err
	}
	if n, err := m.get("esharing_wal_truncations_total"); err != nil || n != 1 {
		return "", pre, fmt.Errorf("prep run: want exactly one snapshot, have %v (%v)", n, err)
	}
	if err := p.stop(); err != nil {
		return "", pre, fmt.Errorf("prep run: %w", err)
	}
	return dir, pre, nil
}

// runServed is the untraced run: the esharing-server binary, measured
// end to end.
func runServed(env runEnv, w workload) (*report, int64, int64, error) {
	rep := newReport()
	dests, csv, err := workloadInputs(env, w)
	if err != nil {
		return nil, 0, 0, err
	}
	var pre server.StatsResponse
	var prepDir string
	if w.restart {
		if prepDir, pre, err = prepLog(env, csv, dests); err != nil {
			return nil, 0, 0, err
		}
	}

	var p *proc
	setups := make([]float64, 0, setupRuns)
	for k := 0; k < setupRuns; k++ {
		dir := filepath.Join(env.tmp, fmt.Sprintf("wal-%d", k))
		if w.restart {
			if err := copyDir(prepDir, dir); err != nil {
				return nil, 0, 0, err
			}
		}
		np, d, err := startServer(env.bin, serverArgs(dir, csv), filepath.Join(env.tmp, fmt.Sprintf("server-%d.log", k)))
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, d.Seconds())
		if w.restart {
			t := newTarget(np.base, 1)
			st, err := t.stats()
			t.close()
			if err == nil {
				err = sameStats(pre, st)
			}
			if err != nil {
				rep.problem("restart %d: %v", k, err)
			}
		}
		if k < setupRuns-1 {
			if err := np.stop(); err != nil && !terminatedBySIGTERM(err) {
				rep.problem("server %d: %v", k, err)
			}
			continue
		}
		p = np
	}
	defer p.stop()

	t := newTarget(p.base, env.conns)
	defer t.close()
	l := &loadRun{t: t, clk: newRealClock(), dests: dests}
	if w.restart {
		l.next.Store(prepPlacements)
	}
	before, err := t.stats()
	if err != nil {
		return nil, 0, 0, err
	}
	mBefore, err := t.metrics()
	if err != nil {
		return nil, 0, 0, err
	}
	ph := l.serve(w.mix, env.seconds, before.Requests)
	after, err := t.stats()
	if err != nil {
		return nil, 0, 0, err
	}
	mAfter, err := t.metrics()
	if err != nil {
		return nil, 0, 0, err
	}
	checkCounters(rep, t, before, after, mBefore, mAfter, l.g)
	rss, err := p.vmHWM()
	if err != nil {
		return nil, 0, 0, err
	}
	if err := p.stop(); err != nil {
		rep.problem("server stop: %v", err)
	}

	rep.add("setup_s", "s", newDist(setups).p50(), len(setups), "median launch-to-first-/healthz-200")
	places := latencies(ph.place)
	if err := addTail(rep, "place", places, placeTail); err != nil {
		return nil, 0, 0, err
	}
	rates := make([]float64, len(ph.closed.cycles))
	for i, d := range ph.closed.cycles {
		rates[i] = cycle / d.Seconds()
	}
	if len(rates) == 0 {
		return nil, 0, 0, fmt.Errorf("closed loop completed no whole KS cycle")
	}
	rep.add("place_max_rps", "1/s", newDist(rates).p50(), len(rates),
		fmt.Sprintf("closed loop, %d connections, median over whole KS cycles of %d placements", t.conns, cycle))
	rep.add("place_cost_m", "m", ph.cost.perPlacement(), int(ph.cost.placed),
		fmt.Sprintf("open-loop placements: (walk + %d x %d opened) / accepted", openingCost, ph.cost.opened))
	rep.add("rss_peak_mb", "MiB", rss, 0, "server VmHWM")
	rep.lines = append(rep.lines,
		fmt.Sprintf("info: place p50 %.4f ms (n=%d; not gated: it drifted by up to 50%% between runs on a shared 2-core VM)", places.p50(), places.n()),
		fmt.Sprintf("info: place max %.4f ms (n=%d; the longest KS stall as a placement saw it)", places[len(places)-1], places.n()))
	if reads := latencies(ph.stations); reads.n() > 0 {
		q := tailQuantile(reads.n())
		rep.lines = append(rep.lines, fmt.Sprintf("info: read p50 %.4f ms, p%g %.4f ms (n=%d; GET /v1/stations from due time; not gated: the rider-map rate is an assumption)",
			reads.p50(), q*100, reads.at(q), reads.n()))
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("info: fail_share %d/%d, generator late p50 %.3f ms, %d connections",
			l.g.failures, l.attempted, lateness(ph.place, ph.stations, ph.others).p50(), t.conns))
	for _, f := range l.fails {
		rep.problem("%s", f)
	}
	return rep, l.attempted, l.g.failures, nil
}

// placeTail is the tail percentile placements report: the highest with
// at least minBeyond samples beyond it at the sample count the fixed
// arrival rate and run length give (see README.md).
const placeTail = 0.95

// addTail reports <prefix>_p<tail>_ms, refusing when the sample count
// makes a different percentile the highest with minBeyond samples
// beyond it.
func addTail(rep *report, prefix string, d dist, tail float64) error {
	if q := tailQuantile(d.n()); q != tail {
		return fmt.Errorf("%s latency: %d samples make p%g the reported tail, the metric is p%g", prefix, d.n(), q*100, tail*100)
	}
	rep.add(fmt.Sprintf("%s_p%g_ms", prefix, tail*100), "ms", d.at(tail), d.n(),
		fmt.Sprintf("from due time; highest percentile with >=%d samples beyond", minBeyond))
	return nil
}

// checkCounters reconciles the server's counters with the generator's
// over a serving phase and checks the rider map against /v1/stats.
func checkCounters(rep *report, t *target, before, after server.StatsResponse, mBefore, mAfter scrape, g genCounts) {
	wb, err1 := mBefore.get(walAppended)
	wa, err2 := mAfter.get(walAppended)
	if err1 != nil || err2 != nil {
		rep.problem("wal counter: %v %v", err1, err2)
		return
	}
	for _, bad := range reconcile(before, after, int64(wb), int64(wa), g) {
		rep.problem("%s", bad)
	}
	st, err := t.stations()
	if err != nil {
		rep.problem("/v1/stations: %v", err)
	} else if len(st) != after.Stations {
		rep.problem("/v1/stations has %d stations, /v1/stats %d", len(st), after.Stations)
	}
}
