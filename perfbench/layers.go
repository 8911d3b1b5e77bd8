package main

import (
	"fmt"
	"time"
)

func durs(ss []span, unit time.Duration) dist {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.dur()) / float64(unit)
	}
	return newDist(xs)
}

func medianOf(rec *recorder, name string, unit time.Duration) float64 {
	return durs(rec.named(name), unit).p50()
}

// layerMetrics reports the per-layer metrics of a traced run.
func layerMetrics(rep *report, rec *recorder, b *build, l *loadRun, plain, traced phase, m scrape, mi micro, conns int) error {
	get := func(key string) float64 {
		v, err := m.get(key)
		if err != nil {
			rep.problem("%v", err)
		}
		return v
	}

	late := lateness(traced.place, traced.stations, traced.others)
	rep.add("loadgen.late_p99_ms", "ms", late.at(0.99), late.n(), "generator timer lateness, traced half")
	rep.add("loadgen.conns", "count", float64(conns), 0, "")

	var ksPlace, place []span
	opened := 0
	for _, s := range rec.named("core.place") {
		if s.KS {
			ksPlace = append(ksPlace, s)
		} else {
			place = append(place, s)
		}
		if s.Opened {
			opened++
		}
	}
	rep.add("core.place_ks_ms", "ms", durs(ksPlace, time.Millisecond).p50(), len(ksPlace), "ESharing.Place calls that ran the KS test")
	rep.add("core.ks_tests", "count", float64(len(ksPlace)), 0, "traced half")
	rep.add("stats.ks_ms", "ms", medianOf(rec, "stats.ks", time.Millisecond), len(rec.named("stats.ks")), "Peacock2DFast(H, last window)")
	rep.add("stats.ks_points", "count", float64(mi.ksPoints), 0, "|H| + |window|")

	walAppend := medianOf(rec, "wal.append", time.Microsecond)
	rep.add("wal.append_us", "us", walAppend, len(rec.named("wal.append")), "AppendDecision, SyncEvery 1")
	appended := get(walAppended)
	rep.add("wal.fsyncs_per_decision", "ratio", get("esharing_wal_fsyncs_total")/appended, 0, "server /metrics")
	rep.add("wal.bytes_per_decision", "B", mi.walBytesPerRec, 0, "")
	rep.add("wal.snapshot_ms", "ms", medianOf(rec, "wal.snapshot", time.Millisecond), len(rec.named("wal.snapshot")), "WriteSnapshot")
	rep.add("wal.snapshot_bytes", "B", float64(mi.snapshotBytes), 0, "")
	rep.add("core.marshal_state_us", "us", medianOf(rec, "core.marshal_state", time.Microsecond), len(rec.named("core.marshal_state")), "")

	places := durs(rec.named("server.place"), time.Microsecond)
	if places.n() == 0 {
		return fmt.Errorf("no server.place spans recorded")
	}
	self := newDist(placeSelfUS(rec.spans, walAppend))
	rep.add("server.place_p50_us", "us", places.p50(), places.n(), "ServeHTTP span")
	rep.add("server.place_self_us", "us", self.p50(), self.n(),
		"span minus core.place child minus wal.append_us median")
	if err := checkPlaceAccounting(places.p50(), self.p50()); err != nil {
		rep.problem("%v", err)
	} else {
		rep.lines = append(rep.lines, fmt.Sprintf("check: server self time %.1f us >= -%g%% of server.place p50 %.1f us",
			self.p50(), selfTimeTolerance*100, places.p50()))
	}
	var clientSum time.Duration
	for _, d := range l.clientPlace {
		clientSum += d
	}
	clientMean := float64(clientSum) / float64(len(l.clientPlace)) / 1e3
	histMean := get(`esharing_request_duration_seconds_sum{endpoint="place"}`) /
		get(`esharing_request_duration_seconds_count{endpoint="place"}`) * 1e6
	rep.add("server.http_overhead_us", "us", clientMean-histMean, len(l.clientPlace), "client mean minus /metrics place mean")
	for _, ep := range readEndpoints {
		d := durs(rec.named(ep.name), time.Microsecond)
		p99, err := d.tail(0.99)
		if err != nil {
			return fmt.Errorf("%s: %w", ep.name, err)
		}
		rep.add(ep.name+"_p99_us", "us", p99, d.n(), "GET "+ep.path+" through ServeHTTP, timed after serving")
	}
	rep.add("server.metrics_bytes", "B", float64(m.bytes), 0, "")

	rep.add("core.place_ns", "ns", durs(place, time.Nanosecond).p50(), len(place), "ESharing.Place without a KS test")
	rep.add("geo.nearest_ns", "ns", float64(rec.named("geo.nearest")[0].dur())/nearestQueries, nearestQueries, "DynamicIndex.Nearest")
	rep.add("core.opened", "count", float64(opened), 0, "traced half")

	rep.add("dataset.generate_ms", "ms", medianOf(rec, "dataset.generate", time.Millisecond), 0, "history")
	scan := rec.named("dataset.scan")[0].dur()
	rep.add("dataset.scan_ms", "ms", float64(scan)/1e6, 0, "history CSV, two streaming passes")
	rep.add("dataset.rows_per_s", "1/s", float64(b.csvRows)/scan.Seconds(), 0, "")
	rep.add("core.plan_ms", "ms", medianOf(rec, "core.plan", time.Millisecond), 0, "")
	rep.add("core.plan_clients", "count", float64(b.clients), 0, "demand points")
	rep.add("core.new_placer_ms", "ms", medianOf(rec, "core.new_placer", time.Millisecond), 0, "")
	rep.add("wal.open_ms", "ms", medianOf(rec, "wal.open", time.Millisecond), 0, "")
	rep.add("server.replay_ms", "ms", get("esharing_wal_replay_duration_seconds")*1e3, 0, "server /metrics")
	rep.add("server.replayed_records", "count", get("esharing_wal_replayed_records"), 0, "server /metrics")
	rep.add("server.shed", "count", get("esharing_requests_shed_total"), 0, "")
	// The server renders only nonzero error series.
	rep.add("server.canceled", "count", m.samples[`esharing_request_errors_total{endpoint="place",kind="canceled"}`], 0, "")

	rep.add("fail_share", "ratio", float64(l.g.failures)/float64(l.attempted), int(l.attempted), "")
	overhead := latencies(traced.place).p50() - latencies(plain.place).p50()
	rep.add("trace.overhead_ms", "ms", overhead, 0, "traced minus untraced placement p50")
	orphans := 0
	for _, s := range rec.named("core.place") {
		if s.Parent == 0 {
			orphans++
		}
	}
	if orphans > 0 {
		rep.problem("%d core.place spans found no server.place parent", orphans)
	}
	return nil
}

// placeSelfUS returns the server's own time in each server.place span,
// in microseconds: the span minus the part its core.place child covers,
// minus walAppendUS, the median AppendDecision timed on a log of its
// own. What remains is decode, admission and lock wait, snapshot
// publish and encode.
func placeSelfUS(spans []span, walAppendUS float64) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == "server.place" {
			out = append(out, float64(self[s.ID])/1e3-walAppendUS)
		}
	}
	return out
}

// checkPlaceAccounting checks that the parts of the placement path
// measured apart from the server.place span (core.place and wal.append)
// fit inside it: the server's own time, the rest, may fall below zero
// by at most selfTimeTolerance of the span's p50.
func checkPlaceAccounting(placeP50, selfP50 float64) error {
	if selfP50 < -selfTimeTolerance*placeP50 {
		return fmt.Errorf("core.place and wal.append exceed the server.place p50 %.1f us by %.1f us (tolerance %g%%)",
			placeP50, -selfP50, selfTimeTolerance*100)
	}
	return nil
}
