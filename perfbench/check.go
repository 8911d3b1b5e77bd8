package main

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/server"
)

// checkPlacement verifies one 200 response against its request: the
// walk is bit-equal to the distance the client computes itself, or the
// decision opened a station exactly at the destination with no walk.
func checkPlacement(dest geo.Point, r server.PlaceResponse) error {
	if r.Opened {
		if r.Station != dest || math.Float64bits(r.WalkMeters) != 0 {
			return fmt.Errorf("opened decision for %v: station %v walk %v, want station at dest and walk 0",
				dest, r.Station, r.WalkMeters)
		}
		return nil
	}
	if want := dest.Dist(r.Station); math.Float64bits(r.WalkMeters) != math.Float64bits(want) {
		return fmt.Errorf("decision for %v: walk %v, client computes %v to station %v",
			dest, r.WalkMeters, want, r.Station)
	}
	return nil
}

// genCounts is what the generator itself saw during a serving phase.
type genCounts struct {
	placed   int64 // placements answered 200
	opened   int64 // of which opened a station
	shed     int64 // placements answered 429
	errors   int64 // every non-2xx answer, on any endpoint
	failures int64 // transport errors, non-2xx, failed checks
}

// reconcile compares the server's counters across a serving phase with
// the generator's own counts and returns every mismatch. walAppended is
// esharing_wal_appended_records_total read at the end of the phase; the
// server appends one record per accepted placement, and a restarted
// server counts only its own lifetime, so before holds the counters at
// the phase start.
func reconcile(before, after server.StatsResponse, walBefore, walAfter int64, g genCounts) []string {
	var bad []string
	check := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: server %d, generator %d", what, got, want))
		}
	}
	check("/v1/stats requests", after.Requests-before.Requests, g.placed)
	check("/v1/stats opened", after.Opened-before.Opened, g.opened)
	check("/v1/stats shed", after.Shed-before.Shed, g.shed)
	check("/v1/stats errors", after.Errors-before.Errors, g.errors)
	check("/v1/stats stations", int64(after.Stations-before.Stations), g.opened)
	check("esharing_wal_appended_records_total", walAfter-walBefore, g.placed)
	return bad
}

// sameStats reports whether two /v1/stats readings carry the same
// placer state: requests, openings, stations, walk and similarity, float
// fields bit for bit. Shed and error counts are per process and not
// part of the durable state.
func sameStats(a, b server.StatsResponse) error {
	simBits := func(p *float64) string {
		if p == nil {
			return "absent"
		}
		return fmt.Sprintf("%#x", math.Float64bits(*p))
	}
	switch {
	case a.Algorithm != b.Algorithm, a.Requests != b.Requests, a.Opened != b.Opened,
		a.Stations != b.Stations,
		math.Float64bits(a.WalkTotal) != math.Float64bits(b.WalkTotal),
		simBits(a.LastSimilarity) != simBits(b.LastSimilarity):
		return fmt.Errorf("stats differ: %+v (similarity %s) vs %+v (similarity %s)",
			a, simBits(a.LastSimilarity), b, simBits(b.LastSimilarity))
	}
	return nil
}
