package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/server"
)

func TestCheckPlacement(t *testing.T) {
	dest := geo.Pt(100.25, -7.5)
	st := geo.Pt(130, 12)
	ok := server.PlaceResponse{Station: st, WalkMeters: dest.Dist(st)}
	if err := checkPlacement(dest, ok); err != nil {
		t.Fatal(err)
	}
	off := ok
	off.WalkMeters = math.Nextafter(ok.WalkMeters, 0) // one ulp short
	if checkPlacement(dest, off) == nil {
		t.Error("walk one ulp off accepted")
	}
	if err := checkPlacement(dest, server.PlaceResponse{Station: dest, Opened: true}); err != nil {
		t.Fatal(err)
	}
	if checkPlacement(dest, server.PlaceResponse{Station: st, Opened: true}) == nil {
		t.Error("opened decision away from the destination accepted")
	}
	if checkPlacement(dest, server.PlaceResponse{Station: dest, Opened: true, WalkMeters: 1}) == nil {
		t.Error("opened decision with a walk accepted")
	}
}

func TestReconcile(t *testing.T) {
	before := server.StatsResponse{Requests: 1100, Opened: 7, Stations: 90, Errors: 1, Shed: 0}
	after := server.StatsResponse{Requests: 1600, Opened: 9, Stations: 92, Errors: 4, Shed: 3}
	g := genCounts{placed: 500, opened: 2, shed: 3, errors: 3}
	if bad := reconcile(before, after, 10, 510, g); len(bad) != 0 {
		t.Fatalf("consistent counts flagged: %v", bad)
	}
	for _, tc := range []struct {
		name   string
		mutate func(a *server.StatsResponse, g *genCounts, walAfter *int64)
		want   string
	}{
		{"lost placement", func(a *server.StatsResponse, _ *genCounts, _ *int64) { a.Requests-- }, "requests"},
		{"extra opening", func(_ *server.StatsResponse, g *genCounts, _ *int64) { g.opened++ }, "opened"},
		{"unseen shed", func(a *server.StatsResponse, _ *genCounts, _ *int64) { a.Shed++ }, "shed"},
		{"uncounted error", func(_ *server.StatsResponse, g *genCounts, _ *int64) { g.errors++ }, "errors"},
		{"station drift", func(a *server.StatsResponse, _ *genCounts, _ *int64) { a.Stations++ }, "stations"},
		{"wal gap", func(_ *server.StatsResponse, _ *genCounts, w *int64) { *w-- }, "esharing_wal_appended_records_total"},
	} {
		a, gg, w := after, g, int64(510)
		tc.mutate(&a, &gg, &w)
		bad := reconcile(before, a, 10, w, gg)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, ";"), tc.want) {
			t.Errorf("%s: got %v, want a %q mismatch", tc.name, bad, tc.want)
		}
	}
}

func TestSameStats(t *testing.T) {
	sim := 23.5
	a := server.StatsResponse{Algorithm: "e-sharing", Requests: 1100, Opened: 7, Stations: 90, WalkTotal: 1234.5, LastSimilarity: &sim, Shed: 2}
	b := a
	b.Shed = 0 // per process, not durable
	if err := sameStats(a, b); err != nil {
		t.Fatal(err)
	}
	other := math.Nextafter(sim, 100)
	b.LastSimilarity = &other
	if sameStats(a, b) == nil {
		t.Error("similarity one ulp apart accepted")
	}
	b = a
	b.LastSimilarity = nil
	if sameStats(a, b) == nil {
		t.Error("missing similarity accepted")
	}
	b = a
	b.WalkTotal = math.Nextafter(a.WalkTotal, 0)
	if sameStats(a, b) == nil {
		t.Error("walk total one ulp apart accepted")
	}
}
