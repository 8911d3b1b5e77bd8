package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.place", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50.
	if self[1] != 50 {
		t.Errorf("parent self %v, want 50", self[1])
	}
	if self[2] != 25 || self[5] != 5 || self[4] != 30 {
		t.Errorf("child self times %v %v %v", self[2], self[5], self[4])
	}
}

func TestPlaceAccountingCheckCanFail(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Name: "server.place", Start: 0, End: 100 * us},
		{ID: 2, Parent: 1, Name: "core.place", Start: 10 * us, End: 30 * us},
	}
	// A 50 us log append leaves the server 30 us of its own.
	self := newDist(placeSelfUS(spans, 50))
	if self.p50() != 30 {
		t.Fatalf("self %v us, want 30", self.p50())
	}
	if err := checkPlaceAccounting(100, self.p50()); err != nil {
		t.Fatal(err)
	}
	// A 4 us overshoot is inside the 5% tolerance; a 90 us append
	// makes the parts exceed the span by 10 us, and the check fails.
	if err := checkPlaceAccounting(100, newDist(placeSelfUS(spans, 84)).p50()); err != nil {
		t.Errorf("overshoot inside tolerance flagged: %v", err)
	}
	if checkPlaceAccounting(100, newDist(placeSelfUS(spans, 90)).p50()) == nil {
		t.Error("parts exceeding the span by 10% accepted")
	}
}
