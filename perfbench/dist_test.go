package main

import "testing"

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},     // median has 9 beyond
		{20, 0.5},   // median has exactly 10 beyond
		{100, 0.9},  // p90 has 10 beyond, p95 only 5
		{199, 0.9},  // p95 has 9 beyond
		{200, 0.95}, // p95 has 10 beyond
		{999, 0.95}, // p99 has 9 beyond
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestDistTailRefusesSmallSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending input: newDist must sort
	}
	d := newDist(xs)
	if _, err := d.tail(0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	d = newDist(append(xs, 1000))
	got, err := d.tail(0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the 990th of 1..1000, with 10 samples above it.
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if d.p50() != 500 || d.n() != 1000 {
		t.Fatalf("p50 %v n %d", d.p50(), d.n())
	}
}
