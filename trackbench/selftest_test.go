package main

import (
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	if err := checkPercentiles(); err != nil {
		t.Fatal(err)
	}
}

func TestSlicedPercentileIsMedianOfSlices(t *testing.T) {
	start := time.Unix(0, 0)
	var s series
	// Three 1 s slices of 1000 samples; the middle slice is the slow one.
	for k, base := range []time.Duration{1000, 5000, 2000} {
		for i := 0; i < 1000; i++ {
			at := start.Add(time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond)
			s.add(at, base+time.Duration(i))
		}
	}
	got, err := s.slicedPct("x", 0.5, start, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Slice medians are 1499, 5499 and 2499 ns; their median is 2499 ns.
	if want := ms(2499); got != want {
		t.Fatalf("sliced p50 = %v ms, want %v ms", got, want)
	}
	if _, err := s.slicedPct("x", 0.999, start, 3*time.Second); err == nil {
		t.Fatal("p99.9 over 1000 samples per slice must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(v, n=4) and median(v).
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 9}, 4, 7, 10},
		{[]float64{1.5, 2.5, 10, 11, 12, 13, 14}, 2.5, 11, 13},
	} {
		q1, med, q3 := quartiles(c.v)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds three engines twice")
	}
	if err := checkDeterministic(); err != nil {
		t.Fatal(err)
	}
}
