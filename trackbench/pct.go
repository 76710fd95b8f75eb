package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie strictly above a percentile before
// it is reported: a p99 over 500 samples is decided by its five slowest
// samples and is not reported at all.
const minBeyond = 10

// samples is an exact latency record: every sample is kept, so percentiles
// are order statistics of the measured values, never histogram bucket edges.
type samples []time.Duration

// pctIndex is the nearest-rank index of percentile p (0 < p < 1) in a sorted
// set of n samples: the smallest i with (i+1)/n >= p.
func pctIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of s and ok=false
// when fewer than minBeyond samples lie beyond it. s is sorted in place.
func (s samples) percentile(p float64) (time.Duration, bool) {
	if len(s) == 0 {
		return 0, false
	}
	slices.Sort(s)
	i := pctIndex(p, len(s))
	if len(s)-1-i < minBeyond {
		return 0, false
	}
	return s[i], true
}

// ms converts a duration to float milliseconds with full nanosecond digits.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pctMS reports s's p-th percentile in milliseconds under name, together
// with the sample count, or an error naming the shortfall.
func (s samples) pctMS(name string, p float64) (float64, error) {
	v, ok := s.percentile(p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(s), minBeyond, p*100)
	}
	return ms(v), nil
}

// checkPercentiles is the percentile self-test: on a known sample set the
// code must return the exact order statistics, and it must refuse a
// percentile with fewer than minBeyond samples beyond it.
func checkPercentiles() error {
	// 1000 samples 1..1000 ns in a scrambled order (7 is coprime to 1000).
	s := make(samples, 1000)
	for i := range s {
		s[i] = time.Duration((i*7)%1000 + 1)
	}
	want := map[float64]time.Duration{0.5: 500, 0.9: 900, 0.99: 990, 0.001: 1}
	for p, w := range want {
		got, ok := s.percentile(p)
		if !ok || got != w {
			return fmt.Errorf("percentile self-test: p%g = %v (ok=%v), want %v", p*100, got, ok, w)
		}
	}
	// Brute force: the nearest-rank value is the smallest sample with at
	// least ⌈p·n⌉ samples at or below it.
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.95} {
		got, _ := s.percentile(p)
		need := int(math.Ceil(p * float64(len(s))))
		for _, c := range s {
			atOrBelow := 0
			for _, d := range s {
				if d <= c {
					atOrBelow++
				}
			}
			if atOrBelow >= need {
				if c != got {
					return fmt.Errorf("percentile self-test: p%g = %v, brute force %v", p*100, got, c)
				}
				break
			}
		}
	}
	// 999 samples: p99 is index 989, leaving 9 beyond — not reportable.
	if _, ok := s[:999].percentile(0.99); ok {
		return fmt.Errorf("percentile self-test: p99 over 999 samples must be refused")
	}
	if _, ok := s.percentile(0.99); !ok {
		return fmt.Errorf("percentile self-test: p99 over 1000 samples must be reported")
	}
	return nil
}

// quartiles returns q1 and q3 as Python's statistics.quantiles(values, n=4)
// computes them (the default "exclusive" method), and the median.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - 4*j)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	med = v[n/2]
	if n%2 == 0 {
		med = (v[n/2-1] + v[n/2]) / 2
	}
	return q(1), med, q(3)
}

// timeSlices is how many equal time slices a run's window is cut into. A
// reported percentile is the median of the slices' percentiles, so a burst
// of outside interference confined to one slice does not move it.
const timeSlices = 3

// series is a latency record that keeps when each sample started.
type series struct {
	at []time.Time
	d  samples
}

func (s *series) add(at time.Time, d time.Duration) {
	s.at = append(s.at, at)
	s.d = append(s.d, d)
}

func (s *series) merge(o *series) {
	s.at = append(s.at, o.at...)
	s.d = append(s.d, o.d...)
}

// slicedPct cuts [start, start+span) into timeSlices equal slices and
// returns the median of the slices' p-th percentiles, in milliseconds. Every
// slice must have minBeyond samples beyond its percentile.
func (s *series) slicedPct(name string, p float64, start time.Time, span time.Duration) (float64, error) {
	parts := make([]samples, timeSlices)
	for i, at := range s.at {
		k := min(max(int(at.Sub(start)*timeSlices/span), 0), timeSlices-1)
		parts[k] = append(parts[k], s.d[i])
	}
	vals := make([]float64, timeSlices)
	for k, part := range parts {
		v, err := part.pctMS(fmt.Sprintf("%s (slice %d of %d)", name, k+1, timeSlices), p)
		if err != nil {
			return 0, err
		}
		vals[k] = v
	}
	return median(vals), nil
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
