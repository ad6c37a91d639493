// Package analysis computes the performance metrics of section 3 from
// trace tuples: up/down/total latencies per wrapper, the two-way TCP/IP
// latency formula, arrival and departure order distributions, arrival and
// departure wait times, and the streaming statistics (mean, minimum,
// maximum, standard deviation, and the NWS sliding-window median) the
// statistics monitor maintains per wrapper.
package analysis

import (
	"fmt"
	"math"
)

// DefaultMedianWindow is the sliding-window size the paper uses for the
// NWS median implementation (section 4.3: "window size set to 100").
const DefaultMedianWindow = 100

// Stream maintains streaming statistics over a series of float64 samples:
// Welford mean/variance, min/max, and a sliding-window median.
type Stream struct {
	n      uint64
	mean   float64
	m2     float64
	min    float64
	max    float64
	window int
	ring   []float64 // last `window` samples in arrival order
	head   int
	sorted []float64 // the same samples kept sorted
}

// NewStream creates a stream with the given median window (values < 1 use
// DefaultMedianWindow).
func NewStream(window int) *Stream {
	if window < 1 {
		window = DefaultMedianWindow
	}
	return &Stream{window: window}
}

// Add folds a sample into the statistics.
//
//lint:hotpath per-sample statistics update; gated by BenchmarkStreamAdd's zero-alloc check
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	// Welford's online mean and variance.
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)

	// Sliding-window median bookkeeping, keeping `sorted` ordered.
	// While the window fills, insert x. Once it is full, x replaces the
	// oldest sample: only the elements between the evicted sample's
	// index and x's index move, by one slot.
	if n := len(s.ring); n < s.window {
		if cap(s.ring) < s.window {
			// Sized on the first sample, so a stream that never sees
			// one costs nothing.
			//lint:allow hotalloc once per stream: sizes both slices to the window, which they never outgrow
			s.ring, s.sorted = append(make([]float64, 0, s.window), s.ring...), append(make([]float64, 0, s.window), s.sorted...)
		}
		s.ring = s.ring[:n+1]
		s.ring[n] = x
		s.sorted = s.sorted[:n+1]
		i := searchFloat64s(s.sorted[:n], x)
		copy(s.sorted[i+1:], s.sorted[i:n])
		s.sorted[i] = x
		return
	}
	old := s.ring[s.head]
	s.ring[s.head] = x
	s.head++
	if s.head == s.window {
		s.head = 0
	}
	i := searchFloat64s(s.sorted, old)
	j := searchFloat64s(s.sorted, x)
	if j <= i {
		copy(s.sorted[j+1:i+1], s.sorted[j:i])
		s.sorted[j] = x
	} else {
		copy(s.sorted[i:j-1], s.sorted[i+1:j])
		s.sorted[j-1] = x
	}
}

// searchFloat64s returns the first index in the sorted slice a whose
// element is >= x (len(a) if none), like sort.SearchFloat64s without
// the closure call per probe.
func searchFloat64s(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Count returns the number of samples seen.
func (s *Stream) Count() uint64 { return s.n }

// Mean returns the running mean (0 with no samples).
func (s *Stream) Mean() float64 { return s.mean }

// Min returns the smallest sample seen.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample seen.
func (s *Stream) Max() float64 { return s.max }

// Std returns the sample standard deviation (0 with fewer than 2 samples).
func (s *Stream) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Median returns the median of the sliding window (0 with no samples).
func (s *Stream) Median() float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s.sorted[n/2]
	}
	return (s.sorted[n/2-1] + s.sorted[n/2]) / 2
}

// Snapshot returns the stream's statistics as a Result.
func (s *Stream) Snapshot() Result {
	return Result{
		Count:  s.n,
		Mean:   s.mean,
		Min:    s.min,
		Max:    s.max,
		Std:    s.Std(),
		Median: s.Median(),
	}
}

// Result is a snapshot of a stream's statistics.
type Result struct {
	Count  uint64
	Mean   float64
	Min    float64
	Max    float64
	Std    float64
	Median float64
}

// String formats a result for tables and logs.
func (r Result) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%.1f max=%.1f std=%.1f median=%.1f",
		r.Count, r.Mean, r.Min, r.Max, r.Std, r.Median)
}
