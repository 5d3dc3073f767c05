package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure is set by a handful of requests and
// does not repeat from run to run.
const minBeyond = 10

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks (the definition numpy and
// statistics.quantiles(method="inclusive") use), 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail returns the highest percentile of sorted not above q that has
// minBeyond samples beyond it, and which percentile that was. Below
// 2·minBeyond samples even the median is unsupported; it is returned all the
// same, with its q, so that the caller prints what the figure rests on.
func tail(sorted []float64, q float64) (value, used float64) {
	if n := len(sorted); n > 0 {
		q = max(0.5, min(q, 1-float64(minBeyond)/float64(n)))
	}
	return quantile(sorted, q), q
}

// longestGap returns the longest interval inside [from, to] during which no
// event of done (any order) falls: the time clients saw without service.
func longestGap(done []time.Duration, from, to time.Duration) time.Duration {
	in := make([]time.Duration, 0, len(done))
	for _, d := range done {
		if d >= from && d <= to {
			in = append(in, d)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	longest, prev := time.Duration(0), from
	for _, d := range in {
		if d-prev > longest {
			longest = d - prev
		}
		prev = d
	}
	if to-prev > longest {
		longest = to - prev
	}
	return longest
}

// completionGaps returns the lengths of the completion-free intervals that
// make up [0, window], in ms.
func completionGaps(done []time.Duration, window time.Duration) []float64 {
	in := make([]time.Duration, 0, len(done))
	for _, d := range done {
		if d >= 0 && d <= window {
			in = append(in, d)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	gaps := make([]float64, 0, len(in)+1)
	prev := time.Duration(0)
	for _, d := range in {
		gaps = append(gaps, msOf(d-prev))
		prev = d
	}
	return append(gaps, msOf(window-prev))
}

// typicalSilence answers: an instant picked at random finds the service
// between two completions — how far apart are they? It is the median of the
// gaps weighted by their length, the silence half of all time is spent in
// gaps no longer than. Where a window holds no fault this is the service-gap
// gauge: the longest gap of a window is set by one scheduler hiccup, and in an
// open loop by the luck of the arrival schedule, and neither repeats.
func typicalSilence(gaps []float64) float64 {
	s := append([]float64(nil), gaps...)
	sort.Float64s(s)
	var total, run float64
	for _, g := range s {
		total += g
	}
	for _, g := range s {
		run += g
		if run >= total/2 {
			return g
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), so that the spreads printed here are the ones the acceptance
// check computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

func sorted(v []float64) []float64 {
	sort.Float64s(v)
	return v
}

func percentileNote(used float64, n int) string {
	return fmt.Sprintf("p%.5g of %d samples", used*100, n)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
