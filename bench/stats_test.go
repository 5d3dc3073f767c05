package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, c := range []struct {
		n       int
		q, used float64
	}{
		{2000, 0.99, 0.99},   // 20 beyond p99
		{1000, 0.99, 0.99},   // exactly 10
		{500, 0.99, 0.98},    // p99 would rest on 5 samples
		{5000, 0.999, 0.998}, // p99.9 would rest on 5
		{15, 0.99, 0.5},      // nothing but the median is left
	} {
		_, used := tail(series(c.n), c.q)
		if !near(used, c.used) {
			t.Errorf("n=%d q=%v: used %v, want %v", c.n, c.q, used, c.used)
		}
	}
	if v := quantile(series(101), 0.5); v != 50 {
		t.Errorf("median of 0..100 = %v", v)
	}
	if v := quantile(series(4), 0.5); v != 1.5 {
		t.Errorf("median of 0..3 = %v", v)
	}
}

func TestLongestGapAndTypicalSilence(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// A kill at 1000 ms; nothing completes from 990 ms to 1800 ms.
	done := ms(10, 500, 990, 1800, 1810, 2900)
	if g := longestGap(done, 1000*time.Millisecond, 3000*time.Millisecond); g != 1090*time.Millisecond {
		t.Errorf("gap after the kill = %v, want 1.09s (1810 → 2900)", g)
	}
	if g := longestGap(done, 1000*time.Millisecond, 2000*time.Millisecond); g != 800*time.Millisecond {
		t.Errorf("gap after the kill up to 2 s = %v, want 800ms (kill → 1800)", g)
	}
	// Nothing at all completes: the whole span is the outage.
	if g := longestGap(nil, time.Second, 3*time.Second); g != 2*time.Second {
		t.Errorf("gap of an empty timeline = %v", g)
	}
	// Completion order does not matter.
	if g := longestGap(ms(2900, 10, 1810, 500, 1800, 990), 0, 3*time.Second); g != 1090*time.Millisecond {
		t.Errorf("unordered timeline: %v", g)
	}

	// Three seconds with a completion every 10 ms, and one 300 ms hole in the
	// second second: the hole sets one second's maximum, not the gauge.
	var steady []time.Duration
	for at := 0; at < 3000; at += 10 {
		if at > 1200 && at < 1500 {
			continue
		}
		steady = append(steady, time.Duration(at)*time.Millisecond)
	}
	// 270 gaps of 10 ms hold 2700 of the 3000 ms: a random instant falls into
	// one of those, not into the hole.
	if g := typicalSilence(completionGaps(steady, 3*time.Second)); g != 10 {
		t.Errorf("typical silence = %v ms, want 10", g)
	}
	// Bursts of five completions every 10 ms: four gaps in five are 0, and
	// all the time is spent in the fifth.
	var bursts []time.Duration
	for at := 10; at <= 1000; at += 10 {
		for i := 0; i < 5; i++ {
			bursts = append(bursts, time.Duration(at)*time.Millisecond)
		}
	}
	if g := typicalSilence(completionGaps(bursts, time.Second)); g != 10 {
		t.Errorf("typical silence of bursts = %v ms, want 10", g)
	}
	if g := longestGap(steady, 0, 3*time.Second); g != 300*time.Millisecond {
		t.Errorf("longest gap = %v, want 300ms", g)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([8.1, 8.0, 8.4, 7.9, 8.2, 9.5, 8.0, 8.3, 8.1, 8.2], n=4)
	q1, q2, q3 := quartiles([]float64{8.1, 8.0, 8.4, 7.9, 8.2, 9.5, 8.0, 8.3, 8.1, 8.2})
	if !near(q1, 8.0) || !near(q2, 8.15) || !near(q3, 8.325) {
		t.Errorf("quartiles = %v %v %v, want 8.0 8.15 8.325", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.01, 0.07, "ok"},
		{-0.20, 0.01, 0.07, "ok"}, // better is never a regression
		{0.09, 0.01, 0.07, "REGRESSION"},
		{0.09, 0.12, 0.07, "unresolved"}, // A's own runs differ by more
		{0.02, 0.12, 0.07, "unresolved"},
		{0.30, 0.12, 0.07, "REGRESSION"}, // worse by more than bound and spread
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

// TestCompare feeds -compare two sides made by hand: B's write_open p50 is
// 30% worse than A's, whose own runs agree within 2%.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64, failed int) string {
		rf := resultsFile{Env: environment{Commit: name}}
		for i, v := range p50 {
			rf.Runs = append(rf.Runs, runRecord{Workload: "write_open", Seed: int64(i), Seconds: 15, result: result{
				Correct: true, Attempted: 15000, Failed: failed,
				Metrics: map[string]metric{"p50_ms": {Value: v, Unit: "ms"}, "txn_s": {Value: 1000, Unit: "txn/s"}},
			}})
		}
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", []float64{8.0, 8.1, 8.05, 8.1, 8.0}, 0)
	same := write("same", []float64{8.1, 8.0, 8.1, 8.05, 8.2}, 0)
	slower := write("slower", []float64{10.5, 10.4, 10.6, 10.5, 10.4}, 0)
	failing := write("failing", []float64{8.0, 8.1, 8.05, 8.1, 8.0}, 40)
	contract := "../" + benchmarkFile
	if code := runCompare(contract, a, same); code != 0 {
		t.Errorf("two sets of the same commit: exit %d", code)
	}
	if code := runCompare(contract, a, slower); code != 1 {
		t.Errorf("p50 30%% worse: exit %d, want 1", code)
	}
	if code := runCompare(contract, slower, a); code != 0 {
		t.Errorf("p50 better: exit %d", code)
	}
	if code := runCompare(contract, a, failing); code != 1 {
		t.Errorf("40 of 15000 requests failing: exit %d, want 1", code)
	}
	if code := runCompare(contract, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
