package harness

import (
	"testing"
	"time"
)

func quickOpts(p Protocol) Options {
	return Options{
		Protocol: p, N: 4,
		BatchSize: 10, Clients: 8, Outstanding: 4,
		Records: 512,
		Warmup:  150 * time.Millisecond, Measure: 400 * time.Millisecond,
	}
}

func TestAllProtocolsMakeProgress(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res, err := Run(quickOpts(p))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Completed == 0 {
				t.Fatalf("%s completed no transactions", p)
			}
			t.Logf("%v", res)
		})
	}
}

func TestZeroPayload(t *testing.T) {
	opts := quickOpts(PoE)
	opts.ZeroPayload = true
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("no progress under zero payload")
	}
}

// TestReadPathAuditHolds runs the tiered read path on a YCSB-B mix, half
// SPECULATIVE and half STRONG: both tiers must serve locally, and every
// audited speculative answer must quote a (seq, state digest) prefix some
// replica recorded.
func TestReadPathAuditHolds(t *testing.T) {
	for _, p := range []Protocol{PoE, PBFT} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			opts := quickOpts(p)
			opts.ReadFraction = 0.95
			opts.SpeculativeFraction = 0.5
			opts.StrongFraction = 0.5
			res, err := Run(opts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("%v", res)
			if res.ReadAuditChecked == 0 || res.ReadAuditMismatches != 0 {
				t.Fatalf("read audit: %d checked, %d mismatches", res.ReadAuditChecked, res.ReadAuditMismatches)
			}
			if res.SpecServes == 0 || res.StrongServes == 0 {
				t.Fatalf("local serves: %d speculative, %d strong", res.SpecServes, res.StrongServes)
			}
		})
	}
}

func TestPrimaryCrashTimeline(t *testing.T) {
	opts := quickOpts(PoE)
	opts.Measure = 2 * time.Second
	opts.CrashPrimaryAfter = 600 * time.Millisecond
	opts.SampleEvery = 100 * time.Millisecond
	opts.ViewTimeout = 300 * time.Millisecond
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ViewChanges == 0 {
		t.Fatal("expected a view change after primary crash")
	}
	if len(res.Timeline) == 0 {
		t.Fatal("expected a throughput timeline")
	}
	// The tail of the timeline (after recovery) must show progress.
	tail := res.Timeline[len(res.Timeline)-3:]
	var rate float64
	for _, p := range tail {
		rate += p.Throughput
	}
	if rate == 0 {
		t.Fatalf("no recovery after view change: %+v", res.Timeline)
	}
}

func TestUpperBound(t *testing.T) {
	noExec, err := RunUpperBound(UpperBoundOptions{Execute: false, Measure: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("no-exec: %v", err)
	}
	withExec, err := RunUpperBound(UpperBoundOptions{Execute: true, Measure: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if noExec.Completed == 0 || withExec.Completed == 0 {
		t.Fatal("upper-bound runs made no progress")
	}
	t.Logf("no-exec: %.0f txn/s, exec: %.0f txn/s", noExec.Throughput, withExec.Throughput)
}
