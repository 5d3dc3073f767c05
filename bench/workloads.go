package main

import (
	"github.com/poexec/poe/internal/workload"
)

// spec describes one workload: its traffic, and what is done to the cluster
// while it runs.
type spec struct {
	name, why  string
	identities int
	rate       float64 // open-loop arrivals per second; 0 = closed loop
	durable    bool    // replicas get -data-dir and -fsync
	crash      bool    // SIGKILL replica 0, the primary of view 0, mid-window
	probeEvery int
	workload   func(seed int64) workload.Config
}

// ycsb is the paper's table and mix (§IV): zipf 0.9 over the records, 46 B
// values, one operation per transaction, 90% writes.
func ycsb(seed int64) workload.Config {
	cfg := workload.DefaultConfig(1000)
	cfg.Seed = seed
	return cfg
}

var workloads = []*spec{
	{
		name: "write_sat", identities: 128, workload: ycsb,
		why: "closed loop, 128 clients, 90% writes: the replicas' CPUs are the limit, so a CPU saving per txn becomes throughput",
	},
	{
		name: "write_open", identities: 64, rate: 1000, workload: ycsb,
		why: "open loop at 1000 txn/s, a quarter of saturation: batch linger, ticks and ordering round trips set latency, CPU layers do little",
	},
	{
		name: "read_mostly", identities: 64, rate: 2000, probeEvery: 100,
		workload: func(seed int64) workload.Config {
			cfg := ycsb(seed)
			cfg.WriteFraction = 0.05
			cfg.SpeculativeFraction = 0.5
			cfg.StrongFraction = 0.5
			return cfg
		},
		why: "open loop at 2000 txn/s, 5% ordered writes beside SPECULATIVE and STRONG reads that bypass ordering: p50 is the read path, p99 the write tail",
	},
	{
		name: "primary_crash", identities: 64, rate: 1000, workload: ycsb,
		durable: true, crash: true,
		why: "write_open traffic on durable, fsyncing replicas; the primary is killed mid-window: view change, failure detection and the WAL are on the reply path",
	},
}

func findWorkload(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
