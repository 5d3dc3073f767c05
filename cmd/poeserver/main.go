// Command poeserver runs one PoE replica over TCP, so a cluster can be
// spread across processes or machines.
//
// Example 4-replica cluster on one host:
//
//	poeserver -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	poeserver -id 1 -peers ... &  # and so on for ids 2 and 3
//	poeclient -peers ... -set greeting=hello
//
// All replicas (and clients) must share the same -seed so the deterministic
// key ring agrees.
//
// The -fault-* flags arm the chaos fabric on this replica's outbound links
// (drop/duplicate/reorder probabilities, delay ± jitter) — a WAN emulator
// for multi-process robustness testing; see docs/SCENARIOS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/poexec/poe/internal/consensus"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
)

// snapSeq formats the recovered snapshot's sequence number (0 = none).
func snapSeq(rec *storage.Recovered) types.SeqNum {
	if rec.Snapshot == nil {
		return 0
	}
	return rec.Snapshot.Seq
}

func main() {
	id := flag.Int("id", 0, "replica id (0-based)")
	peerList := flag.String("peers", "", "comma-separated replica addresses, index = replica id")
	f := flag.Int("f", 0, "faults tolerated (default (n-1)/3)")
	batch := flag.Int("batch", 100, "batch size")
	scheme := flag.String("scheme", "mac", "authentication scheme: mac|ts|ed|none")
	seed := flag.String("seed", "poe-demo-seed", "shared key-ring seed")
	dataDir := flag.String("data-dir", "", "directory for the WAL and checkpoint snapshots; empty = volatile (no crash recovery)")
	fsync := flag.Bool("fsync", false, "fsync the WAL on every append (survives machine crashes, not just process crashes)")
	checkpointInterval := flag.Int("checkpoint-interval", 0, "sequence numbers between checkpoints (0 = protocol default)")
	window := flag.Int("window", 0, "out-of-order consensus window (0 = protocol default)")
	viewTimeout := flag.Duration("view-timeout", 0, "cap of the learned failure-detection gate, whose floor is a third of it (0 = protocol default)")
	metricsJSON := flag.String("metrics-json", "", "write the replica's final metrics as JSON to this path on graceful shutdown")
	faultDrop := flag.Float64("fault-drop", 0, "chaos: probability of dropping each outbound message")
	faultDup := flag.Float64("fault-dup", 0, "chaos: probability of duplicating each outbound message")
	faultReorder := flag.Float64("fault-reorder", 0, "chaos: probability of swapping an outbound message with its successor")
	faultDelay := flag.Duration("fault-delay", 0, "chaos: fixed outbound delay (e.g. 5ms)")
	faultJitter := flag.Duration("fault-jitter", 0, "chaos: ± jitter on the outbound delay")
	faultSeed := flag.Int64("fault-seed", 1, "chaos: seed for the fault randomness")
	flag.Parse()

	// Take over SIGINT/SIGTERM before the listener opens: a runner that sees
	// the port accept may stop the replica while it is still recovering its
	// WAL, and the signal must then mean a graceful exit, not the default
	// kill.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("received %v, shutting down\n", s)
		cancel()
	}()

	addrs := strings.Split(*peerList, ",")
	n := len(addrs)
	if n < 4 {
		log.Fatalf("need at least 4 replicas, got %d", n)
	}
	if *f == 0 {
		*f = (n - 1) / 3
	}
	peers := make(map[types.NodeID]string, n)
	for i, a := range addrs {
		peers[types.ReplicaNode(types.ReplicaID(i))] = a
	}

	sch, err := crypto.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}

	tr, err := network.NewTCPNet(types.ReplicaNode(types.ReplicaID(*id)), peers)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	// Chaos flags route this replica's outbound traffic through the fault
	// fabric — a WAN emulator / robustness harness for multi-process
	// clusters. Inbound traffic is the other replicas' outbound; give every
	// process the same flags for a symmetric network.
	var replicaNet network.Transport = tr
	faults := network.LinkFaults{
		Drop: *faultDrop, Duplicate: *faultDup, Reorder: *faultReorder,
		Delay: *faultDelay, Jitter: *faultJitter,
	}
	if !faults.IsZero() {
		fn := network.NewFaultNet(nil, network.WithFaultSeed(*faultSeed))
		fn.SetDefaultFaults(faults)
		replicaNet = fn.Wrap(tr)
		fmt.Printf("fault fabric armed: %+v\n", faults)
	}

	ring := crypto.NewKeyRing(n, []byte(*seed))
	cfg := protocol.Config{
		ID: types.ReplicaID(*id), N: n, F: *f,
		Scheme: sch, BatchSize: *batch,
		CheckpointInterval: types.SeqNum(*checkpointInterval),
		Window:             *window,
		ViewTimeout:        *viewTimeout,
	}
	var ropts protocol.RuntimeOptions
	var st *storage.Store
	if *dataDir != "" {
		st, err = storage.Open(*dataDir, storage.Options{Sync: *fsync})
		if err != nil {
			log.Fatalf("open data dir %s: %v", *dataDir, err)
		}
		defer st.Close()
		if rec := st.Recovered(); rec.LastSeq > 0 {
			fmt.Printf("recovered %d batches from %s (snapshot at %d, %d WAL records)\n",
				rec.LastSeq, *dataDir, snapSeq(rec), len(rec.Records))
		}
		ropts.Storage = st
	}
	replica, err := consensus.NewReplica(consensus.PoE, cfg, ring, replicaNet, protocol.Options{RuntimeOptions: ropts})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("poe replica %d/%d listening on %s (scheme %s)\n", *id, n, tr.Addr(), sch)
	replica.Runtime().Metrics.Start()
	replica.Run(ctx)

	// Graceful shutdown: the Run loop has returned, so no more batches will
	// execute. Drain in dependency order — flush the WAL group (every
	// executed-but-unsynced record reaches disk), stop accepting traffic,
	// then report final metrics — so the runner (cmd/poerun, the e2e
	// battery) collects a deterministic end-of-run snapshot. The deferred
	// Closes become no-ops.
	if st != nil {
		if err := st.Flush(); err != nil {
			log.Printf("WAL flush on shutdown: %v", err)
		}
		st.Close()
	}
	tr.Close()
	snap := replica.Runtime().Metrics.Snapshot()
	fmt.Printf("final: executed=%d txns (%d batches) proposed=%d checkpoints=%d view-changes=%d rollbacks=%d throughput=%.1f txn/s uptime=%.1fs\n",
		snap.ExecutedTxns, snap.ExecutedBatches, snap.ProposedBatches,
		snap.Checkpoints, snap.ViewChangesDone, snap.Rollbacks,
		snap.ThroughputTxnS, snap.UptimeSeconds)
	if *metricsJSON != "" {
		writeMetrics(*metricsJSON, snap)
	}
}

// writeMetrics dumps the final metrics snapshot atomically (write to a temp
// file, rename) so a collector polling the path never reads a torn file.
func writeMetrics(path string, snap protocol.MetricsSnapshot) {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Printf("marshal metrics: %v", err)
		return
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, time.Now().UnixNano())
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		log.Printf("write metrics %s: %v", path, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		log.Printf("write metrics %s: %v", path, err)
	}
}
