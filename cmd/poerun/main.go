// Command poerun launches and supervises a multi-process poeserver cluster
// from one config: it allocates addresses (or takes explicit ones), starts
// one real OS process per replica, health-checks them, optionally applies a
// schedule of process faults (kill / stop / restart / wipe-restart of a
// named replica), forwards SIGTERM/SIGINT for graceful cluster shutdown,
// and collects per-replica logs and exit metrics under one run directory.
//
// A 4-process cluster on free ports until Ctrl-C, logs in ./run:
//
//	poerun -run-dir run
//
// A durable cluster on fixed ports with a crash-and-recover scenario:
//
//	poerun -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	    -data-root /tmp/poe-data -at 5s:kill:3 -at 8s:restart:3 -duration 15s
//
// Drive load against it with cmd/poeload (open-loop Poisson sweeps) or
// cmd/poeclient. Config may also come from a JSON file (-config), flags
// overriding; see internal/deploy.ClusterConfig for the schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/poexec/poe/internal/deploy"
)

// eventList collects repeated -at flags.
type eventList []deploy.Event

func (e *eventList) String() string { return fmt.Sprint(*e) }

func (e *eventList) Set(s string) error {
	ev, err := deploy.ParseEvent(s)
	if err != nil {
		return err
	}
	*e = append(*e, ev)
	return nil
}

func main() {
	configPath := flag.String("config", "", "JSON cluster config (internal/deploy.ClusterConfig); flags override")
	n := flag.Int("n", 0, "replica count (free 127.0.0.1 ports are allocated)")
	addrList := flag.String("addrs", "", "comma-separated explicit replica addresses (overrides -n)")
	f := flag.Int("f", 0, "faults tolerated (default (n-1)/3)")
	scheme := flag.String("scheme", "", "authentication scheme: mac|ts|ed|none")
	batch := flag.Int("batch", 0, "proposal batch size")
	checkpointInterval := flag.Int("checkpoint-interval", 0, "sequence numbers between checkpoints")
	window := flag.Int("window", 0, "out-of-order consensus window")
	viewTimeout := flag.Duration("view-timeout", 0, "cap of the learned failure-detection gate, whose floor is a third of it")
	seed := flag.String("seed", "", "shared key-ring seed")
	dataRoot := flag.String("data-root", "", "root for per-replica durable data dirs; empty = volatile")
	fsync := flag.Bool("fsync", false, "fsync the WAL on commit")
	runDir := flag.String("run-dir", "", "directory for per-replica logs and exit metrics (default: temp dir)")
	serverBin := flag.String("server-bin", "", "poeserver binary (default: sibling of this binary, then $PATH)")
	duration := flag.Duration("duration", 0, "run for this long then shut down gracefully (0 = until SIGTERM/SIGINT)")
	healthTimeout := flag.Duration("health-timeout", 15*time.Second, "how long to wait for every replica to accept connections")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown deadline before SIGKILL escalation")
	faultDrop := flag.Float64("fault-drop", 0, "chaos: per-replica outbound drop probability (forwarded to poeserver)")
	faultDup := flag.Float64("fault-dup", 0, "chaos: duplicate probability")
	faultReorder := flag.Float64("fault-reorder", 0, "chaos: reorder probability")
	faultDelay := flag.Duration("fault-delay", 0, "chaos: fixed outbound delay")
	faultJitter := flag.Duration("fault-jitter", 0, "chaos: ± jitter on the delay")
	faultSeed := flag.Int64("fault-seed", 0, "chaos: fault randomness seed")
	var events eventList
	flag.Var(&events, "at", "schedule a process fault: <offset>:<action>:<replica>, action = kill|stop|restart|wipe-restart (repeatable)")
	flag.Parse()

	var cfg deploy.ClusterConfig
	if *configPath != "" {
		var err error
		cfg, err = deploy.LoadClusterConfig(*configPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *addrList != "" {
		cfg.Addrs = strings.Split(*addrList, ",")
	}
	if *n > 0 {
		cfg.Replicas = *n
	}
	if *f > 0 {
		cfg.F = *f
	}
	if *scheme != "" {
		cfg.Scheme = *scheme
	}
	if *batch > 0 {
		cfg.Batch = *batch
	}
	if *checkpointInterval > 0 {
		cfg.CheckpointInterval = *checkpointInterval
	}
	if *window > 0 {
		cfg.Window = *window
	}
	if *viewTimeout > 0 {
		cfg.ViewTimeout = deploy.Duration(*viewTimeout)
	}
	if *seed != "" {
		cfg.Seed = *seed
	}
	if *dataRoot != "" {
		cfg.DataRoot = *dataRoot
	}
	if *fsync {
		cfg.Fsync = true
	}
	if *runDir != "" {
		cfg.RunDir = *runDir
	}
	if *serverBin != "" {
		cfg.ServerBin = *serverBin
	}
	if *faultDrop > 0 || *faultDup > 0 || *faultReorder > 0 || *faultDelay > 0 || *faultJitter > 0 {
		cfg.Fault = deploy.FaultProfile{
			Drop: *faultDrop, Duplicate: *faultDup, Reorder: *faultReorder,
			Delay: deploy.Duration(*faultDelay), Jitter: deploy.Duration(*faultJitter),
			Seed: *faultSeed,
		}
	}

	runner, err := deploy.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster of %d replicas starting; run dir %s\n", runner.N(), runner.RunDir())
	if err := runner.WaitHealthy(*healthTimeout); err != nil {
		runner.Shutdown(*grace)
		log.Fatal(err)
	}
	start := time.Now()
	fmt.Printf("healthy: %s\n", strings.Join(runner.Addrs(), ","))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		s := <-sig
		fmt.Printf("received %v, shutting the cluster down\n", s)
		cancel()
	}()
	if *duration > 0 {
		go func() {
			select {
			case <-time.After(*duration):
				cancel()
			case <-ctx.Done():
			}
		}()
	}

	// Apply the fault schedule (sorted by offset) while the clock runs.
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	schedErr := make(chan error, 1)
	go func() {
		if err := runner.RunSchedule(ctx, start, events); err != nil && ctx.Err() == nil {
			schedErr <- err
			return
		}
		schedErr <- nil
	}()

	select {
	case err := <-schedErr:
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedule failed: %v\n", err)
			runner.Shutdown(*grace)
			os.Exit(1)
		}
		// Schedule done; keep running until the duration or a signal ends
		// the run.
		<-ctx.Done()
	case <-ctx.Done():
	}

	if err := runner.Shutdown(*grace); err != nil {
		log.Fatal(err)
	}
	for id := 0; id < runner.N(); id++ {
		snap, err := runner.ReadMetrics(id)
		if err != nil {
			fmt.Printf("replica %d: no exit metrics (%v)\n", id, err)
			continue
		}
		fmt.Printf("replica %d: executed=%d txns (%d batches) checkpoints=%d view-changes=%d throughput=%.1f txn/s\n",
			id, snap.ExecutedTxns, snap.ExecutedBatches, snap.Checkpoints,
			snap.ViewChangesDone, snap.ThroughputTxnS)
	}
	fmt.Printf("run complete after %v; logs and metrics in %s\n",
		time.Since(start).Round(time.Millisecond), runner.RunDir())
}
