package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/deploy"
)

const (
	replicas = 4
	// Scheme and key-ring seed are poeserver's own defaults; the clients
	// must be given the same.
	scheme   = "mac"
	ringSeed = "poe-demo-seed"
	// shutdownGrace is how long a replica may take to flush and write its
	// exit metrics before it is killed.
	shutdownGrace = 10 * time.Second
)

// buildServer compiles cmd/poeserver into dir and returns the binary's path.
// With a warm build cache this takes a fraction of a second.
func buildServer(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "poeserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "github.com/poexec/poe/cmd/poeserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build poeserver: %w\n%s", err, out)
	}
	return bin, nil
}

// cluster is one 4-replica PoE cluster of poeserver processes on loopback
// TCP, with the client identities connected to it.
type cluster struct {
	dir     string
	runner  *deploy.Runner
	pids    []int // index = replica id
	ids     []*identity
	closeCl func()
	cancel  context.CancelFunc
}

// startCluster launches the replicas with poeserver's defaults (no tuning
// flag; -data-dir and -fsync only when durable), connects n identities and
// has each complete one request, a marker written to its private key "pre".
// Until then only the primary knows where to send a client's replies, so
// the first request of a client costs a retransmission time-out; the measured
// traffic must not pay for that.
func startCluster(ctx context.Context, bin, dir string, sp *spec, seed int64) (*cluster, error) {
	cfg := deploy.ClusterConfig{
		Replicas:  replicas,
		ServerBin: bin,
		RunDir:    filepath.Join(dir, "run"),
	}
	if sp.durable {
		cfg.DataRoot = filepath.Join(dir, "data")
		cfg.Fsync = true
	}
	runner, err := deploy.Start(cfg)
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &cluster{dir: dir, runner: runner, cancel: cancel, closeCl: func() {}}
	if err := c.connect(cctx, sp, seed); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) connect(ctx context.Context, sp *spec, seed int64) error {
	if err := c.runner.WaitHealthy(15 * time.Second); err != nil {
		return err
	}
	var err error
	if c.pids, err = replicaPIDs(c.runner.Addrs()); err != nil {
		return err
	}
	pool, closeCl, err := deploy.NewTCPClients(ctx, deploy.ClientPoolOptions{
		Addrs: c.runner.Addrs(), Scheme: scheme, Seed: ringSeed, Count: sp.identities,
	})
	if err != nil {
		return err
	}
	c.closeCl = closeCl
	wcfg := sp.workload(seed)
	for _, lc := range pool {
		sub, ok := lc.Sub.(submitter)
		if !ok {
			return fmt.Errorf("deploy client %T cannot serve tiered reads", lc.Sub)
		}
		c.ids = append(c.ids, newIdentity(lc.ID, sub, wcfg, sp.probeEvery))
	}
	return eachIdentity(c.ids, func(id *identity) error {
		rctx, cancel := context.WithTimeout(ctx, 2*requestTimeout)
		defer cancel()
		return id.writePrivate(rctx, "pre")
	})
}

// eachIdentity runs fn once per identity, all at the same time, and returns
// the first error.
func eachIdentity(ids []*identity, fn func(*identity) error) error {
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id *identity) {
			defer wg.Done()
			errs[i] = fn(id)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stop closes the clients, stops every replica that still runs and removes
// the cluster's directory. It returns the exit metrics of the replicas that
// shut down gracefully, index = replica id, nil for one that was killed.
func (c *cluster) stop() ([]*protocol.MetricsSnapshot, error) {
	c.closeCl()
	c.cancel()
	alive := make([]bool, replicas)
	for id := range alive {
		alive[id] = c.runner.Alive(id)
	}
	err := c.runner.Shutdown(shutdownGrace)
	snaps := make([]*protocol.MetricsSnapshot, replicas)
	for id := range snaps {
		if !alive[id] || err != nil {
			continue
		}
		snap, rerr := c.runner.ReadMetrics(id)
		if rerr != nil {
			err = rerr
			continue
		}
		snaps[id] = &snap
	}
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return snaps, err
}

// --- what the operating system knows about the replica processes ---

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux reports
// them in USER_HZ, which is 100 on every architecture Go runs on.
const userHz = 100

// replicaPIDs finds the poeserver children of this process that serve the
// cluster at addrs (the Runner does not expose them) and orders them by
// their -id flag.
func replicaPIDs(addrs []string) ([]int, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self, n, peers := os.Getpid(), len(addrs), strings.Join(addrs, ",")
	pids := make([]int, n)
	found := 0
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		comm, ppid, _, err := readStat(pid)
		if err != nil || ppid != self || comm != "poeserver" {
			continue
		}
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err != nil {
			continue
		}
		id, ours := -1, false
		args := strings.Split(string(raw), "\x00")
		for i := 0; i+1 < len(args); i++ {
			switch args[i] {
			case "-id":
				id, _ = strconv.Atoi(args[i+1])
			case "-peers":
				ours = args[i+1] == peers
			}
		}
		if ours && id >= 0 && id < n && pids[id] == 0 {
			pids[id] = pid
			found++
		}
	}
	if found != n {
		return nil, fmt.Errorf("found %d of %d poeserver children under /proc", found, n)
	}
	return pids, nil
}

// readStat parses /proc/<pid>/stat: the command name, the parent and the CPU
// time (user + system) the process has used.
func readStat(pid int) (comm string, ppid int, cpu time.Duration, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return "", 0, 0, err
	}
	// The command sits in parentheses and may itself hold spaces or ')'.
	open, shut := bytes.IndexByte(raw, '('), bytes.LastIndexByte(raw, ')')
	if open < 0 || shut < open {
		return "", 0, 0, fmt.Errorf("/proc/%d/stat: no command", pid)
	}
	comm = string(raw[open+1 : shut])
	f := strings.Fields(string(raw[shut+1:])) // f[0] is field 3, the state
	if len(f) < 13 {
		return "", 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ppid, _ = strconv.Atoi(f[1])
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return comm, ppid, time.Duration(utime+stime) * time.Second / userHz, nil
}

// procField returns the number that follows "name:" in a /proc file of
// "name: value [unit]" lines, such as /proc/<pid>/status and /proc/<pid>/io.
func procField(path, name string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no field %s", path, name)
}

// loopbackCounters returns the bytes and packets the loopback interface has
// carried (each is counted once: what lo transmits it also receives).
func loopbackCounters() (bytes, packets int64, err error) {
	raw, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "lo:"); ok {
			f := strings.Fields(rest)
			if len(f) < 2 {
				break
			}
			bytes, _ = strconv.ParseInt(f[0], 10, 64)
			packets, _ = strconv.ParseInt(f[1], 10, 64)
			return bytes, packets, nil
		}
	}
	return 0, 0, fmt.Errorf("/proc/net/dev: no lo interface")
}

// cpuTicks returns the steal time and the total time of all CPUs since boot,
// in clock ticks, from the first line of /proc/stat; zeros if it cannot be
// read.
func cpuTicks() (stolen, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			stolen = n
		}
	}
	return stolen, total
}

// usage is one reading of what the replica processes and the generator have
// consumed so far.
type usage struct {
	replicaCPU []time.Duration // index = replica id
	diskBytes  int64           // bytes the replicas sent to the block layer
	genCPU     time.Duration
	loBytes    int64
	loPackets  int64
}

// readUsage samples every live replica; one that is gone keeps the value
// carried in prev (its last reading before it was killed).
func readUsage(pids []int, prev *usage) (usage, error) {
	u := usage{replicaCPU: make([]time.Duration, len(pids))}
	for id, pid := range pids {
		_, _, cpu, err := readStat(pid)
		if err != nil {
			if prev == nil {
				return u, err
			}
			u.replicaCPU[id] = prev.replicaCPU[id]
			continue
		}
		u.replicaCPU[id] = cpu
		// Unreadable where the kernel has no task I/O accounting; the disk
		// figure then stays 0.
		if b, err := procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes"); err == nil {
			u.diskBytes += b
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, err
	}
	u.genCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var err error
	u.loBytes, u.loPackets, err = loopbackCounters()
	return u, err
}

// peakRSS returns the largest resident set any of the processes has had, MiB.
func peakRSS(pids []int) float64 {
	var peak int64
	for _, pid := range pids {
		if kb, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM"); err == nil && kb > peak {
			peak = kb
		}
	}
	return float64(peak) / 1024
}
