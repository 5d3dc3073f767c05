// Command bench is the repository's benchmark: it builds cmd/poeserver,
// launches a 4-replica PoE cluster of real processes on loopback TCP for a
// workload, offers it traffic from this one process, checks that what the
// cluster answered is correct and prints the end-to-end metrics (-trace 0)
// or the per-layer ledger (-trace 1). README.md in this directory describes
// every workload and metric.
//
//	go run ./bench -workload write_open -seed 1 -seconds 15 -trace 0
//	go run ./bench -compare -a a.json -b b.json
//
// No message delay is injected between the processes: latency here is
// processor and timer time, not network time.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the poeserver binary and,
// while a run lasts, the clusters' logs and data. The root .gitignore names
// it.
const buildDir = ".bench_build"

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs all of "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the arrival schedule and of the transactions")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	jsonPath := flag.String("json", "", "append the run to this results file (the input of -compare)")
	compare := flag.Bool("compare", false, "compare the results files -a and -b and exit non-zero on a regression")
	sideA := flag.String("a", "", "with -compare: comma-separated results files of the parent")
	sideB := flag.String("b", "", "with -compare: comma-separated results files of the change")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(benchmarkFile, *sideA, *sideB))
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	specs := workloads
	if *workload != "" {
		sp := findWorkload(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, workloadNames())
			os.Exit(2)
		}
		specs = []*spec{sp}
	}
	os.Exit(runAll(specs, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *jsonPath))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, sp := range workloads {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

// runAll runs the workloads one after the other and returns the exit code.
// Whatever ends the command — a failed gate, an error, a panic, SIGINT or
// SIGTERM — the clusters are shut down and their directories removed first.
func runAll(specs []*spec, seed int64, window time.Duration, traced bool, jsonPath string) (code int) {
	// The generator needs little more than the cores that carry its
	// goroutines; on a large machine it must not crowd the replicas out.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// Under "go run" a signal may reach only the go command: when the parent
	// is gone, nobody waits for this run any more.
	go func() {
		for parent := os.Getppid(); ctx.Err() == nil; time.Sleep(500 * time.Millisecond) {
			if os.Getppid() != parent {
				fmt.Fprintln(os.Stderr, "bench: parent process is gone, shutting down")
				cancel()
			}
		}
	}()

	workDir, err := newWorkDir(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	bin, err := buildServer(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := probeEnv(workDir)
	fmt.Printf("# %s\n# message delay injected between processes: 0 ms\n", env)

	var last result
	for _, sp := range specs {
		res, err := runWorkload(ctx, bin, workDir, sp, seed, window, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		if jsonPath != "" {
			rec := runRecord{Workload: sp.name, Seed: seed, Seconds: int(window.Seconds()), Traced: traced, result: res}
			if err := appendRun(jsonPath, env, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
		last = res
	}
	// The last line of standard output is the result as one JSON object.
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// runWorkload measures one workload and prints its metrics.
func runWorkload(ctx context.Context, bin, workDir string, sp *spec, seed int64, window time.Duration, traced bool) (result, error) {
	r := &report{workload: sp.name, metrics: make(map[string]metric)}
	fmt.Printf("# %s: %s\n", sp.name, sp.why)
	stolen, total := cpuTicks()
	defer func() {
		// On a shared host the hypervisor may run somebody else in this
		// machine's time; numbers taken meanwhile say little about the program.
		s, t := cpuTicks()
		if share := ratio(float64(s-stolen), float64(t-total)); share > 0.01 {
			fmt.Printf("# %s: WARNING: the host took %.1f%% of this machine's CPU time during the run (steal)\n", sp.name, share*100)
		}
	}()
	if traced {
		return runTraced(ctx, bin, workDir, sp, seed, window, r)
	}
	var passes []*passResult
	for i := 0; i < instances; i++ {
		pass, err := runPass(ctx, bin, workDir, sp, seed+int64(i)<<32, window/instances)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, pass)
	}
	reportEndToEnd(r, passes)
	return closeResult(r, passes...), nil
}

// closeResult sums the passes up: the gates decide correct, the windows'
// requests are attempted and failed.
func closeResult(r *report, passes ...*passResult) result {
	res := result{Correct: true, Metrics: r.metrics}
	for _, p := range passes {
		for _, g := range p.gates {
			fmt.Printf("%s GATE FAILED: %s\n", r.workload, g)
		}
		res.Correct = res.Correct && len(p.gates) == 0
		res.Attempted += len(p.samples)
		res.Failed += p.failed()
	}
	return res
}

// newWorkDir makes a fresh directory for one command's clusters under base.
func newWorkDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
