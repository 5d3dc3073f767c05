package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// environment is the tuple every output records: numbers taken on different
// commits, toolchains or machines are not comparable.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	FsyncUs    float64 `json:"fsync_probe_us"`
}

func (e environment) String() string {
	return fmt.Sprintf("commit %s, %s, %d CPUs (%s), GOMAXPROCS %d, kernel %s, fsync probe %.0f us",
		e.Commit, e.GoVersion, e.NumCPU, e.CPUModel, e.GoMaxProcs, e.Kernel, e.FsyncUs)
}

// probeEnv records where the run happens. dir is where the durable
// workloads' data will live, so the fsync probe times that file system.
func probeEnv(dir string) environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		FsyncUs:    fsyncProbe(dir),
	}
	// The benchmark also runs from an exported tree, where git has nothing
	// to say.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	return e
}

// fsyncProbe returns the median time, in µs, of a 4 KiB write followed by an
// fsync in dir: what one WAL group commit costs on this disk. 0 if the probe
// could not run.
func fsyncProbe(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var took []float64
	for i := 0; i < 21; i++ {
		began := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		took = append(took, float64(time.Since(began).Nanoseconds())/1e3)
	}
	return median(took)
}

// runRecord is one run in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	result
}

// resultsFile is what -json writes and -compare reads: the runs of one
// commit on one machine.
type resultsFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendRun adds rec to the results file at path, creating it if need be. A
// file holds the runs of one environment only.
func appendRun(path string, env environment, rec runRecord) error {
	rf, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf.Env = env
	case err != nil:
		return err
	case rf.Env.Commit != env.Commit || rf.Env.GoVersion != env.GoVersion || rf.Env.CPUModel != env.CPUModel || rf.Env.NumCPU != env.NumCPU:
		return fmt.Errorf("%s holds runs of another environment (%s); write this one to a new file", path, rf.Env)
	}
	rf.Runs = append(rf.Runs, rec)
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
