// Package deploy is the multi-process deployment layer: a config-driven
// cluster runner that launches real poeserver processes (os/exec), health
// checks them, forwards signals for graceful shutdown, collects their logs
// and exit metrics, and can kill / restart / wipe a named replica mid-run —
// the process-level analogue of the in-process harness scenarios
// (crash-restart, cold rejoin). The package also carries the open-loop load
// driver (load.go): Poisson arrivals at a target offered rate with an
// HDR-style latency histogram (hist.go), the methodology behind
// cmd/poeload's p50/p99/p999-vs-offered-load sweeps.
//
// cmd/poerun and cmd/poeload are thin flag shells over this package; the
// process-level e2e battery (e2e_test.go) drives the same Runner against
// real binaries built by the test itself.
package deploy

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/poexec/poe/internal/crypto"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("150ms", "2s") in JSON cluster configs.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting either a duration
// string or a bare number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("deploy: bad duration %q: %w", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("deploy: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// FaultProfile mirrors poeserver's -fault-* flags: a WAN emulation profile
// applied to every replica's outbound links through the chaos fabric
// (network.FaultNet). The zero value arms nothing.
type FaultProfile struct {
	Drop      float64  `json:"drop,omitempty"`
	Duplicate float64  `json:"duplicate,omitempty"`
	Reorder   float64  `json:"reorder,omitempty"`
	Delay     Duration `json:"delay,omitempty"`
	Jitter    Duration `json:"jitter,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
}

// IsZero reports whether the profile arms any fault.
func (p FaultProfile) IsZero() bool {
	return p.Drop == 0 && p.Duplicate == 0 && p.Reorder == 0 &&
		p.Delay == 0 && p.Jitter == 0
}

// args renders the profile as poeserver flags.
func (p FaultProfile) args() []string {
	if p.IsZero() {
		return nil
	}
	a := []string{
		"-fault-drop", fmt.Sprint(p.Drop),
		"-fault-dup", fmt.Sprint(p.Duplicate),
		"-fault-reorder", fmt.Sprint(p.Reorder),
		"-fault-delay", time.Duration(p.Delay).String(),
		"-fault-jitter", time.Duration(p.Jitter).String(),
	}
	if p.Seed != 0 {
		a = append(a, "-fault-seed", strconv.FormatInt(p.Seed, 10))
	}
	return a
}

// ClusterConfig describes one multi-process cluster: how many replicas,
// where they listen, how they are tuned, where their state and logs live,
// and which fault profile (if any) shapes their links. It loads from JSON
// (LoadClusterConfig) or is built by flags in cmd/poerun.
type ClusterConfig struct {
	// Replicas is the cluster size (n). Ignored when Addrs is set.
	Replicas int `json:"replicas,omitempty"`
	// Addrs lists explicit listen addresses, index = replica id. Empty
	// means "allocate free 127.0.0.1 ports at Start".
	Addrs []string `json:"addrs,omitempty"`
	// F is the fault tolerance; 0 means (n-1)/3.
	F int `json:"f,omitempty"`
	// Scheme is the authentication scheme: mac|ts|ed|none (default mac).
	Scheme string `json:"scheme,omitempty"`
	// Batch is the proposal batch size (default: poeserver's default).
	Batch int `json:"batch,omitempty"`
	// CheckpointInterval, Window, and ViewTimeout tune the protocol; zero
	// leaves poeserver's defaults.
	CheckpointInterval int      `json:"checkpoint_interval,omitempty"`
	Window             int      `json:"window,omitempty"`
	ViewTimeout        Duration `json:"view_timeout,omitempty"`
	// Seed is the shared deterministic key-ring seed.
	Seed string `json:"seed,omitempty"`
	// DataRoot, when set, gives each replica a durable data directory
	// (DataRoot/replica-<id>) — required for crash-restart and wipe-rejoin
	// scenarios. Empty runs the cluster volatile.
	DataRoot string `json:"data_root,omitempty"`
	// Fsync makes the WAL fsync on commit.
	Fsync bool `json:"fsync,omitempty"`
	// Fault is the WAN-emulation profile forwarded as -fault-* flags.
	Fault FaultProfile `json:"fault,omitempty"`
	// ServerBin is the poeserver binary to launch. Empty resolves, in
	// order: a "poeserver" next to the calling executable, then $PATH.
	ServerBin string `json:"server_bin,omitempty"`
	// RunDir collects per-replica stdout logs and exit-metrics JSON. Empty
	// means a fresh temp directory (reported by Runner.RunDir).
	RunDir string `json:"run_dir,omitempty"`
	// ExtraArgs are appended verbatim to every replica's command line.
	ExtraArgs []string `json:"extra_args,omitempty"`
}

// LoadClusterConfig reads a JSON ClusterConfig from path.
func LoadClusterConfig(path string) (ClusterConfig, error) {
	var cfg ClusterConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("deploy: parse %s: %w", path, err)
	}
	return cfg, nil
}

// withDefaults validates and completes the config.
func (c ClusterConfig) withDefaults() (ClusterConfig, error) {
	if len(c.Addrs) > 0 {
		c.Replicas = len(c.Addrs)
	}
	if c.Replicas == 0 {
		c.Replicas = 4
	}
	if c.Replicas < 4 {
		return c, fmt.Errorf("deploy: need at least 4 replicas, got %d", c.Replicas)
	}
	if c.Scheme == "" {
		c.Scheme = "mac"
	}
	if _, err := crypto.ParseScheme(c.Scheme); err != nil {
		return c, fmt.Errorf("deploy: %w", err)
	}
	if c.Seed == "" {
		c.Seed = "poe-demo-seed"
	}
	return c, nil
}

// serverArgs builds replica id's poeserver command line.
func (c ClusterConfig) serverArgs(id int, addrs []string, metricsPath string) []string {
	args := []string{
		"-id", strconv.Itoa(id),
		"-peers", strings.Join(addrs, ","),
		"-scheme", c.Scheme,
		"-seed", c.Seed,
	}
	if c.F > 0 {
		args = append(args, "-f", strconv.Itoa(c.F))
	}
	if c.Batch > 0 {
		args = append(args, "-batch", strconv.Itoa(c.Batch))
	}
	if c.CheckpointInterval > 0 {
		args = append(args, "-checkpoint-interval", strconv.Itoa(c.CheckpointInterval))
	}
	if c.Window > 0 {
		args = append(args, "-window", strconv.Itoa(c.Window))
	}
	if c.ViewTimeout > 0 {
		args = append(args, "-view-timeout", time.Duration(c.ViewTimeout).String())
	}
	if c.DataRoot != "" {
		args = append(args, "-data-dir", filepath.Join(c.DataRoot, fmt.Sprintf("replica-%d", id)))
	}
	if c.Fsync {
		args = append(args, "-fsync")
	}
	if metricsPath != "" {
		args = append(args, "-metrics-json", metricsPath)
	}
	args = append(args, c.Fault.args()...)
	args = append(args, c.ExtraArgs...)
	return args
}

// resolveServerBin locates the poeserver binary per ClusterConfig.ServerBin.
func (c ClusterConfig) resolveServerBin() (string, error) {
	if c.ServerBin != "" {
		return c.ServerBin, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "poeserver")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("poeserver"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("deploy: poeserver binary not found (set ServerBin / -server-bin)")
}

// FreePorts reserves n distinct 127.0.0.1 TCP ports by binding and
// releasing ephemeral listeners. The usual race applies — another process
// may grab a port between release and reuse — so callers launching on these
// addresses should treat a bind failure as retryable.
func FreePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("deploy: allocate port: %w", err)
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}
