// Package workload generates the client workloads of the paper's evaluation
// (§IV "Configuration and Benchmarking"): a YCSB-style table of records
// accessed with a heavily skewed Zipfian distribution (skew factor 0.9), 90%
// write queries, and configurable payload sizes, plus the zero-payload mode.
//
// Generators are deterministic given their seed, so experiments are
// reproducible and replicas can pre-load identical tables — the same
// determinism contract the fault fabric (network.FaultNet) and the chaos
// scenarios build on.
//
// How generated transactions meet the rest of the system: each one is
// signed by its client and travels as a types.Request; on every replica the
// signature is checked off the event loop by the parallel authentication
// pipeline (protocol.Verifier) — once per replica, memoized thereafter —
// before the batcher aggregates requests into proposals. ValueSize × batch
// size therefore controls the PROPOSE payload each replica decodes and
// digests at ingress, which is why the harness's measured throughput is
// sensitive to this package's configuration even though no workload code
// runs on the hot path itself. Under chaos runs (harness.RunChaos), the
// open-loop generators double as the liveness probe: completions after a
// heal or view change are what certify the cluster recovered.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/poexec/poe/internal/types"
)

// Config describes a YCSB-style workload.
type Config struct {
	// Records is the number of active records in the table. The paper uses
	// 500 000; tests use smaller tables.
	Records int
	// WriteFraction is the fraction of operations that are writes. The
	// paper requires 0.9.
	WriteFraction float64
	// Zipf is the Zipfian skew factor (paper: 0.9). Zero means uniform.
	Zipf float64
	// ValueSize is the size in bytes of written values. Together with the
	// batch size this controls the PROPOSE message size (the paper's
	// standard payload is ~5400 B for a batch of 100).
	ValueSize int
	// OpsPerTxn is the number of operations per transaction (default 1).
	OpsPerTxn int
	// SpeculativeFraction and StrongFraction set the consistency mix for
	// read-only transactions: a read-only transaction is tagged SPECULATIVE
	// with probability SpeculativeFraction, STRONG with StrongFraction, and
	// ORDERED (full consensus, the pre-tiering behaviour) otherwise. Both
	// zero — the default — leaves every transaction ORDERED. Transactions
	// containing writes always order.
	SpeculativeFraction float64
	StrongFraction      float64
	// Seed seeds the generator.
	Seed int64
}

// DefaultConfig returns the paper's configuration scaled to the given table
// size (pass 500_000 for the paper's exact setup).
func DefaultConfig(records int) Config {
	return Config{
		Records:       records,
		WriteFraction: 0.9,
		Zipf:          0.9,
		ValueSize:     46, // ≈5400 B / 100 requests of PROPOSE payload + framing
		OpsPerTxn:     1,
		Seed:          42,
	}
}

// YCSBB returns the YCSB-B profile ("read mostly": 95% reads) with all
// reads tagged SPECULATIVE. This is the headline configuration for the
// tiered read path — nearly the whole load bypasses consensus.
func YCSBB(records int) Config {
	cfg := DefaultConfig(records)
	cfg.WriteFraction = 0.05
	cfg.SpeculativeFraction = 1.0
	return cfg
}

// YCSBC returns the YCSB-C profile ("read only": 100% reads) with all reads
// tagged SPECULATIVE.
func YCSBC(records int) Config {
	cfg := DefaultConfig(records)
	cfg.WriteFraction = 0
	cfg.SpeculativeFraction = 1.0
	return cfg
}

// Key returns the i-th record key. Keys are fixed-width so table layout is
// independent of record count.
func Key(i int) string { return fmt.Sprintf("user%012d", i) }

// InitialTable builds the initial table image loaded into every replica.
func InitialTable(cfg Config) map[string][]byte {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := make(map[string][]byte, cfg.Records)
	for i := 0; i < cfg.Records; i++ {
		v := make([]byte, cfg.ValueSize)
		rng.Read(v)
		m[Key(i)] = v
	}
	return m
}

// Generator produces transactions for one client.
type Generator struct {
	cfg    Config
	client types.ClientID
	rng    *rand.Rand
	zipf   *zipfian
	nextTS uint64
}

// NewGenerator creates a generator for the given client. Two generators with
// the same config and client produce the same transaction stream.
func NewGenerator(cfg Config, client types.ClientID) *Generator {
	if cfg.OpsPerTxn <= 0 {
		cfg.OpsPerTxn = 1
	}
	mix := uint64(cfg.Seed) ^ uint64(uint32(client))*0x9E3779B97F4A7C15
	rng := rand.New(rand.NewSource(int64(mix)))
	g := &Generator{cfg: cfg, client: client, rng: rng}
	if cfg.Zipf > 0 && cfg.Records > 1 {
		g.zipf = newZipfian(rng, cfg.Zipf, cfg.Records)
	}
	return g
}

func (g *Generator) pick() int {
	if g.zipf != nil {
		return g.zipf.next()
	}
	return g.rng.Intn(g.cfg.Records)
}

// Next produces the client's next transaction.
func (g *Generator) Next() types.Transaction {
	g.nextTS++
	txn := types.Transaction{Client: g.client, Seq: g.nextTS}
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		key := Key(g.pick())
		if g.rng.Float64() < g.cfg.WriteFraction {
			v := make([]byte, g.cfg.ValueSize)
			binary.BigEndian.PutUint64(v, g.nextTS)
			if len(v) >= 16 {
				binary.BigEndian.PutUint64(v[8:], uint64(g.client))
			}
			txn.Ops = append(txn.Ops, types.Op{Kind: types.OpWrite, Key: key, Value: v})
		} else {
			txn.Ops = append(txn.Ops, types.Op{Kind: types.OpRead, Key: key})
		}
	}
	if txn.ReadOnly() && (g.cfg.SpeculativeFraction > 0 || g.cfg.StrongFraction > 0) {
		u := g.rng.Float64()
		switch {
		case u < g.cfg.SpeculativeFraction:
			txn.Consistency = types.ConsistencySpeculative
		case u < g.cfg.SpeculativeFraction+g.cfg.StrongFraction:
			txn.Consistency = types.ConsistencyStrong
		}
	}
	return txn
}

// zipfian samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^theta, using the
// Gray et al. quick method (the same construction YCSB uses), which supports
// the theta < 1 regime the paper's skew factor 0.9 requires.
type zipfian struct {
	rng             *rand.Rand
	n               int
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
	halfPowTheta    float64
}

func newZipfian(rng *rand.Rand, theta float64, n int) *zipfian {
	z := &zipfian{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	z.halfPowTheta = 1.0 + math.Pow(0.5, theta)
	return z
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfian) next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
