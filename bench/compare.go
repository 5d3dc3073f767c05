package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchmarkFile is the contract at the root of the repository. -compare
// takes the end-to-end metrics, their directions and their bounds from it,
// so that they are written down once.
const benchmarkFile = "BENCHMARK.json"

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// failBound is how far the failed share of a workload's requests may rise,
// as an absolute share.
const failBound = 0.001

// side is the untraced runs of one commit, by workload.
type side struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	seconds   map[string]int
	attempted map[string]int
	failed    map[string]int
	incorrect map[string]int
}

func loadSide(paths string) (*side, error) {
	s := &side{
		values: make(map[string]map[string][]float64), seconds: make(map[string]int),
		attempted: make(map[string]int), failed: make(map[string]int), incorrect: make(map[string]int),
	}
	for _, path := range strings.Split(paths, ",") {
		rf, err := readResults(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		for _, run := range rf.Runs {
			if run.Traced {
				continue
			}
			if prev, ok := s.seconds[run.Workload]; ok && prev != run.Seconds {
				return nil, fmt.Errorf("%s: %s was run for %d s and for %d s; windows of different length are not comparable", path, run.Workload, prev, run.Seconds)
			}
			s.seconds[run.Workload] = run.Seconds
			s.attempted[run.Workload] += run.Attempted
			s.failed[run.Workload] += run.Failed
			if !run.Correct {
				s.incorrect[run.Workload]++
			}
			if s.values[run.Workload] == nil {
				s.values[run.Workload] = make(map[string][]float64)
			}
			for name, m := range run.Metrics {
				s.values[run.Workload][name] = append(s.values[run.Workload][name], m.Value)
			}
		}
	}
	return s, nil
}

func (s *side) failShare(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// verdict judges one metric of one workload. worse is by how much of A's
// median B's median is worse; spread is the distance between A's quartiles
// as a share of its median. A metric whose own runs spread wider than the
// bound cannot show that it stayed within the bound: it is unresolved, unless
// B is worse by more than both.
func verdict(worse, spread, bound float64) string {
	switch {
	case worse > bound && worse > spread:
		return "REGRESSION"
	case spread > bound:
		return "unresolved"
	default:
		return "ok"
	}
}

// runCompare prints, per workload and end-to-end metric, each side's median
// and quartiles, the change and the bound, and returns 1 if any metric
// regressed, 2 if the comparison could not be made.
func runCompare(contractPath, pathsA, pathsB string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	if pathsA == "" || pathsB == "" {
		return fail(fmt.Errorf("need -a and -b"))
	}
	c, err := readContract(contractPath)
	if err != nil {
		return fail(err)
	}
	a, err := loadSide(pathsA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSide(pathsB)
	if err != nil {
		return fail(err)
	}
	regressed := false
	fmt.Printf("%-14s %-16s %36s %36s %8s %6s  %s\n", "workload", "metric", "A q1/median/q3 (runs)", "B q1/median/q3 (runs)", "worse", "bound", "verdict")
	for _, w := range c.Workloads {
		if len(a.values[w.Name]) == 0 || len(b.values[w.Name]) == 0 {
			fmt.Printf("%-14s not on both sides\n", w.Name)
			continue
		}
		if a.seconds[w.Name] != b.seconds[w.Name] {
			return fail(fmt.Errorf("%s: A ran %d s windows, B %d s", w.Name, a.seconds[w.Name], b.seconds[w.Name]))
		}
		for _, m := range c.EndToEnd {
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			v := verdict(worse, (a3-a1)/a2, m.Bound)
			regressed = regressed || v == "REGRESSION"
			fmt.Printf("%-14s %-16s %36s %36s %+7.1f%% %5.0f%%  %s\n", w.Name, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g %s (%d)", a1, a2, a3, m.Unit, len(va)),
				fmt.Sprintf("%.4g/%.4g/%.4g %s (%d)", b1, b2, b3, m.Unit, len(vb)),
				worse*100, m.Bound*100, v)
		}
		fa, fb := a.failShare(w.Name), b.failShare(w.Name)
		v := "ok"
		if fb > fa+failBound || b.incorrect[w.Name] > 0 {
			v, regressed = "REGRESSION", true
		}
		fmt.Printf("%-14s %-16s %36s %36s %+7.2f%% %5.1f%%  %s\n", w.Name, "failed share",
			fmt.Sprintf("%d of %d", a.failed[w.Name], a.attempted[w.Name]),
			fmt.Sprintf("%d of %d, %d runs incorrect", b.failed[w.Name], b.attempted[w.Name], b.incorrect[w.Name]),
			(fb-fa)*100, failBound*100, v)
	}
	if regressed {
		return 1
	}
	return 0
}
