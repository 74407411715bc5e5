package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readSet loads a result-set file (written by -append) as workload →
// metric → values, one value per run.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("%s: a line without a result", path)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Result.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], mv.Value)
		}
	}
	return set, sc.Err()
}

// agreeMain compares result sets a and b by BENCHMARK.json's rule. For each
// workload and metric it prints both sets' median and quartiles and the
// spread (interquartile distance over the median). A metric with a bound is
// "worse" when b's median is worse than a's by more than the bound, and
// "unresolved" when either spread exceeds the bound; an exact count must
// read the same in every run of both sets. The exit code is 1 when a metric
// is worse or an exact count differs.
func agreeMain(args []string, benchPath string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: pnbench -agree a.jsonl b.jsonl")
		return 2
	}
	bf, err := readBenchmark(benchPath)
	if err == nil {
		var a, b map[string]map[string][]float64
		if a, err = readSet(args[0]); err == nil {
			if b, err = readSet(args[1]); err == nil {
				return compareSets(bf, a, b, w)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "pnbench:", err)
	return 2
}

func compareSets(bf *benchmarkFile, a, b map[string]map[string][]float64, w io.Writer) int {
	failed := false
	metrics := append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...)
	fmt.Fprintf(w, "%-14s %-28s %12s %25s %12s %25s %7s %7s %6s  %s\n",
		"workload", "metric", "median(a)", "quartiles(a)", "median(b)", "quartiles(b)", "spr(a)", "spr(b)", "bound", "verdict")
	for _, wl := range bf.Workloads {
		ma, mb := a[wl.Name], b[wl.Name]
		if ma == nil || mb == nil {
			fmt.Fprintf(w, "%-14s (missing from a result set)\n", wl.Name)
			continue
		}
		for _, d := range metrics {
			va, vb := ma[d.Name], mb[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			sa, sb := spread(qa), spread(qb)
			verdict, bound := "info", "-"
			switch {
			case exactCounts[d.Name]:
				verdict = "exact"
				if !allEqual(append(append([]float64(nil), va...), vb...)) {
					verdict, failed = "MISMATCH", true
				}
			case d.Bound != nil:
				bound = fmt.Sprintf("%.2f", *d.Bound)
				worse := relWorse(qa[1], qb[1], d.Better)
				switch {
				case worse > *d.Bound:
					verdict, failed = fmt.Sprintf("WORSE by %.3f", worse), true
				case sa > *d.Bound || sb > *d.Bound:
					verdict = "unresolved"
				default:
					verdict = fmt.Sprintf("within (%+.3f)", worse)
				}
			}
			fmt.Fprintf(w, "%-14s %-28s %12.5g [%11.5g %11.5g] %12.5g [%11.5g %11.5g] %7.3f %7.3f %6s  %s\n",
				wl.Name, d.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], sa, sb, bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[0] == q[2] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// relWorse is how much worse b is than a, as a share of a (negative when
// better).
func relWorse(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

func allEqual(xs []float64) bool {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return len(sorted) == 0 || sorted[0] == sorted[len(sorted)-1]
}
