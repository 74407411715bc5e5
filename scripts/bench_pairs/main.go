// Command bench_pairs measures a change against its parent commit with the
// repository's end-to-end benchmark. It runs pnbench (`bash bench/run.sh
// --trace 0`) in two checkouts in alternating pairs, one pair per seed and
// workload, the parent first on odd seeds and the change first on even
// ones, and has pnbench append each result line to <runs>/parent.jsonl or
// <runs>/change.jsonl (pnbench's -append format).
//
// It then judges every run in those two files. First it prints `pnbench
// -agree parent.jsonl change.jsonl`, run by the change's bench/run.sh: both
// medians with their quartiles and spreads, the bound, and the verdict
// worse, unresolved or within, by BENCHMARK.json's rule. Then, because only
// it pairs the runs by seed, it prints per workload each side's runs
// (incorrect, failed operations) and per end-to-end metric both medians,
// the pairs the change wins (ties count for neither), the parent's
// interquartile distance and whether the change is a gain: every seed has
// both runs, there are at least ten such pairs, the change has no more
// incorrect runs and no larger share of failed or refused operations than
// the parent, wins at least nine pairs in ten, and its median is better by
// more than the parent's interquartile distance. Last it prints the pnbench
// member of a BENCH_history.jsonl line: pairs, seeds, window and both
// sides' medians per workload.
//
// Usage, from the change's checkout:
//
//	go run ./scripts/bench_pairs -parent ../parent -change . -workloads hot-repeat -seeds 1-10 -runs ../pairs
//	go run ./scripts/bench_pairs -summarize -runs ../pairs
//
// Each run appends to the files in -runs, so pairs run in several
// invocations are judged together; -summarize judges the files without
// running anything. A run that ends without a result line stops the
// command: the runs before it stay recorded.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one line of pnbench's -append file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

// result is the part of pnbench's result line this command reads.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

var sideNames = [2]string{"parent", "change"}

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit")
	change := flag.String("change", ".", "checkout of the change")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	seeds := flag.String("seeds", "1-10", "seed range, first-last")
	runsDir := flag.String("runs", "", "directory of parent.jsonl and change.jsonl, which every run appends to")
	summarize := flag.Bool("summarize", false, "judge the runs already in -runs without running any")
	flag.Parse()

	data, err := os.ReadFile(filepath.Join(*change, "BENCHMARK.json"))
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	if *runsDir == "" {
		fatal("-runs is required")
	}
	dir, err := filepath.Abs(*runsDir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fatal("%v", err)
	}
	files := [2]string{filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")}
	if !*summarize {
		if *parent == "" {
			fatal("-parent is required")
		}
		lo, hi, err := seedRange(*seeds)
		if err != nil {
			fatal("%v", err)
		}
		wls := strings.Split(*workloads, ",")
		if *workloads == "" {
			wls = nil
			for _, w := range bf.Workloads {
				wls = append(wls, w.Name)
			}
		}
		if err := runPairs([2]string{*parent, *change}, files, wls, lo, hi, bf.RunSeconds); err != nil {
			fatal("%v", err)
		}
	}
	var sets [2]map[string]map[int64]*result
	for i, f := range files {
		if sets[i], err = readRuns(f); err != nil {
			fatal("%v", err)
		}
	}
	agree := exec.Command("bash", "bench/run.sh", "-agree", files[0], files[1])
	agree.Dir, agree.Stdout, agree.Stderr = *change, os.Stdout, os.Stderr
	agreeErr := agree.Run()
	fmt.Println()
	if err := summary(os.Stdout, &bf, sets); err != nil {
		fatal("%v", err)
	}
	if agreeErr != nil {
		fatal("pnbench -agree: %v", agreeErr)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench_pairs: "+format+"\n", args...)
	os.Exit(1)
}

func seedRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseInt(a, 10, 64); err == nil {
		hi, err = strconv.ParseInt(b, 10, 64)
	}
	if err != nil || lo > hi {
		return 0, 0, fmt.Errorf("bad seed range %q", s)
	}
	return lo, hi, nil
}

// runPairs runs one pair per seed and workload, seeds outermost; dirs and
// files are indexed parent, change.
func runPairs(dirs, files [2]string, workloads []string, lo, hi int64, seconds int) error {
	for seed := lo; seed <= hi; seed++ {
		for _, wl := range workloads {
			order := [2]int{0, 1}
			if seed%2 == 0 {
				order = [2]int{1, 0}
			}
			for _, i := range order {
				correct, err := pnbench(dirs[i], files[i], wl, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d %s: %w", wl, seed, sideNames[i], err)
				}
				verdict := "correct"
				if !correct {
					verdict = "INCORRECT"
				}
				fmt.Fprintf(os.Stderr, "bench_pairs: %s seed %d %s: %s\n", wl, seed, sideNames[i], verdict)
			}
		}
	}
	return nil
}

// pnbench runs the benchmark once in dir, appending its result line to
// file. A run whose correctness check failed exits 1 after appending its
// result; a run that appends nothing is an error.
func pnbench(dir, file, workload string, seed int64, seconds int) (correct bool, err error) {
	before := fileSize(file)
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--append", file)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	if fileSize(file) == before {
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		return false, fmt.Errorf("no result line (%v): %s", runErr, lines[len(lines)-1])
	}
	return runErr == nil, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// readRuns reads a result file as workload → seed → result. A workload and
// seed recorded twice is an error, since runs pair by seed.
func readRuns(path string) (map[string]map[int64]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[int64]*result{}
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
			set[rec.Workload] = map[int64]*result{}
		}
		if set[rec.Workload][rec.Seed] != nil {
			return nil, fmt.Errorf("%s: %s seed %d recorded twice", path, rec.Workload, rec.Seed)
		}
		set[rec.Workload][rec.Seed] = rec.Result
	}
	return set, sc.Err()
}

// side is one checkout's runs of one workload, by seed, with their counts.
type side struct {
	bySeed                             map[int64]*result
	runs, incorrect, failed, attempted int
}

func newSide(bySeed map[int64]*result) side {
	s := side{bySeed: bySeed}
	for _, r := range bySeed {
		s.runs++
		s.failed += r.Failed
		s.attempted += r.Attempted
		if !r.Correct {
			s.incorrect++
		}
	}
	return s
}

// failedShare is the share of operations that failed or were refused.
func (s side) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// row is the judgement of one metric on one workload.
type row struct {
	Parent, Change [3]float64 // each side's quartiles: lower, median, upper
	Wins, Pairs    int
	Verdict        string
}

// judge pairs one metric's runs by seed (seeds are every seed either side
// ran) and decides whether the change is a gain, by the rule in the package
// comment. A seed missing a side, or a run missing the metric, is a pair the
// change does not win.
func judge(m metric, seeds []int64, parent, change side) row {
	better := func(a, b float64) bool { // b is better than a
		if m.Better == "higher" {
			return b > a
		}
		return b < a
	}
	r := row{Pairs: len(seeds)}
	var pv, cv []float64
	complete := true
	for _, s := range seeds {
		p, pok := value(parent.bySeed[s], m.Name)
		c, cok := value(change.bySeed[s], m.Name)
		if pok {
			pv = append(pv, p)
		}
		if cok {
			cv = append(cv, c)
		}
		complete = complete && pok && cok
		if pok && cok && better(p, c) {
			r.Wins++
		}
	}
	r.Parent, r.Change = quartiles(pv), quartiles(cv)
	switch {
	case !complete:
		r.Verdict = "no gain: a pair is incomplete"
	case r.Pairs < 10:
		r.Verdict = "no gain: fewer than 10 pairs"
	case change.incorrect > parent.incorrect:
		r.Verdict = "no gain: more incorrect runs"
	case change.failedShare() > parent.failedShare():
		r.Verdict = "no gain: a larger share of operations failed"
	case r.Wins*10 < r.Pairs*9:
		r.Verdict = "no gain: fewer than 9 in 10 pairs won"
	case !better(r.Parent[1], r.Change[1]) || math.Abs(r.Change[1]-r.Parent[1]) <= r.Parent[2]-r.Parent[0]:
		r.Verdict = "no gain: medians within the parent's interquartile distance"
	default:
		r.Verdict = "gain"
	}
	return r
}

func value(r *result, name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	mv, ok := r.Metrics[name]
	return mv.Value, ok
}

// summary prints, per workload of BENCHMARK.json that either set holds,
// each side's runs and the judgement of every end-to-end metric, then the
// history line. sets are indexed parent, change.
func summary(w io.Writer, bf *benchmarkFile, sets [2]map[string]map[int64]*result) error {
	history := map[string]any{}
	for _, wl := range bf.Workloads {
		sides := [2]side{newSide(sets[0][wl.Name]), newSide(sets[1][wl.Name])}
		if sides[0].runs+sides[1].runs == 0 {
			continue
		}
		var seeds, paired []int64
		for s := range sides[0].bySeed {
			seeds = append(seeds, s)
		}
		for s := range sides[1].bySeed {
			if sides[0].bySeed[s] == nil {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			if sides[0].bySeed[s] != nil && sides[1].bySeed[s] != nil {
				paired = append(paired, s)
			}
		}
		fmt.Fprintf(w, "%s: %d pairs (seeds %v), %d seeds lack a run\n", wl.Name, len(paired), paired, len(seeds)-len(paired))
		for i, s := range sides {
			fmt.Fprintf(w, "  %-6s %d runs, %d incorrect, %d of %d operations failed or refused\n",
				sideNames[i], s.runs, s.incorrect, s.failed, s.attempted)
		}
		fmt.Fprintf(w, "  %-18s %11s %11s %8s %5s %11s  %s\n", "metric", "parent", "change", "rel", "wins", "parent IQR", "verdict")
		medians := [2]map[string]float64{{}, {}}
		for _, m := range bf.EndToEnd {
			r := judge(m, seeds, sides[0], sides[1])
			rel := (r.Change[1] - r.Parent[1]) / math.Abs(r.Parent[1])
			fmt.Fprintf(w, "  %-18s %11.5g %11.5g %+8.3f %2d/%-2d %11.5g  %s\n",
				m.Name, r.Parent[1], r.Change[1], rel, r.Wins, r.Pairs, r.Parent[2]-r.Parent[0], r.Verdict)
			medians[0][m.Name], medians[1][m.Name] = round4(r.Parent[1]), round4(r.Change[1])
		}
		history[wl.Name] = map[string]any{
			"pairs":    len(paired),
			"seeds":    paired,
			"window_s": bf.RunSeconds,
			"parent":   medians[0],
			"change":   medians[1],
		}
	}
	line, err := json.Marshal(map[string]any{"pnbench": history})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "history: %s\n", line)
	return nil
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// quartiles returns the lower quartile, median and upper quartile of xs by
// pnbench's rule (bench/pnbench/stats.go, Python's statistics.quantiles,
// method "exclusive"), so that they agree with `pnbench -agree`.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
