package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// record is a canned line of pnbench's -append file.
func record(workload string, seed int64, correct bool, failed int, metrics map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"workload":%q,"seed":%d,"trace":false,"result":{"correct":%v,"attempted":100,"failed":%d,"metrics":{`,
		workload, seed, correct, failed)
	first := true
	for name, v := range metrics {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%q:{"value":%v,"unit":"x"}`, name, v)
	}
	b.WriteString("}}}\n")
	return b.String()
}

// sideOf builds one side's runs of cpu_ms_per_point, seeds 1..len(values).
func sideOf(t *testing.T, values []float64, incorrect, failed int) side {
	t.Helper()
	var text strings.Builder
	for i, v := range values {
		f := 0
		if i == 0 {
			f = failed
		}
		text.WriteString(record("hot-repeat", int64(i+1), i >= incorrect, f, map[string]float64{"cpu_ms_per_point": v}))
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	return newSide(set["hot-repeat"])
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "cpu_ms_per_point", Better: "lower"}
	seq := func(from, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = from + step*float64(i)
		}
		return xs
	}
	seeds := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		name                   string
		m                      metric
		seeds                  int
		parent, change         []float64
		changeIncorrect        int
		parentFail, changeFail int
		verdict                string
		wins                   int
	}{
		{"gain", lower, 10, seq(4.0, 0.02, 10), seq(2.0, 0.02, 10), 0, 0, 0, "gain", 10},
		{"gain, both sides failing alike", lower, 10, seq(4.0, 0.02, 10), seq(2.0, 0.02, 10), 0, 3, 3, "gain", 10},
		{"too few pairs", lower, 5, seq(4.0, 0.02, 5), seq(2.0, 0.02, 5), 0, 0, 0, "no gain: fewer than 10", 5},
		{"a seed without its change run", lower, 11, seq(4.0, 0.02, 11), seq(2.0, 0.02, 10), 0, 0, 0, "no gain: a pair is incomplete", 10},
		{"10 of 10 won but more failed operations", lower, 10, seq(4.0, 0.02, 10), seq(2.0, 0.02, 10), 0, 0, 1, "no gain: a larger share", 10},
		{"10 of 10 won but an incorrect run", lower, 10, seq(4.0, 0.02, 10), seq(2.0, 0.02, 10), 1, 0, 0, "no gain: more incorrect", 10},
		{"wins 8 of 10", lower, 10, seq(4.0, 0.02, 10), append(seq(3.0, 0.01, 8), 4.5, 4.6), 0, 0, 0, "no gain: fewer than 9 in 10", 8},
		{"medians within the parent's spread", lower, 10, []float64{1, 9, 1, 9, 1, 9, 1, 9, 1, 9}, []float64{0.9, 8.9, 0.9, 8.9, 0.9, 8.9, 0.9, 8.9, 0.9, 8.9}, 0, 0, 0, "no gain: medians within", 10},
		{"higher is better", metric{Name: "cpu_ms_per_point", Better: "higher"}, 10, seq(0.5, 0.001, 10), seq(0.9, 0.001, 10), 0, 0, 0, "gain", 10},
	}
	for _, c := range cases {
		r := judge(c.m, seeds(c.seeds), sideOf(t, c.parent, 0, c.parentFail), sideOf(t, c.change, c.changeIncorrect, c.changeFail))
		if !strings.HasPrefix(r.Verdict, c.verdict) || r.Wins != c.wins || r.Pairs != c.seeds {
			t.Errorf("%s: verdict %q with %d/%d wins, want %q with %d/%d", c.name, r.Verdict, r.Wins, r.Pairs, c.verdict, c.wins, c.seeds)
		}
	}
}

// TestQuartiles: pnbench's rule (Python's exclusive method), which
// extrapolates beyond the extremes for few runs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		if q := quartiles(c.xs); q != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, q, c.want)
		}
	}
}

func TestReadRunsRejectsASeedRecordedTwice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	line := record("hot-repeat", 3, true, 0, map[string]float64{"cpu_ms_per_point": 2})
	if err := os.WriteFile(path, []byte(line+line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRuns(path); err == nil || !strings.Contains(err.Error(), "seed 3 recorded twice") {
		t.Fatalf("readRuns = %v, want a seed recorded twice", err)
	}
}

// TestSummaryPairsRunsAndPrintsHistory: runs pair by workload and seed, a
// seed with one run counts as a pair that lacks a run, correctness is
// counted per side, and the history member holds both sides' medians.
func TestSummaryPairsRunsAndPrintsHistory(t *testing.T) {
	bf := &benchmarkFile{RunSeconds: 25, EndToEnd: []metric{
		{Name: "cpu_ms_per_point", Better: "lower"},
		{Name: "disk_mb_per_point", Better: "lower"},
	}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"hot-repeat"})
	sets := [2]map[string]map[int64]*result{{"hot-repeat": {}}, {"hot-repeat": {}}}
	add := func(i int, seed int64, cpu float64, correct bool) {
		sets[i]["hot-repeat"][seed] = &result{Correct: correct, Attempted: 100, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{"cpu_ms_per_point": {cpu}, "disk_mb_per_point": {1.3}}}
	}
	for seed := int64(1); seed <= 3; seed++ {
		add(0, seed, 4+float64(seed)/10, true)
		add(1, seed, 2+float64(seed)/10, seed != 2)
	}
	add(0, 4, 4.4, true) // no change run
	var out bytes.Buffer
	if err := summary(&out, bf, sets); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"hot-repeat: 3 pairs (seeds [1 2 3]), 1 seeds lack a run",
		"parent 4 runs, 0 incorrect",
		"change 3 runs, 1 incorrect",
		"3/4",
		"no gain: a pair is incomplete",
		`history: {"pnbench":{"hot-repeat":{"change":{"cpu_ms_per_point":2.2,"disk_mb_per_point":1.3},"pairs":3,"parent":{"cpu_ms_per_point":4.25,"disk_mb_per_point":1.3},"seeds":[1,2,3],"window_s":25}}}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summary lacks %q:\n%s", want, text)
		}
	}
}

// TestRunPairsAlternatesAndStopsWithoutAResult drives runPairs against two
// stand-in checkouts whose bench/run.sh logs its call and appends a canned
// result, the change's only for seed 1.
func TestRunPairsAlternatesAndStopsWithoutAResult(t *testing.T) {
	root := t.TempDir()
	log := filepath.Join(root, "calls.log")
	var dirs, files [2]string
	for i, name := range sideNames {
		dirs[i] = filepath.Join(root, name)
		files[i] = filepath.Join(root, name+".jsonl")
		if err := os.MkdirAll(filepath.Join(dirs[i], "bench"), 0o755); err != nil {
			t.Fatal(err)
		}
		cond := "true"
		if name == "change" {
			cond = `[ "$seed" = 1 ]`
		}
		script := fmt.Sprintf(`while [ $# -gt 0 ]; do
  case $1 in --workload) wl=$2;; --seed) seed=$2;; --append) out=$2;; esac
  shift 2
done
echo "%s $wl $seed" >> %q
if %s; then
  printf '{"workload":"%%s","seed":%%s,"trace":false,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{}}}\n' "$wl" "$seed" >> "$out"
else
  echo "pnbench: server did not start" >&2
  exit 1
fi
`, name, log, cond)
		if err := os.WriteFile(filepath.Join(dirs[i], "bench", "run.sh"), []byte(script), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := runPairs(dirs, files, []string{"hot-repeat"}, 1, 3, 25)
	if err == nil || !strings.Contains(err.Error(), "hot-repeat seed 2 change: no result line") ||
		!strings.Contains(err.Error(), "server did not start") {
		t.Fatalf("runPairs = %v, want it stopped at seed 2's change run", err)
	}
	calls, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if want := "parent hot-repeat 1\nchange hot-repeat 1\nchange hot-repeat 2\n"; string(calls) != want {
		t.Fatalf("calls:\n%swant:\n%s", calls, want)
	}
	for i, want := range []int{1, 1} {
		set, err := readRuns(files[i])
		if err != nil || len(set["hot-repeat"]) != want {
			t.Fatalf("%s runs recorded: %v (%v), want %d", sideNames[i], set, err, want)
		}
	}
}
