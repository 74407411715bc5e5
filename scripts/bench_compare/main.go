// Command bench_compare runs the gated benchmark set and compares the
// results against the checked-in BENCH_baseline.json, failing (exit 1) on
//
//   - any single benchmark drifting more than 10% slower than the suite as a
//     whole (per-benchmark ns/op regression, noise-cancelled — see below), or
//   - the whole suite slowing beyond what host-speed calibration explains
//     (a global ns/op regression that uniform drift would otherwise hide), or
//   - allocs/op above the baseline beyond 0.1% (allocation regressions get
//     essentially no slack: the integrator hot paths are engineered to be
//     allocation-free and a new alloc per op is a code change, not machine
//     noise; the 0.1% absorbs go test's ±1 rounding of the per-op average).
//
// Shared CI runners and laptops do not have stable single-core throughput:
// the same commit can measure ±20% apart minutes later, and that swing hits
// the allocation- and memory-heavy pipeline benchmarks harder than any fixed
// synthetic workload, so no calibration loop can fully correct absolute
// ns/op. What a host swing cannot do is slow one benchmark and not the other
// five — so the primary gate is relative: each benchmark's drift ratio
// (current / baseline) is divided by the suite's median drift, cancelling
// host-wide swings while leaving single-benchmark regressions exposed. A
// uniform regression (all benchmarks slower together, e.g. a pessimised
// shared kernel) would fool that gate, so a second, looser check compares
// the median drift itself against the host-speed scale estimated from a
// fixed floating-point calibration workload. Allocs/op are machine
// independent and compared (near-)exactly.
//
// Usage:
//
//	go run ./scripts/bench_compare            # compare against baseline
//	go run ./scripts/bench_compare -update    # re-measure and rewrite baseline
//	go run ./scripts/bench_compare -count 5   # more interleaved repetitions
//
// Run it from the repository root (the Makefile target `bench-compare` does).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gated lists the benchmarks enforced by the gate, per package. Keep this
// set small and stable: each entry is a promise that its performance is
// load-bearing AND that its run-to-run spread on a quiet host is well under
// the 10% gate (BenchmarkShootingHopf, for instance, is excluded: at ~2ms/op
// it swings ~20% with GC phase, and the shooting path is covered end-to-end
// by the sweep benchmark anyway). The sweep benchmark covers the whole
// pipeline (shooting → Floquet → quadrature) through the sweep engine; the
// ode entry isolates the RK4 kernel from the orchestration above it.
var gated = []struct {
	pkg     string
	benches []string
}{
	{".", []string{
		"BenchmarkSweepSerial8",
		"BenchmarkFloquetAnalyze",
		"BenchmarkCharacteriseBandpass",
	}},
	{"./internal/ode", []string{
		"BenchmarkScalarRK4x8",
	}},
	// The composition engine is served per-request (thousands of compose jobs
	// fan in on a handful of characterisations), so its mask-evaluation hot
	// loop is gated too — pure arithmetic, microseconds/op, very low spread.
	{"./internal/pll", []string{
		"BenchmarkPLLCompose",
	}},
	// The spill store is on every served point's path (append) and every
	// result download's path (page); the benchmark keeps file creation and
	// cleanup off the clock, so what's gated is the steady-state frame
	// traffic, which is page-cache-backed and low-spread.
	{"./internal/serve", []string{
		"BenchmarkResultSpill",
	}},
}

const (
	relSlack         = 1.10 // per-benchmark drift vs the suite median drift
	globalSlack      = 1.30 // suite median drift vs the calibrated host scale
	allocSlackPerMil = 1    // allocs/op slack in 0.1% units (go test rounding)
	baselineFile     = "BENCH_baseline.json"
)

// Entry is one benchmark's recorded performance.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the schema of BENCH_baseline.json.
type Baseline struct {
	// CalibrationNs is the duration of the fixed calibration workload on
	// the machine that recorded the baseline; used to scale ns thresholds.
	CalibrationNs float64          `json:"calibration_ns"`
	Benchmarks    map[string]Entry `json:"benchmarks"`
}

func main() {
	update := flag.Bool("update", false, "re-measure and rewrite "+baselineFile)
	count := flag.Int("count", 5, "interleaved benchmark repetitions; min ns/op and max allocs/op across them are used")
	flag.Parse()

	calib := calibrate()
	fmt.Printf("bench_compare: calibration %.0f ns\n", calib)

	got, err := runBenchmarks(*count)
	if err != nil {
		fatal("%v", err)
	}

	// Calibrate again after the suite: on shared hosts throughput can sag
	// mid-run, and a single pre-suite sample would mis-scale the ns limits
	// for benchmarks that ran in a different speed window. When comparing,
	// keep the slower figure (a slow host deserves a higher limit); when
	// recording the baseline, keep the faster one (a lucky-fast calibration
	// must not tighten every future compare).
	after := calibrate()
	if *update {
		calib = math.Min(calib, after)
	} else if after > calib {
		fmt.Printf("bench_compare: post-suite calibration %.0f ns (host slowed during run; using it)\n", after)
		calib = after
	}

	if *update {
		b := Baseline{
			CalibrationNs: calib,
			Benchmarks:    got,
		}
		buf, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fatal("marshal baseline: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(baselineFile, buf, 0o644); err != nil {
			fatal("write baseline: %v", err)
		}
		fmt.Printf("bench_compare: wrote %s (%d benchmarks)\n", baselineFile, len(got))
		return
	}

	base, err := loadBaseline()
	if err != nil {
		fatal("%v (run with -update to create it)", err)
	}
	scale := calib / base.CalibrationNs
	fmt.Printf("bench_compare: machine speed scale vs baseline: %.2fx\n", scale)

	failures := compare(base, got, scale)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "bench_compare: %d regression(s); if intentional, refresh the baseline with `go run ./scripts/bench_compare -update`\n", len(failures))
		os.Exit(1)
	}
	fmt.Printf("bench_compare: %d benchmarks within thresholds\n", len(got))
}

func loadBaseline() (Baseline, error) {
	var b Baseline
	buf, err := os.ReadFile(baselineFile)
	if err != nil {
		return b, fmt.Errorf("read %s: %w", baselineFile, err)
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", baselineFile, err)
	}
	if b.CalibrationNs <= 0 || len(b.Benchmarks) == 0 {
		return b, fmt.Errorf("%s: missing calibration_ns or benchmarks", baselineFile)
	}
	return b, nil
}

func compare(base Baseline, got map[string]Entry, scale float64) []string {
	var failures []string

	// The suite's median drift (current/baseline ns/op across all gated
	// benchmarks) estimates the host-wide speed swing common to every
	// benchmark; per-benchmark regressions are judged after dividing it out.
	var drifts []float64
	for _, grp := range gated {
		for _, name := range grp.benches {
			cur, okC := got[name]
			ref, okR := base.Benchmarks[name]
			if okC && okR && ref.NsPerOp > 0 {
				drifts = append(drifts, cur.NsPerOp/ref.NsPerOp)
			}
		}
	}
	if len(drifts) == 0 {
		return []string{"no benchmarks overlap between this run and " + baselineFile}
	}
	med := median(drifts)
	fmt.Printf("bench_compare: suite median ns/op drift %.2fx, calibrated host scale %.2fx\n", med, scale)
	if med > scale*globalSlack {
		failures = append(failures, fmt.Sprintf(
			"suite-wide slowdown: median ns/op drift %.2fx exceeds the calibrated host scale %.2fx by more than %d%% — a uniform regression, not host noise",
			med, scale, int(globalSlack*100)-100))
	}

	for _, grp := range gated {
		for _, name := range grp.benches {
			cur, ok := got[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: benchmark did not run", name))
				continue
			}
			ref, ok := base.Benchmarks[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: missing from %s", name, baselineFile))
				continue
			}
			rel := cur.NsPerOp / ref.NsPerOp / med
			status := "ok"
			if rel > relSlack {
				status = "SLOW"
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op is %.0f%% above baseline %.0f ns/op after removing the suite-wide %.2fx drift (limit +%d%%)",
					name, cur.NsPerOp, (rel-1)*100, ref.NsPerOp, med, int(relSlack*100)-100))
			}
			allocLimit := ref.AllocsPerOp + ref.AllocsPerOp*allocSlackPerMil/1000
			if cur.AllocsPerOp > allocLimit {
				status = "ALLOCS"
				failures = append(failures, fmt.Sprintf(
					"%s: %d allocs/op exceeds baseline %d allocs/op (limit %d; allocation regressions gate at 0.1%%)",
					name, cur.AllocsPerOp, ref.AllocsPerOp, allocLimit))
			}
			fmt.Printf("  %-32s %12.0f ns/op (baseline %12.0f, rel drift %+5.1f%%)  %8d allocs/op (baseline %8d)  %s\n",
				name, cur.NsPerOp, ref.NsPerOp, (rel-1)*100, cur.AllocsPerOp, ref.AllocsPerOp, status)
		}
	}
	return failures
}

// runBenchmarks executes the gated set `count` times with the packages
// interleaved — pkg A, pkg B, pkg A, pkg B, … rather than A×count then
// B×count — so every benchmark's samples are spread across the whole run's
// wall time. On hosts whose throughput sags in minutes-long windows this is
// what keeps the baseline internally consistent: back-to-back repetitions of
// one package all land in the same window and bake its speed into that
// package's numbers alone. The fold is then the minimum ns/op (interference
// only ever adds time, so the best sample over a spread of windows is the
// most reproducible estimate of true cost) and the maximum allocs/op (an
// alloc seen in any run is real — counts only vary when code paths differ).
func runBenchmarks(count int) (map[string]Entry, error) {
	samples := make(map[string]*benchSamples)
	for rep := 0; rep < count; rep++ {
		for _, grp := range gated {
			regex := "^(" + strings.Join(grp.benches, "|") + ")$"
			args := []string{"test", "-run", "^$", "-bench", regex, "-benchmem",
				"-count", "1", "-timeout", "30m", grp.pkg}
			fmt.Printf("bench_compare: [%d/%d] go %s\n", rep+1, count, strings.Join(args, " "))
			cmd := exec.Command("go", args...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("go test -bench %s: %w\n%s", grp.pkg, err, out.String())
			}
			if err := parseBench(out.String(), samples); err != nil {
				return nil, fmt.Errorf("parse %s output: %w", grp.pkg, err)
			}
		}
	}
	results := make(map[string]Entry, len(samples))
	for name, s := range samples {
		results[name] = Entry{NsPerOp: minOf(s.ns), AllocsPerOp: s.maxAllocs}
	}
	return results, nil
}

func minOf(xs []float64) float64 {
	m := math.MaxFloat64
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

type benchSamples struct {
	ns        []float64
	maxAllocs int64
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseBench accumulates `go test -bench` text output lines of the form
//
//	BenchmarkName-8   27   41181215 ns/op   11764708 B/op   78328 allocs/op
//
// into per-benchmark sample sets.
func parseBench(out string, samples map[string]*benchSamples) error {
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		var ns float64
		var allocs int64 = -1
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = int64(v)
			}
		}
		if ns == 0 || allocs < 0 {
			return fmt.Errorf("line %q: missing ns/op or allocs/op (is -benchmem set?)", sc.Text())
		}
		s, seen := samples[name]
		if !seen {
			s = &benchSamples{}
			samples[name] = s
		}
		s.ns = append(s.ns, ns)
		if allocs > s.maxAllocs {
			s.maxAllocs = allocs
		}
	}
	return sc.Err()
}

// calibrate times a fixed allocation-free floating-point workload — the same
// mix of multiplies, adds, and a transcendental that dominates the RK4 and
// adjoint kernels — and returns the best-of-five duration in nanoseconds.
// The workload is deliberately serial and cache-resident so it tracks
// single-core FP throughput, which is what the gated benchmarks (Workers:1)
// are bound by.
func calibrate() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		s := 1.0
		for i := 1; i <= 2_000_000; i++ {
			x := float64(i)
			s += x * 1e-7
			s -= s * s * 1e-9
			if i%1024 == 0 {
				s += math.Exp(-s * s)
			}
		}
		d := float64(time.Since(start).Nanoseconds())
		if s == 0 { // defeat dead-code elimination
			fmt.Fprintln(os.Stderr, "calibration underflow")
		}
		if d < best {
			best = d
		}
	}
	return best
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench_compare: "+format+"\n", args...)
	os.Exit(1)
}
