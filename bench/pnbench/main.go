// Command pnbench is the end-to-end benchmark of pnserve (bench/run.sh builds
// both from the checkout). For one workload (a traffic mix) and one seed it
// starts pnserve as a child process, warms it up, drives the workload through
// internal/pnclient for a measured window, checks every answer, and prints
// each metric as "name value unit" followed by one JSON line:
//
//	{"correct": true, "attempted": 100, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) repeats the workload untraced and then traced with the same
// seed, reports the per-layer metrics, and writes the benchmark's spans and
// the metrics to <workdir>/out/<workload>.trace.jsonl and .layers.json.
//
// Usage:
//
//	pnbench -workload cold-open -seed 1 -seconds 25 -trace 0 -pnserve .bench_build/pnserve
//	pnbench -agree a.jsonl b.jsonl
//
// -append file adds each run's result, tagged with workload, seed and trace
// flag, as one JSON line to file; -agree compares two such result sets by
// BENCHMARK.json's rule. The process exits 1 when a correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	pnserve  string
	workdir  string
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The load generator is one process on two cores, like the server.
	runtime.GOMAXPROCS(2)
	var o options
	var trace int
	var appendPath string
	var agree bool
	flag.StringVar(&o.workload, "workload", coldOpen, "workload: cold-open, hot-repeat, sweep-batch or mixed-tenants")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (1 while developing, 2 as the holdout)")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.pnserve, "pnserve", ".bench_build/pnserve", "pnserve binary to benchmark")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the servers' journal directories and the traced-run output")
	flag.StringVar(&appendPath, "append", "", "append this run's result as one JSON line to this file")
	flag.BoolVar(&agree, "agree", false, "compare the two result-set files given as arguments")
	flag.Parse()
	if agree {
		os.Exit(agreeMain(flag.Args(), "BENCHMARK.json", os.Stdout))
	}
	o.trace = trace == 1
	if !slices.Contains(workloads, o.workload) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "pnbench: want -workload in %v and -seconds >= 1\n", workloads)
		os.Exit(2)
	}
	// A run must end within 180 s; a stuck server fails it before then.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pnbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res, o.trace)
	if appendPath != "" {
		if err := appendResult(appendPath, o, res); err != nil {
			fmt.Fprintln(os.Stderr, "pnbench:", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// setups is how many times an untraced run sets the server up; setup_s is
// their median. Each costs 0.8 s, 2 s on hot-repeat, out of a budget of
// about 30 s a run (bench/README.md).
const setups = 3

// run measures one workload: untraced with several set-ups, or untraced then
// traced with one set-up each.
func run(ctx context.Context, o options) (*result, error) {
	if !o.trace {
		p, err := runPass(ctx, o, false, setups)
		if err != nil {
			return nil, err
		}
		return p.result(endToEndValues(p)), nil
	}
	base, err := runPass(ctx, o, false, 1)
	if err != nil {
		return nil, err
	}
	p, err := runPass(ctx, o, true, 1)
	if err != nil {
		return nil, err
	}
	vals := p.layers
	vals["obs.trace_overhead_frac"] = traceOverhead(base, p)
	res := p.result(vals)
	res.Attempted += len(base.window)
	res.Failed += base.failed()
	res.Correct = res.Correct && base.correct()
	for _, pr := range base.problems {
		fmt.Fprintln(os.Stderr, "pnbench: untraced pass:", pr)
	}
	if err := writeTrace(o, p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// traceOverhead is the traced pass's median latency over the untraced
// pass's, each at the reference machine's speed, minus 1.
func traceOverhead(base, traced *pass) float64 {
	m := median(base.latencies()) * base.probe.scale()
	if m == 0 {
		return 0
	}
	return median(traced.latencies())*traced.probe.scale()/m - 1
}

// result assembles the JSON line from a pass and its metric values.
func (p *pass) result(vals map[string]float64) *result {
	defs := endToEnd
	if p.traced {
		defs = perLayer
	}
	res := &result{
		Correct:   p.correct(),
		Attempted: len(p.window),
		Failed:    p.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	for _, pr := range p.problems {
		fmt.Fprintln(os.Stderr, "pnbench:", pr)
	}
	return res
}

// printResult prints every metric as "name value unit", then the JSON line.
func printResult(w io.Writer, res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(res.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// runRecord is one line of a result-set file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendResult(path string, o options, res *result) error {
	line, err := json.Marshal(runRecord{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the traced pass's spans and per-layer metrics to
// <workdir>/out.
func writeTrace(o options, p *pass, res *result) error {
	out := filepath.Join(o.workdir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, o.workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range p.rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds,
		"metrics": res.Metrics, "samples": p.samples,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, o.workload+".layers.json"), append(layers, '\n'), 0o644)
}
