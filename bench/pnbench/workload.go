package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/serve"
)

// The four traffic mixes. Each stresses different layers of pnserve, so a
// change to one layer has a workload that exercises it and one that does not.
const (
	coldOpen     = "cold-open"     // open loop of fresh characterises: the pipeline, cache encode, spill writes
	hotRepeat    = "hot-repeat"    // closed loop over a warmed pool: HTTP, cache decode, spill, journal, SSE, pll
	sweepBatch   = "sweep-batch"   // back-to-back 64-point sweeps: sweep engine, bulk spill writes and reads
	mixedTenants = "mixed-tenants" // interactive open loop beside the sweep client: the two-lane scheduler
)

var workloads = []string{coldOpen, hotRepeat, sweepBatch, mixedTenants}

const (
	// coldOpenRate is about a quarter of the cold mix's capacity with two
	// closed-loop clients (bench/README.md): over BENCHMARK.json's 25 s it
	// gives 100 samples, the fewest that support a p90. At half the capacity
	// the p90 rested on queueing behind the slow models and swung with it.
	coldOpenRate = 4.0
	// mixedRate is the interactive arrival rate beside the sweep client: over
	// 25 s, 100 samples. The sweep keeps one worker, so the interactive jobs
	// (~130 ms each) share the other; at 6 req/s they kept it 75% busy, and a
	// machine 20% slower saturated it, so latency swung with the machine's
	// speed at two to four times its own spread.
	mixedRate = 4.0
	// hotClients is the closed-loop client count of hot-repeat.
	hotClients = 2
	// sweepPoints is the size of every generated sweep.
	sweepPoints = 64
	// directSpecs sizes the traced run's samples: the generated specs it
	// calls the layers' functions on directly, and the interactive jobs whose
	// loss-free results it fetches.
	directSpecs = 24
)

// request is one generated foreground request; exactly one body is set.
type request struct {
	Index   int                        `json:"index"`
	Due     time.Duration              `json:"due_ns,omitempty"` // open loop: send time after the window start
	Char    *serve.CharacteriseRequest `json:"characterise,omitempty"`
	Compose *serve.ComposeRequest      `json:"compose,omitempty"`
	Sweep   *serve.SweepRequest        `json:"sweep,omitempty"`
}

// specs lists the point specs the request characterises, in the order the
// server reports their point events' indices.
func (r *request) specs() []serve.PointSpec {
	switch {
	case r.Char != nil:
		return []serve.PointSpec{r.Char.PointSpec}
	case r.Compose != nil:
		return r.Compose.SpecLegs()
	case r.Sweep != nil:
		return r.Sweep.Points
	}
	return nil
}

// sub returns a generator seeded from (seed, stream, i), so every request is
// a pure function of the seed and its index however many are drawn.
func sub(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_731 + int64(i)))
}

// draw is one model of a traffic mix: its share of requests and the range
// one parameter is spread over. Ranges stay inside what every model
// characterises without failure.
type draw struct {
	share  int
	model  string
	param  string
	lo, hi float64
}

var (
	coldMix = []draw{
		{25, "hopf", "omega", 1, 20},
		{25, "vanderpol", "mu", 0.5, 4},
		{20, "negres", "f0", 5e7, 2e8},
		{15, "ring", "iee", 280e-6, 380e-6},
		{15, "fhn", "eps", 0.06, 0.1},
	}
	// interactiveMix is the mixed-tenants interactive stream and the model
	// cycle of the sweep client (in that order).
	interactiveMix = []draw{
		{34, "hopf", "omega", 1, 20},
		{33, "vanderpol", "mu", 0.5, 4},
		{33, "negres", "f0", 5e7, 2e8},
	}
)

// spec builds the point spec of d with its parameter set to v.
func (d draw) spec(v float64) serve.PointSpec {
	p := map[string]float64{d.param: v}
	if d.model == "hopf" {
		p["lambda"], p["sigma"] = 1, 0.02
	}
	return serve.PointSpec{Model: d.model, Params: p}
}

// stratified spreads n values over [lo, hi): one uniform draw in each of n
// equal strata, in random order. Every seed then covers the range the same
// way, which keeps the work per run, and so its timing, steady across seeds.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for k, s := range rng.Perm(n) {
		out[k] = lo + (float64(s)+rng.Float64())/float64(n)*(hi-lo)
	}
	return out
}

// golden is the fractional golden ratio, the step of the low-discrepancy
// sequences below.
const golden = 0.6180339887498949

// coldRequests are cold-open's requests: the cold mix at a constant rate.
func coldRequests(seed int64, seconds int) []request {
	return openLoop(coldMix, coldOpenRate, seconds, seed)
}

// interactiveRequests are mixed-tenants' interactive requests.
func interactiveRequests(seed int64, seconds int) []request {
	return openLoop(interactiveMix, mixedRate, seconds, seed)
}

// openLoop generates the n = rate·seconds requests of an open-loop stream.
// The send times are evenly spaced: with Poisson arrivals the bursts queued
// requests behind one another, and that queueing grew faster than the
// machine slowed, so on a shared host the latency's spread across runs was
// two to three times the machine's (bench/README.md). The models take the
// mix's proportions spread evenly over the window (stride scheduling). Both
// are fixed in the code, so every run faces the same interleaving of heavy
// and light models, and the spread across seeds measures the server and the
// machine rather than luck in the draw; the seed draws the parameters,
// stratified per model.
func openLoop(mix []draw, rate float64, seconds int, seed int64) []request {
	n := int(math.Round(rate * float64(seconds)))
	due := make([]float64, n)
	for i := range due {
		due[i] = (float64(i) + 0.5) / float64(n) * float64(seconds)
	}

	type slot struct {
		pos   float64
		model int
	}
	counts := apportion(mix, n)
	var slots []slot
	for m, c := range counts {
		phase := math.Mod(float64(m)*golden, 1)
		for k := 0; k < c; k++ {
			slots = append(slots, slot{(float64(k) + phase) / float64(c), m})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })

	rng := sub(seed, 1, 0)
	values := make([][]float64, len(mix))
	for m, d := range mix {
		values[m] = stratified(rng, counts[m], d.lo, d.hi)
	}
	reqs := make([]request, n)
	for i, s := range slots {
		v := values[s.model][0]
		values[s.model] = values[s.model][1:]
		reqs[i] = request{
			Index: i,
			Due:   time.Duration(due[i] * float64(time.Second)),
			Char:  &serve.CharacteriseRequest{PointSpec: mix[s.model].spec(v)},
		}
	}
	return reqs
}

// apportion splits n by the mix's shares with the largest-remainder rule.
func apportion(mix []draw, n int) []int {
	total := 0
	for _, d := range mix {
		total += d.share
	}
	counts := make([]int, len(mix))
	rem := make([]int, len(mix))
	left := n
	for i, d := range mix {
		counts[i] = n * d.share / total
		rem[i] = n * d.share % total
		left -= counts[i]
	}
	order := make([]int, len(mix))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; k < left; k++ {
		counts[order[k]]++
	}
	return counts
}

// fixedWarmup is the warm-up of every workload but hot-repeat: one spec of
// each cold-mix model that no measured spec repeats (defaults, and a Hopf
// just above the measured ω range), including bandpass and the nominal ring,
// whose c and f0 the paper pins.
var fixedWarmup = []serve.PointSpec{
	{Model: "bandpass"}, {Model: "ring"}, coldMix[0].spec(25),
	{Model: "vanderpol"}, {Model: "negres"}, {Model: "fhn"},
}

// pool is hot-repeat's 24-spec working set, characterised during warm-up:
// 6 hopf, 6 vanderpol, 6 negres, 2 fhn, 2 ring (one nominal), bandpass and
// colpitts. Its ~45 MB of cached payload fits the server's 64 MiB cache.
// Popularity ranks follow the fixed model order below and only parameters
// come from the seed, so the cost of the popular specs, and with it the
// latency, does not swing from seed to seed.
func pool(seed int64) []serve.PointSpec {
	rng := sub(seed, 2, 0)
	byModel := map[string][]serve.PointSpec{}
	for _, d := range []struct {
		draw
		n int
	}{
		{coldMix[0], 6}, {coldMix[1], 6}, {coldMix[2], 6}, {coldMix[4], 2}, {coldMix[3], 1},
	} {
		for _, v := range stratified(rng, d.n, d.lo, d.hi) {
			byModel[d.model] = append(byModel[d.model], d.spec(v))
		}
	}
	byModel["ring"] = append(byModel["ring"], serve.PointSpec{Model: "ring"})
	byModel["bandpass"] = []serve.PointSpec{{Model: "bandpass"}}
	byModel["colpitts"] = []serve.PointSpec{{Model: "colpitts"}}
	// The fhn and ring specs, whose hits take three to four times as long as
	// the others', are the least popular: about 5% of requests touch one.
	// Ranked among the others they drew 9–10%, and the p90 fell in the gap
	// between them and the composes, reading 270 to 420 ms from run to run.
	rank := []string{
		"hopf", "vanderpol", "negres", "hopf", "bandpass", "vanderpol", "negres", "hopf",
		"vanderpol", "negres", "colpitts", "hopf", "vanderpol", "negres", "hopf", "vanderpol",
		"negres", "hopf", "vanderpol", "negres", "fhn", "ring", "fhn", "ring",
	}
	out := make([]serve.PointSpec, 0, len(rank))
	for _, m := range rank {
		out = append(out, byModel[m][0])
		byModel[m] = byModel[m][1:]
	}
	return out
}

// zipf maps u in [0, 1) to a pool rank through the inverse CDF of
// P(k) ∝ k^-1.1, k = 1..n.
func zipf(u float64, n int) int {
	const s = 1.1
	var total float64
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
	}
	u *= total
	for k := 1; k <= n; k++ {
		u -= math.Pow(float64(k), -s)
		if u < 0 {
			return k - 1
		}
	}
	return n - 1
}

// hotRequest is hot-repeat's i-th request. Every fourth request composes
// one or two PLL stages (alternately) whose oscillator legs are pool specs
// and whose loop bandwidths the seed draws; the others characterise a pool
// spec. Pool ranks follow Zipf(s = 1.1) through a golden-ratio sequence
// offset by the seed, so every stretch of requests hits each spec in its
// Zipf share and seeds differ in order, not in the work.
func hotRequest(seed int64, pl []serve.PointSpec, i int) request {
	offset := sub(seed, 3, -1).Float64()
	draw := 3 * i
	pick := func() serve.PointSpec {
		u := math.Mod(offset+float64(draw)*golden, 1)
		draw++
		return pl[zipf(u, len(pl))]
	}
	if i%4 != 3 {
		return request{Index: i, Char: &serve.CharacteriseRequest{PointSpec: pick()}}
	}
	rng := sub(seed, 3, i)
	leg := func() serve.ComposeLeg {
		sp := pick()
		return serve.ComposeLeg{Spec: &sp}
	}
	bw := func() float64 { return math.Pow(10, -3+3*rng.Float64()) }
	ref := leg()
	stages := []serve.ComposeStage{{Ref: &ref, VCO: leg(), LoopBandwidthHz: bw()}}
	if i%8 == 7 {
		stages = append(stages, serve.ComposeStage{VCO: leg(), LoopBandwidthHz: bw()})
	}
	c := &serve.ComposeRequest{Stages: stages, JitterBandHz: [2]float64{1e-2, 1e2}}
	c.Grid.StartHz, c.Grid.StopHz = 1e-3, 1e3
	return request{Index: i, Compose: c}
}

// sweepRequest is the k-th job of the sweep client: 64 fresh points whose
// models cycle hopf, vanderpol, negres (22, 21 and 21 points), each model's
// values stratified over its range. Every job then costs about the same, so
// the job latency does not depend on how many jobs fit in the window.
func sweepRequest(seed int64, k int) request {
	rng := sub(seed, 4, k)
	nm := len(interactiveMix)
	values := make([][]float64, nm)
	for m, d := range interactiveMix {
		values[m] = stratified(rng, (sweepPoints-m+nm-1)/nm, d.lo, d.hi)
	}
	pts := make([]serve.PointSpec, sweepPoints)
	for i := range pts {
		pts[i] = interactiveMix[i%nm].spec(values[i%nm][i/nm])
	}
	return request{Index: k, Sweep: &serve.SweepRequest{Points: pts}}
}

// directSet is the first 24 generated specs of a workload: the inputs of
// the traced run's direct calls into the layers.
func directSet(name string, seed int64, seconds int) []serve.PointSpec {
	var specs []serve.PointSpec
	switch name {
	case coldOpen:
		for _, r := range coldRequests(seed, seconds) {
			specs = append(specs, r.specs()...)
		}
	case hotRepeat:
		specs = pool(seed)
	case sweepBatch:
		r := sweepRequest(seed, 0)
		specs = r.specs()
	case mixedTenants:
		for _, r := range interactiveRequests(seed, seconds) {
			specs = append(specs, r.specs()...)
		}
	}
	if len(specs) > directSpecs {
		specs = specs[:directSpecs]
	}
	return specs
}
