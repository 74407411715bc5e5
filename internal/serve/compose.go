package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/pll"
	"repro/internal/sweep"
)

// ComposeLeg is one oscillator leg of a composition request: either inline
// numbers (the embedded pll.Leg — a known f0/c pair or a datasheet FOM) or a
// Spec naming a registered model, in which case the leg is characterised
// through the same pipeline, retry ladder and content-addressed cache as any
// sweep point. That resolution is the whole point of serving composition:
// thousands of cheap compose jobs fan in on a handful of cached
// characterisations, and a leg the cache already holds never recomputes.
type ComposeLeg struct {
	// Spec, when non-nil, characterises the leg server-side; its result
	// fills the leg's F0Hz, C and PerSource (the Sources subset selection
	// still applies). Mutually exclusive with inline F0Hz/C/FOM.
	Spec *PointSpec `json:"spec,omitempty"`
	pll.Leg
}

// ComposeStage mirrors pll.Stage with servable legs.
type ComposeStage struct {
	Name              string      `json:"name,omitempty"`
	Ref               *ComposeLeg `json:"ref,omitempty"`
	VCO               ComposeLeg  `json:"vco"`
	LoopBandwidthHz   float64     `json:"loop_bandwidth_hz"`
	PhaseMarginDeg    float64     `json:"phase_margin_deg,omitempty"`
	DividerN          float64     `json:"divider_n,omitempty"`
	PFDNoisedBcHz     float64     `json:"pfd_noise_dbc_hz,omitempty"`
	DividerNoisedBcHz float64     `json:"divider_noise_dbc_hz,omitempty"`
}

// ComposeRequest is the body of POST /v1/compose: a PLL/clock-chain
// composition whose oscillator legs may be inline numbers or characterise-
// through-the-cache specs.
type ComposeRequest struct {
	Stages       []ComposeStage         `json:"stages"`
	Grid         pll.Grid               `json:"grid"`
	JitterBandHz [2]float64             `json:"jitter_band_hz,omitempty"`
	Realization  *pll.RealizationConfig `json:"realization,omitempty"`
	TimeoutMS    int64                  `json:"timeout_ms,omitempty"`
	NoCache      bool                   `json:"no_cache,omitempty"`
}

// ComposeContributor is one noise path's headline number in the summary.
type ComposeContributor struct {
	Name      string  `json:"name"`
	JitterSec float64 `json:"jitter_sec"`
}

// ComposeSummary is the compact composition outcome carried in job status
// and SSE events — the headline numbers without the grid-sized masks. The
// full pll.Result (masks, per-contributor spectra, realization) is
// compose_result in GET /v1/jobs/{id}?full=1 on a terminal job.
type ComposeSummary struct {
	CarrierHz    float64              `json:"carrier_hz"`
	GridPoints   int                  `json:"grid_points"`
	BandHz       [2]float64           `json:"band_hz"`
	JitterRad    float64              `json:"jitter_rad"`
	JitterSec    float64              `json:"jitter_sec"`
	Contributors []ComposeContributor `json:"contributors,omitempty"`
}

func summarizeCompose(r *pll.Result) ComposeSummary {
	s := ComposeSummary{
		CarrierHz:  r.CarrierHz,
		GridPoints: len(r.FHz),
		BandHz:     r.BandHz,
		JitterRad:  r.JitterRad,
		JitterSec:  r.JitterSec,
	}
	for _, c := range r.Contributors {
		s.Contributors = append(s.Contributors, ComposeContributor{Name: c.Name, JitterSec: c.JitterSec})
	}
	return s
}

// Validate shape-checks the request exactly as submission does; CLI front
// ends call it before doing any characterisation work.
func (req *ComposeRequest) Validate() error { return req.validate() }

// SpecLegs returns the legs that need characterisation, in the order
// BuildConfig consumes results — the pnpll CLI runs them through the local
// sweep engine where the server would run them through its job queue.
func (req *ComposeRequest) SpecLegs() []PointSpec { return req.specLegs() }

// BuildConfig resolves the request into a runnable pll.Config from
// characterisation results in SpecLegs order.
func (req *ComposeRequest) BuildConfig(results []sweep.PointResult) (*pll.Config, error) {
	return req.buildConfig(results)
}

// specLegs collects the legs that need a server-side characterisation, in
// deterministic order (per stage: ref, then vco) — the same order
// buildConfig consumes results in.
func (req *ComposeRequest) specLegs() []PointSpec {
	var specs []PointSpec
	for i := range req.Stages {
		st := &req.Stages[i]
		if st.Ref != nil && st.Ref.Spec != nil {
			specs = append(specs, *st.Ref.Spec)
		}
		if st.VCO.Spec != nil {
			specs = append(specs, *st.VCO.Spec)
		}
	}
	return specs
}

// validate rejects structurally bad requests at submission time, before the
// job queues: leg exclusivity here, loop/grid/realization shape via the
// composition engine's own validator (spec legs are checked as point specs
// by submit). Numeric leg validation (c > 0, source names) happens at
// compose time, after characterisation fills the legs in.
func (req *ComposeRequest) validate() error {
	if len(req.Stages) == 0 {
		return fmt.Errorf("compose needs at least one stage")
	}
	leg := func(l *ComposeLeg, pos string) error {
		if l.Spec == nil {
			return nil
		}
		if l.FOM != nil || l.F0Hz != 0 || l.C != 0 || len(l.PerSource) > 0 {
			return fmt.Errorf("%s: give either a spec or inline f0/c/fom values, not both", pos)
		}
		return nil
	}
	for i := range req.Stages {
		st := &req.Stages[i]
		if st.Ref != nil {
			if err := leg(st.Ref, fmt.Sprintf("stage %d ref", i)); err != nil {
				return err
			}
		}
		if err := leg(&st.VCO, fmt.Sprintf("stage %d vco", i)); err != nil {
			return err
		}
	}
	// Shape-check everything that does not depend on characterised numbers.
	cfg := req.buildShape()
	return cfg.Validate()
}

// buildShape assembles the pll.Config skeleton: stages, loop knobs, grid,
// band, realization. Spec legs keep their zero numeric fields — Validate
// does not inspect legs, and buildConfig fills them from results.
func (req *ComposeRequest) buildShape() *pll.Config {
	cfg := &pll.Config{
		Grid:         req.Grid,
		JitterBandHz: req.JitterBandHz,
		Realization:  req.Realization,
		Stages:       make([]pll.Stage, len(req.Stages)),
	}
	for i := range req.Stages {
		st := &req.Stages[i]
		cfg.Stages[i] = pll.Stage{
			Name:              st.Name,
			VCO:               st.VCO.Leg,
			LoopBandwidthHz:   st.LoopBandwidthHz,
			PhaseMarginDeg:    st.PhaseMarginDeg,
			DividerN:          st.DividerN,
			PFDNoisedBcHz:     st.PFDNoisedBcHz,
			DividerNoisedBcHz: st.DividerNoisedBcHz,
		}
		if st.Ref != nil {
			ref := st.Ref.Leg
			cfg.Stages[i].Ref = &ref
		}
	}
	return cfg
}

// fillLeg turns a characterised point's scalars into leg numbers, so a
// cached leg is never decoded: carrier from the period, the scalar c, and
// the per-source split so a Sources selection in the request still applies.
// A failed leg fails the whole composition with the point's own error —
// budget/panic classification intact, so errors.Is against the pipeline
// sentinels works on the client after a JSON round trip (sweep.RemoteError).
func fillLeg(l *pll.Leg, spec *PointSpec, r *sweep.PointResult) error {
	sc, ok := r.Scalars()
	if !ok {
		name := spec.Name
		if name == "" {
			name = spec.Model
		}
		return fmt.Errorf("compose leg %q: %w", name, r.Err)
	}
	if l.Name == "" {
		l.Name = r.Name
	}
	l.F0Hz = sc.F0()
	l.C = sc.C
	l.PerSource = perSource(sc.PerSource)
	return nil
}

func perSource(src []core.SourceContribution) []pll.SourceC {
	if len(src) == 0 {
		return nil
	}
	out := make([]pll.SourceC, len(src))
	for i, s := range src {
		out[i] = pll.SourceC{Label: s.Label, C: s.C}
	}
	return out
}

// buildConfig resolves the request into a runnable pll.Config, consuming
// the characterisation results in the same order specLegs emitted them.
func (req *ComposeRequest) buildConfig(results []sweep.PointResult) (*pll.Config, error) {
	cfg := req.buildShape()
	next := 0
	take := func() (*sweep.PointResult, error) {
		if next >= len(results) {
			return nil, fmt.Errorf("compose: %d characterised legs for %d spec slots", len(results), next+1)
		}
		r := &results[next]
		next++
		return r, nil
	}
	for i := range req.Stages {
		st := &req.Stages[i]
		if st.Ref != nil && st.Ref.Spec != nil {
			r, err := take()
			if err != nil {
				return nil, err
			}
			if err := fillLeg(cfg.Stages[i].Ref, st.Ref.Spec, r); err != nil {
				return nil, err
			}
		}
		if st.VCO.Spec != nil {
			r, err := take()
			if err != nil {
				return nil, err
			}
			if err := fillLeg(&cfg.Stages[i].VCO, st.VCO.Spec, r); err != nil {
				return nil, err
			}
		}
	}
	return cfg, nil
}

// fingerprint folds the request's full identity into an idempotency
// fingerprint. The canonical JSON form is deterministic: struct fields
// encode in declaration order and map keys (spec params) sort.
func (req *ComposeRequest) fingerprint() string {
	data, err := json.Marshal(req)
	if err != nil {
		return fmt.Sprintf("compose-unmarshalable: %v", err)
	}
	return string(data)
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	var req ComposeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		serveMetrics.Get().rejected.With("bad_request").Inc()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Spec legs characterise like a sweep's points, one slot grant per leg.
	s.submit(w, r, jrecord{Kind: "compose", Specs: req.specLegs(), TimeoutMS: req.TimeoutMS, NoCache: req.NoCache, Compose: &req})
}

// composeJob runs the composition step of a compose job: the legs have
// already characterised (results in j.legs, possibly all cache hits), so
// this is pure frequency-domain arithmetic under the job's span. On success
// it records the composite on the job and emits the compose event. settle
// calls it only under a live job token: a composed result from a canceled
// job would be indistinguishable from a completed one.
func (s *Server) composeJob(j *job) error {
	j.mu.Lock()
	results := j.legs
	j.mu.Unlock()
	cfg, err := j.compose.buildConfig(results)
	if err != nil {
		return err
	}
	comp, err := pll.ComposeWithSpan(cfg, j.span)
	if err != nil {
		return err
	}
	sum := summarizeCompose(comp)
	j.mu.Lock()
	j.composite = comp
	j.composeSum = &sum
	j.mu.Unlock()
	j.emit(Event{Type: "compose", Compose: &sum}, false)
	return nil
}
