package serve

import (
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/osc"
	"repro/internal/shooting"
	"repro/internal/sweep"
)

// validate builds the model once to surface unknown-model/unknown-parameter
// errors at submission time, before the job queues.
func (p PointSpec) validate() error {
	_, err := osc.Build(p.Model, p.Params)
	return err
}

// validateSpecs validates every point spec of a submission, naming the first
// bad one.
func validateSpecs(specs []PointSpec) error {
	for i, sp := range specs {
		if err := sp.validate(); err != nil {
			return fmt.Errorf("point %d: %v", i, err)
		}
	}
	return nil
}

// validate rejects a sweep with no points or more than maxPoints; submit
// validates its point specs, as for every job kind.
func (req *SweepRequest) validate(maxPoints int) error {
	switch {
	case len(req.Points) == 0:
		return errors.New("sweep needs at least one point")
	case len(req.Points) > maxPoints:
		return fmt.Errorf("sweep of %d points exceeds the limit of %d", len(req.Points), maxPoints)
	}
	return nil
}

// RoutingKey returns the point's content-addressed cache key without running
// period estimation — the same "pnfp1" fingerprint Resolve stamps on the
// sweep point, cheap enough to compute for every point of a large sweep. The
// cluster coordinator hashes it onto the worker ring so identical points
// always land on (and cache-hit at) the same node. Invalid specs fall back to
// a name-derived key: routing stays total, and the worker rejects the spec
// with a real error when the lease arrives.
func (p PointSpec) RoutingKey() string {
	m, err := osc.Build(p.Model, p.Params)
	if err != nil {
		return "pnfp1:invalid:" + p.Model + ":" + p.Name
	}
	var opts *core.Options
	if m.ShootingSteps > 0 {
		opts = &core.Options{Shooting: &shooting.Options{StepsPerPeriod: m.ShootingSteps}}
	}
	return cache.CharacterisationKey(p.Model, m.Params, m.X0, m.TGuess, opts.FingerprintFields())
}

// label is the point's name in results and events: Name, or the model name
// when none was given.
func (p PointSpec) label() string {
	if p.Name == "" {
		return p.Model
	}
	return p.Name
}

// Resolve turns a pure-data point spec into a runnable sweep point: it builds
// the model, estimates the period over the registry's transient horizon when
// no closed form exists (under tok, so a canceled job never burns the
// integration), applies the model's recommended solver options, and stamps
// the content-addressed cache key.
//
// The key is computed from the registry recommendation (resolved params, the
// recommended X0 and period guess, the effective solver knobs) BEFORE period
// estimation, so a resubmit of an estimate-based model addresses the same
// result without depending on the estimator's output. CLIs building points by
// hand must use cache.CharacterisationKey with the same inputs to share a
// disk cache with the server.
func (p PointSpec) Resolve(tok *budget.Token) (sweep.Point, error) {
	m, err := osc.Build(p.Model, p.Params)
	if err != nil {
		return sweep.Point{}, err
	}
	var opts *core.Options
	if m.ShootingSteps > 0 {
		opts = &core.Options{Shooting: &shooting.Options{StepsPerPeriod: m.ShootingSteps}}
	}
	key := cache.CharacterisationKey(p.Model, m.Params, m.X0, m.TGuess, opts.FingerprintFields())

	x0, tGuess := m.X0, m.TGuess
	if tGuess == 0 {
		tGuess, x0, err = shooting.EstimatePeriodBudget(m.Sys, m.X0, m.EstimateTMax, tok)
		if err != nil {
			return sweep.Point{}, fmt.Errorf("model %q: period estimation: %w", p.Model, err)
		}
	}
	return sweep.Point{
		Name:   p.label(),
		System: m.Sys,
		X0:     x0,
		TGuess: tGuess,
		Opts:   opts,
		Key:    key,
	}, nil
}
