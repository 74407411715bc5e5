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

// RoutingKey returns the point's content-addressed cache key, the same
// fingerprint Resolve stamps on the sweep point (Resolve builds the model
// and runs no integration, so this is cheap for every point of a large
// sweep). The cluster coordinator hashes it onto the worker ring so identical
// points always land on (and cache-hit at) the same node. Invalid specs fall
// back to a name-derived key, which its colons keep apart from every real
// key: routing stays total, and the worker rejects the spec with a real
// error when the lease arrives.
func (p PointSpec) RoutingKey() string {
	pt, err := p.Resolve(nil)
	if err != nil {
		return cache.FingerprintVersion + ":invalid:" + p.Model + ":" + p.Name
	}
	return pt.Key
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
// the model, applies the model's recommended solver options, and stamps the
// content-addressed cache key. A model whose period has no closed form
// carries the registry's estimate horizon (sweep.Point.EstimateTMax): the
// sweep engine estimates the period on a cache miss, so a hit never
// integrates a transient. Resolve runs nothing a token could cut off; the
// parameter stays for its callers.
//
// The key is computed from the registry recommendation (resolved params, the
// recommended X0 and period guess, the effective solver knobs), never from
// an estimate, so a resubmit of an estimate-based model addresses the same
// result. CLIs building points by hand must use cache.CharacterisationKey
// with the same inputs to share a disk cache with the server.
func (p PointSpec) Resolve(_ *budget.Token) (sweep.Point, error) {
	m, err := osc.Build(p.Model, p.Params)
	if err != nil {
		return sweep.Point{}, err
	}
	var opts *core.Options
	if m.ShootingSteps > 0 {
		opts = &core.Options{Shooting: &shooting.Options{StepsPerPeriod: m.ShootingSteps}}
	}
	return sweep.Point{
		Name:         p.label(),
		System:       m.Sys,
		X0:           m.X0,
		TGuess:       m.TGuess,
		EstimateTMax: m.EstimateTMax,
		Opts:         opts,
		Key:          cache.CharacterisationKey(p.Model, m.Params, m.X0, m.TGuess, opts.FingerprintFields()),
	}, nil
}
