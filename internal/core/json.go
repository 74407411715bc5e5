package core

import (
	"encoding/json"
	"errors"
	"math"

	"repro/internal/floquet"
	"repro/internal/shooting"
)

// ResultWire is the wire form of a Result; the unexported noise-source
// labels travel explicitly. It nests the Floquet part's plain wire struct
// rather than the Decomposition (a json.Marshaler), so encoding or decoding
// a Result is one reflective pass over one tree of plain structs; see
// DESIGN §9 "Store".
type ResultWire struct {
	PSS         *shooting.PSS              `json:"pss,omitempty"`
	Floquet     *floquet.DecompositionWire `json:"floquet,omitempty"`
	C           float64                    `json:"c"`
	PerSource   []SourceContribution       `json:"per_source,omitempty"`
	Sensitivity []float64                  `json:"sensitivity,omitempty"`
	Labels      []string                   `json:"labels,omitempty"`
}

// SourceLabels returns the oscillator's noise-source labels in source order
// (the order of sys.NoiseLabels(), not the sorted PerSource order).
func (r *Result) SourceLabels() []string { return r.labels }

// Wire converts r to its wire form (nil stays nil), sharing its slices and
// trajectories.
func (r *Result) Wire() *ResultWire {
	if r == nil {
		return nil
	}
	return &ResultWire{
		PSS:         r.PSS,
		Floquet:     r.Floquet.Wire(),
		C:           r.C,
		PerSource:   r.PerSource,
		Sensitivity: r.Sensitivity,
		Labels:      r.labels,
	}
}

// Result converts the wire form back (nil stays nil).
func (w *ResultWire) Result() *Result {
	if w == nil {
		return nil
	}
	return &Result{
		PSS:         w.PSS,
		Floquet:     w.Floquet.Decomposition(),
		C:           w.C,
		PerSource:   w.PerSource,
		Sensitivity: w.Sensitivity,
		labels:      w.Labels,
	}
}

// MarshalJSON implements json.Marshaler. Together with UnmarshalJSON it makes
// a Result JSON round-trip loss-free (including the unexported source
// labels), which the disk result cache and the service API rely on. Callers
// holding a Result call it directly: json.Marshal would re-scan the output.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Wire())
}

// UnmarshalJSON implements json.Unmarshaler. Callers holding the bytes call
// it directly: json.Unmarshal would scan them twice more first.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w ResultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = *w.Result()
	return nil
}

// Check reports why r cannot stand for a characterisation — no PSS, a
// non-finite or non-positive period, or no Floquet decomposition — and nil
// when it can. A decoded payload can lack any of them (the codec accepts
// "{}"); T, F0 and CornerFreq are safe on a result that passes.
func (r *Result) Check() error {
	switch {
	case r.PSS == nil:
		return errors.New("core: result has no periodic steady state")
	case !(r.PSS.T > 0) || math.IsInf(r.PSS.T, 1):
		return errors.New("core: result period is not finite and positive")
	case r.Floquet == nil:
		return errors.New("core: result has no Floquet decomposition")
	}
	return nil
}

// spectrumJSON is the wire form of a Spectrum; Fourier coefficients travel
// as [re, im] pairs because complex128 has no native JSON encoding.
type spectrumJSON struct {
	F0     float64      `json:"f0"`
	C      float64      `json:"c"`
	Coeffs [][2]float64 `json:"coeffs,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s *Spectrum) MarshalJSON() ([]byte, error) {
	w := spectrumJSON{F0: s.F0, C: s.C}
	if s.Coeffs != nil {
		w.Coeffs = make([][2]float64, len(s.Coeffs))
		for i, c := range s.Coeffs {
			w.Coeffs[i] = [2]float64{real(c), imag(c)}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Spectrum) UnmarshalJSON(data []byte) error {
	var w spectrumJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = Spectrum{F0: w.F0, C: w.C}
	if w.Coeffs != nil {
		s.Coeffs = make([]complex128, len(w.Coeffs))
		for i, p := range w.Coeffs {
			s.Coeffs[i] = complex(p[0], p[1])
		}
	}
	return nil
}
