package core

import (
	"encoding/json"
	"errors"
	"math"
	"sync"

	"repro/internal/floquet"
	"repro/internal/ode"
	"repro/internal/shooting"
	"repro/internal/wfloat"
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
	CRelErr     float64                    `json:"c_rel_err,omitempty"`
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
	w := r.wire(r.Floquet.Wire())
	return &w
}

// wire is Wire's value with f as its Floquet part. Both inline, so
// MarshalJSON, which only encodes the wire tree, keeps it off the heap.
func (r *Result) wire(f *floquet.DecompositionWire) ResultWire {
	return ResultWire{
		PSS:         r.PSS,
		Floquet:     f,
		C:           r.C,
		CRelErr:     r.CRelErr,
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
		CRelErr:     w.CRelErr,
		PerSource:   w.PerSource,
		Sensitivity: w.Sensitivity,
		labels:      w.Labels,
	}
}

// AppendJSON appends w's JSON encoding to b: byte for byte what
// encoding/json writes for a *ResultWire (null when w is nil), field order,
// omitempty and string escaping included. It fails, as encoding/json does,
// on a non-finite plain float.
func (w *ResultWire) AppendJSON(b []byte) ([]byte, error) {
	if w == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, '{')
	if w.PSS != nil {
		if b, err = w.PSS.AppendJSON(append(b, `"pss":`...)); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	if w.Floquet != nil {
		if b, err = w.Floquet.AppendJSON(append(b, `"floquet":`...)); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	if b, err = wfloat.AppendFloat(append(b, `"c":`...), w.C); err != nil {
		return b, err
	}
	if w.CRelErr != 0 {
		if b, err = wfloat.AppendFloat(append(b, `,"c_rel_err":`...), w.CRelErr); err != nil {
			return b, err
		}
	}
	if len(w.PerSource) > 0 {
		b = append(b, `,"per_source":[`...)
		for i, s := range w.PerSource {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"label":`...), s.Label)
			if b, err = wfloat.AppendFloat(append(b, `,"c":`...), s.C); err != nil {
				return b, err
			}
			if b, err = wfloat.AppendFloat(append(b, `,"fraction":`...), s.Fraction); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(w.Sensitivity) > 0 {
		if b, err = wfloat.AppendFloats(append(b, `,"sensitivity":`...), w.Sensitivity); err != nil {
			return b, err
		}
	}
	if len(w.Labels) > 0 {
		b = append(b, `,"labels":[`...)
		for i, l := range w.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, l)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendString appends s as encoding/json writes a string. A string of
// printable ASCII that needs no escape (the labels of every registry model)
// is copied between quotes; any other goes through encoding/json, which
// escapes <, > and &, control bytes, U+2028 and U+2029 and replaces invalid
// UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// encodeBuf holds scratch buffers for MarshalJSON, so a result's bytes are
// appended into memory sized once and copied out once at their exact length.
var encodeBuf = sync.Pool{New: func() any { return new([]byte) }}

// encodeBound is an upper bound on the length of w's encoding, so that
// MarshalJSON sizes its scratch buffer once instead of growing it by
// doubling whenever the pool comes back empty: 25 bytes per float (the
// longest wfloat text, "-2.2250738585072014e-308", and a comma), 32 bytes
// of structure per trajectory knot, source and label, 6 per label byte (an
// escape) and 1 KiB for the fixed keys, integers and scalars.
func (w *ResultWire) encodeBound() int {
	if w == nil {
		return len("null")
	}
	floats, items, text := 2+len(w.Sensitivity)+2*len(w.PerSource), len(w.PerSource)+len(w.Labels), 0
	traj := func(tr *ode.Trajectory) {
		if tr != nil {
			for _, p := range tr.Points {
				floats += 1 + len(p.X) + len(p.DX)
			}
			items += len(tr.Points)
		}
	}
	if p := w.PSS; p != nil {
		floats += len(p.X0) + 2
		traj(p.Orbit)
		if p.Monodromy != nil {
			floats += len(p.Monodromy.Data)
		}
	}
	if f := w.Floquet; f != nil {
		floats += 4 + 2*len(f.Multipliers) + 2*len(f.Exponents) + len(f.U10) + len(f.V10)
		traj(f.V1)
	}
	for _, s := range w.PerSource {
		text += len(s.Label)
	}
	for _, l := range w.Labels {
		text += len(l)
	}
	return 25*floats + 32*items + 6*text + 1024
}

// MarshalJSON implements json.Marshaler. Together with UnmarshalJSON it makes
// a Result JSON round-trip loss-free (including the unexported source
// labels), which the disk result cache and the service API rely on. Callers
// holding a Result call it directly: json.Marshal would re-scan the output.
// The bytes are json.Marshal(r.Wire())'s, written by the append encoders
// without reflection; the returned slice's capacity equals its length.
func (r *Result) MarshalJSON() ([]byte, error) {
	var w *ResultWire
	if r != nil {
		v := r.wire(r.Floquet.Wire())
		w = &v
	}
	bp := encodeBuf.Get().(*[]byte)
	if n := w.encodeBound(); cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	b, err := w.AppendJSON((*bp)[:0])
	var out []byte
	if err == nil {
		out = make([]byte, len(b))
		copy(out, b)
	}
	*bp = b[:0]
	encodeBuf.Put(bp)
	return out, err
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
