package floquet

import (
	"encoding/json"

	"repro/internal/ode"
	"repro/internal/wfloat"
)

// DecompositionWire is the wire form of a Decomposition. complex128 has no
// native JSON encoding, so multipliers and exponents travel as [re, im]
// pairs (of wfloat — exponents of collapsed multipliers are -Inf); every
// other field round-trips verbatim.
//
// It is a plain struct with no codec of its own, so a parent wire form
// (core.ResultWire) nests it and encoding/json walks the whole tree in one
// reflective pass instead of re-scanning the bytes at every json.Marshaler.
type DecompositionWire struct {
	T            float64           `json:"t"`
	Multipliers  [][2]wfloat.Float `json:"multipliers"`
	Exponents    [][2]wfloat.Float `json:"exponents"`
	U10          []float64         `json:"u10,omitempty"`
	V10          []float64         `json:"v10,omitempty"`
	V1           *ode.Trajectory   `json:"v1,omitempty"`
	UnitErr      wfloat.Float      `json:"unit_err,omitempty"`
	ClosureErr   wfloat.Float      `json:"closure_err,omitempty"`
	BiorthoDrift wfloat.Float      `json:"biortho_drift,omitempty"`
}

func complexToPairs(in []complex128) [][2]wfloat.Float {
	if in == nil {
		return nil
	}
	out := make([][2]wfloat.Float, len(in))
	for i, c := range in {
		out[i] = [2]wfloat.Float{wfloat.Float(real(c)), wfloat.Float(imag(c))}
	}
	return out
}

func pairsToComplex(in [][2]wfloat.Float) []complex128 {
	if in == nil {
		return nil
	}
	out := make([]complex128, len(in))
	for i, p := range in {
		out[i] = complex(float64(p[0]), float64(p[1]))
	}
	return out
}

// Wire converts d to its wire form (nil stays nil). Slices and the V1
// trajectory are shared, not copied. It is small enough to inline, so a
// caller that only encodes the wire form keeps it off the heap.
func (d *Decomposition) Wire() *DecompositionWire {
	if d == nil {
		return nil
	}
	w := d.wire()
	return &w
}

// wire is Wire's value.
func (d *Decomposition) wire() DecompositionWire {
	return DecompositionWire{
		T:            d.T,
		Multipliers:  complexToPairs(d.Multipliers),
		Exponents:    complexToPairs(d.Exponents),
		U10:          d.U10,
		V10:          d.V10,
		V1:           d.V1,
		UnitErr:      wfloat.Float(d.UnitErr),
		ClosureErr:   wfloat.Float(d.ClosureErr),
		BiorthoDrift: wfloat.Float(d.BiorthoDrift),
	}
}

// Decomposition converts the wire form back (nil stays nil).
func (w *DecompositionWire) Decomposition() *Decomposition {
	if w == nil {
		return nil
	}
	return &Decomposition{
		T:            w.T,
		Multipliers:  pairsToComplex(w.Multipliers),
		Exponents:    pairsToComplex(w.Exponents),
		U10:          w.U10,
		V10:          w.V10,
		V1:           w.V1,
		UnitErr:      float64(w.UnitErr),
		ClosureErr:   float64(w.ClosureErr),
		BiorthoDrift: float64(w.BiorthoDrift),
	}
}

// AppendJSON appends w's JSON encoding to b: byte for byte what
// encoding/json writes for a *DecompositionWire (null when w is nil), field
// order and omitempty included. It fails, as encoding/json does, on a
// non-finite plain float (T, U10, V10, the V1 knots).
func (w *DecompositionWire) AppendJSON(b []byte) ([]byte, error) {
	if w == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, `{"t":`...)
	if b, err = wfloat.AppendFloat(b, w.T); err != nil {
		return b, err
	}
	b = append(b, `,"multipliers":`...)
	b = appendPairs(b, w.Multipliers)
	b = append(b, `,"exponents":`...)
	b = appendPairs(b, w.Exponents)
	for _, f := range []struct {
		key string
		v   []float64
	}{{`,"u10":`, w.U10}, {`,"v10":`, w.V10}} {
		if len(f.v) > 0 {
			b = append(b, f.key...)
			if b, err = wfloat.AppendFloats(b, f.v); err != nil {
				return b, err
			}
		}
	}
	if w.V1 != nil {
		b = append(b, `,"v1":`...)
		if b, err = w.V1.AppendJSON(b); err != nil {
			return b, err
		}
	}
	for _, f := range []struct {
		key string
		v   wfloat.Float
	}{{`,"unit_err":`, w.UnitErr}, {`,"closure_err":`, w.ClosureErr}, {`,"biortho_drift":`, w.BiorthoDrift}} {
		if f.v != 0 {
			b = f.v.AppendJSON(append(b, f.key...))
		}
	}
	return append(b, '}'), nil
}

// appendPairs appends [re, im] pairs as encoding/json writes a
// [][2]wfloat.Float: null for a nil slice.
func appendPairs(b []byte, ps [][2]wfloat.Float) []byte {
	if ps == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = p[0].AppendJSON(append(b, '['))
		b = p[1].AppendJSON(append(b, ','))
		b = append(b, ']')
	}
	return append(b, ']')
}

// MarshalJSON implements json.Marshaler, encoding complex slices as
// [re, im] pairs so the decomposition survives a JSON round trip loss-free.
func (d *Decomposition) MarshalJSON() ([]byte, error) {
	return d.Wire().AppendJSON(nil)
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Decomposition) UnmarshalJSON(data []byte) error {
	var w DecompositionWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*d = *w.Decomposition()
	return nil
}
