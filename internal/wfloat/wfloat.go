// Package wfloat is the repo-wide JSON codec for float64 values that may be
// non-finite. Inf and NaN have no JSON number form, so encoding/json rejects
// them and with them the whole enclosing value — a result cache entry, a
// ?full=1 payload, a composed phase-noise mask. Float carries them as the
// strings "Inf", "-Inf" and "NaN"; finite values stay plain numbers, so
// payloads written before a field switched to Float decode unchanged.
//
// It also holds the repo's one float64 text rule, AppendFloat: the bytes
// encoding/json writes for a float64, which the result encoders append
// without reflection.
package wfloat

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// Float is a float64 with the non-finite-safe JSON codec.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) { return f.AppendJSON(nil), nil }

// AppendJSON appends f's JSON text to b: the number, or "Inf", "-Inf" or
// "NaN" as a string.
func (f Float) AppendJSON(b []byte) []byte {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return append(b, `"Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	b, _ = AppendFloat(b, v)
	return b
}

// AppendFloat appends v as encoding/json writes a float64: the shortest 'f'
// form that round-trips, switching to 'e' below 1e-6 and at 1e21 and above,
// with a negative exponent's leading zero dropped (1e-7, not 1e-07). NaN and
// ±Inf have no JSON form: like encoding/json, AppendFloat fails on them with
// a *json.UnsupportedValueError, and returns b unchanged.
func AppendFloat(b []byte, v float64) ([]byte, error) {
	if v-v != 0 { // NaN or ±Inf
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendFloats appends xs as encoding/json writes a []float64: a JSON array
// of AppendFloat's numbers, or null for a nil slice.
func AppendFloats(b []byte, xs []float64) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendFloat(b, v); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "Inf", "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("wfloat: invalid float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}
