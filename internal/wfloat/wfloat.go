// Package wfloat is the repo-wide JSON codec for float64 values that may be
// non-finite. Inf and NaN have no JSON number form, so encoding/json rejects
// them and with them the whole enclosing value — a result cache entry, a
// spilled result record, a composed phase-noise mask. Float carries them as the
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
// a *json.UnsupportedValueError, and returns b unchanged. The digits come
// from shortest, not strconv; json.Marshal is the tests' oracle. It
// allocates only when b must grow.
func AppendFloat(b []byte, v float64) ([]byte, error) {
	if v-v != 0 { // NaN or ±Inf
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	u := math.Float64bits(v)
	if u>>63 != 0 {
		b = append(b, '-')
		u &^= 1 << 63
	}
	if u == 0 {
		return append(b, '0'), nil
	}
	// Write in place: at most 24 bytes follow the sign.
	n := len(b)
	if cap(b)-n < 24 {
		b = append(b, make([]byte, 24)...)[:n]
	}
	o := (*[24]byte)(b[n : n+24])
	f, e := shortest(u)
	length := decimalLen(f)
	f *= pow10u[17-length] // 17 digits d₁…d₁₇, and v = 0.d₁…d₁₇ × 10^dp
	dp := e + length
	abs := math.Float64frombits(u)
	expForm := abs < 1e-6 || abs >= 1e21
	switch {
	case !expForm && dp >= 17: // |v| < 1e21, so dp ≤ 21
		put17((*[17]byte)(o[:17]), f)
		copy(o[17:dp], zeros)
		return b[:n+dp], nil
	case !expForm && dp <= 0: // 1e-6 ≤ |v| < 1, so 0 ≤ -dp ≤ 5
		p := 2 - dp
		copy(o[:p], zeros)
		o[1] = '.'
		put17((*[17]byte)(o[p:p+17]), f)
		end := p + 17
		for o[end-1] == '0' {
			end--
		}
		return b[:n+end], nil
	}
	// d₁.d₂…d₁₇ or d₁…d_dp.d_dp+1…d₁₇: write the digits one place to the
	// right, move the first dp (1 in the 'e' form) left, put the point after
	// them, then drop trailing zeros and a bare point.
	put17((*[17]byte)(o[1:18]), f)
	point := 1
	if !expForm {
		point = dp
	}
	copy(o[:point], o[1:point+1])
	o[point] = '.'
	end := 18
	for o[end-1] == '0' {
		end--
	}
	if o[end-1] == '.' {
		end--
	}
	if !expForm {
		return b[:n+end], nil
	}
	x, sign := dp-1, byte('+')
	if x < 0 {
		x, sign = -x, '-'
	}
	o[end], o[end+1] = 'e', sign
	end += 2
	if x >= 100 {
		o[end], x = byte('0'+x/100), x%100
		end++
	} else if x < 10 {
		o[end] = byte('0' + x)
		return b[:n+end+1], nil
	}
	o[end], o[end+1] = pairs[2*x], pairs[2*x+1]
	return b[:n+end+2], nil
}

// zeros pads AppendFloat's 'f' form.
const zeros = "000000000000000000000"

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
