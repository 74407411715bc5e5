// Package wfloat is the repo-wide JSON codec for float64 values that may be
// non-finite. Inf and NaN have no JSON number form, so encoding/json rejects
// them and with them the whole enclosing value — a result cache entry, a
// ?full=1 payload, a composed phase-noise mask. Float carries them as the
// strings "Inf", "-Inf" and "NaN"; finite values stay plain numbers, so
// payloads written before a field switched to Float decode unchanged.
package wfloat

import (
	"encoding/json"
	"fmt"
	"math"
)

// Float is a float64 with the non-finite-safe JSON codec.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
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
