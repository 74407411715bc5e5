package wfloat

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzWfloat: every float64 but NaN — ±Inf, -0 and subnormals included —
// round-trips bit-identical, and NaN decodes back to NaN. AppendFloat writes
// encoding/json's bytes for every finite float64 and fails where it fails.
func FuzzWfloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 1e-310} {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(0x000FFFFFFFFFFFFF)) // largest subnormal
	f.Add(uint64(0x7FF8000000000001)) // a NaN with payload
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		plain, jerr := json.Marshal(v)
		text, err := AppendFloat([]byte("x"), v)
		if (err == nil) != (jerr == nil) || !bytes.Equal(text[1:], plain) {
			t.Fatalf("AppendFloat(%v) = %q, %v; encoding/json: %q, %v", v, text[1:], err, plain, jerr)
		}
		if err != nil && err.Error() != jerr.Error() {
			t.Fatalf("AppendFloat(%v) fails with %q, encoding/json with %q", v, err, jerr)
		}
		data, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Float
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Fatalf("NaN decoded as %v from %s", got, data)
			}
			return
		}
		if math.Float64bits(float64(got)) != bits {
			t.Fatalf("%v (%#016x) round-tripped through %s to %v (%#016x)", v, bits, data, got, math.Float64bits(float64(got)))
		}
	})
}
