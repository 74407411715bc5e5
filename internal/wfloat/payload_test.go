package wfloat_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/osc"
	"repro/internal/shooting"
	"repro/internal/wfloat"
)

// payloadModels are the registry models whose served payloads the tests and
// the benchmark take their floats from.
var payloadModels = []string{"hopf", "vanderpol", "negres", "ring", "fhn"}

var (
	payloadOnce   sync.Once
	payloadFloats map[string][]float64
	payloadErr    error
)

// registryFloats returns, per model of payloadModels, every number of the
// payload the service caches for the model at its defaults (the result's
// MarshalJSON, characterised the way the service does: the recommended
// start, a period estimate where the model has no closed form, and the
// recommended shooting steps).
func registryFloats(tb testing.TB) map[string][]float64 {
	tb.Helper()
	payloadOnce.Do(func() {
		payloadFloats = make(map[string][]float64)
		for _, name := range payloadModels {
			data, err := registryPayload(name)
			if err != nil {
				payloadErr = err
				return
			}
			var tree any
			if err := json.Unmarshal(data, &tree); err != nil {
				payloadErr = err
				return
			}
			payloadFloats[name] = appendNumbers(nil, tree)
		}
	})
	if payloadErr != nil {
		tb.Fatal(payloadErr)
	}
	return payloadFloats
}

func registryPayload(name string) ([]byte, error) {
	m, err := osc.Build(name, nil)
	if err != nil {
		return nil, err
	}
	x0, tGuess := m.X0, m.TGuess
	if tGuess == 0 {
		if tGuess, x0, err = shooting.EstimatePeriodBudget(m.Sys, x0, m.EstimateTMax, nil); err != nil {
			return nil, err
		}
	}
	res, err := core.Characterise(m.Sys, x0, tGuess, &core.Options{Shooting: &shooting.Options{StepsPerPeriod: m.ShootingSteps}})
	if err != nil {
		return nil, err
	}
	return res.MarshalJSON()
}

// appendNumbers appends every number of a decoded JSON tree to xs.
func appendNumbers(xs []float64, v any) []float64 {
	switch v := v.(type) {
	case float64:
		xs = append(xs, v)
	case []any:
		for _, e := range v {
			xs = appendNumbers(xs, e)
		}
	case map[string]any:
		for _, e := range v {
			xs = appendNumbers(xs, e)
		}
	}
	return xs
}

// TestAppendFloatRegistryPayloads: AppendFloat writes encoding/json's bytes
// for every float of five registry payloads.
func TestAppendFloatRegistryPayloads(t *testing.T) {
	buf := make([]byte, 0, 32)
	for _, name := range payloadModels {
		xs := registryFloats(t)[name]
		if len(xs) < 10000 {
			t.Fatalf("%s: %d floats in the payload, want a full trajectory", name, len(xs))
		}
		for _, v := range xs {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wfloat.AppendFloat(buf[:0], v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: AppendFloat(%#016x) = %q, %v; encoding/json: %q", name, math.Float64bits(v), got, err, want)
			}
		}
		t.Logf("%s: %d floats", name, len(xs))
	}
}

// BenchmarkAppendFloat times the float text rule over the floats of five
// registry payloads: the kernel, and strconv's shortest form with
// encoding/json's exponent rule as the reference it replaced.
func BenchmarkAppendFloat(b *testing.B) {
	var xs []float64
	for _, name := range payloadModels {
		xs = append(xs, registryFloats(b)[name]...)
	}
	buf := make([]byte, 0, 32)
	for _, c := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{
		{"kernel", func(b []byte, v float64) []byte { b, _ = wfloat.AppendFloat(b, v); return b }},
		{"strconv", appendStrconv},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, v := range xs {
					buf = c.append(buf[:0], v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/float")
		})
	}
}

// appendStrconv is the float text rule before the kernel: strconv's
// shortest 'f' or 'e' form, with a negative exponent's leading zero dropped.
func appendStrconv(b []byte, v float64) []byte {
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
	return b
}
