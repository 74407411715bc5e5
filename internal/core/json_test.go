package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cache"
	"repro/internal/ode"
	"repro/internal/osc"
)

// TestResultJSONRoundTripLossFree is the golden round-trip test of the wire
// codec: a real characterisation marshals, unmarshals, and re-marshals to
// byte-identical JSON, and every numeric field (including the interpolable
// trajectories and the unexported source labels) survives exactly.
func TestResultJSONRoundTripLossFree(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2, Sigma: 0.02}
	res, err := Characterise(h, []float64{1, 0.1}, h.Period()*1.05, nil)
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("marshal → unmarshal → marshal is not byte-identical")
	}

	if back.C != res.C {
		t.Fatalf("c: %g vs %g", back.C, res.C)
	}
	if back.T() != res.T() || back.PSS.Residual != res.PSS.Residual || back.PSS.Iters != res.PSS.Iters {
		t.Fatal("PSS scalars changed")
	}
	if !reflect.DeepEqual(back.PSS.X0, res.PSS.X0) {
		t.Fatal("PSS.X0 changed")
	}
	if !reflect.DeepEqual(back.PSS.Monodromy, res.PSS.Monodromy) {
		t.Fatal("monodromy changed")
	}
	if !reflect.DeepEqual(back.Floquet.Multipliers, res.Floquet.Multipliers) {
		t.Fatalf("complex multipliers changed: %v vs %v", back.Floquet.Multipliers, res.Floquet.Multipliers)
	}
	if !reflect.DeepEqual(back.Floquet.Exponents, res.Floquet.Exponents) {
		t.Fatal("complex exponents changed")
	}
	if !reflect.DeepEqual(back.PerSource, res.PerSource) {
		t.Fatal("per-source contributions changed")
	}
	if !reflect.DeepEqual(back.Sensitivity, res.Sensitivity) {
		t.Fatal("sensitivities changed")
	}
	if !reflect.DeepEqual(back.SourceLabels(), res.SourceLabels()) {
		t.Fatalf("unexported labels lost: %v vs %v", back.SourceLabels(), res.SourceLabels())
	}

	// The decoded trajectories must stay interpolable with identical values.
	n := h.Dim()
	a, b := make([]float64, n), make([]float64, n)
	for _, frac := range []float64{0, 0.23, 0.5, 0.99} {
		tt := frac * res.T()
		res.PSS.Orbit.At(tt, a)
		back.PSS.Orbit.At(tt, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("orbit(%g) changed: %v vs %v", tt, a, b)
			}
		}
		res.Floquet.V1.At(tt, a)
		back.Floquet.V1.At(tt, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("v1(%g) changed: %v vs %v", tt, a, b)
			}
		}
	}

	// Figures of merit computed from the decoded result agree exactly.
	if back.CornerFreq() != res.CornerFreq() || back.JitterVariance(7) != res.JitterVariance(7) {
		t.Fatal("figures of merit changed")
	}
}

func TestSpectrumJSONRoundTrip(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2, Sigma: 0.02}
	res, err := Characterise(h, []float64{1, 0.1}, h.Period()*1.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.OutputSpectrum(0, 3)
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Spectrum
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, sp) {
		t.Fatalf("spectrum changed: %+v vs %+v", back, sp)
	}
	f := 1.37 * sp.F0
	if back.SSB(f) != sp.SSB(f) || back.TotalPower() != sp.TotalPower() {
		t.Fatal("spectrum evaluation changed")
	}
	if math.IsNaN(back.SSB(f)) {
		t.Fatal("NaN after round trip")
	}
}

// goldenResult is the result member of the sweep package's golden ok point
// (TestPointResultWireGolden): it populates every field of the wire tree.
const goldenResult = `{"pss":{"X0":[1,0.1],"T":3.141592653589793,"Orbit":{"Points":[{"T":0,"X":[1,0.1],"DX":[-0.2,2]},{"T":1.5707963267948966,"X":[-0.1,1],"DX":[-2,-0.2]}]},"Monodromy":{"Rows":2,"Cols":2,"Data":[1,0,0.25,0.0183]},"Residual":3.5e-13,"Iters":4},"floquet":{"t":3.141592653589793,"multipliers":[[1,0],[0.0183,-1e-300]],"exponents":[[0,0],["-Inf",3.141592653589793]],"u10":[-0.2,2],"v10":[-0.0498,0.4975],"v1":{"Points":[{"T":0,"X":[-0.0498,0.4975],"DX":[0.001,-0.025]},{"T":3.141592653589793,"X":[-0.0498,0.4975],"DX":[0.001,-0.025]}]},"unit_err":"Inf","closure_err":"NaN","biortho_drift":2.5e-16},"c":0.0001,"per_source":[{"label":"n\u00262","c":0.000075,"fraction":0.75},{"label":"n\u003c1\u003e","c":0.000025,"fraction":0.25}],"sensitivity":[0.00005,0.00015],"labels":["n\u003c1\u003e","n\u00262"]}`

// TestResultEncoderMatchesEncodingJSON: MarshalJSON writes exactly
// json.Marshal(r.Wire())'s bytes, with capacity equal to length, and fails
// where encoding/json fails, with the same error — on the golden result and
// on inputs no decoded payload can hold: nil and empty slices, missing
// parts, labels that need escaping or are not UTF-8, and non-finite values.
// A failed encode leaves nothing to cache: a cache.Store.Do that encodes
// with it fails and stores nothing.
func TestResultEncoderMatchesEncodingJSON(t *testing.T) {
	var golden Result
	if err := golden.UnmarshalJSON([]byte(goldenResult)); err != nil {
		t.Fatal(err)
	}
	// build returns a fresh copy of the golden result, changed by edit.
	build := func(edit func(r *Result)) *Result {
		var r Result
		if err := r.UnmarshalJSON([]byte(goldenResult)); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		return &r
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		r    *Result
		fail bool
	}{
		{"golden", &golden, false},
		{"c_rel_err set", build(func(r *Result) { r.CRelErr = 3.2e-9 }), false},
		{"c_rel_err extremes", build(func(r *Result) { r.CRelErr = 5e-324 }), false},
		{"c_rel_err negative zero", build(func(r *Result) { r.CRelErr = math.Copysign(0, -1) }), false},
		{"nil result", nil, false},
		{"zero result", &Result{}, false},
		{"nil PSS and Floquet", build(func(r *Result) { r.PSS, r.Floquet = nil, nil }), false},
		{"nil orbit and monodromy", build(func(r *Result) { r.PSS.Orbit, r.PSS.Monodromy = nil, nil }), false},
		{"nil V1", build(func(r *Result) { r.Floquet.V1 = nil }), false},
		{"nil slices", build(func(r *Result) {
			r.PSS.X0, r.PSS.Orbit.Points, r.PSS.Monodromy.Data = nil, nil, nil
			r.Floquet.Multipliers, r.Floquet.Exponents, r.Floquet.U10, r.Floquet.V10 = nil, nil, nil, nil
			r.Floquet.V1.Points[0].X, r.Floquet.V1.Points[1].DX = nil, nil
			r.PerSource, r.Sensitivity, r.labels = nil, nil, nil
		}), false},
		{"empty slices", build(func(r *Result) {
			r.PSS.X0, r.PSS.Orbit.Points, r.PSS.Monodromy.Data = []float64{}, []ode.SamplePoint{}, []float64{}
			r.Floquet.Multipliers, r.Floquet.Exponents, r.Floquet.U10, r.Floquet.V10 = []complex128{}, []complex128{}, []float64{}, []float64{}
			r.Floquet.V1.Points[0].X, r.Floquet.V1.Points[1].DX = []float64{}, []float64{}
			r.PerSource, r.Sensitivity, r.labels = []SourceContribution{}, []float64{}, []string{}
		}), false},
		{"labels to escape", build(func(r *Result) {
			r.labels = []string{"<i>", "a>b", "R&D", "line\u2028sep", "para\u2029sep", "bad\xffutf8", "\xe2\x80", "q\"b\\s/", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "", "plain-ASCII_1.5 (ok)"}
			r.PerSource = []SourceContribution{{Label: "a\u2028<b>&\xfe", C: 1, Fraction: 1}}
		}), false},
		{"float extremes", build(func(r *Result) {
			r.C = math.Copysign(0, -1)
			r.Sensitivity = []float64{1e-6, 9.999999999999999e-7, 1e21, 9.99999999999999e20, 5e-324, -math.MaxFloat64, 1e-7, 123456789012345680000, -0.000001}
			r.Floquet.UnitErr, r.Floquet.ClosureErr, r.Floquet.BiorthoDrift = math.Copysign(0, -1), -inf, nan
			r.Floquet.Multipliers = []complex128{complex(nan, -inf), complex(inf, 0)}
		}), false},
		{"NaN c", build(func(r *Result) { r.C = nan }), true},
		{"NaN c_rel_err", build(func(r *Result) { r.CRelErr = nan }), true},
		{"+Inf c_rel_err", build(func(r *Result) { r.CRelErr = inf }), true},
		{"+Inf period", build(func(r *Result) { r.PSS.T = inf }), true},
		{"-Inf residual", build(func(r *Result) { r.PSS.Residual = -inf }), true},
		{"NaN in X0", build(func(r *Result) { r.PSS.X0[1] = nan }), true},
		{"Inf in an orbit knot", build(func(r *Result) { r.PSS.Orbit.Points[1].DX[0] = inf }), true},
		{"NaN orbit knot time", build(func(r *Result) { r.PSS.Orbit.Points[0].T = nan }), true},
		{"Inf in the monodromy", build(func(r *Result) { r.PSS.Monodromy.Data[3] = -inf }), true},
		{"NaN Floquet period", build(func(r *Result) { r.Floquet.T = nan }), true},
		{"Inf in v10", build(func(r *Result) { r.Floquet.V10[0] = inf }), true},
		{"NaN in a v1 knot", build(func(r *Result) { r.Floquet.V1.Points[1].X[1] = nan }), true},
		{"Inf per-source fraction", build(func(r *Result) { r.PerSource[1].Fraction = inf }), true},
		{"NaN sensitivity", build(func(r *Result) { r.Sensitivity[0] = nan }), true},
	}
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		got, gerr := c.r.MarshalJSON()
		want, werr := json.Marshal(c.r.Wire())
		if c.fail {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() || got != nil {
				t.Errorf("%s: MarshalJSON = %q, %v; encoding/json fails with %v", c.name, got, gerr, werr)
			}
			_, _, _, err := store.Do(c.name, func() ([]byte, any, error) {
				b, err := c.r.MarshalJSON()
				return b, nil, err
			})
			if err == nil || store.Len() != 0 {
				t.Errorf("%s: Do = %v with %d entries cached, want the encode error and none", c.name, err, store.Len())
			}
			continue
		}
		if gerr != nil || werr != nil {
			t.Errorf("%s: MarshalJSON fails with %v, encoding/json with %v", c.name, gerr, werr)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d bytes with capacity %d", c.name, len(got), cap(got))
		}
	}
	if got, _ := golden.MarshalJSON(); string(got) != goldenResult {
		t.Errorf("golden result re-encodes to\n%s\nwant\n%s", got, goldenResult)
	}
}

// FuzzResultJSON: a payload the cached path accepts (it decodes and passes
// Check) never yields a result whose T, F0 or CornerFreq panics, and it
// re-encodes to bytes that decode to the same encoding. The re-encoding is
// json.Marshal(r.Wire())'s, byte for byte.
func FuzzResultJSON(f *testing.F) {
	for _, s := range []string{
		// The result member of the sweep package's golden ok point.
		`{"pss":{"X0":[1,0.1],"T":3.141592653589793,"Orbit":{"Points":[{"T":0,"X":[1,0.1],"DX":[-0.2,2]},{"T":1.5707963267948966,"X":[-0.1,1],"DX":[-2,-0.2]}]},"Monodromy":{"Rows":2,"Cols":2,"Data":[1,0,0.25,0.0183]},"Residual":3.5e-13,"Iters":4},"floquet":{"t":3.141592653589793,"multipliers":[[1,0],[0.0183,-1e-300]],"exponents":[[0,0],["-Inf",3.141592653589793]],"u10":[-0.2,2],"v10":[-0.0498,0.4975],"v1":{"Points":[{"T":0,"X":[-0.0498,0.4975],"DX":[0.001,-0.025]},{"T":3.141592653589793,"X":[-0.0498,0.4975],"DX":[0.001,-0.025]}]},"unit_err":"Inf","closure_err":"NaN","biortho_drift":2.5e-16},"c":0.0001,"per_source":[{"label":"n&2","c":0.000075,"fraction":0.75},{"label":"n<1>","c":0.000025,"fraction":0.25}],"sensitivity":[0.00005,0.00015],"labels":["n<1>","n&2"]}`,
		goldenResult,
		`{"pss":{"T":1e-6},"floquet":{},"c":2.5e-18,"c_rel_err":1.2e-7}`,
		`{"c":1e-9}`, // the payload that crashed pnserve's summarize
		`{"pss":5}`,
		`{"pss":{"T":0},"floquet":{}}`,
		`{"pss":{"T":-1e-300},"floquet":{}}`,
		`{"pss":{"T":1e-300},"floquet":{"multipliers":[["NaN","-Inf"]]}}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if r.UnmarshalJSON(data) != nil || r.Check() != nil {
			return
		}
		_, _, _ = r.T(), r.F0(), r.CornerFreq()
		first, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if ref, err := json.Marshal(r.Wire()); err != nil || !bytes.Equal(first, ref) {
			t.Fatalf("append encoder and encoding/json differ (%v):\n%s\n%s", err, first, ref)
		}
		var back Result
		if err := back.UnmarshalJSON(first); err != nil {
			t.Fatalf("decoding our own encoding %s: %v", first, err)
		}
		if err := back.Check(); err != nil {
			t.Fatalf("accepted payload re-encoded to a stale one: %v", err)
		}
		second, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("not a fixed point:\n%s\n%s", first, second)
		}
	})
}

// TestMarshalJSONSizesItsBufferOnce: MarshalJSON takes its scratch buffer
// from a pool and sizes it once, from an upper bound on the output, rather
// than growing it by doubling whenever a collection has emptied the pool.
// Encoding a real 0.47 MB hopf result makes three allocations with the pool
// warm (the Floquet multiplier and exponent pairs and the output; the wire
// tree stays on the stack), and at most five more with the pool emptied
// (the buffer and the pool's own bookkeeping), where doubling from empty
// made over thirty more. The bound covers the output of the golden result
// and of one whose labels all need escaping.
func TestMarshalJSONSizesItsBufferOnce(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2, Sigma: 0.02}
	big, err := Characterise(h, []float64{1, 0.1}, h.Period()*1.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		// No collection runs unless the test asks for one, so the pool
		// stays warm until it does.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		warm := testing.AllocsPerRun(10, func() {
			if _, err := big.MarshalJSON(); err != nil {
				t.Fatal(err)
			}
		})
		if warm != 3 {
			t.Fatalf("with the pool warm: %v allocations, want 3", warm)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // the second collection empties the pool's victim cache too
		runtime.ReadMemStats(&before)
		if _, err := big.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if cold := float64(after.Mallocs - before.Mallocs); cold > warm+5 {
			t.Fatalf("with the pool emptied: %v allocations, warm %v", cold, warm)
		}
	}

	var golden, escaped Result
	for _, r := range []*Result{&golden, &escaped} {
		if err := r.UnmarshalJSON([]byte(goldenResult)); err != nil {
			t.Fatal(err)
		}
	}
	escaped.labels = []string{"\x00\x01\x02\x03", "\xff\xfe\xfd", "<>& "}
	escaped.PerSource = []SourceContribution{{Label: "\x1f\xff<", C: -math.MaxFloat64, Fraction: 5e-324}}
	for name, r := range map[string]*Result{"hopf": big, "golden": &golden, "escaped labels": &escaped} {
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if bound := r.Wire().encodeBound(); len(b) > bound {
			t.Errorf("%s: %d bytes over the bound of %d", name, len(b), bound)
		}
	}
}

// BenchmarkResultMarshalJSON encodes a real hopf result (0.47 MB): the
// cache payload every computed point is stored and served as. Its
// allocations are the two Floquet multiplier and exponent pairs and the
// output copy; the scratch buffer comes from the pool, sized once.
func BenchmarkResultMarshalJSON(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2, Sigma: 0.02}
	r, err := Characterise(h, []float64{1, 0.1}, h.Period()*1.05, nil)
	if err != nil {
		b.Fatal(err)
	}
	out, err := r.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = r.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}
