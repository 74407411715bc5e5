package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

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

// FuzzResultJSON: a payload the cached path accepts (it decodes and passes
// Check) never yields a result whose T, F0 or CornerFreq panics, and it
// re-encodes to bytes that decode to the same encoding.
func FuzzResultJSON(f *testing.F) {
	for _, s := range []string{
		// The result member of the sweep package's golden ok point.
		`{"pss":{"X0":[1,0.1],"T":3.141592653589793,"Orbit":{"Points":[{"T":0,"X":[1,0.1],"DX":[-0.2,2]},{"T":1.5707963267948966,"X":[-0.1,1],"DX":[-2,-0.2]}]},"Monodromy":{"Rows":2,"Cols":2,"Data":[1,0,0.25,0.0183]},"Residual":3.5e-13,"Iters":4},"floquet":{"t":3.141592653589793,"multipliers":[[1,0],[0.0183,-1e-300]],"exponents":[[0,0],["-Inf",3.141592653589793]],"u10":[-0.2,2],"v10":[-0.0498,0.4975],"v1":{"Points":[{"T":0,"X":[-0.0498,0.4975],"DX":[0.001,-0.025]},{"T":3.141592653589793,"X":[-0.0498,0.4975],"DX":[0.001,-0.025]}]},"unit_err":"Inf","closure_err":"NaN","biortho_drift":2.5e-16},"c":0.0001,"per_source":[{"label":"n&2","c":0.000075,"fraction":0.75},{"label":"n<1>","c":0.000025,"fraction":0.25}],"sensitivity":[0.00005,0.00015],"labels":["n<1>","n&2"]}`,
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
