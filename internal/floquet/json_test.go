package floquet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/ode"
)

// checkWireBytes: MarshalJSON writes exactly what encoding/json writes for
// the decomposition's wire struct.
func checkWireBytes(t *testing.T, d *Decomposition) {
	t.Helper()
	want, err := json.Marshal(d.Wire())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON:\n%s\nencoding/json of the wire struct:\n%s", got, want)
	}
}

// TestDecompositionJSONNonFinite: a strongly contractive orbit underflows a
// multiplier to 0, making its exponent log(0)/T = -Inf. JSON has no number
// form for Inf/NaN, so a naive codec rejects the whole decomposition — which
// made an otherwise ok point unserialisable through the result cache, the
// result spill and every retrieval that copies its records.
// Non-finite values must round-trip loss-free (as strings on the wire).
func TestDecompositionJSONNonFinite(t *testing.T) {
	d := &Decomposition{
		T:           2.5,
		Multipliers: []complex128{1, 0},
		Exponents:   []complex128{0, complex(math.Inf(-1), 0)},
		UnitErr:     math.Inf(1),
		ClosureErr:  math.NaN(),
	}
	checkWireBytes(t, d)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal with non-finite fields: %v", err)
	}
	var got Decomposition
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !math.IsInf(real(got.Exponents[1]), -1) {
		t.Errorf("exponent -Inf lost: got %v", got.Exponents[1])
	}
	if !math.IsInf(got.UnitErr, 1) {
		t.Errorf("UnitErr +Inf lost: got %v", got.UnitErr)
	}
	if !math.IsNaN(got.ClosureErr) {
		t.Errorf("ClosureErr NaN lost: got %v", got.ClosureErr)
	}
	if got.T != d.T || got.Multipliers[0] != 1 {
		t.Errorf("finite fields drifted: %+v", got)
	}
}

// TestDecompositionJSONFiniteStaysNumeric: finite decompositions must keep
// the plain-number wire form (old cache entries and old clients depend on
// it), and round-trip bit-exactly.
func TestDecompositionJSONFiniteStaysNumeric(t *testing.T) {
	d := &Decomposition{
		T:            1.25,
		Multipliers:  []complex128{1, complex(0.25, -0.125)},
		Exponents:    []complex128{0, complex(-1.1090354888959125, -0.4205343352839653)},
		U10:          []float64{1, 2},
		V10:          []float64{0.5, 0.25},
		UnitErr:      1e-12,
		ClosureErr:   3e-9,
		BiorthoDrift: 2e-8,
		V1:           &ode.Trajectory{Points: []ode.SamplePoint{{T: 0, X: []float64{0.5, 0.25}, DX: []float64{-1e-300, 3}}, {T: 1.25, X: []float64{0.5, 0.25}, DX: []float64{-1e-300, 3}}}},
	}
	checkWireBytes(t, d)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"Inf"`) || strings.Contains(string(data), `"NaN"`) {
		t.Fatalf("finite payload contains string-float forms: %s", data)
	}
	var got Decomposition
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	round, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != string(data) {
		t.Fatalf("round trip drifted:\n%s\n%s", data, round)
	}
}
