package cache

import (
	"strings"
	"testing"
)

func TestFingerprintFieldOrderIndependence(t *testing.T) {
	a := NewFingerprint().
		Set("model", "hopf").
		SetFloat("param.omega", 6.28).
		SetFloats("x0", []float64{1, 0.1}).
		SetInt("steps", 2000)
	b := NewFingerprint().
		SetInt("steps", 2000).
		SetFloats("x0", []float64{1, 0.1}).
		SetFloat("param.omega", 6.28).
		Set("model", "hopf")
	if a.Key() != b.Key() {
		t.Fatalf("insertion order changed the key:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Fingerprint {
		return NewFingerprint().Set("model", "hopf").SetFloat("omega", 6.28).SetFloats("x0", []float64{1, 0})
	}
	key := base().Key()
	if got := base().Key(); got != key {
		t.Fatal("fingerprint is not deterministic")
	}
	variants := []*Fingerprint{
		base().Set("model", "vanderpol"),
		base().SetFloat("omega", 6.280000000001),
		base().SetFloats("x0", []float64{1, 1e-300}),
		base().SetFloats("x0", []float64{1}),
		base().Set("extra", ""),
	}
	for i, v := range variants {
		if v.Key() == key {
			t.Fatalf("variant %d collided with the base key", i)
		}
	}
}

func TestFingerprintAmbiguityResistance(t *testing.T) {
	// (k="ab", v="c") must differ from (k="a", v="bc") — the canonical form
	// is length-prefixed.
	a := NewFingerprint().Set("ab", "c")
	b := NewFingerprint().Set("a", "bc")
	if a.Key() == b.Key() {
		t.Fatal("key/value boundary is ambiguous")
	}
	// Two fields vs one concatenated field.
	c := NewFingerprint().Set("a", "1").Set("b", "2")
	d := NewFingerprint().Set("a", "1b=2")
	if c.Key() == d.Key() {
		t.Fatal("field boundary is ambiguous")
	}
}

func TestCharacterisationKeyStability(t *testing.T) {
	opts := map[string]string{"shoot.tol": "0x1p-30", "quadpoints": "0"}
	k1 := CharacterisationKey("hopf", map[string]float64{"omega": 3, "lambda": 1}, []float64{1, 0.1}, 2.1, opts)
	k2 := CharacterisationKey("hopf", map[string]float64{"lambda": 1, "omega": 3}, []float64{1, 0.1}, 2.1, opts)
	if k1 != k2 {
		t.Fatal("param map order changed the key")
	}
	k3 := CharacterisationKey("hopf", map[string]float64{"lambda": 1, "omega": 3.5}, []float64{1, 0.1}, 2.1, opts)
	if k1 == k3 {
		t.Fatal("param value change did not change the key")
	}
	if sum, ok := strings.CutPrefix(k1, FingerprintVersion+"-"); !ok || len(sum) != 64 {
		t.Fatalf("key is not the schema and a hex sha256: %q", k1)
	}
}
