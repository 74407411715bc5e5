package cache

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/osc"
	"repro/internal/shooting"
)

// registryResult characterises a registry model at its defaults, the way the
// service does: the recommended start, a period estimate where the model has
// no closed form, and the recommended shooting steps.
func registryResult(tb testing.TB, name string) *core.Result {
	tb.Helper()
	m, err := osc.Build(name, nil)
	if err != nil {
		tb.Fatal(err)
	}
	x0, tGuess := m.X0, m.TGuess
	if tGuess == 0 {
		if tGuess, x0, err = shooting.EstimatePeriodBudget(m.Sys, x0, m.EstimateTMax, nil); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := core.Characterise(m.Sys, x0, tGuess, &core.Options{Shooting: &shooting.Options{StepsPerPeriod: m.ShootingSteps}})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// FuzzValid: the cache's JSON check accepts exactly what json.Valid accepts.
func FuzzValid(f *testing.F) {
	// A real payload: a hopf result, its orbit and v1 cut to three knots so
	// the fuzzer mutates a small input of the served shape.
	res := registryResult(f, "hopf")
	res.PSS.Orbit.Points = res.PSS.Orbit.Points[:3]
	res.Floquet.V1.Points = res.Floquet.V1.Points[:3]
	seed, err := res.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, s := range []string{
		`01`, `-01`, `1.`, `1.e5`, `.5`, `-`, `+1`, `1e`, `1e+`, `1E-07`, `-0.0e0`, `12345678901234567890.12345678e+123`,
		`[1,]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `[1 2]`, `[`, `]`, `{}`, `[]`, `{"a":[{}],"b":{"c":[]}}`, `[}`, `{]`,
		`"\`, `"\"`, `"a\qb"`, `"\u12"`, `"\u12G4"`, `"𝄞"`, `"\/\b\f\n\r\t"`,
		"\"tab\there\"", "\"nul\x00\"", "\"\x1f\"", "\"\x7f\xff\xfe\"", "\"\xe2\x80\xa8\"",
		`true`, `false`, `null`, `tru`, `nul`, `falsey`, `True`,
		`1 2`, `{} {}`, `null x`, "\t\n\r 1 \r\n\t", "\v1", "\xef\xbb\xbf1", "1\x00",
		``, ` `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Valid(data), json.Valid(data); got != want {
			t.Fatalf("Valid(%q) = %v, json.Valid = %v", data, got, want)
		}
	})
}

// TestValidNestingLimit: 10,000 levels are accepted and 10,001 are not, in
// arrays, objects and both alternating, as json.Valid does.
func TestValidNestingLimit(t *testing.T) {
	nest := func(levels int, object func(level int) bool) []byte {
		var open, close []string
		for l := 0; l < levels; l++ {
			if object(l) {
				open, close = append(open, `{"k":`), append(close, "}")
			} else {
				open, close = append(open, "["), append(close, "]")
			}
		}
		slices.Reverse(close)
		return []byte(strings.Join(open, "") + "1" + strings.Join(close, ""))
	}
	for _, c := range []struct {
		name   string
		object func(level int) bool
	}{
		{"arrays", func(int) bool { return false }},
		{"objects", func(int) bool { return true }},
		{"alternating", func(l int) bool { return l%2 == 1 }},
	} {
		for _, levels := range []int{maxDepth, maxDepth + 1} {
			data := nest(levels, c.object)
			want := levels <= maxDepth
			if got, oracle := Valid(data), json.Valid(data); got != want || oracle != want {
				t.Errorf("%s at %d levels: Valid = %v, json.Valid = %v, want %v", c.name, levels, got, oracle, want)
			}
		}
	}
}

// TestDoRejectsNonJSON: a computation that returns non-JSON fails its Do,
// and nothing is cached in either tier, so the next Do computes again.
func TestDoRejectsNonJSON(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range []string{"not json", `{"c":1e-9`, `[1,]`, `01`} {
		key := fmt.Sprintf("k%d", i)
		calls := 0
		compute := func() ([]byte, any, error) {
			calls++
			return []byte(bad), "note", nil
		}
		for round := 1; round <= 2; round++ {
			val, note, origin, err := s.Do(key, compute)
			if err == nil || val != nil || note != nil || origin != OriginComputed {
				t.Fatalf("%q round %d: Do = %q, %v, %v, %v; want a rejection", bad, round, val, note, origin, err)
			}
			if calls != round {
				t.Fatalf("%q round %d: %d computations, want %d (a rejected payload is not cached)", bad, round, calls, round)
			}
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("%q: rejected payload served by Get", bad)
		}
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("memory tier holds %d entries, %d bytes; want none", s.Len(), s.Bytes())
	}
}

// BenchmarkValid times the cache's JSON check against json.Valid on a real
// fhn payload, the largest of the registry's results.
func BenchmarkValid(b *testing.B) {
	res := registryResult(b, "fhn")
	data, err := res.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		check func([]byte) bool
	}{{"valid", Valid}, {"json.Valid", json.Valid}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.check(data) {
					b.Fatal("real payload rejected")
				}
			}
		})
	}
}
