package wfloat

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// boundaries are the float64s where a shortest-digit kernel is most likely
// to go wrong: zero, the ends of the subnormals, the format switches at
// 1e-6 and 1e21, the edge of exact integers and the largest finite value.
var boundaries = []float64{
	0, math.SmallestNonzeroFloat64, 1e-323, math.Float64frombits(1<<52 - 1), 0x1p-1022,
	math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
	math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, 1e22),
	1<<53 - 2, 1<<53 - 1, 1 << 53, 1<<53 + 2, math.MaxFloat64,
}

// checkJSON fails t unless AppendFloat writes encoding/json's bytes for v
// and for -v.
func checkJSON(t *testing.T, v float64) {
	t.Helper()
	for _, v := range []float64{v, -v} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), v)
		if err != nil || !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendFloat(%#016x) = %q, %v; encoding/json: %q", math.Float64bits(v), got[1:], err, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: the kernel writes encoding/json's
// bytes at every boundary, every power of two and of ten with both
// neighbours, the first 2^16 subnormals, and a seeded sweep of random bit
// patterns and of values in the payloads' range.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range boundaries {
		checkJSON(t, v)
	}
	checkJSON(t, 1<<53+1) // rounds to 2^53
	for u := uint64(1); u < 1<<16; u++ {
		checkJSON(t, math.Float64frombits(u))
	}
	around := func(v float64) {
		checkJSON(t, math.Nextafter(v, 0))
		checkJSON(t, v)
		checkJSON(t, math.Nextafter(v, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3<<17; i++ {
		if v := math.Float64frombits(r.Uint64()); v-v == 0 {
			checkJSON(t, v)
		}
		checkJSON(t, r.NormFloat64()*math.Pow(10, float64(r.Intn(17)-12)))
	}
}

// TestAppendFloatAllocs: with room in b, AppendFloat allocates nothing.
func TestAppendFloatAllocs(t *testing.T) {
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range boundaries {
			buf, _ = AppendFloat(buf[:0], -v)
			buf, _ = AppendFloat(buf[:0], v)
		}
	}); n != 0 {
		t.Fatalf("AppendFloat: %v allocations per run, want 0", n)
	}
}

// TestKernelPremises: the exponent functions are exact where shortest
// calls them, and every g(k) lies in [2^125, 2^126).
func TestKernelPremises(t *testing.T) {
	// cmp compares a·10^p with b·2^q exactly.
	cmp := func(a int64, p int, b int64, q int) int {
		l, r := big.NewInt(a), big.NewInt(b)
		ten := big.NewInt(10)
		if p >= 0 {
			l.Mul(l, new(big.Int).Exp(ten, big.NewInt(int64(p)), nil))
		} else {
			r.Mul(r, new(big.Int).Exp(ten, big.NewInt(int64(-p)), nil))
		}
		if q >= 0 {
			r.Lsh(r, uint(q))
		} else {
			l.Lsh(l, uint(-q))
		}
		return l.Cmp(r)
	}
	for q := -1074; q <= 971; q++ { // the binary exponents of c·2^q
		if k := flog10pow2(q); cmp(1, k, 1, q) > 0 || cmp(1, k+1, 1, q) <= 0 {
			t.Fatalf("flog10pow2(%d) = %d, want ⌊log₁₀ 2^%d⌋", q, k, q)
		}
		if k := flog10ThreeQuartersPow2(q); q > -1074 && (cmp(1, k, 3, q-2) > 0 || cmp(1, k+1, 3, q-2) <= 0) {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want ⌊log₁₀ ¾·2^%d⌋", q, k, q)
		}
	}
	for e := -kMax; e <= -kMin; e++ {
		if k := flog2pow10(e); cmp(1, e, 1, k) < 0 || cmp(1, e, 1, k+1) >= 0 {
			t.Fatalf("flog2pow10(%d) = %d, want ⌊log₂ 10^%d⌋", e, k, e)
		}
	}
	for i, g := range pow10g {
		if g[0]>>61 != 1 {
			t.Fatalf("g(%d) = %#x %016x, want 2^125 ≤ g < 2^126", i+kMin, g[0], g[1])
		}
	}
}

// FuzzWfloat: every float64 but NaN — ±Inf, -0 and subnormals included —
// round-trips bit-identical, and NaN decodes back to NaN. AppendFloat writes
// encoding/json's bytes for every finite float64 and fails where it fails.
func FuzzWfloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 1e-310} {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(0x000FFFFFFFFFFFFF)) // largest subnormal
	for _, v := range boundaries {
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(-v))
	}
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
