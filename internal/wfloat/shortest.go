package wfloat

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// The shortest-digit kernel behind AppendFloat: Schubfach (R. Giulietti,
// "The Schubfach way to render doubles", the algorithm of OpenJDK's
// DoubleToDecimal), changed in two places to give strconv's shortest rule
// instead of Java's (see schubfach), so that AppendFloat writes
// encoding/json's bytes without calling strconv.

// kMin and kMax bound the decimal exponent k that shortest scales by: 10^k
// is the largest power of ten at most 2^q (or ¾·2^q) for the binary
// exponents q of a float64, from the smallest subnormal to MaxFloat64.
const (
	kMin = -324
	kMax = 292
)

// pow10g[k-kMin] holds g(k) = ⌊10^−k·2^−r⌋ + 1 with r = ⌊−k·log₂10⌋ − 125,
// high 64 bits first: the upper approximation of 10^−k, scaled into
// [2^125, 2^126), that the three products of shortest multiply by.
var pow10g = func() (g [kMax - kMin + 1][2]uint64) {
	ten, one := big.NewInt(10), big.NewInt(1)
	for k := kMin; k <= kMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if r := flog2pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		var buf [16]byte
		num.Quo(num, den).Add(num, one).FillBytes(buf[:])
		g[k-kMin] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	return g
}()

// pow10u[i] = 10^i.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// flog10pow2 returns ⌊e·log₁₀2⌋, flog10ThreeQuartersPow2 ⌊log₁₀(¾·2^e)⌋
// and flog2pow10 ⌊e·log₂10⌋, exact over the exponents a float64 needs
// (Giulietti §6).
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// shortest returns the decimal f·10^e that strconv's shortest form writes
// for the positive finite float64 with bit pattern u: of the decimals that
// round to it, one with the fewest digits, and of those the closest (the
// even one on a tie). f may end in zeros.
func shortest(u uint64) (f uint64, e int) {
	t := u & (1<<52 - 1)
	switch bq := int(u >> 52); {
	case bq != 0:
		return schubfach(bq-1075, t|1<<52, 0)
	case t < 3:
		// The two smallest subnormals: 10·t with dk = −1 gives s two digits.
		return schubfach(-1074, 10*t, -1)
	}
	return schubfach(-1074, t, 0)
}

// schubfach returns the shortest decimal of c·2^q (divided by 10 when
// dk = −1), following Giulietti's figure 7 with two changes that turn
// Java's rule, which keeps at least two digits, into strconv's: the
// candidate one digit shorter is always tried (Java: only when s ≥ 100; s
// has at least two digits for every float64, since ⌊4.9·t⌋ ≥ 14 for a
// subnormal t ≥ 3), and it is returned with exponent k+dk, so the two
// smallest subnormals print as 5e-324 and 1e-323.
func schubfach(q int, c uint64, dk int) (uint64, int) {
	out := c & 1 // an odd c's rounding interval excludes its ends
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	var k int
	if c != 1<<52 || q == -1074 {
		k = flog10pow2(q)
	} else { // a power of two: the gap below is half the gap above
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &pow10g[k-kMin]
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	// vb, vbl and vbr are v and the ends of its rounding interval times
	// 4·10^−k, rounded to odd, so s = ⌊v·10^−k⌋. The candidates one digit
	// shorter are the multiples of 10 on either side of s.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k + dk
		}
		return tp10, k + dk
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k + dk
		}
		return t, k + dk
	}
	// Both s and t round to v: take the closer, the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k + dk
	}
	return t, k + dk
}

// rop returns cp·10^−k·2^−r/2^127 rounded to odd (its floor, with the
// lowest bit set when it is not an integer), computed as ⌊g·cp/2^64⌋/2^63.
// g overestimates 10^−k·2^−r by at most 1, so g·cp/2^127 exceeds the true
// quotient by less than 2^−67: dropping the product's low 64 bits drops that
// excess, and a true fraction is large enough to survive it (Giulietti §9.9).
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	_, inexact := bits.Add64(z<<1, 1<<64-1, 0)
	return (y1+carry)<<1 | z>>63 | inexact
}

// pairs holds the two-digit strings "00" to "99" back to back.
const pairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// put8 writes x < 10^8 as eight digits, leading zeros included.
func put8(d *[8]byte, x uint32) {
	hi, lo := x/10000, x%10000
	a, b, c, e := hi/100*2, hi%100*2, lo/100*2, lo%100*2
	d[0], d[1] = pairs[a], pairs[a+1]
	d[2], d[3] = pairs[b], pairs[b+1]
	d[4], d[5] = pairs[c], pairs[c+1]
	d[6], d[7] = pairs[e], pairs[e+1]
}

// decimalLen returns the number of decimal digits of f, 0 < f < 10^17.
func decimalLen(f uint64) int {
	n := flog10pow2(bits.Len64(f))
	if f >= pow10u[n] {
		n++
	}
	return n
}

// put17 writes f, 10^16 ≤ f < 10^17, as its 17 digits.
func put17(d *[17]byte, f uint64) {
	hm := f / 1e8
	hi := hm / 1e8
	d[0] = byte('0' + hi)
	put8((*[8]byte)(d[1:9]), uint32(hm-hi*1e8))
	put8((*[8]byte)(d[9:17]), uint32(f-hm*1e8))
}
